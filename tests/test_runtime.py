"""Tests for the Fig 2 runtime harness (repro.eval.runtime)."""
import numpy as np
import pytest

from repro.eval import METHODS, runtime


class TestStreamArrays:
    def test_shapes_and_feasibility(self):
        u, i, a = runtime.stream_arrays("tiny", n_edges=500, seed=0)
        assert u.shape == i.shape == a.shape == (500,)
        assert set(np.unique(a)) <= {-1, 1}

    def test_prefix_property(self):
        u1, i1, _ = runtime.stream_arrays("tiny", n_edges=100, seed=0)
        u2, i2, _ = runtime.stream_arrays("tiny", n_edges=200, seed=0)
        assert (u1 == u2[:100]).all() and (i1 == i2[:100]).all()


class TestEdgesFor:
    @pytest.mark.parametrize("method", ["vos", "oph"])
    def test_o1_methods_get_cap(self, method):
        assert runtime.edges_for(method, 1) == runtime.edges_for(method, 100_000)

    @pytest.mark.parametrize("method", ["minhash", "rp"])
    def test_ok_methods_scale_down(self, method):
        assert runtime.edges_for(method, 100_000) < runtime.edges_for(method, 100)

    def test_minimum_floor(self):
        assert runtime.edges_for("minhash", 10**9) >= 200


class TestRunners:
    @pytest.mark.parametrize("method", METHODS)
    def test_runner_processes_stream(self, method):
        u, i, a = runtime.stream_arrays("tiny", n_edges=300, seed=0)
        runtime.make_runner(method, 16)(u, i, a)  # must not raise

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            runtime.make_runner("bogus", 8)

    def test_vos_runner_state_matches_kernel(self):
        """The timed VOS runner is the real kernel, not a stub: its
        final state equals a direct sequential replay."""
        from repro.core import vos

        u, i, a = runtime.stream_arrays("tiny", n_edges=400, seed=0)
        params = vos.VOSParams(k=16, m=1 << 21, seed=7)
        ref = vos.VOSKernel(params)
        for uu, ii, aa in zip(u, i, a):
            ref.update(int(uu), int(ii), int(aa))
        run = runtime.make_runner("vos", 16)
        run(u, i, a)
        # reach into the closure for the kernel it mutated
        kern = run.__closure__[0].cell_contents
        assert (kern.A == ref.A).all()


class TestTimeMethod:
    @pytest.mark.parametrize("method", METHODS)
    def test_returns_positive_time(self, method):
        out = runtime.time_method(method, 8, dataset="tiny", n_edges=200)
        assert out["us_per_edge"] > 0
        assert out["n_edges"] == 200
        assert out["method"] == method and out["k"] == 8

    def test_sweep_table_complete(self):
        t = runtime.runtime_sweep(ks=(1, 8), methods=("vos", "oph"), dataset="tiny")
        assert len(t) == 4
        assert set(t.columns) >= {"method", "k", "n_edges", "us_per_edge"}

    def test_complexity_shape(self):
        """The paper's Fig 2 claim, loosely: MinHash per-edge cost grows
        much faster in k than VOS's. Timing is noisy, so compare at a
        4096x k ratio and only require a 5x separation in growth."""
        mh_small = runtime.time_method("minhash", 4, dataset="tiny", n_edges=300)
        mh_big = runtime.time_method("minhash", 16384, dataset="tiny", n_edges=300)
        vos_small = runtime.time_method("vos", 4, dataset="tiny", n_edges=300)
        vos_big = runtime.time_method("vos", 16384, dataset="tiny", n_edges=300)
        mh_growth = mh_big["us_per_edge"] / mh_small["us_per_edge"]
        vos_growth = vos_big["us_per_edge"] / vos_small["us_per_edge"]
        assert mh_growth > 5 * vos_growth
