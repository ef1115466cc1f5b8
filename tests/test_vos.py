"""Tests for the distributed VOS build (repro.core.vos) against the
sequential kernel and the DuckDB oracle."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core import estimator, vos
from repro.oracle import assert_equivalent
from repro.streams import generator

PARAMS = vos.VOSParams(k=64, m=4096, seed=7)


@pytest.fixture(scope="module")
def kernel_ref(tiny_stream_pdf):
    """Sequential replay of the whole tiny stream — the ground truth."""
    kern = vos.VOSKernel(PARAMS)
    for t, u, i, a in tiny_stream_pdf.itertuples(index=False):
        kern.update(u, i, a)
    return kern


class TestBatchBuild:
    def test_final_bit_array_equals_sequential(self, tiny_stream_sdf, tiny_stream_pdf, kernel_ref):
        T = int(tiny_stream_pdf["t"].max())
        A, betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, [T])
        assert (A[0] == kernel_ref.A).all()
        assert betas[0] == pytest.approx(kernel_ref.beta)

    def test_checkpoint_prefixes(self, tiny_stream_sdf, tiny_stream_pdf):
        """Each checkpoint row equals a sequential replay of the prefix."""
        T = int(tiny_stream_pdf["t"].max())
        cps = [T // 4, T // 2, T]
        A, betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, cps)
        for row, c in enumerate(cps):
            kern = vos.VOSKernel(PARAMS)
            prefix = tiny_stream_pdf[tiny_stream_pdf["t"] <= c]
            for t, u, i, a in prefix.itertuples(index=False):
                kern.update(u, i, a)
            assert (A[row] == kern.A).all(), f"checkpoint {c}"
            assert betas[row] == pytest.approx(kern.beta)

    def test_depends_only_on_net_state(self, spark, tiny_stream_pdf):
        """xor cancellation: A from the full history equals A built from
        the net present edges only (each as a single insertion)."""
        T = int(tiny_stream_pdf["t"].max())
        sdf = generator.to_spark(spark, tiny_stream_pdf)
        A_hist, _ = vos.build_bit_arrays(sdf, PARAMS, [T])
        ns = generator.net_state(tiny_stream_pdf).copy()
        ns["t"] = np.arange(1, len(ns) + 1)
        ns["action"] = 1
        sdf_net = generator.to_spark(spark, ns[["t", "user", "item", "action"]])
        A_net, _ = vos.build_bit_arrays(sdf_net, PARAMS, [len(ns)])
        assert (A_hist[0] == A_net[0]).all()

    def test_parity_agg_vs_duckdb_oracle(self, tiny_stream_sdf, tiny_stream_pdf):
        """The Catalyst parity aggregation == the same SQL on DuckDB."""
        pos_sdf = vos.with_positions(tiny_stream_sdf, PARAMS)
        spark_parity = (
            pos_sdf.groupBy("pos")
            .agg((F.count(F.lit(1)) % 2).alias("bit"))
            .select("pos", "bit")
        )
        from repro.common import hashing

        pos_pdf = tiny_stream_pdf.copy()
        pos_pdf["pos"] = hashing.vos_positions(
            pos_pdf["user"].to_numpy(np.int64),
            pos_pdf["item"].to_numpy(np.int64),
            PARAMS.k,
            PARAMS.m,
            PARAMS.seed,
        )
        assert_equivalent(
            spark_parity,
            "SELECT pos, CAST(COUNT(*) % 2 AS BIGINT) AS bit FROM posed GROUP BY pos",
            posed=pos_pdf,
        )

    def test_beta_is_mean_of_bits(self, tiny_stream_sdf, tiny_stream_pdf):
        T = int(tiny_stream_pdf["t"].max())
        A, betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, [T])
        assert betas[0] == pytest.approx(A[0].mean())


class TestRebuild:
    def test_matches_kernel_sketch(self, kernel_ref):
        users = [1, 2, 5, 17]
        mat = vos.rebuild_user_sketches(users, kernel_ref.A, PARAMS)
        for row, u in enumerate(users):
            assert (mat[row] == kernel_ref.sketch(u)).all()

    def test_shape_and_dtype(self, kernel_ref):
        mat = vos.rebuild_user_sketches([1, 2], kernel_ref.A, PARAMS)
        assert mat.shape == (2, PARAMS.k)
        assert set(np.unique(mat)) <= {0, 1}


class TestKernel:
    def test_beta_bounds(self, kernel_ref):
        assert 0 <= kernel_ref.beta < 0.5

    def test_insert_delete_roundtrip(self):
        kern = vos.VOSKernel(PARAMS)
        kern.update(3, 14, 1)
        kern.update(3, 14, -1)
        assert kern.A.sum() == 0
        assert kern.beta == 0.0
        assert kern.n[3] == 0

    def test_each_update_flips_one_bit(self):
        kern = vos.VOSKernel(PARAMS)
        prev = kern.A.copy()
        for i in range(50):
            kern.update(1, i, 1)
            assert (kern.A != prev).sum() == 1
            prev = kern.A.copy()

    def test_paper_budget(self):
        p = vos.VOSParams.paper_budget(1000, k_reg=100, lam=2)
        assert p.m == 32 * 100 * 1000
        assert p.k == 2 * 32 * 100

    @pytest.mark.parametrize(
        "make",
        [
            lambda: vos.VOSParams.paper_budget(1000, k_reg=0),
            lambda: vos.VOSParams.paper_budget(0, k_reg=100),
            lambda: vos.VOSParams(k=0, m=4096),
            lambda: vos.VOSParams(k=64, m=0),
        ],
        ids=["k_reg=0", "no-users", "k=0", "m=0"],
    )
    def test_empty_sketch_rejected(self, make):
        """k = 0 or m = 0 used to fail later, in a modulo by zero."""
        with pytest.raises(ValueError, match="k >= 1 and m >= 1"):
            make()


class TestEndToEndAccuracy:
    def test_similarity_estimate_tracks_truth(self, spark):
        """Full VOS chain on a controlled stream with deletions: the
        estimate lands near the true s (well within the odd-sketch
        error band for these parameters)."""
        import pandas as pd

        params = vos.VOSParams(k=2048, m=1 << 18, seed=3)
        n, s_true = 300, 150
        su = list(range(n))
        sv = list(range(n - s_true, 2 * n - s_true))
        rows = []
        t = 1
        # interleave insertions plus some insert+delete churn noise
        for i in su:
            rows.append((t, 1, i, 1)); t += 1
        for i in sv:
            rows.append((t, 2, i, 1)); t += 1
        for i in range(5000, 5200):  # churn on another user
            rows.append((t, 3, i, 1)); t += 1
            rows.append((t, 3, i, -1)); t += 1
        pdf = pd.DataFrame(rows, columns=["t", "user", "item", "action"])
        sdf = generator.to_spark(spark, pdf)
        A, betas = vos.build_bit_arrays(sdf, params, [t])
        sk = vos.rebuild_user_sketches([1, 2], A[0], params)
        alpha = float((sk[0] != sk[1]).mean())
        s_hat = float(estimator.estimate_common(n, n, alpha, betas[0], params.k))
        assert abs(s_hat - s_true) < 35
