"""Integration tests for the Fig 3 accuracy harness (repro.eval.harness)."""
import pathlib

import numpy as np
import pandas as pd
import pytest

from repro.eval import harness


@pytest.fixture(scope="module")
def tiny_results(spark):
    """One full 4-method run on the tiny dataset (shared by the class)."""
    return harness.run_accuracy(
        spark, "tiny", k_reg=32, n_checkpoints=4, top_n=8, seed=0
    )


class TestRunAccuracy:
    def test_table_complete(self, tiny_results):
        assert set(tiny_results["method"]) == set(harness.METHODS)
        assert set(tiny_results["ckpt"]) == {0, 1, 2, 3}
        assert len(tiny_results) == 4 * 4

    def test_columns(self, tiny_results):
        assert list(tiny_results.columns) == [
            "dataset", "method", "ckpt", "t", "n_pairs", "aape", "armse",
        ]

    def test_metrics_finite_and_positive(self, tiny_results):
        assert np.isfinite(tiny_results["aape"]).all()
        assert np.isfinite(tiny_results["armse"]).all()
        assert (tiny_results["aape"] >= 0).all()
        assert (tiny_results["armse"] >= 0).all()

    def test_armse_bounded_by_one(self, tiny_results):
        """Ĵ and J both live in [0,1], so ARMSE ≤ 1."""
        assert (tiny_results["armse"] <= 1.0).all()

    def test_pair_count_consistent(self, tiny_results):
        assert tiny_results["n_pairs"].nunique() == 1
        assert (tiny_results["n_pairs"] > 0).all()

    def test_checkpoint_times_increase(self, tiny_results):
        one = tiny_results[tiny_results["method"] == "vos"].sort_values("ckpt")
        assert (np.diff(one["t"]) > 0).all()

    def test_rp_is_least_accurate(self, tiny_results):
        """The paper's robust ordering: RP's independent-sample
        estimator is by far the noisiest at every scale."""
        final = tiny_results[tiny_results["ckpt"] == 3].set_index("method")
        others = [m for m in harness.METHODS if m != "rp"]
        assert final.loc["rp", "aape"] > max(final.loc[m, "aape"] for m in others)
        assert final.loc["rp", "armse"] > max(final.loc[m, "armse"] for m in others)

    def test_method_subset(self, spark):
        out = harness.run_accuracy(
            spark, "tiny", k_reg=16, n_checkpoints=2, top_n=5, seed=1,
            methods=("vos", "oph"),
        )
        assert set(out["method"]) == {"vos", "oph"}

    @pytest.mark.parametrize(
        "kwargs",
        [{"methods": ("vos", "bogus")}, {"methods": ("vos", "vos")}, {"k_reg": 0}],
        ids=["unknown", "repeated", "k_reg=0"],
    )
    def test_bad_arguments_rejected_before_spark(self, kwargs):
        """With no Spark session to run on, the error must come first:
        an unknown method used to fail only after the truth and VOS jobs,
        and a repeated one silently doubled its rows."""
        with pytest.raises(ValueError):
            harness.run_accuracy(None, "tiny", **kwargs)

    def test_deterministic(self, spark, tiny_results):
        again = harness.run_accuracy(
            spark, "tiny", k_reg=32, n_checkpoints=4, top_n=8, seed=0
        )
        # RP uses per-user seeded RNGs, VOS/MinHash/OPH pure hashing —
        # the whole experiment must be reproducible bit-for-bit.
        assert again.equals(tiny_results)


class TestCommittedFig3Table:
    def test_youtube_matches_results_csv(self, spark):
        """The committed results/fig3_accuracy.csv youtube rows are what
        ``jobs/fig3_accuracy.py`` prints at its defaults; a change that
        moves them must regenerate the file and say why."""
        csv = pathlib.Path(__file__).resolve().parent.parent / "results" / "fig3_accuracy.csv"
        want = pd.read_csv(csv)
        want = want[want["dataset"] == "youtube"].sort_values(["method", "ckpt"], ignore_index=True)
        got = harness.run_accuracy(
            spark, "youtube", k_reg=100, n_checkpoints=10, top_n=50, seed=0
        )
        exact_cols = ["method", "ckpt", "t", "n_pairs"]
        pd.testing.assert_frame_equal(got[exact_cols], want[exact_cols])
        for col in ("aape", "armse"):
            np.testing.assert_allclose(got[col], want[col], rtol=1e-12, err_msg=col)
