"""Tests for the per-user Spark replay driver (repro.baselines.driver)."""
import numpy as np
import pytest

from repro.baselines import BASELINES, driver

CHECKPOINTS = [800, 1600, 2400]
K, SEED = 16, 3


@pytest.fixture(scope="module")
def tracked_users(tiny_stream_pdf):
    counts = tiny_stream_pdf.groupby("user").size().sort_values(ascending=False)
    return [int(u) for u in counts.index[:6]]


@pytest.fixture(scope="module")
def snaps(tiny_stream_sdf, tracked_users):
    """Every method's snapshots of the tracked users, from one call."""
    return driver.sketch_snapshots(
        tiny_stream_sdf, tracked_users, CHECKPOINTS, list(BASELINES), K, SEED
    )


def local_replay(stream_pdf, user, method, k, seed, checkpoints):
    """Single-threaded reference replay of one user's edge sub-stream."""
    kern = BASELINES[method].kernel(user, k, seed)
    sub = stream_pdf[stream_pdf["user"] == user].sort_values("t")
    snaps, ci = [], 0
    cps = sorted(checkpoints)
    for t, item, action in sub[["t", "item", "action"]].itertuples(index=False):
        while ci < len(cps) and t > cps[ci]:
            snaps.append(kern.snapshot())
            ci += 1
        kern.update(int(item), int(action))
    while ci < len(cps):
        snaps.append(kern.snapshot())
        ci += 1
    return snaps


@pytest.mark.parametrize("method", list(BASELINES))
class TestSnapshotEquivalence:
    def test_matches_local_replay(self, snaps, tiny_stream_pdf, tracked_users, method):
        """applyInPandas registers == sequential kernel replay per user."""
        regs = driver.snapshots_to_matrix(snaps, tracked_users, len(CHECKPOINTS), K)[method]
        for row, u in enumerate(tracked_users):
            ref = local_replay(tiny_stream_pdf, u, method, K, SEED, CHECKPOINTS)
            for ci in range(len(CHECKPOINTS)):
                assert (regs[ci, row] == ref[ci]).all(), f"user {u} ckpt {ci}"

    def test_all_users_all_checkpoints_present(self, snaps, tracked_users, method):
        assert sorted(snaps["user"]) == sorted(tracked_users)
        assert all(len(regs) == len(CHECKPOINTS) * K for regs in snaps[method])
        regs = driver.snapshots_to_matrix(snaps, tracked_users, len(CHECKPOINTS), K)[method]
        assert regs.shape == (len(CHECKPOINTS), len(tracked_users), K)

    def test_edgeless_user_gets_empty_snapshots(self, tiny_stream_sdf, method):
        ghost = 10_000  # not in the stream
        out = driver.sketch_snapshots(tiny_stream_sdf, [ghost], CHECKPOINTS, [method], 8, 0)
        assert len(out) == 0
        regs = driver.snapshots_to_matrix(out, [ghost], len(CHECKPOINTS), 8)[method]
        assert regs.shape == (len(CHECKPOINTS), 1, 8)
        assert (regs == -1).all()


class TestMatrix:
    def test_snapshots_to_matrix_layout(self, snaps, tracked_users):
        """The user axis follows the caller's order, whatever it is; a
        user without edges among them is all −1."""
        ghost = 10_000
        base = driver.snapshots_to_matrix(snaps, tracked_users, len(CHECKPOINTS), K)
        order = list(np.random.default_rng(0).permutation(tracked_users)) + [ghost]
        mats = driver.snapshots_to_matrix(snaps, order, len(CHECKPOINTS), K)
        assert set(mats) == set(BASELINES)
        for method, mat in mats.items():
            assert mat.dtype == np.int64
            assert mat.shape == (len(CHECKPOINTS), len(order), K)
            for row, u in enumerate(order[:-1]):
                assert (mat[:, row] == base[method][:, tracked_users.index(u)]).all()
            assert (mat[:, -1] == -1).all()

    def test_unknown_method_raises(self, tiny_stream_sdf):
        with pytest.raises(ValueError, match="unknown method"):
            driver.sketch_snapshots(tiny_stream_sdf, [1], [10], ["minhash", "bogus"], 8, 0)

    def test_repeated_method_raises(self, tiny_stream_sdf):
        with pytest.raises(ValueError, match="distinct"):
            driver.sketch_snapshots(tiny_stream_sdf, [1], [10], ["oph", "oph"], 8, 0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_empty_sketch_rejected(self, tiny_stream_sdf, k):
        """k = 0 used to give all-empty registers and a NaN Ĵ."""
        with pytest.raises(ValueError, match="k >= 1"):
            driver.sketch_snapshots(tiny_stream_sdf, [1], [10], ["minhash"], k, 0)


def test_all_methods_in_one_pass(spark, tiny_stream_sdf, tracked_users):
    """Three methods launch no more Spark jobs than one method does."""
    sc = spark.sparkContext

    def jobs(methods):
        group = f"test-driver-one-pass-{len(methods)}"
        sc.setJobGroup(group, group)
        try:
            driver.sketch_snapshots(tiny_stream_sdf, tracked_users, CHECKPOINTS, methods, 8, 0)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        return len(sc.statusTracker().getJobIdsForGroup(group))

    one = jobs(["minhash"])
    assert 0 < jobs(list(BASELINES)) <= one
