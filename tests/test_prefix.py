"""Tests for the checkpoint prefix-sum primitive (repro.common.prefix)
through its callers: the VOS bit arrays, the n_u counters, the exact
engine, and the checkpoint check the baseline driver shares."""
import itertools

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import driver, exact
from repro.common import hashing, prefix
from repro.core import vos
from repro.streams import generator

PARAMS = vos.VOSParams(k=64, m=4096, seed=7)
TINY_T = 2600  # above the tiny stream's last arrival (asserted below)

ENTRY_POINTS = {
    "build_bit_arrays": lambda sdf, cps: vos.build_bit_arrays(sdf, PARAMS, cps),
    "user_counts_at": lambda sdf, cps: vos.user_counts_at(sdf, cps),
    "exact_over_time": lambda sdf, cps: exact.exact_over_time(
        sdf, [1, 2], pd.DataFrame({"u": [1], "v": [2]}), cps
    ),
    "sketch_snapshots": lambda sdf, cps: driver.sketch_snapshots(sdf, [1, 2], cps, "oph", 8, 0),
}


class TestCheckCheckpoints:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_decreasing_checkpoints_rejected(self, tiny_stream_sdf, entry):
        """Row i of every result refers to checkpoints[i], so an
        unsorted list would silently misalign methods and truth."""
        with pytest.raises(ValueError, match="non-decreasing"):
            ENTRY_POINTS[entry](tiny_stream_sdf, [2000, 1000])

    def test_duplicates_allowed(self):
        assert prefix.check_checkpoints([5, 5, 9]) == [5, 5, 9]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            prefix.check_checkpoints([])


@st.composite
def checkpoint_sets(draw):
    """Non-decreasing times with a repeat, t = 0 (before the first edge)
    and a time past the last edge, so some intervals are empty."""
    inner = draw(st.lists(st.integers(1, TINY_T), min_size=1, max_size=5))
    cps = inner + [0, TINY_T + draw(st.integers(1, 100))]
    return sorted(cps + [draw(st.sampled_from(cps))])


@pytest.fixture(scope="module")
def tracked(tiny_stream_pdf):
    """The 8 largest final users plus one user with no edge, and every
    pair among them."""
    assert 0 < tiny_stream_pdf["t"].min() and tiny_stream_pdf["t"].max() < TINY_T
    card = generator.net_state(tiny_stream_pdf).groupby("user").size()
    top = np.sort(card.sort_values(ascending=False).index[:8].to_numpy(np.int64))
    users = np.append(top, tiny_stream_pdf["user"].max() + 1)
    pairs = pd.DataFrame(list(itertools.combinations(users, 2)), columns=["u", "v"])
    return users, pairs


N_PAIRS = 36  # C(9, 2) pairs of the ``tracked`` fixture


@settings(max_examples=8, deadline=None)
@given(
    cps=checkpoint_sets(),
    order=st.permutations(range(9)),
    swap=st.lists(st.booleans(), min_size=N_PAIRS, max_size=N_PAIRS),
)
def test_prefix_rules_match_pandas(tiny_stream_sdf, tiny_stream_pdf, tracked, cps, order, swap):
    """A, n_u and the exact pair table at every checkpoint equal the
    numpy / pandas prefix definitions, for users in any order and pairs
    written either way round."""
    t = tiny_stream_pdf["t"].to_numpy()
    user = tiny_stream_pdf["user"].to_numpy(np.int64)
    pos = hashing.vos_positions(
        user, tiny_stream_pdf["item"].to_numpy(np.int64), PARAMS.k, PARAMS.m, PARAMS.seed
    )
    A, betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, cps)
    assert A.shape == (len(cps), PARAMS.m)
    for row, c in enumerate(cps):
        ref = np.bincount(pos[t <= c], minlength=PARAMS.m) % 2
        assert (A[row] == ref).all(), f"checkpoint {c}"
        assert betas[row] == ref.mean()

    counts = vos.user_counts_at(tiny_stream_sdf, cps)
    all_users = np.unique(user)
    assert len(counts) == len(all_users) * len(cps)
    users, pairs = tracked
    assert len(users) == len(order) and len(pairs) == N_PAIRS
    swap = np.array(swap)
    pairs = pd.DataFrame(
        {
            "u": np.where(swap, pairs["v"], pairs["u"]),
            "v": np.where(swap, pairs["u"], pairs["v"]),
        }
    )
    truth = exact.exact_over_time(tiny_stream_sdf, users[list(order)], pairs, cps)
    assert len(truth) == len(pairs) * len(cps)
    for ci, c in enumerate(cps):
        ns = generator.net_state(tiny_stream_pdf, c)
        card = ns.groupby("user").size().reindex(all_users, fill_value=0)
        got = counts[counts["ckpt"] == ci].set_index("user")["n"]
        assert (got.reindex(all_users) == card).all(), f"n_u at {c}"

        sets = {u: set(g) for u, g in ns.groupby("user")["item"]}
        tr = truth[truth["ckpt"] == ci]
        assert (tr[["u", "v"]].to_numpy() == pairs.to_numpy()).all()
        for u, v, s, n_u, n_v in tr[["u", "v", "s", "n_u", "n_v"]].itertuples(index=False):
            su, sv = sets.get(u, set()), sets.get(v, set())
            assert (s, n_u, n_v) == (len(su & sv), len(su), len(sv)), f"({u}, {v}) at {c}"
