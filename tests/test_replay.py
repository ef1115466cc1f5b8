"""Property test: each baseline's vectorised ``replay`` equals its
sequential kernel at every checkpoint cut (pure numpy, no Spark)."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BASELINES, minhash


def kernel_replay(method, user, items, actions, snap, k, seed):
    """The kernel's registers after the first ``snap[c]`` edges."""
    kern = BASELINES[method].kernel(user, k, seed)
    out, done = [], 0
    for upto in snap:
        for item, action in zip(items[done:upto].tolist(), actions[done:upto].tolist()):
            kern.update(item, action)
        done = upto
        out.append(kern.snapshot())
    return np.array(out, dtype=np.int64).reshape(len(snap), k)


@st.composite
def feasible_streams(draw):
    """Toggles over a small item pool: an item is deleted iff it is in
    the set, so + and − alternate per item and items come back."""
    toggles = draw(st.lists(st.integers(0, 7), max_size=60))
    present: set[int] = set()
    actions = []
    for item in toggles:
        actions.append(-1 if item in present else 1)
        present ^= {item}
    n = len(toggles)
    # Cuts with a repeat, 0 and one past the last edge.
    cuts = draw(st.lists(st.integers(0, n), min_size=1, max_size=6))
    snap = np.array(sorted(cuts + [cuts[0], 0, n]), dtype=np.int64)
    return np.array(toggles, dtype=np.int64), np.array(actions, dtype=np.int64), snap


@pytest.mark.parametrize("method", list(BASELINES))
@settings(max_examples=150, deadline=None)
@given(
    stream=feasible_streams(),
    k=st.integers(1, 20),
    seed=st.integers(0, 2**16),
    user=st.integers(0, 10_000),
    block=st.sampled_from([1, 7, minhash.BLOCK_ELEMENTS]),
)
def test_replay_matches_kernel(method, stream, k, seed, user, block):
    items, actions, snap = stream
    with mock.patch.object(minhash, "BLOCK_ELEMENTS", block):
        got = BASELINES[method].replay(user, items, actions, snap, k, seed)
    ref = kernel_replay(method, user, items, actions, snap, k, seed)
    assert got.dtype == np.int64 and got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)
