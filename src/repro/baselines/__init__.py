"""Baselines from the paper: dynamic MinHash, OPH, RP, and exact truth.

``BASELINES`` is the one table of the per-user sketch methods: the Fig 3
Spark driver, the Fig 3 harness and the Fig 2 runtime harness all read
it. VOS is not in it because its state is one global bit array, not a
sketch per user.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import minhash, oph, rp


@dataclass(frozen=True)
class Baseline:
    """One per-user sketch method.

    ``kernel(user, k, seed)`` makes the user's sequential update kernel
    (``update(item, action)``, ``snapshot()``), the Fig 2 loop;
    ``replay(user, items, actions, snap, k, seed)`` gives the (C, k)
    registers that kernel holds after the first ``snap[c]`` of the
    user's edges, as the Fig 3 driver needs them; ``estimate_pairs(regs_u,
    regs_v, n_u, n_v)`` turns two register matrices into (ŝ, Ĵ);
    ``o1_update`` says whether one update touches O(1) registers
    rather than O(k).
    """

    kernel: Callable[[int, int, int], object]
    replay: Callable
    estimate_pairs: Callable
    o1_update: bool


BASELINES = {
    "minhash": Baseline(
        lambda user, k, seed: minhash.MinHashKernel(k, seed),
        minhash.replay,
        minhash.estimate_pairs,
        False,
    ),
    "oph": Baseline(
        lambda user, k, seed: oph.OPHKernel(k, seed), oph.replay, oph.estimate_pairs, True
    ),
    "rp": Baseline(
        lambda user, k, seed: rp.RPKernel(k, seed, user=user), rp.replay, rp.estimate_pairs, False
    ),
}


def baseline(method: str) -> Baseline:
    """The table entry of ``method``; ``ValueError`` for an unknown name."""
    if method not in BASELINES:
        raise ValueError(f"unknown method {method!r}; baselines are {sorted(BASELINES)}")
    return BASELINES[method]
