"""MinHash extended to fully dynamic streams (paper §III, cases 1–3).

k independent hash functions; register j holds ``φ_j(S_u)``, the item
with minimum ``h_j`` seen so far. The paper's dynamic extension:

* case 1, insert i: take i if the register is empty or ``h_j(i)`` beats
  the current minimum — O(k) per edge;
* case 2, delete i when ``φ_j = i``: register becomes ∅ (the sketch
  cannot know the runner-up — this is the *sampling bias* the paper
  exposes: the register stays empty, or is refilled only by later
  insertions, so it no longer holds a uniform sample of S_u);
* case 3, delete i when ``φ_j ≠ i``: no-op.

So a register holds the minimum-hash item among the inserts made since
it last emptied, until that item is deleted. ``MinHashKernel`` applies
the rule one edge at a time (the Fig 2 loop); ``replay`` reads a whole
user sub-stream at checkpoint cuts with ``segment_scan``, one vectorised
running minimum per emptying round, and equals the kernel bit for bit.

Estimator: Ĵ = (1/k)·Σ_j 1(φ_j(S_u) = φ_j(S_v) ≠ ∅), then
ŝ = Ĵ·(n_u + n_v)/(1 + Ĵ) using the exact n_u counters.
"""
from __future__ import annotations

import numpy as np

from ..common import hashing
from ..core import estimator

EMPTY = np.int64(-1)
_MAXH = np.uint64(0xFFFFFFFFFFFFFFFF)
# Elements per (edges × registers) block of a replay: the scan's
# temporaries stay bounded whatever k is.
BLOCK_ELEMENTS = 1 << 18


class MinHashKernel:
    """Per-user dynamic MinHash state: k (item, hash) registers."""

    def __init__(self, k: int, seed: int):
        self.k = k
        self.seed = seed
        self.items = np.full(k, EMPTY, dtype=np.int64)
        self.hashes = np.full(k, _MAXH, dtype=np.uint64)

    def update(self, item: int, action: int) -> None:
        if action > 0:
            h = hashing.minhash_values(item, self.k, self.seed)
            take = (self.items == EMPTY) | (h < self.hashes)
            self.items[take] = item
            self.hashes[take] = h[take]
        else:
            gone = self.items == item
            self.items[gone] = EMPTY
            self.hashes[gone] = _MAXH

    def snapshot(self) -> np.ndarray:
        return self.items.copy()


def segment_scan(items: np.ndarray, actions: np.ndarray, snap, k: int, block) -> np.ndarray:
    """(C, k) registers of the dynamic min-hash rule at checkpoint cuts.

    ``items``/``actions`` are one user's n edges in arrival order, and
    ``snap[c]`` is the number of them checkpoint c has seen.
    ``block(j)`` gives ``(keys, competes)`` for the register numbers
    ``j``, both broadcastable to (n, len(j)): register j's hash of each
    edge's item, and whether the edge is an insert that register j sees
    (every insert for MinHash, the inserts of bin j for OPH). Registers
    go in blocks of about ``BLOCK_ELEMENTS`` (edge, register) cells.
    """
    n = len(items)
    step = max(1, BLOCK_ELEMENTS // max(n, 1))
    at = np.asarray(snap, dtype=np.int64) - 1  # the last edge each checkpoint saw
    return np.hstack(
        [
            _scan_block(items, actions, at, *block(np.arange(j, min(j + step, k))))
            for j in range(0, k, step)
        ]
    )


def _scan_block(items, actions, at, keys, competes) -> np.ndarray:
    """``segment_scan`` of one block of registers.

    A round of register j starts where it last emptied (at edge 0
    first). Its value after edge r is the minimum-key competing insert
    in [start, r]; the round ends at the first delete of that value,
    which empties the register. Each pass of the loop runs one round of
    every register still open, as one running minimum down the edges.
    """
    n, kb = np.broadcast_shapes(keys.shape, competes.shape, (len(items), 1))
    keys, competes = np.broadcast_to(keys, (n, kb)), np.broadcast_to(competes, (n, kb))
    out = np.full((len(at), kb), EMPTY, dtype=np.int64)
    start = np.zeros(kb, dtype=np.int64)
    cols = np.arange(kb if n else 0)
    while cols.size:
        s0 = int(start[cols].min())
        row = np.arange(s0, n)[:, None]
        live = competes[s0:, cols] & (row >= start[cols])
        key = np.where(live, keys[s0:, cols], _MAXH)
        best = np.minimum.accumulate(key, axis=0)
        # Each register's hash is a bijection of the item, so the
        # minimum belongs to the last competing edge that carries it.
        arg = np.maximum.accumulate(np.where(live & (key == best), row, -1), axis=0)
        regs = np.where(arg >= 0, items[arg], EMPTY)
        held = np.vstack([np.full((1, cols.size), EMPTY), regs[:-1]])
        ends = (actions[s0:, None] < 0) & (items[s0:, None] == held)
        closed = ends.any(axis=0)
        end = np.where(closed, s0 + ends.argmax(axis=0), n)
        seen = (at[:, None] >= start[cols]) & (at[:, None] < end)
        out[:, cols] = np.where(seen, regs[np.clip(at - s0, 0, None)], out[:, cols])
        start[cols] = end + 1
        cols = cols[closed & (end + 1 < n)]
    return out


def replay(user: int, items, actions, snap, k: int, seed: int) -> np.ndarray:
    """(C, k) registers of a ``MinHashKernel`` fed the int64 arrays
    ``items``/``actions`` in order, read after the first ``snap[c]`` edges."""
    inserts = (actions > 0)[:, None]
    return segment_scan(
        items,
        actions,
        snap,
        k,
        lambda j: (hashing.hash_pair_u64(items[:, None], j[None, :], seed), inserts),
    )


def static_sketch(items, k: int, seed: int) -> np.ndarray:
    """Reference MinHash of a static set (argmin over the hash matrix)."""
    it = np.asarray(items, dtype=np.int64)
    if it.size == 0:
        return np.full(k, EMPTY, dtype=np.int64)
    mat = hashing.minhash_matrix(it, k, seed)
    return it[np.argmin(mat, axis=0)]


def estimate_pairs(regs_u: np.ndarray, regs_v: np.ndarray, n_u, n_v):
    """(ŝ, Ĵ) for (n_pairs, k) register matrices of the two pair sides."""
    match = (regs_u == regs_v) & (regs_u != EMPTY)
    j_hat = match.mean(axis=-1)
    s_hat = estimator.clamp_common(
        estimator.common_from_jaccard(j_hat, n_u, n_v), n_u, n_v
    )
    return s_hat, np.clip(j_hat, 0.0, 1.0)
