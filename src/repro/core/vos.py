"""VOS — virtual odd sketch over a shared bit array (paper §IV).

Structure: a shared bit array ``A`` of ``m`` bits, ``ψ`` mapping items
to {0..k−1}, and ``f_1..f_k`` mapping users to positions in A. Each
edge (u, i, ±) flips the single bit ``A[f_ψ(i)(u)]`` — identical O(1)
work for insertions and deletions, which is exactly why VOS is unbiased
on fully dynamic streams.

Because xor is commutative and associative, the state of A at time t is
the *parity of the flip count per position* over all edges with
arrival ≤ t. That makes the sequential per-edge definition expressible
as a Catalyst aggregation — ``groupBy(pos).count() % 2`` — which is how
``build_bit_arrays`` builds A (for many checkpoints in a single pass:
``common.prefix.checkpoint_prefix_sums`` counts flips per position and
checkpoint interval and takes prefix sums on the driver). The batch
path takes the exact n_u counters from ``baselines.exact``, which reads
them off the same primitive. ``VOSKernel`` is the paper's sequential
O(1) update loop, with its own n_u counters, used for the runtime
experiment (Fig 2) and as the reference the distributed builds are
tested against; the Structured Streaming operator lives in
``streaming.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..common import hashing, prefix


@dataclass(frozen=True)
class VOSParams:
    """VOS configuration.

    ``k``: virtual sketch bits per user (the paper sets k = λ·32·k_reg,
    λ = 2 against baselines with k_reg 32-bit registers).
    ``m``: shared bit-array length (paper: m = 32·k_reg·|U| bits, the
    same total memory the baselines use).
    """

    k: int
    m: int
    seed: int = 7

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ValueError(f"VOS needs k >= 1 and m >= 1, got k={self.k}, m={self.m}")

    @staticmethod
    def paper_budget(n_users: int, k_reg: int = 100, lam: int = 2, seed: int = 7) -> "VOSParams":
        """The paper's §V memory accounting: m = 32·k_reg·|U|, k = λ·32·k_reg."""
        return VOSParams(k=lam * 32 * k_reg, m=32 * k_reg * n_users, seed=seed)


def with_positions(edges: DataFrame, params: VOSParams) -> DataFrame:
    """Append the flipped bit position ``pos = f_ψ(item)(user)`` per edge."""
    k, m, seed = params.k, params.m, params.seed

    @F.pandas_udf(T.LongType())
    def pos_udf(user: pd.Series, item: pd.Series) -> pd.Series:
        return pd.Series(
            hashing.vos_positions(
                user.to_numpy(np.int64), item.to_numpy(np.int64), k, m, seed
            )
        )

    return edges.withColumn("pos", pos_udf("user", "item"))


def build_bit_arrays(
    edges: DataFrame, params: VOSParams, checkpoints: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Build A at each checkpoint time in one distributed pass.

    Returns ``(A, beta)`` where ``A`` is a (n_checkpoints, m) uint8 bit
    matrix and ``beta[c]`` the fraction of 1-bits at checkpoint c.
    One shuffle: flips counted per (position, checkpoint interval);
    parity taken on the prefix sums (≤ n_edges distinct positions).
    """
    keys, flips = prefix.checkpoint_prefix_sums(
        with_positions(edges, params), ["pos"], checkpoints
    )
    A = np.zeros((flips.shape[1], params.m), dtype=np.uint8)
    A[:, keys["pos"].to_numpy(np.int64)] = (flips % 2).T
    return A, A.mean(axis=1)


def rebuild_user_sketches(users, A_row: np.ndarray, params: VOSParams) -> np.ndarray:
    """Ô_u[j] = A[f_j(u)] for each user — (n_users, k) uint8 matrix."""
    us = np.asarray(users, dtype=np.int64)
    j = np.arange(params.k, dtype=np.int64)
    pos = hashing.f_positions(us[:, None], j[None, :], params.m, params.seed)
    return A_row[pos]


class VOSKernel:
    """Sequential O(1)-per-edge VOS update — the paper's Algorithm.

    Maintains A, the running 1-bit fraction β (the paper's incremental
    counter), and per-user item counters n_u. Used by the Fig 2 runtime
    harness and as the ground truth for the distributed builds.
    """

    def __init__(self, params: VOSParams):
        self.params = params
        self.A = np.zeros(params.m, dtype=np.uint8)
        self.ones = 0
        self.n: dict[int, int] = {}

    @property
    def beta(self) -> float:
        return self.ones / self.params.m

    def update(self, user: int, item: int, action: int) -> None:
        """Process one edge: one hash, one bit flip, two counter bumps."""
        p = self.params
        pos = int(hashing.vos_positions([user], [item], p.k, p.m, p.seed)[0])
        new = self.A[pos] ^ 1
        self.A[pos] = new
        # β ← β ± 1/m, the paper's running-fraction update, kept exact
        # as an integer 1-bit count.
        self.ones += 1 if new else -1
        self.n[user] = self.n.get(user, 0) + (1 if action > 0 else -1)

    def sketch(self, user: int) -> np.ndarray:
        """Rebuilt virtual sketch Ô_u of one user."""
        return rebuild_user_sketches([user], self.A, self.params)[0]
