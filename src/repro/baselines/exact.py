"""Exact ground truth: memberships, cardinalities, and pair similarities.

On a feasible dynamic stream, item i is in S_u at time t iff the number
of (u, i, ·) elements with arrival ≤ t is odd (insertions and deletions
of an edge strictly alternate). Every exact quantity derives from that
parity rule. ``present`` / ``cardinalities`` are one Spark parity
aggregation. ``select_tracked`` (the paper's §V pair selection) and
``exact_over_time`` (s, n_u, n_v, J per checkpoint) share
``_tracked_counts``: prefix parity from ``common.prefix`` plus one
driver-side matrix product. The tests check all of them against DuckDB.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..common import prefix
from ..core import estimator


def present(edges: DataFrame, t: int | None = None) -> DataFrame:
    """Edges present at time t (columns user, item) via occurrence parity."""
    df = edges if t is None else edges.where(F.col("t") <= int(t))
    return (
        df.groupBy("user", "item")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .where(F.col("cnt") % 2 == 1)
        .select("user", "item")
    )


def cardinalities(edges: DataFrame, t: int | None = None) -> DataFrame:
    """|S_u| at time t, one row per user with a non-empty set."""
    return present(edges, t).groupBy("user").agg(F.count(F.lit(1)).alias("n"))


def _tracked_counts(
    edges: DataFrame, users: np.ndarray, checkpoints: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(s, n) for ``users`` at every checkpoint, in the order given.

    ``s[c, a, b]`` = |S_users[a] ∩ S_users[b]| and ``n[c, a]`` =
    |S_users[a]| at ``checkpoints[c]``. Membership is the parity of the
    (user, item) prefix count, scattered into a (C, users, items) bool
    array M; then s = M @ Mᵀ per checkpoint and n = Σ_items M.
    """
    tracked = edges.where(F.col("user").isin([int(u) for u in users]))
    keys, counts = prefix.checkpoint_prefix_sums(tracked, ["user", "item"], checkpoints)
    rows = pd.Index(users).get_indexer(keys["user"])
    cols, items = pd.factorize(keys["item"])
    member = np.zeros((counts.shape[1], len(users), len(items)), dtype=bool)
    member[:, rows, cols] = (counts % 2 == 1).T
    s = np.stack([mc.astype(np.int64) @ mc.T for mc in member])
    return s, member.sum(axis=-1)


def select_tracked(
    edges: DataFrame, top_n: int
) -> tuple[np.ndarray, pd.DataFrame]:
    """Paper §V selection at final time.

    Returns (tracked user ids ascending, pairs DataFrame with columns
    u, v, s_final, sorted by (u, v)) — the pairs among the ``top_n``
    largest-cardinality users that share at least one item when the
    whole stream has arrived. Ties broken by user id for determinism.
    """
    card = cardinalities(edges).toPandas()
    card = card.sort_values(["n", "user"], ascending=[False, True])
    users = np.sort(card["user"].to_numpy(np.int64)[:top_n])
    s, _ = _tracked_counts(edges, users, [np.iinfo(np.int64).max])
    iu, iv = np.triu_indices(len(users), 1)
    s_final = s[0, iu, iv]
    keep = s_final > 0
    pairs = pd.DataFrame({"u": users[iu[keep]], "v": users[iv[keep]], "s_final": s_final[keep]})
    return users, pairs


def exact_over_time(
    edges: DataFrame,
    users: Sequence[int],
    pairs: pd.DataFrame,
    checkpoints: Sequence[int],
) -> pd.DataFrame:
    """Exact (u, v, ckpt) → s, n_u, n_v, j for tracked pairs.

    Rows run checkpoint-major, then in the order of ``pairs``. Every
    pair member must be in ``users`` (``ValueError`` otherwise).
    """
    users = np.asarray(users, dtype=np.int64)
    pu = pairs["u"].to_numpy(np.int64)
    pv = pairs["v"].to_numpy(np.int64)
    index = pd.Index(users)
    iu, iv = index.get_indexer(pu), index.get_indexer(pv)
    missing = np.union1d(pu[iu < 0], pv[iv < 0])
    if missing.size:
        raise ValueError(f"pair users not in users: {missing.tolist()}")
    s, n = _tracked_counts(edges, users, checkpoints)
    n_ckpt = s.shape[0]
    out = pd.DataFrame(
        {
            "u": np.tile(pu, n_ckpt),
            "v": np.tile(pv, n_ckpt),
            "ckpt": np.repeat(np.arange(n_ckpt, dtype=np.int64), len(pairs)),
            "s": s[:, iu, iv].ravel(),
            "n_u": n[:, iu].ravel(),
            "n_v": n[:, iv].ravel(),
        }
    )
    out["j"] = estimator.jaccard_from_common(
        out["s"].to_numpy(), out["n_u"].to_numpy(), out["n_v"].to_numpy()
    )
    return out
