"""Exact ground truth: memberships, cardinalities, and pair similarities.

On a feasible dynamic stream, item i is in S_u at time t iff the number
of (u, i, ·) elements with arrival ≤ t is odd (insertions and deletions
of an edge strictly alternate). Every exact quantity derives from that
parity rule:

* ``present`` / ``cardinalities`` / ``pair_commons`` — Spark
  DataFrame computations (one parity aggregation, then a self-join on
  item for pairs); these are what the DuckDB oracle cross-checks.
* ``select_tracked`` — the paper's §V selection: users with the largest
  final cardinalities, pairs among them sharing ≥ 1 item at the end.
* ``exact_over_time`` — the evaluation fast path: one
  ``common.prefix.checkpoint_prefix_sums`` pass gives the per-(user,
  item) occurrence count at every checkpoint, whose parity is
  membership; pair intersections are then computed driver-side over the
  (small) tracked subset.
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


def pair_commons(
    edges: DataFrame, t: int | None = None, users: Sequence[int] | None = None
) -> DataFrame:
    """Exact s_uv (u < v, s ≥ 1) at time t via a self-join on item."""
    p = present(edges, t)
    if users is not None:
        p = p.where(F.col("user").isin([int(u) for u in users]))
    a = p.alias("a")
    b = p.alias("b")
    return (
        a.join(b, on=(F.col("a.item") == F.col("b.item")) & (F.col("a.user") < F.col("b.user")))
        .groupBy(F.col("a.user").alias("u"), F.col("b.user").alias("v"))
        .agg(F.count(F.lit(1)).alias("s"))
    )


def select_tracked(
    edges: DataFrame, top_n: int
) -> tuple[np.ndarray, pd.DataFrame]:
    """Paper §V selection at final time.

    Returns (tracked user ids ascending, pairs DataFrame with columns
    u, v, s_final) — the pairs among the ``top_n`` largest-cardinality
    users that share at least one item when the whole stream has
    arrived. Ties broken by user id for determinism.
    """
    card = cardinalities(edges).toPandas()
    card = card.sort_values(["n", "user"], ascending=[False, True])
    users = np.sort(card["user"].to_numpy(np.int64)[:top_n])
    pairs = (
        pair_commons(edges, users=users)
        .toPandas()
        .rename(columns={"s": "s_final"})
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    return users, pairs


def exact_over_time(
    edges: DataFrame,
    users: Sequence[int],
    pairs: pd.DataFrame,
    checkpoints: Sequence[int],
) -> pd.DataFrame:
    """Exact (u, v, ckpt) → s, n_u, n_v, j for tracked pairs.

    One Spark aggregation produces, per tracked (user, item), the
    occurrence count at every checkpoint; parities and pairwise
    intersections are then computed on the driver (tracked users are a
    few dozen, so this is tiny).
    """
    tracked = edges.where(F.col("user").isin([int(u) for u in users]))
    keys, counts = prefix.checkpoint_prefix_sums(tracked, ["user", "item"], checkpoints)
    out_rows = []
    pu = pairs["u"].to_numpy(np.int64)
    pv = pairs["v"].to_numpy(np.int64)
    for ci in range(counts.shape[1]):
        pres = keys[counts[:, ci] % 2 == 1]
        sets: dict[int, frozenset] = {
            int(u): frozenset(g) for u, g in pres.groupby("user")["item"]
        }
        empty: frozenset = frozenset()
        for u, v in zip(pu, pv):
            su = sets.get(int(u), empty)
            sv = sets.get(int(v), empty)
            s = len(su & sv)
            nu, nv = len(su), len(sv)
            out_rows.append((int(u), int(v), ci, s, nu, nv))
    out = pd.DataFrame(out_rows, columns=["u", "v", "ckpt", "s", "n_u", "n_v"])
    out["j"] = estimator.jaccard_from_common(
        out["s"].to_numpy(), out["n_u"].to_numpy(), out["n_v"].to_numpy()
    )
    return out
