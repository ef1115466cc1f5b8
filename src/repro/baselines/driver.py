"""Distributed per-user sequential sketching via ``applyInPandas``.

MinHash/OPH/RP state evolves *sequentially* along each user's edge
sub-stream (deletions make the update order-dependent — that is the
paper's point), but users are independent of each other. So the natural
Spark layout is: group the stream by user, replay each user's edges in
arrival order inside an ``applyInPandas`` kernel, and emit register
snapshots at the requested checkpoint times. Only tracked users (the
paper's largest-cardinality selection) need sketches for estimation, so
the stream is semi-filtered first.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..common import prefix
from . import baseline

SNAPSHOT_SCHEMA = T.StructType(
    [
        T.StructField("user", T.LongType(), False),
        T.StructField("ckpt", T.IntegerType(), False),
        T.StructField("regs", T.ArrayType(T.LongType()), False),
    ]
)


def sketch_snapshots(
    edges: DataFrame,
    users: Sequence[int],
    checkpoints: Sequence[int],
    method: str,
    k: int,
    seed: int,
) -> pd.DataFrame:
    """Register snapshots (user, ckpt, regs[k]) at each checkpoint time.

    ``regs`` holds sampled item ids, −1 for an empty register. Snapshot
    at checkpoint c reflects all of the user's edges with t ≤ c.
    """
    factory = baseline(method).kernel
    cps = prefix.check_checkpoints(checkpoints)
    user_list = [int(u) for u in users]

    def replay(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("t")
        user = int(pdf["user"].iloc[0])
        kern = factory(user, k, seed)
        rows: list[tuple[int, int, list[int]]] = []
        ci = 0
        for t, item, action in pdf[["t", "item", "action"]].itertuples(index=False):
            while ci < len(cps) and t > cps[ci]:
                rows.append((user, ci, kern.snapshot().tolist()))
                ci += 1
            kern.update(int(item), int(action))
        snap = kern.snapshot().tolist()
        while ci < len(cps):
            rows.append((user, ci, snap))
            ci += 1
        return pd.DataFrame(rows, columns=["user", "ckpt", "regs"])

    out = (
        edges.where(F.col("user").isin(user_list))
        .groupBy("user")
        .applyInPandas(replay, SNAPSHOT_SCHEMA)
        .toPandas()
    )
    # Users with no edges at all still need (empty) snapshots.
    missing = set(user_list) - set(out["user"].unique())
    if missing:
        empty = np.full(k, -1, dtype=np.int64).tolist()
        out = pd.concat(
            [out]
            + [
                pd.DataFrame({"user": u, "ckpt": range(len(cps)), "regs": [empty] * len(cps)})
                for u in sorted(missing)
            ],
            ignore_index=True,
        )
    return out.sort_values(["user", "ckpt"]).reset_index(drop=True)


def snapshots_to_matrix(
    snaps: pd.DataFrame, users: Sequence[int], ckpt: int, k: int
) -> np.ndarray:
    """(len(users), k) int64 register matrix for one checkpoint."""
    sel = snaps[snaps["ckpt"] == ckpt].set_index("user")["regs"]
    mat = np.full((len(users), k), -1, dtype=np.int64)
    for row, u in enumerate(users):
        mat[row] = np.asarray(sel.loc[int(u)], dtype=np.int64)
    return mat
