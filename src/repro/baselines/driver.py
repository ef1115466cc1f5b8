"""Distributed per-user replay of the baseline sketches via ``applyInPandas``.

MinHash/OPH/RP state evolves *sequentially* along each user's edge
sub-stream (deletions make the update order-dependent — that is the
paper's point), but users are independent of each other. So the natural
Spark layout is: group the stream by user, and inside one
``applyInPandas`` replay each user's edges in arrival order through
every requested method's ``replay`` at once, emitting its registers at
the checkpoint times. Only tracked users (the paper's largest-
cardinality selection) need sketches for estimation, so the stream is
semi-filtered first, and the driver scatters the one collected row per
user into a (checkpoint × user × register) array per method.
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


def sketch_snapshots(
    edges: DataFrame,
    users: Sequence[int],
    checkpoints: Sequence[int],
    methods: Sequence[str],
    k: int,
    seed: int,
) -> pd.DataFrame:
    """One row per user with edges: ``user`` and, per method, a flat
    C·k array of its registers (checkpoint-major).

    Registers hold sampled item ids, −1 for an empty register. The
    registers at checkpoint c reflect all of the user's edges with
    t ≤ c. One ``applyInPandas`` pass covers every method.
    """
    methods = list(methods)
    tables = {m: baseline(m).replay for m in methods}
    if not methods or len(tables) < len(methods):
        raise ValueError(f"need distinct baseline methods, got {methods}")
    if k < 1:
        raise ValueError(f"need k >= 1 registers, got {k}")
    cps = np.asarray(prefix.check_checkpoints(checkpoints), dtype=np.int64)
    schema = T.StructType(
        [T.StructField("user", T.LongType(), False)]
        + [T.StructField(m, T.ArrayType(T.LongType()), False) for m in methods]
    )

    def replay(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("t")
        user = int(pdf["user"].iloc[0])
        items = pdf["item"].to_numpy(np.int64)
        actions = pdf["action"].to_numpy(np.int64)
        snap = np.searchsorted(pdf["t"].to_numpy(np.int64), cps, side="right")
        row = {m: [run(user, items, actions, snap, k, seed).ravel()] for m, run in tables.items()}
        return pd.DataFrame({"user": [user], **row})

    return (
        edges.where(F.col("user").isin([int(u) for u in users]))
        .groupBy("user")
        .applyInPandas(replay, schema)
        .toPandas()
    )


def snapshots_to_matrix(
    snaps: pd.DataFrame, users: Sequence[int], n_checkpoints: int, k: int
) -> dict[str, np.ndarray]:
    """``{method: (n_checkpoints, len(users), k) int64}`` registers, the
    user axis in the order of ``users``; a user without edges is all −1."""
    rows = pd.Index(snaps["user"]).get_indexer([int(u) for u in users])
    found = rows >= 0
    out = {}
    for m in snaps.columns.drop("user"):
        mat = np.full((n_checkpoints, len(rows), k), -1, dtype=np.int64)
        if found.any():
            regs = np.stack(snaps[m].to_numpy()[rows[found]]).reshape(-1, n_checkpoints, k)
            mat[:, found] = regs.transpose(1, 0, 2)
        out[m] = mat
    return out
