"""Prefix sums over a stream at checkpoint times (paper §IV).

Every time-dependent quantity of the reproduction is a prefix rule over
edges with arrival ≤ t: the bit A[p] at time t is the parity of the
flips of position p, and item i is in S_u iff the (u, i) occurrence
count is odd (so n_u = |S_u| is the number of odd counts of u).
``checkpoint_prefix_sums`` computes such a count for many checkpoint
times in one aggregation whose cost does not grow with the number of
checkpoints.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def check_checkpoints(checkpoints: Sequence[int]) -> list[int]:
    """Checkpoint times as ints; ``ValueError`` if empty or decreasing.

    Row i of every per-checkpoint result refers to ``checkpoints[i]``,
    so a caller's order is kept, and it must be the time order.
    Repeated times are allowed.
    """
    cps = [int(c) for c in checkpoints]
    if not cps:
        raise ValueError("need at least one checkpoint")
    if any(b < a for a, b in zip(cps, cps[1:])):
        raise ValueError(f"checkpoints must be non-decreasing, got {cps}")
    return cps


def checkpoint_prefix_sums(
    df: DataFrame,
    keys: Sequence[str],
    checkpoints: Sequence[int],
) -> tuple[pd.DataFrame, np.ndarray]:
    """The number of rows with ``t`` ≤ c, per key, for each checkpoint c.

    Returns ``(key_frame, sums)``: the distinct keys of ``df`` sorted
    ascending (pandas, one column per key) and a (n_keys, C) int64
    matrix whose row r, column i is the number of key r's rows with
    ``t <= checkpoints[i]``.

    Each row is tagged with its checkpoint interval (the first i with
    ``t <= checkpoints[i]``), one ``groupBy(*keys, interval)`` counts the
    rows, and the driver scatters the counts into a dense matrix and
    takes a cumulative sum along the checkpoint axis. Rows after the
    last checkpoint fall into one extra interval that is cut off at the
    end, so a key seen only after it still gets a row of zeros.
    """
    cps = check_checkpoints(checkpoints)
    keys = list(keys)
    interval = F.when(F.col("t") <= cps[0], 0)
    for i, c in enumerate(cps[1:], 1):
        interval = interval.when(F.col("t") <= c, i)
    rows = (
        df.groupBy(*keys, interval.otherwise(len(cps)).alias("_interval"))
        .agg(F.count(F.lit(1)).alias("_count"))
        .toPandas()
    )
    key_frame = rows[keys].drop_duplicates().sort_values(keys, ignore_index=True)
    codes = rows.groupby(keys, sort=True).ngroup().to_numpy()
    sums = np.zeros((len(key_frame), len(cps) + 1), dtype=np.int64)
    # (key, interval) is unique after the groupBy, so plain assignment.
    sums[codes, rows["_interval"].to_numpy(np.int64)] = rows["_count"].to_numpy(np.int64)
    return key_frame, np.cumsum(sums, axis=1)[:, : len(cps)]
