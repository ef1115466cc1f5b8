"""Accuracy experiment harness — reproduces Figure 3 as numeric tables.

Protocol (paper §V): generate a dataset's fully dynamic stream, track
the pairs among the largest-cardinality users that share ≥ 1 item at
the end, give every method the same memory budget m = 32·k_reg·|U| bits
(k_reg 32-bit registers per user for MinHash/OPH/RP; VOS gets the
shared bit array of that length with per-user virtual sketch size
k_vos = λ·32·k_reg, λ = 2), and report AAPE(ŝ) and ARMSE(Ĵ) at
checkpoint times spread over the stream. Exact n_u counters are
available to all methods, as in the paper. Truth and every method's
estimates are (checkpoint × pair) arrays, and the metrics are taken
per checkpoint row.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..baselines import BASELINES, driver, exact
from ..core import estimator, vos
from ..streams import datasets, generator
from . import METHODS, metrics


def estimate_vos(
    edges,
    users: np.ndarray,
    iu: np.ndarray,
    iv: np.ndarray,
    n_u: np.ndarray,
    n_v: np.ndarray,
    checkpoints: Sequence[int],
    params: vos.VOSParams,
) -> tuple[np.ndarray, np.ndarray]:
    """VOS (ŝ, Ĵ) as (checkpoint × pair) arrays.

    Pair p joins the users at rows ``iu[p]`` and ``iv[p]`` of ``users``;
    ``n_u``/``n_v`` are the pairs' exact cardinalities, (checkpoint × pair).
    """
    A, betas = vos.build_bit_arrays(edges, params, checkpoints)
    s_hat = np.empty(n_u.shape)
    for ci, (row, beta) in enumerate(zip(A, betas)):
        sk = vos.rebuild_user_sketches(users, row, params)
        alpha = estimator.pair_alpha(sk[iu], sk[iv])
        s_hat[ci] = estimator.estimate_common(n_u[ci], n_v[ci], alpha, beta, params.k)
    return s_hat, estimator.jaccard_from_common(s_hat, n_u, n_v)


def estimate_baseline(
    regs: np.ndarray,
    iu: np.ndarray,
    iv: np.ndarray,
    n_u: np.ndarray,
    n_v: np.ndarray,
    method: str,
) -> tuple[np.ndarray, np.ndarray]:
    """MinHash/OPH/RP (ŝ, Ĵ) as (checkpoint × pair) arrays from the
    method's (checkpoint × user × register) ``regs``; the pair arguments
    are those of ``estimate_vos``."""
    est = BASELINES[method].estimate_pairs
    s_hat, j_hat = zip(*(est(r[iu], r[iv], nu, nv) for r, nu, nv in zip(regs, n_u, n_v)))
    return np.stack(s_hat), np.stack(j_hat)


def run_accuracy(
    spark: SparkSession,
    dataset: str = "youtube",
    *,
    k_reg: int = 100,
    lam: int = 2,
    n_checkpoints: int = 10,
    top_n: int = 50,
    seed: int = 0,
    methods: Sequence[str] = METHODS,
) -> pd.DataFrame:
    """Full Fig 3-style experiment on one dataset.

    Returns a long table: dataset, method, ckpt, t, n_pairs, aape,
    armse. Checkpoint times are i/n_checkpoints of the stream length.
    Unknown or repeated ``methods`` and an empty sketch size raise
    ``ValueError`` before any Spark job runs.
    """
    if not set(methods) <= set(METHODS) or len(set(methods)) < len(methods):
        raise ValueError(f"methods must be distinct names from {METHODS}, got {list(methods)}")
    stream_pdf, spec = datasets.make_stream(dataset, seed=seed)
    params = vos.VOSParams.paper_budget(spec.n_users, k_reg=k_reg, lam=lam, seed=seed + 7)
    total = len(stream_pdf)
    checkpoints = [round(total * (i + 1) / n_checkpoints) for i in range(n_checkpoints)]
    edges = generator.to_spark(spark, stream_pdf).cache()
    try:
        users, pairs = exact.select_tracked(edges, top_n)
        truth = exact.exact_over_time(edges, users, pairs, checkpoints)
        # exact_over_time rows run checkpoint-major, then in pair order.
        s, n_u, n_v, j = (
            truth[col].to_numpy(np.float64).reshape(n_checkpoints, len(pairs))
            for col in ("s", "n_u", "n_v", "j")
        )
        index = pd.Index(users)
        iu, iv = index.get_indexer(pairs["u"]), index.get_indexer(pairs["v"])
        sketched = tuple(m for m in methods if m != "vos")
        regs = {}
        if sketched:
            snaps = driver.sketch_snapshots(edges, users, checkpoints, sketched, k_reg, seed + 13)
            regs = driver.snapshots_to_matrix(snaps, users, n_checkpoints, k_reg)

        rows = []
        for method in methods:
            if method == "vos":
                s_hat, j_hat = estimate_vos(edges, users, iu, iv, n_u, n_v, checkpoints, params)
            else:
                s_hat, j_hat = estimate_baseline(regs[method], iu, iv, n_u, n_v, method)
            rows += [
                {
                    "dataset": dataset,
                    "method": method,
                    "ckpt": ci,
                    "t": t,
                    "n_pairs": len(pairs),
                    "aape": metrics.aape(s[ci], s_hat[ci]),
                    "armse": metrics.armse(j[ci], j_hat[ci]),
                }
                for ci, t in enumerate(checkpoints)
            ]
        return pd.DataFrame(rows).sort_values(["method", "ckpt"]).reset_index(drop=True)
    finally:
        edges.unpersist()

