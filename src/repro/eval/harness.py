"""Accuracy experiment harness — reproduces Figure 3 as numeric tables.

Protocol (paper §V): generate a dataset's fully dynamic stream, track
the pairs among the largest-cardinality users that share ≥ 1 item at
the end, give every method the same memory budget m = 32·k_reg·|U| bits
(k_reg 32-bit registers per user for MinHash/OPH/RP; VOS gets the
shared bit array of that length with per-user virtual sketch size
k_vos = λ·32·k_reg, λ = 2), and report AAPE(ŝ) and ARMSE(Ĵ) at
checkpoint times spread over the stream. Exact n_u counters are
available to all methods, as in the paper.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..baselines import BASELINES, driver, exact
from ..core import estimator, vos
from ..streams import datasets, generator
from . import METHODS, metrics


def _pair_indices(users: np.ndarray, pairs: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of each pair's two users in the sorted ``users`` array."""
    iu = np.searchsorted(users, pairs["u"].to_numpy(np.int64))
    iv = np.searchsorted(users, pairs["v"].to_numpy(np.int64))
    return iu, iv


def _pair_estimates(
    users: np.ndarray,
    pairs: pd.DataFrame,
    truth: pd.DataFrame,
    n_checkpoints: int,
    estimate_at: Callable,
) -> pd.DataFrame:
    """(ŝ, Ĵ) for every tracked pair at every checkpoint.

    ``estimate_at(ci, iu, iv, n_u, n_v)`` returns one method's (ŝ, Ĵ)
    arrays at checkpoint ``ci`` for the pairs whose users sit at rows
    ``iu`` and ``iv`` of ``users``, given their exact n_u and n_v.
    """
    iu, iv = _pair_indices(users, pairs)
    keys = list(zip(pairs["u"], pairs["v"]))
    frames = []
    for ci in range(n_checkpoints):
        tr = truth[truth["ckpt"] == ci].set_index(["u", "v"]).loc[keys]
        nu = tr["n_u"].to_numpy(np.float64)
        nv = tr["n_v"].to_numpy(np.float64)
        s_hat, j_hat = estimate_at(ci, iu, iv, nu, nv)
        frames.append(
            pd.DataFrame(
                {
                    "u": pairs["u"],
                    "v": pairs["v"],
                    "ckpt": ci,
                    "s_hat": s_hat,
                    "j_hat": j_hat,
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def estimate_vos(
    edges,
    users: np.ndarray,
    pairs: pd.DataFrame,
    truth: pd.DataFrame,
    checkpoints: Sequence[int],
    params: vos.VOSParams,
) -> pd.DataFrame:
    """VOS (ŝ, Ĵ) for every tracked pair at every checkpoint."""
    A, betas = vos.build_bit_arrays(edges, params, checkpoints)

    def estimate_at(ci, iu, iv, nu, nv):
        sk = vos.rebuild_user_sketches(users, A[ci], params)
        alpha = estimator.pair_alpha(sk[iu], sk[iv])
        s_hat = estimator.estimate_common(nu, nv, alpha, betas[ci], params.k)
        return s_hat, estimator.jaccard_from_common(s_hat, nu, nv)

    return _pair_estimates(users, pairs, truth, len(checkpoints), estimate_at)


def estimate_baseline(
    edges,
    users: np.ndarray,
    pairs: pd.DataFrame,
    truth: pd.DataFrame,
    checkpoints: Sequence[int],
    method: str,
    k_reg: int,
    seed: int,
) -> pd.DataFrame:
    """MinHash/OPH/RP (ŝ, Ĵ) for every tracked pair at every checkpoint."""
    snaps = driver.sketch_snapshots(edges, users, checkpoints, method, k_reg, seed)
    est = BASELINES[method].estimate_pairs

    def estimate_at(ci, iu, iv, nu, nv):
        mat = driver.snapshots_to_matrix(snaps, users, ci, k_reg)
        return est(mat[iu], mat[iv], nu, nv)

    return _pair_estimates(users, pairs, truth, len(checkpoints), estimate_at)


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
    """
    stream_pdf, spec = datasets.make_stream(dataset, seed=seed)
    total = len(stream_pdf)
    checkpoints = [round(total * (i + 1) / n_checkpoints) for i in range(n_checkpoints)]
    edges = generator.to_spark(spark, stream_pdf).cache()
    try:
        users, pairs = exact.select_tracked(edges, top_n)
        truth = exact.exact_over_time(edges, users, pairs, checkpoints)
        params = vos.VOSParams.paper_budget(spec.n_users, k_reg=k_reg, lam=lam, seed=seed + 7)

        rows = []
        for method in methods:
            if method == "vos":
                ests = estimate_vos(edges, users, pairs, truth, checkpoints, params)
            else:
                ests = estimate_baseline(
                    edges, users, pairs, truth, checkpoints, method, k_reg, seed + 13
                )
            merged = truth.merge(ests, on=["u", "v", "ckpt"], validate="1:1")
            for ci, grp in merged.groupby("ckpt"):
                rows.append(
                    {
                        "dataset": dataset,
                        "method": method,
                        "ckpt": int(ci),
                        "t": checkpoints[int(ci)],
                        "n_pairs": len(grp),
                        "aape": metrics.aape(grp["s"], grp["s_hat"]),
                        "armse": metrics.armse(grp["j"], grp["j_hat"]),
                    }
                )
        return pd.DataFrame(rows).sort_values(["method", "ckpt"]).reset_index(drop=True)
    finally:
        edges.unpersist()


def run_all_datasets(
    spark: SparkSession,
    names: Sequence[str] = ("youtube", "flickr", "orkut", "livejournal"),
    **kwargs,
) -> pd.DataFrame:
    """Fig 3(b)/(d): the final-checkpoint row of every dataset."""
    frames = [run_accuracy(spark, name, **kwargs) for name in names]
    full = pd.concat(frames, ignore_index=True)
    last = full.groupby("dataset")["ckpt"].transform("max")
    return full[full["ckpt"] == last].reset_index(drop=True)
