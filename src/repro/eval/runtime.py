"""Per-edge update runtime harness — reproduces Figure 2 as tables.

Measures the wall time of the *sketch update* per stream edge for each
method as the sketch size k grows, on a prefix of a dataset's dynamic
stream. The per-edge kernels are the paper's update rules one edge at a
time, and the reference the Fig 3 Spark replay is tested against (RP
runs its kernel there; MinHash/OPH a vectorised scan of the same rule).
Timing them single-threaded isolates the per-edge complexity (the
paper's quantity) from scheduling noise.

The reproduced claim is the complexity *shape*: VOS and OPH touch O(1)
registers per edge so their per-edge time is flat in k, while MinHash
(k hash evaluations) and RP (k sampler draws) grow linearly in k.
Absolute µs are Python/numpy figures, not the authors' C figures.

The edge count is scaled down as k grows (MinHash at k = 10⁵ does 10⁵
numpy ops per edge) so one sweep stays fast; per-edge time is what is
reported, so the scaling does not affect the measured quantity.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np
import pandas as pd

from ..baselines import baseline
from ..core import vos
from ..streams import datasets
from . import METHODS


def stream_arrays(dataset: str = "youtube", *, n_edges: int, seed: int = 0):
    """(users, items, actions) numpy prefix of a dataset's dynamic stream."""
    stream, _ = datasets.make_stream(dataset, seed=seed)
    head = stream.head(n_edges)
    return (
        head["user"].to_numpy(np.int64),
        head["item"].to_numpy(np.int64),
        head["action"].to_numpy(np.int64),
    )


def make_runner(method: str, k: int, seed: int = 7) -> Callable:
    """Edge-stream processor for one method at sketch size k."""
    if method == "vos":
        # VOS state is global, not per-user; m fixed at 2^21 bits (its
        # per-edge cost depends on neither k nor m).
        kern = vos.VOSKernel(vos.VOSParams(k=k, m=1 << 21, seed=seed))

        def run(users, items, actions):
            for u, i, a in zip(users.tolist(), items.tolist(), actions.tolist()):
                kern.update(u, i, a)

        return run
    new_kernel = baseline(method).kernel

    def run(users, items, actions):
        kernels: dict[int, object] = {}
        for u, i, a in zip(users.tolist(), items.tolist(), actions.tolist()):
            kern = kernels.get(u)
            if kern is None:
                kern = kernels[u] = new_kernel(u, k, seed)
            kern.update(i, a)

    return run


def edges_for(method: str, k: int, *, budget_ops: int = 4_000_000, cap: int = 20_000) -> int:
    """Edge count keeping the sweep bounded: O(1) methods get the cap,
    O(k) methods get ~budget_ops/k edges (≥ 200)."""
    if method == "vos" or baseline(method).o1_update:
        return cap
    return max(200, min(cap, budget_ops // max(k, 1)))


def time_method(
    method: str, k: int, *, dataset: str = "youtube", seed: int = 0, n_edges: int | None = None
) -> dict:
    """One (method, k) measurement → per-edge microseconds."""
    n = n_edges if n_edges is not None else edges_for(method, k)
    users, items, actions = stream_arrays(dataset, n_edges=n, seed=seed)
    run = make_runner(method, k)
    t0 = time.perf_counter()
    run(users, items, actions)
    elapsed = time.perf_counter() - t0
    return {
        "method": method,
        "k": k,
        "n_edges": int(users.size),
        "total_s": elapsed,
        "us_per_edge": 1e6 * elapsed / users.size,
    }


def runtime_sweep(
    ks=(1, 10, 100, 1_000, 10_000, 100_000),
    methods=METHODS,
    *,
    dataset: str = "youtube",
    seed: int = 0,
) -> pd.DataFrame:
    """Fig 2(a) table: per-edge update time for every (method, k)."""
    rows = [time_method(m, int(k), dataset=dataset, seed=seed) for m in methods for k in ks]
    return pd.DataFrame(rows)
