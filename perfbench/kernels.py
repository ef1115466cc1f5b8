"""Workload ``update-kernels``: the Fig 2 sequential per-edge update loops.

Times ``runtime.make_runner(method, k)`` for VOS, OPH, MinHash and RP
at k = 100 (the Fig 3 register budget) and k = 100 000 (Fig 2(b)) on a
prefix of the youtube stream. No Spark is involved, so this isolates
``common.hashing`` and the kernels. The prefixes lie before the stream's
mass deletion, so they hold insertions only, as in Fig 2.

One unit of work is a pass over all eight loops. Each loop's edge count
is fixed so that every loop takes a similar share of a pass.
"""
from __future__ import annotations

import math
import time

import numpy as np

from common import TRACE_BASELINE_UNITS, Run, at_probe_speed, log, median, parity_bits, probe_cpu_s
from spans import Tracer

DATASET = "youtube"
K_SMALL, K_LARGE = 100, 100_000
# (method, k, edges): fixed prefix lengths, ~0.2 s per loop on one core.
LOOPS = (
    ("vos", K_SMALL, 1600),
    ("vos", K_LARGE, 1600),
    ("oph", K_SMALL, 3200),
    ("oph", K_LARGE, 160),
    ("minhash", K_SMALL, 2400),
    ("minhash", K_LARGE, 50),
    ("rp", K_SMALL, 2800),
    ("rp", K_LARGE, 50),
)
SETUP_REPEATS = 3
FLOOR_EDGES = 20_000


def metric_name(method: str, k: int) -> str:
    return f"kernel.{method}.us_per_edge" + ("" if k == K_SMALL else f".k{k}")


def _inputs(seed: int):
    from repro.streams import datasets

    stream, _ = datasets.make_stream(DATASET, seed=seed)
    head = stream.head(max(FLOOR_EDGES, max(n for _, _, n in LOOPS)))
    return tuple(head[c].to_numpy(np.int64) for c in ("user", "item", "action"))


def _loop(method: str, k: int, arrays, n: int):
    """One fresh update loop over the first n edges → (CPU s, wall s, runner).

    The CPU time is rescaled to the probe's reference speed by probes
    taken just before and after the loop.
    """
    from repro.eval import runtime

    users, items, actions = (a[:n] for a in arrays)
    runner = runtime.make_runner(method, k)
    before = probe_cpu_s()
    c, t = time.thread_time(), time.perf_counter()
    runner(users, items, actions)
    cpu, wall = time.thread_time() - c, time.perf_counter() - t
    return at_probe_speed(cpu, before, probe_cpu_s()), wall, runner


def _vos_kernel(runner):
    """The VOSKernel a VOS runner closes over."""
    from repro.core import vos

    return next(c.cell_contents for c in runner.__closure__
                if isinstance(c.cell_contents, vos.VOSKernel))


def _check_vos(run: Run, runner, arrays, k: int, n: int) -> None:
    kern = _vos_kernel(runner)
    ref = parity_bits(arrays[0][:n], arrays[1][:n], kern.params)
    run.check(f"kernels.vos_k{k}_A_equals_parity", np.array_equal(kern.A, ref))
    run.check(f"kernels.vos_k{k}_beta", kern.ones == int(ref.sum()))


def _geo_edges_per_s(us_per_edge: dict) -> float:
    return 1e6 / math.exp(sum(math.log(v) for v in us_per_edge.values()) / len(us_per_edge))


def measure(run: Run) -> tuple[dict, dict]:
    from repro.common import hashing

    from repro.eval import runtime

    setups, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        before = probe_cpu_s()
        c0, t0 = time.thread_time(), time.perf_counter()
        arrays = _inputs(run.seed)
        for method, k, n in LOOPS:  # warm-up pass over short prefixes
            runtime.make_runner(method, k)(*(a[: max(1, n // 10)] for a in arrays))
        cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
        setups.append(at_probe_speed(cpu, before, probe_cpu_s()))
        setup_walls.append(wall)
    run.meta["sizes"] = {
        "dataset": DATASET,
        "loops": [{"method": m, "k": k, "edges": n} for m, k, n in LOOPS],
        "vos_m": 1 << 21,
        "floor_edges": FLOOR_EDGES,
    }

    cpu_us: dict[tuple[str, int], list[float]] = {(m, k): [] for m, k, _ in LOOPS}
    wall_us: dict[tuple[str, int], list[float]] = {(m, k): [] for m, k, _ in LOOPS}
    passes: list[float] = []
    tracer = Tracer() if run.trace else None
    untraced: list[float] = []  # CPU s of the traced run's untraced units
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < run.seconds:
        traced = tracer is not None and len(untraced) == TRACE_BASELINE_UNITS
        if traced:
            tracer.unit = len(passes)
        pass_cpu, samples = 0.0, []
        for method, k, n in LOOPS:
            try:
                if traced:
                    with tracer.span(f"{method}.update.k{k}"):
                        cpu, wall_s, runner = _loop(method, k, arrays, n)
                else:
                    cpu, wall_s, runner = _loop(method, k, arrays, n)
            except Exception:
                run.iteration(ok=False)
                raise
            run.iteration()
            pass_cpu += cpu
            samples.append(((method, k), 1e6 * cpu / n, 1e6 * wall_s / n))
            if method == "vos" and not untraced and not passes:
                _check_vos(run, runner, arrays, k, n)
        if tracer is not None and not traced:
            untraced.append(pass_cpu)
            continue
        passes.append(pass_cpu)
        for key, cpu, wall_s in samples:
            cpu_us[key].append(cpu)
            wall_us[key].append(wall_s)
    log(f"kernels: {len(passes)} passes, median pass {median(passes):.3f} CPU s")

    us = {key: median(v) for key, v in cpu_us.items()}
    e2e = {"setup_s": median(setups), "cpu_s": median(passes), "edges_per_cpu_s": _geo_edges_per_s(us)}
    layers = {metric_name(m, k): v for (m, k), v in us.items()}
    layers.update({f"wall.{metric_name(m, k)}": median(v) for (m, k), v in wall_us.items()})
    layers["wall.setup_s"] = median(setup_walls)

    # Vectorised floor: the same position hash over a longer prefix at once.
    users, items = arrays[0][:FLOOR_EDGES], arrays[1][:FLOOR_EDGES]
    floors = []
    for _ in range(7):
        before = probe_cpu_s()
        c = time.thread_time()
        hashing.vos_positions(users, items, K_SMALL, 1 << 21, 7)
        cpu = time.thread_time() - c
        floors.append(at_probe_speed(cpu, before, probe_cpu_s()))
    floor_ns = 1e9 * median(floors) / FLOOR_EDGES
    layers["hashing.vos_positions.ns_per_edge"] = floor_ns
    layers["kernel.vos.loop_over_floor"] = 1e3 * us[("vos", K_SMALL)] / floor_ns
    if tracer is not None:
        layers["trace.spans"] = len(tracer.spans)
        layers["trace.overhead_cpu_s"] = median(passes) - untraced[-1]
        layers["trace.overhead_share"] = (median(passes) - untraced[-1]) / untraced[-1]
        run.meta["spans"] = tracer.dump()
    return e2e, layers
