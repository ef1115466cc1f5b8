"""Workload ``fig3-batch``: the paper's Fig 3 protocol on one dataset.

One unit of work is ``harness.run_accuracy(spark, "youtube", k_reg=100,
n_checkpoints=10, top_n=50, seed)``, as ``jobs/fig3_accuracy.py`` runs
it: exact truth, the parity build of A at 10 checkpoints, the
MinHash/OPH/RP replay, and estimates for every tracked pair. It is the
read-heavy batch path; the streaming operator and the sequential
update loops are not touched.
"""
from __future__ import annotations

import time

import numpy as np

from common import (
    TRACE_BASELINE_UNITS,
    Run,
    check_worker_imports,
    log,
    median,
    parity_bits,
    session_settings,
    start_spark,
    stop_spark,
    tracked_pairs,
    tree_cpu_s,
)
from spans import Tracer

DATASET = "youtube"
# The warm-up runs the same protocol on the smallest dataset; a full-size
# warm-up would add ~10 s to every run of a time-boxed benchmark.
WARMUP_DATASET = "tiny"
K_REG, CHECKPOINTS, TOP_N = 100, 10, 50
# Settings of jobs/fig3_accuracy.py.
CONF = {"spark.sql.execution.arrow.pyspark.enabled": "true"}


def _fig3(spark, dataset: str, seed: int):
    from repro.eval import harness

    return harness.run_accuracy(
        spark, dataset, k_reg=K_REG, n_checkpoints=CHECKPOINTS, top_n=TOP_N, seed=seed
    )


def _check_output(run: Run, out, n_pairs: int) -> None:
    """Paper shape at final time, and the pair count against pandas."""
    final = out[out["ckpt"] == out["ckpt"].max()].set_index("method")
    for metric in ("aape", "armse"):
        col = final[metric]
        run.check(f"fig3.vos_best_{metric}", col["vos"] == col.min(), col.round(4).to_dict())
        run.check(f"fig3.rp_worst_{metric}", col["rp"] == col.max(), col.round(4).to_dict())
    got = sorted(set(out["n_pairs"]))
    run.check("fig3.n_pairs", got == [n_pairs], f"{got} vs pandas {n_pairs}")


def _install_spans(tracer: Tracer, captured: dict) -> None:
    from repro.baselines import driver, exact
    from repro.core import estimator, vos
    from repro.eval import harness
    from repro.streams import datasets

    def keep_last_row(result):
        captured["A_final"] = np.array(result[0][-1], copy=True)

    tracer.wrap(datasets, "make_stream", "datasets.make_stream")
    tracer.wrap(exact, "select_tracked")
    tracer.wrap(exact, "exact_over_time")
    tracer.wrap(harness, "estimate_vos")
    tracer.wrap(harness, "estimate_baseline")
    tracer.wrap(vos, "build_bit_arrays", on_result=keep_last_row)
    tracer.wrap(vos, "rebuild_user_sketches")
    tracer.wrap(estimator, "estimate_common")
    tracer.wrap(
        driver,
        "sketch_snapshots",
        lambda edges, users, checkpoints, method, *a, **kw: f"driver.sketch_snapshots.{method}",
    )
    tracer.wrap(driver, "snapshots_to_matrix")


def measure(run: Run) -> tuple[dict, dict]:
    from repro.core import vos
    from repro.streams import datasets

    cpu0, t0 = tree_cpu_s(), time.perf_counter()
    spark = start_spark(run, "fig3-accuracy", CONF)
    try:
        check_worker_imports(spark)
        stream, spec = datasets.make_stream(DATASET, seed=run.seed)
        users, pairs = tracked_pairs(stream, TOP_N)
        _fig3(spark, WARMUP_DATASET, run.seed)  # the first pass in a fresh JVM is slow
        setup_cpu, setup_wall = tree_cpu_s() - cpu0, time.perf_counter() - t0

        params = vos.VOSParams.paper_budget(spec.n_users, k_reg=K_REG, seed=run.seed + 7)
        run.meta.update(
            session=session_settings(spark),
            sizes={
                "dataset": DATASET,
                "edges": len(stream),
                "m": params.m,
                "k_vos": params.k,
                "k_reg": K_REG,
                "checkpoints": CHECKPOINTS,
                "tracked_users": int(users.size),
                "tracked_pairs": len(pairs),
            },
        )

        cpus: list[float] = []
        walls: list[float] = []
        untraced: list[float] = []  # CPU s of the traced run's untraced units
        tracer = Tracer(spark) if run.trace else None
        captured: dict = {}
        start = time.perf_counter()
        while not cpus or time.perf_counter() - start < run.seconds:
            traced = tracer is not None and len(untraced) == TRACE_BASELINE_UNITS
            if traced:
                tracer.unit = len(cpus)
                _install_spans(tracer, captured)
            try:
                c, t = tree_cpu_s(), time.perf_counter()
                if traced:
                    with tracer.span("harness.run_accuracy"):
                        out = _fig3(spark, DATASET, run.seed)
                else:
                    out = _fig3(spark, DATASET, run.seed)
                wall, cpu = time.perf_counter() - t, tree_cpu_s() - c
            except Exception:
                run.iteration(ok=False)
                raise
            finally:
                if traced:
                    tracer.unwrap()
            run.iteration()
            _check_output(run, out, len(pairs))
            log(f"fig3 unit {'traced' if traced else 'untraced'}: cpu={cpu:.2f}s wall={wall:.3f}s")
            if tracer is not None and not traced:
                untraced.append(cpu)
                continue
            cpus.append(cpu)
            walls.append(wall)

        e2e = {
            "setup_s": setup_cpu,
            "cpu_s": median(cpus),
            "edges_per_cpu_s": len(stream) / median(cpus),
        }
        layers = {"fig3.wall_s": median(walls), "wall.setup_s": setup_wall}
        if tracer is not None:
            tracer.collect_spark()
            units = tracer.per_unit()
            keys = {k for u in units.values() for k in u}
            layers.update({k: median([u.get(k, 0.0) for u in units.values()]) for k in keys})
            layers["trace.spans"] = len(tracer.spans)
            layers["trace.overhead_cpu_s"] = median(cpus) - untraced[-1]
            layers["trace.overhead_share"] = (median(cpus) - untraced[-1]) / untraced[-1]
            run.meta["spans"] = tracer.dump()
            ref = parity_bits(stream["user"], stream["item"], params)
            got = captured.get("A_final")
            run.check(
                "fig3.build_bit_arrays_final_row",
                got is not None and np.array_equal(got, ref),
                "final-checkpoint row differs from the numpy parity",
            )
        return e2e, layers
    finally:
        stop_spark(spark)
