"""Workload ``stream-ingest``: the streaming VOS operator in a closed loop.

The ``jobs/stream_demo.py`` flow on the youtube stream, with one writer
that waits for each answer before sending more. The stream is cut by
``t`` into equal parquet micro-batches. One step drops the next file
into the query's input directory, calls ``processAllAvailable()``, then
answers every tracked pair: ``streaming.assemble_bit_array`` →
``vos.rebuild_user_sketches`` → ``estimator.estimate_common``.

One unit of work is a pass over the whole stream with a fresh query;
passes repeat until the time budget is spent. Tracked pairs and their
``n_u`` at every cut come from the generated input in pandas at set-up,
so no batch Spark job enters the loop.
"""
from __future__ import annotations

import os
import shutil
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
K_REG, TOP_N = 100, 50
N_BATCHES, N_BUCKETS = 4, 64
WARMUP_BATCHES = 1
# Settings of jobs/stream_demo.py.
CONF = {
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.shuffle.partitions": "16",
}

# query.recentProgress fields → per-layer names (medians per batch).
DURATIONS = {"triggerExecution": "trigger_ms", "addBatch": "add_batch_ms", "walCommit": "wal_commit_ms"}
STATE_TIMES = {"allUpdatesTimeMs": "state_update_ms", "commitTimeMs": "state_commit_ms"}


class Inputs:
    """The stream cut into staged parquet files plus pandas references."""

    def __init__(self, run: Run):
        from repro.core import vos
        from repro.streams import datasets, generator

        stream, spec = datasets.make_stream(DATASET, seed=run.seed)
        self.params = vos.VOSParams.paper_budget(spec.n_users, k_reg=K_REG, seed=run.seed + 7)
        total = len(stream)
        self.cuts = [round(total * (i + 1) / N_BATCHES) for i in range(N_BATCHES)]
        self.stage = run.work / "stage"
        self.stage.mkdir()
        self.files, self.sizes = [], []
        lo = 0
        for bi, hi in enumerate(self.cuts):
            chunk = stream[(stream["t"] > lo) & (stream["t"] <= hi)]
            path = self.stage / f"batch{bi:03d}.parquet"
            chunk.to_parquet(path)
            self.files.append(path)
            self.sizes.append(len(chunk))
            lo = hi
        self.users, pairs = tracked_pairs(stream, TOP_N)
        self.n_pairs = len(pairs)
        self.iu = np.searchsorted(self.users, pairs["u"].to_numpy(np.int64))
        self.iv = np.searchsorted(self.users, pairs["v"].to_numpy(np.int64))
        # n_u of every tracked user after each micro-batch.
        self.n_at = []
        for hi in self.cuts:
            n = generator.net_state(stream, t=hi).groupby("user").size()
            self.n_at.append(n.reindex(self.users, fill_value=0).to_numpy(np.float64))
        self.ref_A = parity_bits(stream["user"], stream["item"], self.params)
        self.edges = total


def _drop(src, indir, tmp) -> None:
    """Copy a staged file in, appearing atomically to the file source."""
    part = tmp / src.name
    shutil.copyfile(src, part)
    os.replace(part, indir / src.name)


def _answer(spark, qname: str, inp: Inputs, step: int):
    from repro.core import estimator, streaming, vos

    A, beta = streaming.assemble_bit_array(spark, qname, inp.params, N_BUCKETS)
    sk = vos.rebuild_user_sketches(inp.users, A, inp.params)
    alpha = estimator.pair_alpha(sk[inp.iu], sk[inp.iv])
    n = inp.n_at[step]
    s_hat = estimator.estimate_common(n[inp.iu], n[inp.iv], alpha, beta, inp.params.k)
    return A, beta, s_hat


def _pass(spark, run: Run, inp: Inputs, name: str, files, tracer=None) -> dict:
    """One fresh query over ``files``: per-step CPU and wall times, last answer."""
    from repro.core import streaming

    indir, ckdir, tmp = (run.work / name / d for d in ("in", "ck", "tmp"))
    indir.mkdir(parents=True)
    tmp.mkdir()
    if tracer is not None:
        tracer.wrap(streaming, "start_query")
    query = streaming.start_query(
        spark, str(indir), str(ckdir), inp.params, n_buckets=N_BUCKETS, query_name=name
    )
    steps, feasible = [], True
    try:
        for step, src in enumerate(files):
            c0, t0 = tree_cpu_s(), time.perf_counter()
            _drop(src, indir, tmp)
            query.processAllAvailable()
            c1, t1 = tree_cpu_s(), time.perf_counter()
            A, beta, s_hat = _answer(spark, name, inp, step)
            c2, t2 = tree_cpu_s(), time.perf_counter()
            steps.append({"drain_cpu": c1 - c0, "query_cpu": c2 - c1,
                          "drain_wall": t1 - t0, "query_wall": t2 - t1})
            n = inp.n_at[step]
            hi = np.minimum(n[inp.iu], n[inp.iv])
            feasible &= bool(np.all(np.isfinite(s_hat)) and np.all((s_hat >= 0) & (s_hat <= hi)))
        progress = [p for p in query.recentProgress if p["numInputRows"] > 0]
    finally:
        query.stop()
    return {"steps": steps, "A": A, "beta": beta, "feasible": feasible, "progress": progress}


def _progress_layers(progress: list[dict]) -> dict:
    layers = {}
    for key, name in DURATIONS.items():
        layers[f"streaming.{name}"] = median([p["durationMs"].get(key, 0) for p in progress])
    ops = [p["stateOperators"][0] for p in progress]
    for key, name in STATE_TIMES.items():
        layers[f"streaming.{name}"] = median([o[key] for o in ops])
    layers["streaming.state_bytes"] = ops[-1]["memoryUsedBytes"]
    layers["streaming.state_rows_updated"] = sum(o["numRowsUpdated"] for o in ops)
    layers["streaming.input_rows"] = sum(p["numInputRows"] for p in progress)
    layers["streaming.batches"] = len(progress)
    return layers


def measure(run: Run) -> tuple[dict, dict]:
    cpu0, t0 = tree_cpu_s(), time.perf_counter()
    spark = start_spark(run, "vos-stream-demo", CONF)
    try:
        check_worker_imports(spark)
        inp = Inputs(run)
        _pass(spark, run, inp, "vos_warmup", inp.files[:WARMUP_BATCHES])
        setup_cpu, setup_wall = tree_cpu_s() - cpu0, time.perf_counter() - t0
        run.meta.update(
            session=session_settings(spark),
            sizes={
                "dataset": DATASET,
                "edges": inp.edges,
                "m": inp.params.m,
                "k_vos": inp.params.k,
                "buckets": N_BUCKETS,
                "micro_batches": inp.sizes,
                "tracked_users": int(inp.users.size),
                "tracked_pairs": inp.n_pairs,
                "writers": 1,
                "loop": "closed",
            },
        )

        tracer = Tracer(spark) if run.trace else None
        untraced: list[float] = []  # CPU s of the traced run's untraced units
        steps, pass_cpus, layer_units = [], [], []
        start = time.perf_counter()
        p = 0
        while not pass_cpus or time.perf_counter() - start < run.seconds:
            traced = tracer is not None and len(untraced) == TRACE_BASELINE_UNITS
            name = f"vos_bench_{p}"
            p += 1
            if traced:
                from repro.core import estimator, streaming, vos

                tracer.unit = len(pass_cpus)
                tracer.wrap(streaming, "assemble_bit_array")
                tracer.wrap(vos, "rebuild_user_sketches")
                tracer.wrap(estimator, "estimate_common")
            try:
                res = _pass(spark, run, inp, name, inp.files, tracer if traced else None)
            except Exception:
                run.iteration(ok=False)
                raise
            finally:
                if traced:
                    tracer.unwrap()
            run.iteration()
            run.check("stream.A_equals_parity", np.array_equal(res["A"], inp.ref_A),
                      "assembled A differs from the numpy parity")
            run.check("stream.beta_equals_parity", res["beta"] == float(inp.ref_A.mean()),
                      f"{res['beta']} vs {float(inp.ref_A.mean())}")
            run.check("stream.estimates_feasible", res["feasible"])
            cpu = sum(s["drain_cpu"] + s["query_cpu"] for s in res["steps"])
            log(f"stream pass {'traced' if traced else 'untraced'}: cpu={cpu:.2f}s steps="
                + str([(round(s["drain_wall"], 3), round(s["query_wall"], 3)) for s in res["steps"]]))
            if tracer is not None and not traced:
                untraced.append(cpu)
                continue
            pass_cpus.append(cpu)
            steps += res["steps"]
            if tracer is not None:
                units = _progress_layers(res["progress"])
                units["streaming.sink_rows"] = spark.table(name).count()
                layer_units.append(units)

        def med(key):
            return median([s[key] for s in steps])

        edges = inp.edges * len(pass_cpus)
        e2e = {
            "setup_s": setup_cpu,
            "cpu_s": median([s["drain_cpu"] + s["query_cpu"] for s in steps]),
            "edges_per_cpu_s": edges / sum(s["drain_cpu"] for s in steps),
        }
        layers = {
            "stream.batch_s": med("drain_wall"),
            "stream.query_s": med("query_wall"),
            "stream.edges_per_s": edges / sum(s["drain_wall"] for s in steps),
            "stream.batch_cpu_s": med("drain_cpu"),
            "stream.query_cpu_s": med("query_cpu"),
            "wall.setup_s": setup_wall,
        }
        if tracer is not None:
            tracer.collect_spark()
            units = list(tracer.per_unit().values())
            for i, extra in enumerate(layer_units):
                units[i].update(extra)
            keys = {k for u in units for k in u}
            layers.update({k: median([u.get(k, 0.0) for u in units]) for k in keys})
            layers["trace.spans"] = len(tracer.spans)
            layers["trace.overhead_cpu_s"] = median(pass_cpus) - untraced[-1]
            layers["trace.overhead_share"] = (median(pass_cpus) - untraced[-1]) / untraced[-1]
            run.meta["spans"] = tracer.dump()
        return e2e, layers
    finally:
        stop_spark(spark)
