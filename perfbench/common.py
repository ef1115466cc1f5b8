"""Shared plumbing for the benchmark workloads.

Holds the run context (seed, budget, correctness-check tally), the
local Spark session lifecycle, the pandas references the checks compare
against, and the run metadata. Nothing here imports ``repro`` at module
level: ``run.py`` puts ``src/`` on the path first.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import shlex
import statistics
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd

ROOT = Path(__file__).resolve().parent.parent


def nproc() -> int:
    """CPUs this process may run on (the `nproc` figure)."""
    return len(os.sched_getaffinity(0))


@dataclass
class Run:
    """One benchmark process: its arguments, scratch space and tally."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    meta: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Count one correctness check; failures are kept by name."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    def iteration(self, ok: bool = True) -> None:
        """Count one timed iteration (a failed one raised and stopped the loop)."""
        self.attempted += 1
        if not ok:
            self.failed += 1


# A traced run first runs this many untraced units. The first finishes
# warming up (the unit after a warm-up still runs slower); the last is
# the baseline the tracing overhead is measured against.
TRACE_BASELINE_UNITS = 2


def median(values) -> float:
    return float(statistics.median(values))


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and all its descendants.

    Covers the Spark JVM this process launched and the JVM's Python
    workers; a reaped child's time is in its parent's cutime/cstime.
    The benchmark times work in CPU seconds because the cores of the
    host it was defined on are shared with other tenants: the same
    Fig 3 run took 11 to 23 s of wall-clock time from one run to the
    next (quartile spread up to 30%), while the quartile spread of its
    CPU time stayed between 6% and 13%.
    """
    procs = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # the process exited while we looked
        fields = stat[stat.rindex(")") + 2:].split()
        procs[int(entry)] = (int(fields[1]), sum(int(x) for x in fields[11:15]))
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in procs.items():
        children.setdefault(ppid, []).append(pid)
    total, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        total += procs.get(pid, (0, 0))[1]
        todo.extend(children.get(pid, ()))
    return total * _TICK_S


# CPU seconds of one ``probe_cpu_s`` loop on the 4-core 2.0 GHz x86
# box the benchmark was defined on (Python 3.11), in its slower mode.
PROBE_REF_S = 0.012


def probe_cpu_s(samples: int = 3) -> float:
    """Median CPU time of a fixed pure-Python loop on this thread.

    On the shared host the benchmark was defined on, one thread's
    speed settles for a whole run into one of two modes about 1.5x
    apart, so single-threaded timings are rescaled by this probe taken
    next to them (``at_probe_speed``). Spark work spreads over every
    core and averages the modes out; rescaling it by a probe run on
    every core did not steady it further, so it is reported as measured.
    """
    times = []
    for _ in range(samples):
        c = time.thread_time()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.thread_time() - c)
    return median(times)


def at_probe_speed(cpu_s: float, probe_before: float, probe_after: float) -> float:
    """A single-threaded CPU time rescaled by the probes taken around it."""
    return cpu_s * 2 * PROBE_REF_S / (probe_before + probe_after)


def peak_rss_mb() -> float:
    """Peak resident set size of this (driver) process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def base_meta(run: Run) -> dict:
    import pyarrow
    import pyspark

    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "git_sha": git_sha(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": np.__version__,
        "pandas": pd.__version__,
        "pyarrow": pyarrow.__version__,
    }


# --- Spark session -----------------------------------------------------------


def start_spark(run: Run, app_name: str, conf: dict[str, str]):
    """Local Spark session with one task thread per CPU.

    ``conf`` carries the settings of the matching ``jobs/`` entrypoint.
    The UI (and its REST API, read by the tracer) is on, bound to
    127.0.0.1, only in a traced run. Every scratch file Spark writes
    lands under the run's work directory.
    """
    local = run.work / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)  # overrides spark.local.dir
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--driver-java-options",
            shlex.quote(f"-Djava.io.tmpdir={local}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    builder = (
        SparkSession.builder.master(f"local[{nproc()}]")
        .appName(app_name)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.sql.warehouse.dir", str(run.work / "warehouse"))
        .config("spark.ui.enabled", "true" if run.trace else "false")
        .config("spark.ui.showConsoleProgress", "false")
    )
    for key, value in conf.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class WorkerImportError(RuntimeError):
    """Spark's Python workers cannot import ``repro``."""


def check_worker_imports(spark) -> None:
    """Fail fast, without retrying, if a Python worker cannot import repro."""
    from pyspark.errors import PySparkException
    from py4j.protocol import Py4JJavaError

    def probe(_):
        import repro

        return repro.__name__

    try:
        spark.sparkContext.parallelize([0], 1).map(probe).collect()
    except (Py4JJavaError, PySparkException) as exc:
        lines = str(exc).splitlines()
        cause = next((ln.strip() for ln in lines if "ModuleNotFoundError" in ln), lines[0])
        raise WorkerImportError(f"a Spark Python worker could not import repro: {cause}") from None


def session_settings(spark) -> dict:
    conf = spark.conf
    return {
        "master": spark.sparkContext.master,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "auto_broadcast_join_threshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "arrow": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "ui": spark.sparkContext.getConf().get("spark.ui.enabled"),
    }


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 — last resort, then wait again
            proc.kill()
            proc.wait(timeout=10)
    SparkContext._gateway = None
    SparkContext._jvm = None


def rest_stages(spark, stage_ids, timeout_s: float = 15.0) -> dict[int, list[dict]]:
    """Stage attempts from the UI REST API, keyed by stage id.

    Waits (bounded) until every requested stage is no longer active,
    since the status store is filled asynchronously.
    """
    sc = spark.sparkContext
    url = f"{sc.uiWebUrl}/api/v1/applications/{sc.applicationId}/stages"
    wanted = set(stage_ids)
    deadline = time.monotonic() + timeout_s
    while True:
        with urllib.request.urlopen(url, timeout=10) as resp:
            rows = json.load(resp)
        by_id: dict[int, list[dict]] = {}
        for row in rows:
            if row["stageId"] in wanted:
                by_id.setdefault(row["stageId"], []).append(row)
        settled = all(
            sid in by_id and all(r["status"] not in ("ACTIVE", "PENDING") for r in by_id[sid])
            for sid in wanted
        )
        if settled or time.monotonic() > deadline:
            return by_id
        time.sleep(0.2)


# --- pandas references -------------------------------------------------------


def tracked_pairs(stream: pd.DataFrame, top_n: int) -> tuple[np.ndarray, pd.DataFrame]:
    """The paper's §V selection, recomputed in pandas from the stream.

    Users with the ``top_n`` largest final cardinalities (ties by id),
    and the pairs among them sharing at least one item at the end —
    the same rule as ``exact.select_tracked``, without Spark.
    """
    from repro.streams import generator

    final = generator.net_state(stream)
    card = final.groupby("user").size().rename("n").reset_index()
    card = card.sort_values(["n", "user"], ascending=[False, True])
    users = np.sort(card["user"].to_numpy(np.int64)[:top_n])
    mine = final[final["user"].isin(users)]
    joined = mine.merge(mine, on="item", suffixes=("_a", "_b"))
    joined = joined[joined["user_a"] < joined["user_b"]]
    pairs = (
        joined.groupby(["user_a", "user_b"]).size().rename("s_final").reset_index()
        .rename(columns={"user_a": "u", "user_b": "v"})
        .sort_values(["u", "v"]).reset_index(drop=True)
    )
    return users, pairs


def parity_bits(users, items, params) -> np.ndarray:
    """Reference A: the flip-count parity of every position, in numpy."""
    from repro.common import hashing

    pos = hashing.vos_positions(
        np.asarray(users, np.int64), np.asarray(items, np.int64), params.k, params.m, params.seed
    )
    return (np.bincount(pos, minlength=params.m) % 2).astype(np.uint8)


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", flush=True)
