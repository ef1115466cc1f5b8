"""Benchmark entry point for the VOS reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <fig3-batch|stream-ingest|update-kernels>
                             --seed <n> --seconds <s> --trace <0|1>

Generates the workload's inputs from the seed, sets up (Spark session,
inputs, one warm-up pass), measures for the given seconds, checks the
outputs, and prints one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` the run records spans around
the calls into each layer and reports the per-layer metrics instead.
Run metadata and spans are written under ``.perfbench/``. Exits
non-zero without a result when the library source is missing or the
run fails. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = {"fig3-batch": "fig3", "stream-ingest": "ingest", "update-kernels": "kernels"}


def _declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _result(run, e2e: dict, layers: dict) -> dict:
    from common import peak_rss_mb

    e2e = dict(e2e)
    e2e["driver_rss_mb"] = peak_rss_mb()
    e2e["ok_share"] = (run.attempted - run.failed) / run.attempted
    metrics = {}
    for m in _declared(run.trace):
        if run.trace:
            value = layers.get(m["name"], 0.0)  # 0 where the workload skips the layer
        else:
            value = e2e[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library source not found at {SRC}/repro", file=sys.stderr)
        return 2

    # Make repro importable here and in Spark's Python workers, which
    # inherit the environment of the JVM this process launches.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # splitmix64 wraps uint64 arithmetic on purpose.
    warnings.filterwarnings("ignore", message="overflow encountered", category=RuntimeWarning)

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)

    from common import Run, WorkerImportError, base_meta, log

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.meta.update(base_meta(run))
        module = importlib.import_module(WORKLOADS[args.workload])
        e2e, layers = module.measure(run)
        result = _result(run, e2e, layers)
    except WorkerImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except Exception:  # noqa: BLE001 — a failed run reports and exits non-zero
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run.meta["failures"] = run.failures
    run.meta["layers"] = layers
    report = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"meta": run.meta, "result": result}, indent=1, default=str))
    for failure in run.failures:
        log(f"check failed: {failure}")
    log("workload figures: " + json.dumps({k: round(v, 6) for k, v in sorted(layers.items())}))
    log(f"report: {report.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
