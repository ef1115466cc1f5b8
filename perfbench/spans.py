"""Spans recorded from outside the program, around calls into its layers.

The tracer replaces a layer's public function (a module attribute) with
a wrapper for the duration of a traced unit of work; the repository's
source is never edited. Each span records its name, start, end, parent
and the unit it belongs to. Spans are kept in memory and written out
when the run ends.

Spark work is attributed to spans through job groups: on entry a span
sets ``spark.jobGroup.id`` to its own id (restoring the parent's on
exit), so every job the call launches is counted against the innermost
span. Task and failed-task counts per group come from
``statusTracker()``; executor run time and shuffle bytes per stage from
the UI REST API, joined by stage id.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from common import rest_stages

# Quantities a span's Spark jobs are summarised into.
SPARK_QUANTITIES = ("stages", "tasks", "failed_tasks", "executor_ms", "shuffle_bytes")


@dataclass
class Span:
    sid: int
    name: str
    unit: int
    parent: int | None
    start: float
    end: float = 0.0
    spark: dict = field(default_factory=dict)

    @property
    def group(self) -> str:
        return f"perfbench-span-{self.sid}"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; optionally attributes Spark jobs to them."""

    def __init__(self, spark=None):
        self.spark = spark
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.unit = 0

    # -- recording ------------------------------------------------------------

    def _set_group(self, span: Span | None) -> None:
        if self.spark is None:
            return
        sc = self.spark.sparkContext
        if span is None:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        else:
            sc.setJobGroup(span.group, span.name)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, self.unit, parent.sid if parent else None, 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        self._set_group(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self._set_group(parent)

    def wrap(self, module, attr: str, name=None, on_result=None) -> None:
        """Record a span around every call of ``module.attr`` until ``unwrap``.

        ``name`` is a span name or a function of the call's arguments;
        ``on_result`` sees each return value (used by correctness checks).
        """
        original = getattr(module, attr)
        label = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            span_name = label(*args, **kwargs) if callable(label) else label
            with self.span(span_name):
                out = original(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def unwrap(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- Spark attribution ----------------------------------------------------

    def collect_spark(self) -> None:
        """Fill each span's Spark counters from its job group.

        Stage ids, task and failed-task counts come from
        ``statusTracker()``; executor run time and shuffle bytes from
        the UI REST API, joined by stage id.
        """
        if self.spark is None:
            return
        tracker = self.spark.sparkContext.statusTracker()
        stages_of: dict[int, list[int]] = {}
        for sp in self.spans:
            sids: list[int] = []
            for jid in tracker.getJobIdsForGroup(sp.group):
                info = tracker.getJobInfo(jid)
                if info is not None:
                    sids.extend(int(s) for s in info.stageIds)
            stages_of[sp.sid] = sids
        rest = rest_stages(self.spark, [s for v in stages_of.values() for s in v])
        for sp in self.spans:
            acc = dict.fromkeys(SPARK_QUANTITIES, 0)
            for sid in stages_of[sp.sid]:
                info = tracker.getStageInfo(sid)
                ran = 0 if info is None else info.numCompletedTasks + info.numFailedTasks
                if ran == 0:
                    continue  # skipped: its output was reused
                acc["stages"] += 1
                acc["tasks"] += ran
                acc["failed_tasks"] += info.numFailedTasks
                for attempt in rest.get(sid, []):
                    acc["executor_ms"] += attempt["executorRunTime"]
                    acc["shuffle_bytes"] += attempt["shuffleReadBytes"] + attempt["shuffleWriteBytes"]
            sp.spark = acc

    # -- summaries ------------------------------------------------------------

    def self_time(self, sp: Span) -> float:
        """Duration minus the time covered by the span's (sequential) children."""
        covered = sum(c.duration for c in self.spans if c.parent == sp.sid)
        return sp.duration - covered

    def per_unit(self) -> dict[int, dict[str, float]]:
        """Per unit: summed ``<span>.{s,self_s,<spark quantities>}``."""
        units: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sp in self.spans:
            acc = units[sp.unit]
            acc[f"{sp.name}.s"] += sp.duration
            acc[f"{sp.name}.self_s"] += self.self_time(sp)
            for q, v in sp.spark.items():
                acc[f"{sp.name}.{q}"] += v
        return {u: dict(acc) for u, acc in units.items()}

    def dump(self) -> list[dict]:
        return [
            {
                "id": sp.sid,
                "name": sp.name,
                "unit": sp.unit,
                "parent": sp.parent,
                "start": sp.start,
                "end": sp.end,
                "self_s": self.self_time(sp),
                **sp.spark,
            }
            for sp in self.spans
        ]
