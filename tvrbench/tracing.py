"""Per-layer spans for one replay, recorded from outside the engine.

A :class:`Tracer` installs wrappers around the public functions of each
engine layer, records one span per call, and removes the wrappers again:

========================  =================================================
span                      wrapped function
========================  =================================================
``timeline.from_pandas``  ``repro.core.timeline.EventLog.from_pandas``
``timeline.arrivals_pdf`` ``repro.core.timeline.EventLog.arrivals_pdf``
``snapshot.create``       ``SparkSession.createDataFrame`` of the session
``spark.plan``            the query callable the engine is given
``spark.collect``         ``DataFrame.toPandas``
``diff.rows_by_key``      ``repro.core.diff.rows_by_key``
``diff.changelog_rows``   ``repro.core.diff.changelog_rows``
``diff.changelog_to_pdf`` ``repro.core.diff.changelog_to_pdf``
``sqlext.split_emit``     ``repro.sqlext.executor.split_emit``
``sqlext.rewrite``        ``repro.sqlext.executor.rewrite_extended_sql``
``sqlext.parse_emit``     ``repro.sqlext.parser.parse_emit_clause``
========================  =================================================

One ``step`` span per recompute is the parent of that step's snapshot,
plan, collect and diff spans. A step opens at its first snapshot (or, if
it ships none, at its query call) and closes when the next step opens or
the replay ends, so it also covers the emit/watermark bookkeeping that
follows the recompute. The replay itself is the root span. Spans are kept
in memory as ``(run, id, parent, name, start, end, rows)`` and written out
by the caller.
"""
from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import diff as diff_mod
from repro.core.timeline import EventLog
from repro.sqlext import executor as sql_executor
from repro.sqlext import parser as sql_parser

ROOT, STEP = "replay", "step"
FIELDS = ["run", "id", "parent", "name", "start", "end", "rows"]

#: Layer of each span name; ``None`` marks the containers (root, steps).
LAYER = {
    ROOT: None,
    STEP: None,
    "timeline.from_pandas": "timeline",
    "timeline.arrivals_pdf": "timeline",
    "snapshot.create": "snapshot",
    "spark.plan": "spark",
    "spark.collect": "spark",
    "diff.rows_by_key": "diff",
    "diff.changelog_rows": "diff",
    "diff.changelog_to_pdf": "diff",
    "sqlext.split_emit": "sqlext",
    "sqlext.rewrite": "sqlext",
    "sqlext.parse_emit": "sqlext",
}


def _len(args, out) -> int:
    return len(out)


class Tracer:
    def __init__(self, spark: SparkSession):
        self.spark = spark
        self.spans: List[list] = []
        self._run = 0
        self._stack: List[int] = []  # open non-container spans
        self._root: Optional[int] = None
        self._step: Optional[int] = None
        self._step_queried = True  # the open step has already run its query

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, parent: Optional[int]) -> list:
        rec = [self._run, len(self.spans), parent, name, time.perf_counter(), None, 0]
        self.spans.append(rec)
        return rec

    def _open_step(self) -> None:
        now = time.perf_counter()
        if self._step is not None:
            self.spans[self._step][5] = now
        self._step = self._open(STEP, self._root)[1]
        self._step_queried = False

    def _wrap(self, name: str, fn: Callable, rows: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else (
                self._step if self._step is not None else self._root
            )
            rec = self._open(name, parent)
            self._stack.append(rec[1])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()
            if rows is not None:
                rec[6] = rows(args, out)
            return out

        return traced

    def wrap_query(self, query: Callable) -> Callable:
        """Span the engine's query callable; its call marks a recompute."""
        planned = self._wrap("spark.plan", query)

        def traced_query(*args, **kwargs):
            if self._step_queried:
                self._open_step()
            self._step_queried = True
            return planned(*args, **kwargs)

        return traced_query

    # -- installation ------------------------------------------------------

    @contextmanager
    def replay(self):
        """Trace one replay: install the wrappers, open the root span, and
        restore every wrapped function afterwards."""
        self._run += 1
        self._stack, self._step, self._step_queried = [], None, True
        create = self._wrap(
            "snapshot.create", self.spark.createDataFrame,
            rows=lambda args, out: len(args[0]) if isinstance(args[0], pd.DataFrame) else 0,
        )

        def traced_create(*args, **kwargs):
            if self._step_queried:
                self._open_step()
            return create(*args, **kwargs)

        df_cls = type(self.spark.range(0))
        patches = [
            (EventLog, "from_pandas", staticmethod(self._wrap(
                "timeline.from_pandas", EventLog.from_pandas,
                rows=lambda args, log: len(log.events)))),
            (EventLog, "arrivals_pdf", self._wrap(
                "timeline.arrivals_pdf", EventLog.arrivals_pdf, rows=_len)),
            (self.spark, "createDataFrame", traced_create),
            (df_cls, "toPandas", self._wrap("spark.collect", df_cls.toPandas, rows=_len)),
            (diff_mod, "rows_by_key", self._wrap("diff.rows_by_key", diff_mod.rows_by_key)),
            (diff_mod, "changelog_rows", self._wrap(
                "diff.changelog_rows", diff_mod.changelog_rows, rows=_len)),
            (diff_mod, "changelog_to_pdf", self._wrap(
                "diff.changelog_to_pdf", diff_mod.changelog_to_pdf, rows=_len)),
            (sql_executor, "split_emit", self._wrap("sqlext.split_emit", sql_executor.split_emit)),
            (sql_executor, "rewrite_extended_sql", self._wrap(
                "sqlext.rewrite", sql_executor.rewrite_extended_sql)),
            (sql_parser, "parse_emit_clause", self._wrap(
                "sqlext.parse_emit", sql_parser.parse_emit_clause)),
        ]
        saved = []
        try:
            for obj, name, new in patches:
                saved.append((obj, name, obj.__dict__.get(name)))
                setattr(obj, name, new)
            root = self._open(ROOT, None)
            self._root = root[1]
            try:
                yield
            finally:
                root[5] = time.perf_counter()
                if self._step is not None:
                    self.spans[self._step][5] = root[5]
        finally:
            for obj, name, old in reversed(saved):
                if old is None:
                    delattr(obj, name)
                else:
                    setattr(obj, name, old)

    # -- reporting ---------------------------------------------------------

    def run_spans(self) -> List[list]:
        """The spans of the latest traced replay."""
        return [s for s in self.spans if s[0] == self._run]

    def write(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(FIELDS)
            w.writerows(self.spans)


def self_times(spans: List[list]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover. Child
    spans of one parent never overlap: the engine runs on one thread."""
    covered: Dict[int, float] = {}
    for s in spans:
        if s[2] is not None:
            covered[s[2]] = covered.get(s[2], 0.0) + (s[5] - s[4])
    return {s[1]: (s[5] - s[4]) - covered.get(s[1], 0.0) for s in spans}


def layer_metrics(spans: List[list], n_input: int, stats: dict, emitted: int) -> Dict[str, float]:
    """The per-layer metrics of one traced replay."""
    by_id = {s[1]: s for s in spans}

    def total(name: str) -> float:
        return sum(s[5] - s[4] for s in spans if s[3] == name)

    def rows(name: str) -> int:
        return sum(s[6] for s in spans if s[3] == name)

    def outermost(layer: str) -> float:
        # Time in a layer, counting a span nested in the same layer once.
        return sum(
            s[5] - s[4] for s in spans
            if LAYER.get(s[3]) == layer
            and (s[2] is None or LAYER.get(by_id[s[2]][3]) != layer)
        )

    selfs = self_times(spans)
    root = next(s for s in spans if s[3] == ROOT)
    snapshot_rows = rows("snapshot.create")
    result_rows = rows("spark.collect")
    return {
        "timeline.from_pandas_s": total("timeline.from_pandas"),
        "timeline.arrivals_pdf_s": total("timeline.arrivals_pdf"),
        "timeline.events": rows("timeline.from_pandas"),
        "snapshot.create_s": total("snapshot.create"),
        "snapshot.calls": sum(1 for s in spans if s[3] == "snapshot.create"),
        "snapshot.rows": snapshot_rows,
        "snapshot.amplification": snapshot_rows / n_input,
        "spark.plan_s": total("spark.plan"),
        "spark.collect_s": total("spark.collect"),
        "spark.result_rows": result_rows,
        "diff.rows_by_key_s": total("diff.rows_by_key"),
        "diff.changelog_rows_s": total("diff.changelog_rows"),
        "diff.changelog_to_pdf_s": total("diff.changelog_to_pdf"),
        "diff.useful_ratio": emitted / max(1, result_rows),
        "sqlext.rewrite_s": outermost("sqlext"),
        "engine.self_s": sum(
            selfs[s[1]] for s in spans if LAYER[s[3]] is None
        ),
        "engine.steps": stats["steps"],
        "engine.recomputes": stats["recomputes"],
        "engine.timer_fires": stats["timer_fires"],
        "engine.finalized_groups": stats["finalized_groups"],
        "engine.max_live_groups": stats["max_live_groups"],
        "engine.final_live_groups": stats["final_live_groups"],
        "engine.dropped_late_rows": stats["dropped_late_rows"],
        "engine.emitted_rows": emitted,
        "trace.step_spans": sum(1 for s in spans if s[3] == STEP),
        "trace.replay_s": root[5] - root[4],
    }
