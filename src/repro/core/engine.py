"""The TVR micro-batch engine — materialization control over Catalyst.

This is the Structured-Streaming analog at the center of the reproduction:
a deterministic micro-batch evaluator for continuous queries over
time-varying relations. For every processing-time step in the scripted
input timeline it

1. takes each input TVR's snapshot as the prefix ``ptime <= t`` of its
   arrivals, which are shipped to Spark once per run and pinned there,
2. runs the user's relational query through Catalyst,
3. diffs the collected result against the previous state per event-time
   group (``repro.core.diff``), and
4. applies the query's :class:`~repro.core.emit.EmitSpec` to decide *when*
   those diffs materialize (Extensions 4–7) and when groups complete and
   release state (Extension 2).

Real Structured Streaming derives its watermark from observed max event
time minus a fixed delay; the paper's listings instead script an explicit
watermark timeline, so this engine replays that script. Incrementality is
complete-mode recomputation + update-mode differencing — semantically the
model Structured Streaming implements, with processing time made explicit.

Late data (Extension 2): once the watermark passes a group's event-time
upper bound (plus ``allowed_lateness``), the group is *frozen*: its value is
pinned and any later input-driven change to it is counted as dropped, never
emitted. Pending delay timers still fire with the pinned value — only
*inputs after completeness* are dropped, not not-yet-materialized changes.
"""
from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..session import require_utc
from . import diff as D
from .emit import EmitSpec
from .timeline import PTIME, EventLog
from .watermark import Watermark

QueryFn = Callable[..., DataFrame]


@dataclass
class StreamResult:
    """Outcome of one engine run: the materialized changelog of the query's
    result TVR plus run statistics.

    ``changelog`` has the result's payload columns plus ``undo`` (bool),
    ``ptime`` and ``ver`` — the paper's ``EMIT STREAM`` rendering
    (Extension 4). ``table(at)`` integrates the changelog into the table
    rendering at a processing time (stream→table duality); for gated emit
    specs this yields exactly the delayed-materialization table views of
    Listings 10–12.
    """

    columns: List[str]
    emit: EmitSpec
    changelog: pd.DataFrame
    stats: Dict[str, object] = field(default_factory=dict)

    def table(self, at=None) -> pd.DataFrame:
        """The table rendering of the materialized result at ``at``."""
        return D.integrate_changelog(self.changelog, self.columns, at=at)

    def emitted_rows(self) -> int:
        return len(self.changelog)


class TvrEngine:
    """Evaluate one continuous query over named input event logs.

    Parameters
    ----------
    spark:
        The session; all relational work runs through it.
    query:
        ``query(spark, **snapshots) -> DataFrame`` — a pure function from
        the inputs' snapshot relations to the result relation. Called once
        per micro-batch that contains new input.
    key_cols:
        Result columns identifying an *event-time grouping* (``ver`` in the
        changelog is sequenced per group, Extension 4). ``None`` means each
        whole result row is its own group.
    wend_col:
        The result column holding each group's event-time upper bound; a
        group is complete once the watermark reaches it (Extension 2).
        ``None`` disables completeness reasoning (no finalization — the
        configuration benchmarked as "unbounded state" in P2).
    """

    def __init__(
        self,
        spark: SparkSession,
        query: QueryFn,
        *,
        key_cols: Optional[Sequence[str]] = None,
        wend_col: Optional[str] = None,
    ):
        self.spark = spark
        self.query = query
        self.key_cols = list(key_cols) if key_cols is not None else None
        self.wend_col = wend_col
        if wend_col is not None and key_cols is not None and wend_col not in key_cols:
            raise ValueError("wend_col must be one of key_cols")

    # -- the run loop -----------------------------------------------------

    def run(
        self,
        logs: Mapping[str, EventLog],
        emit: EmitSpec = EmitSpec(),
        until=None,
    ) -> StreamResult:
        """Replay the inputs' event timeline up to ``until`` (inclusive;
        default: end of input) under the given emit spec. ``logs`` maps
        each query argument name to its input log."""
        until = None if until is None else pd.Timestamp(until)
        with _snapshots(self.spark, logs) as snapshots:
            return self._replay(snapshots, logs, emit, until)

    def _replay(self, snapshots, logs, emit, until) -> StreamResult:
        # The agenda: every distinct ptime at which some input inserts rows
        # or advances its watermark. Each log applies its inserts at a ptime
        # before its watermark advance there.
        inserted: set = set()
        advances: set = set()
        for log in logs.values():
            inserted.update(pd.DatetimeIndex(log.arrivals_pdf(until)[PTIME].unique()))
            advances.update(
                p for p, _ in log.watermark().updates if until is None or p <= until
            )
        agenda = sorted(inserted | advances)

        # The effective watermark is the pointwise min over the watermarked
        # inputs (hold-back, §5).
        marks = [log.watermark() for log in logs.values() if log.etime_col is not None]
        effective = reduce(Watermark.combine_min, marks) if marks else Watermark()
        wm: Optional[pd.Timestamp] = None

        # Engine state.
        columns: Optional[List[str]] = None
        key_cols: Optional[List[str]] = self.key_cols
        cur: Dict[tuple, Counter] = {}
        emitted: Dict[tuple, Counter] = defaultdict(Counter)
        ver: Dict[tuple, int] = defaultdict(int)
        ontime_done: set = set()
        frozen: Dict[tuple, Counter] = {}
        live: set = set()  # groups seen and not frozen
        timers: Dict[tuple, pd.Timestamp] = {}
        timer_heap: List[tuple] = []
        entries: List[dict] = []
        stats = {
            "steps": 0,
            "recomputes": 0,
            "emitted_rows": 0,
            "dropped_late_rows": 0,
            "finalized_groups": 0,
            "max_live_groups": 0,
            "timer_fires": 0,
        }

        def emit_key_rows(key: tuple, ptime: pd.Timestamp) -> None:
            """Materialize key's pending diff (emitted -> cur) at ptime."""
            new_state = {key: cur.get(key, Counter())}
            rows = D.changelog_rows(
                emitted, new_state, ptime=ptime, ver_counters=ver, keys=[key]
            )
            entries.extend(rows)
            stats["emitted_rows"] += len(rows)
            emitted[key] = Counter(cur.get(key, Counter()))

        def passed(key: tuple, lateness=pd.Timedelta(0)) -> bool:
            """Whether the watermark in force has passed key's wend + lateness."""
            if wm is None or self.wend_col is None:
                return False
            we = key[key_cols.index(self.wend_col)]
            return we is not None and pd.Timestamp(we) + lateness <= wm

        ai = 0  # agenda index
        while ai < len(agenda) or timer_heap:
            next_event_t = agenda[ai] if ai < len(agenda) else None
            next_timer_t = timer_heap[0][0] if timer_heap else None
            if next_event_t is None and next_timer_t is None:
                break
            if next_timer_t is not None and until is not None and next_timer_t > until:
                if next_event_t is None:
                    break
                next_timer_t = None
            t = min(x for x in (next_event_t, next_timer_t) if x is not None)
            stats["steps"] += 1

            if t == next_event_t:
                ai += 1

            # 1. Recompute the result relation iff the input changed.
            if t in inserted:
                stats["recomputes"] += 1
                res = self.query(self.spark, **snapshots(t))
                pdf = res.toPandas()
                if columns is None:
                    columns = list(pdf.columns)
                    if key_cols is None:
                        key_cols = list(columns)
                    if self.wend_col is not None and self.wend_col not in key_cols:
                        raise ValueError(
                            f"wend_col {self.wend_col!r} not in key columns {key_cols}"
                        )
                new = D.rows_by_key(pdf, columns, key_cols)
                # A group first seen after the watermark passed its end gets
                # no on-time pane; past allowed lateness all its rows drop.
                for key in new.keys() - ontime_done:
                    if passed(key):
                        ontime_done.add(key)
                        if passed(key, emit.allowed_lateness):
                            frozen[key] = Counter()
                            stats["finalized_groups"] += 1
                # Frozen groups: pin their value; count suppressed changes.
                for key, pinned in frozen.items():
                    incoming = new.get(key, Counter())
                    if incoming != pinned:
                        delta = sum((incoming - pinned).values()) + sum(
                            (pinned - incoming).values()
                        )
                        stats["dropped_late_rows"] += delta
                    if pinned:
                        new[key] = Counter(pinned)
                    else:
                        new.pop(key, None)
                cur = new

            # 2. Fire delay timers due at t (they see the batch applied at t).
            if emit.after_delay is not None:
                while timer_heap and timer_heap[0][0] <= t:
                    ft, key = heapq.heappop(timer_heap)
                    if timers.get(key) != ft:
                        continue  # cancelled/superseded
                    del timers[key]
                    stats["timer_fires"] += 1
                    emit_key_rows(key, t)

            # 3. Continuous / immediate emissions for changed groups. A
            # frozen group has no change left to emit: its pinned value is
            # emitted or waits on its pending timer.
            live = (cur.keys() | emitted.keys()) - frozen.keys()
            changed = [
                k for k in live if cur.get(k, Counter()) != emitted.get(k, Counter())
            ]
            if emit.continuous:
                for key in sorted(changed, key=D.nulls_first):
                    emit_key_rows(key, t)
            elif emit.after_delay is not None:
                for key in changed:
                    if key not in timers:
                        ft = t + emit.after_delay
                        timers[key] = ft
                        heapq.heappush(timer_heap, (ft, key))
            elif emit.after_watermark:
                # Late panes (only reachable with allowed_lateness > 0):
                # a complete-but-not-frozen group emits late changes
                # immediately.
                for key in sorted(changed, key=D.nulls_first):
                    if key in ontime_done and key not in frozen:
                        emit_key_rows(key, t)

            # 4. Watermark advances: on-time panes, then freezing.
            if t in advances:
                wm = effective.at(t)
                if wm is not None and self.wend_col is not None:
                    for key in sorted(live, key=D.nulls_first):
                        if not passed(key):
                            continue
                        if key not in ontime_done:
                            ontime_done.add(key)
                            if emit.after_watermark:
                                emit_key_rows(key, t)
                                # On-time pane supersedes a pending early pane.
                                timers.pop(key, None)
                        if passed(key, emit.allowed_lateness):
                            frozen[key] = Counter(cur.get(key, Counter()))
                            stats["finalized_groups"] += 1
                            live.discard(key)

            stats["max_live_groups"] = max(stats["max_live_groups"], len(live))

        stats["final_live_groups"] = len(live)
        stats["final_watermark"] = wm
        if columns is None:
            columns = []
        changelog = D.changelog_to_pdf(entries, columns)
        return StreamResult(columns, emit, changelog, stats)


def run_query(
    spark: SparkSession,
    logs: Mapping[str, EventLog],
    query: QueryFn,
    *,
    emit: EmitSpec = EmitSpec(),
    key_cols: Optional[Sequence[str]] = None,
    wend_col: Optional[str] = None,
    until=None,
) -> StreamResult:
    """One-shot convenience wrapper around :class:`TvrEngine`."""
    eng = TvrEngine(spark, query, key_cols=key_cols, wend_col=wend_col)
    return eng.run(logs, emit=emit, until=until)


def snapshot_query(
    spark: SparkSession,
    logs: Mapping[str, EventLog],
    query: QueryFn,
    at=None,
) -> DataFrame:
    """Classic instantaneous-view semantics: run the query once over the
    inputs' snapshots at processing time ``at`` — no completeness
    reasoning, no late-drop. This is the point-in-time baseline the engine's
    continuous table view is tested against (they agree absent late data).
    The result is collected before the inputs are released from Spark."""
    with _snapshots(spark, logs) as snapshots:
        res = query(spark, **snapshots(at))
        return spark.createDataFrame(res.toPandas(), schema=res.schema)


@contextmanager
def _snapshots(
    spark: SparkSession, logs: Mapping[str, EventLog]
) -> Iterator[Callable[[object], Dict[str, DataFrame]]]:
    """Yield ``at -> {name: snapshot DataFrame}``: the prefix ``ptime <= at``
    of each input's arrivals (a TVR is one relation per ptime, §3.1). Each
    input is shipped once, ``ptime`` as int64 ns and its schema inferred from
    all of its inserts, and pinned by ``localCheckpoint``, so steps scan it
    instead of a ``LocalRelation`` that Catalyst evaluates on the driver and
    every task re-ships. The pin is lazy: the first step's job stores the
    blocks, which saves a job per run. The pins are released on exit, also
    on error."""
    require_utc(spark)
    pinned: Dict[str, DataFrame] = {}
    try:
        for name, log in logs.items():
            arrivals = log.arrivals_pdf()
            if len(arrivals) == 0:
                raise ValueError(
                    f"input log {name!r} has no inserts; cannot infer a Spark schema"
                )
            arrivals[PTIME] = arrivals[PTIME].to_numpy("datetime64[ns]").view("int64")
            pinned[name] = spark.createDataFrame(arrivals).localCheckpoint(eager=False)

        def snapshot(name: str, at) -> DataFrame:
            # A SQL string: a first pyspark.sql.functions call loads ~500 modules.
            keep = "true" if at is None else f"{PTIME} <= {pd.Timestamp(at).value}"
            return pinned[name].where(keep).select(*logs[name].columns)

        yield lambda at: {name: snapshot(name, at) for name in pinned}
    finally:
        for df in pinned.values():
            df._jdf.queryExecution().analyzed().rdd().unpersist(False)
