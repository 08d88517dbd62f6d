"""The TVR micro-batch engine — materialization control over Catalyst.

This is the Structured-Streaming analog at the center of the reproduction:
a deterministic micro-batch evaluator for continuous queries over
time-varying relations. For every processing-time step in the scripted
input timeline it

1. takes each input TVR's snapshot as the prefix ``ptime <= t`` of its
   arrivals, which are shipped to Spark once per run and pinned there,
2. runs the user's relational query through Catalyst,
3. diffs the collected result against the previous one and adds each
   changed event-time group's change to that group's pending change, a
   signed multiset of rows (``repro.core.diff``), and
4. applies the query's :class:`~repro.core.emit.EmitSpec` to decide *when*
   a group's pending change materializes (Extensions 4–7) and when groups
   complete and release state (Extension 2).

Per-group state is only the pending change, the next ``ver``, a pending
delay timer and membership in the live set; the result's current value is
never held. Timers fire from a FIFO in the order they were set, since
every timer has the same delay and steps run in ptime order.

Real Structured Streaming derives its watermark from observed max event
time minus a fixed delay; the paper's listings instead script an explicit
watermark timeline, so this engine replays that script. Incrementality is
complete-mode recomputation + update-mode differencing — semantically the
model Structured Streaming implements, with processing time made explicit.

Late data (Extension 2, §5): a group is *complete* once the watermark
passes its event-time upper bound, and *closed* once it passes that bound
plus ``allowed_lateness``; both are read off the watermark, not stored. A
closed group's state is released once it has no pending delay timer (the
timer still fires with the group's last change). A later input-driven change
to it is late: dropped, never emitted, and counted in ``dropped_late_rows``
once, at the step where it happens.
"""
from __future__ import annotations

from collections import Counter, defaultdict, deque
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
        horizon: Optional[pd.Timestamp] = None  # wm less allowed lateness

        # Per-group state, held until the group is closed and its timer has
        # fired: the change not yet materialized (signed row counts), the
        # next ``ver``, the delay timer. Its (fire time, key) FIFO entries
        # are appended in key order, so timers due together fire by key.
        columns: Optional[List[str]] = None
        key_cols: Optional[List[str]] = self.key_cols
        prev: Optional[pd.DataFrame] = None  # the last collected result
        pending: Dict[tuple, Counter] = defaultdict(Counter)
        ver: Dict[tuple, int] = defaultdict(int)
        timers: Dict[tuple, pd.Timestamp] = {}
        fifo: deque = deque()
        live: set = set()  # held groups that are not closed
        entries: List[tuple] = []
        stats = dict.fromkeys([
            "steps", "recomputes", "emitted_rows", "dropped_late_rows",
            "finalized_groups", "max_live_groups", "timer_fires",
        ], 0)

        def materialize(key: tuple, ptime: pd.Timestamp) -> None:
            """Emit key's pending change at ptime."""
            rows = D.changelog_rows(pending.pop(key, {}), ptime=ptime, ver=ver[key])
            entries.extend(rows)
            stats["emitted_rows"] += len(rows)
            ver[key] += len(rows)

        def passed(key: tuple, mark: Optional[pd.Timestamp]) -> bool:
            """Whether event time ``mark`` has reached key's wend. A group is
            complete once the watermark ``wm`` passes it, and closed once
            ``horizon``, the watermark less allowed lateness, does."""
            if mark is None or self.wend_col is None:
                return False
            we = key[key_cols.index(self.wend_col)]
            return we is not None and pd.Timestamp(we) <= mark

        ai = 0  # agenda index
        while ai < len(agenda) or fifo:
            t = min(agenda[ai:ai + 1] + ([fifo[0][0]] if fifo else []))
            stats["steps"] += 1
            if ai < len(agenda) and agenda[ai] == t:
                ai += 1

            # 1. Recompute the result relation iff the input changed, and
            # add its change since the last recompute to the pending change
            # of the groups it touches. A change to a closed group is late:
            # it is dropped and counted once, here.
            changed: set = set()  # groups changed at t and not yet emitted
            if t in inserted:
                stats["recomputes"] += 1
                pdf = self.query(self.spark, **snapshots(t)).toPandas()
                if columns is None:
                    columns = list(pdf.columns)
                    clash = [c for c in columns if c in D.META_COLS]
                    if clash:
                        raise ValueError(f"result column {clash[0]!r} is a changelog column")
                    if key_cols is None:
                        key_cols = list(columns)
                    if self.wend_col is not None and self.wend_col not in key_cols:
                        raise ValueError(
                            f"wend_col {self.wend_col!r} not in key columns {key_cols}"
                        )
                delta = D.rows_by_key(pdf, columns, key_cols, prev)
                prev = pdf
                for key, d in delta.items():
                    if passed(key, horizon):
                        stats["dropped_late_rows"] += sum(map(abs, d.values()))
                        continue
                    pending[key].update(d)
                    changed.add(key)
                live |= changed

            # 2. Fire delay timers due at t (they see the batch applied at t).
            # A closed group still materializes its last change, then is
            # released.
            while fifo and fifo[0][0] <= t:
                ft, key = fifo.popleft()
                if timers.get(key) != ft:
                    continue  # cancelled by an on-time pane
                del timers[key]
                stats["timer_fires"] += 1
                materialize(key, t)
                changed.discard(key)
                if passed(key, horizon):
                    del ver[key]  # released

            # 3. Continuous / immediate emissions for changed groups.
            if emit.continuous:
                for key in sorted(changed, key=D.nulls_first):
                    materialize(key, t)
            elif emit.after_delay is not None:
                for key in sorted(changed, key=D.nulls_first):
                    if key not in timers:
                        # A timer due after ``until`` is recorded but never fires.
                        ft = timers[key] = t + emit.after_delay
                        if until is None or ft <= until:
                            fifo.append((ft, key))
            elif emit.after_watermark:
                # Late panes (only reachable with allowed_lateness > 0): a
                # complete group that is not closed emits changes at once.
                for key in sorted(changed, key=D.nulls_first):
                    if passed(key, wm):
                        materialize(key, t)

            # 4. Watermark advances: on-time panes for groups it completes,
            # then release of groups it closes.
            if t in advances:
                prior, wm = wm, effective.at(t)
                horizon = None if wm is None else wm - emit.allowed_lateness
                for key in sorted(live, key=D.nulls_first):
                    if emit.after_watermark and passed(key, wm) and not passed(key, prior):
                        materialize(key, t)
                        # On-time pane supersedes a pending early pane.
                        timers.pop(key, None)
                    if passed(key, horizon):
                        stats["finalized_groups"] += 1
                        live.discard(key)
                        if key not in timers:
                            ver.pop(key, None)  # released: nothing is pending

            stats["max_live_groups"] = max(stats["max_live_groups"], len(live))

        stats["final_live_groups"] = len(live)
        stats["final_watermark"] = wm
        columns = columns or []
        return StreamResult(columns, emit, D.changelog_to_pdf(entries, columns), stats)


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
) -> pd.DataFrame:
    """Classic instantaneous-view semantics: run the query once over the
    inputs' snapshots at processing time ``at`` — no completeness
    reasoning, no late-drop. This is the point-in-time baseline the engine's
    continuous table view is tested against (they agree absent late data).
    The result is collected, as a pandas frame, before the inputs are
    released from Spark."""
    with _snapshots(spark, logs) as snapshots:
        return query(spark, **snapshots(at)).toPandas()


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
