"""The TVR micro-batch engine — materialization control over Catalyst.

This is the Structured-Streaming analog at the center of the reproduction:
a deterministic micro-batch evaluator for continuous queries over
time-varying relations. Its *change source* (:class:`_Changes`) reruns the
query through Catalyst at every processing time at which an input inserts
rows, over inputs pinned as one partition each so that the rerun is one
shuffle-free Spark job, and diffs each result against the previous one
(§3.1). Its *EMIT state machine* (:func:`_emit`) never calls Spark: from
those changes and the watermark advances it decides, per the query's
``EmitSpec``, when a group's changes materialize (Extensions 4–7) and when
groups complete and release state (Extension 2).

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
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional
from typing import Sequence, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..session import require_utc
from . import diff as D
from .emit import EmitSpec
from .timeline import PTIME, EventLog
from .watermark import Watermark
from .windows import WEND, WINDOW_TAG

QueryFn = Callable[..., DataFrame]
Change = Tuple[pd.Timestamp, Dict[tuple, Counter]]  # (ptime, {key: signed row counts})


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
        changelog is sequenced per group, Extension 4). ``None`` means the
        window columns ``tumble``/``hop`` tagged, else each whole row.
    wend_col:
        Overrides the key column holding each group's event-time upper
        bound, by default the tagged ``wend``; a group is complete once the
        watermark reaches it (Extension 2). With none, no group completes
        (P2's "unbounded state"); two tagged ``wend`` key columns raise.
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

    def run(
        self, logs: Mapping[str, EventLog], emit: EmitSpec = EmitSpec(), until=None
    ) -> StreamResult:
        """Replay the inputs' event timeline up to ``until`` (inclusive;
        default: end of input) under the given emit spec. ``logs`` maps
        each query argument name to its input log."""
        until = None if until is None else pd.Timestamp(until)
        source = _Changes(self, logs, until)
        with closing(iter(source)) as steps:
            first = list(islice(steps, 1))  # fixes the key columns and wend
            changes = chain(first, steps)
            entries, stats = _emit(changes, _advances(logs), emit, until, source.wend)
        changelog = D.changelog_to_pdf(entries, source.columns)
        return StreamResult(source.columns, emit, changelog, stats)


def _advances(logs: Mapping[str, EventLog]) -> List[tuple]:
    """``(ptime, effective watermark)`` at every input's watermark advance:
    the minimum over the inputs with an event-time column (hold-back, §5),
    ``None`` until each of them has advanced."""
    marks = {name: log.watermark() for name, log in logs.items()}
    held = [marks[n] for n, log in logs.items() if log.etime_col is not None]
    effective = reduce(Watermark.combine_min, held) if held else Watermark()
    ptimes = sorted({p for m in marks.values() for p, _ in m.updates})
    return [(p, effective.at(p)) for p in ptimes]


class _Changes:
    """The per-step change source of one run. At every insert ptime ``t`` up
    to ``until`` it runs the query over the inputs' snapshots at ``t`` and
    yields ``(t, delta)``, the result's change since the previous step
    (:func:`~repro.core.diff.rows_by_key`; empty if none). The query's schema,
    even if no step runs, fixes ``columns``, the key and ``wend``, the
    completeness column's index."""

    def __init__(self, engine: TvrEngine, logs: Mapping[str, EventLog], until):
        self.engine, self.logs, self.until = engine, logs, until
        self.columns: List[str] = []
        self.wend: Optional[int] = None

    def __iter__(self) -> Iterator[Change]:
        eng, prev = self.engine, None
        with _snapshots(eng.spark, self.logs) as (snapshots, ptimes):
            steps = [p for p in ptimes if self.until is None or p <= self.until]
            if not steps:  # nothing to run; the schema alone runs no job
                self._grouping(eng.query(eng.spark, **snapshots(self.until)))
            for t in steps:
                df = eng.query(eng.spark, **snapshots(t))
                if prev is None:
                    key_cols = self._grouping(df)
                pdf = df.toPandas()
                yield t, D.rows_by_key(pdf, self.columns, key_cols, prev)
                prev = pdf

    def _grouping(self, df: DataFrame) -> List[str]:
        """Fix ``columns`` and ``wend`` from ``df``'s schema; return the key
        columns. Defaults: the window columns tumble/hop tagged, and their wend."""
        self.columns = cols = df.columns
        clash = [c for c in cols if c in D.META_COLS]
        if clash:
            raise ValueError(f"result column {clash[0]!r} is a changelog column")
        nested = [f.name for f in df.schema.fields
                  if f.dataType.typeName() in ("array", "map", "struct")]
        if nested:
            raise ValueError(f"result column {nested[0]!r} is not scalar; "
                             "the changelog is diffed by whole rows")
        tags = {f.name: f.metadata.get(WINDOW_TAG) for f in df.schema.fields}
        key_cols = self.engine.key_cols
        if key_cols is None:
            key_cols = [c for c in cols if tags[c]] or cols
        missing = [c for c in key_cols if c not in cols]
        if missing:
            raise ValueError(f"key columns {missing} not in result columns {cols}")
        wend = self.engine.wend_col
        if wend is None:
            ends = [c for c in key_cols if tags.get(c) == WEND]
            if len(ends) > 1:
                raise ValueError(f"tagged wend key columns {ends}; pass wend_col")
            wend = next(iter(ends), None)
        if wend is not None and wend not in key_cols:
            raise ValueError(f"wend_col {wend!r} not in key columns {key_cols}")
        self.wend = None if wend is None else key_cols.index(wend)
        return key_cols


def _emit(
    changes: Iterable[Change], advances: Iterable[tuple], emit: EmitSpec, until, wend
) -> Tuple[List[tuple], Dict[str, object]]:
    """The EMIT state machine: materialize a result TVR, given as its
    ``changes`` and its ``advances`` ``(ptime, effective watermark)``, each
    in ptime order, under ``emit``; at one ptime the change comes first.
    ``wend`` is the position of a group's event-time upper bound in its key
    (``None``: no group completes). Nothing after ``until`` is processed.
    Returns the changelog entries in emission order and the run stats.

    Per-group state is the change not yet materialized (nonzero signed row
    counts), the next ``ver``, the delay timer and membership in ``live``.
    Timer FIFO entries ``(fire time, key)`` are appended in key order, and
    all timers have one delay, so the FIFO fires them in time, then key order."""
    wm: Optional[pd.Timestamp] = None
    horizon: Optional[pd.Timestamp] = None  # wm less allowed lateness
    pending: Dict[tuple, Counter] = defaultdict(Counter)
    ver: Dict[tuple, int] = defaultdict(int)
    timers: Dict[tuple, pd.Timestamp] = {}
    fifo: deque = deque()
    live: set = set()  # held groups that are not closed
    entries: List[tuple] = []
    stats = dict.fromkeys(("steps recomputes emitted_rows dropped_late_rows "
                           "finalized_groups max_live_groups timer_fires").split(), 0)

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
        we = None if mark is None or wend is None else key[wend]
        return we is not None and pd.Timestamp(we) <= mark

    def keep(key: tuple) -> bool:
        """Whether key still needs state: a timer or, unless it is closed, a
        pending change or an emitted pane. A key that needs none is forgotten."""
        if key in timers or not passed(key, horizon) and (pending.get(key) or ver.get(key)):
            return True
        pending.pop(key, None)
        ver.pop(key, None)
        live.discard(key)
        return False

    changes, advances = iter(changes), iter(advances)
    (tc, delta), (ta, mark) = next(changes, (None, None)), next(advances, (None, None))
    while tc or ta or fifo:
        t = min(h for h in (tc, ta, fifo and fifo[0][0]) if h)
        if until is not None and t > until:
            break
        stats["steps"] += 1

        # 1. Add the change at t to the pending change of the groups it
        # touches. A change to a closed group is late: it is dropped and
        # counted once, here.
        changed: set = set()  # groups changed at t and not yet emitted
        if tc == t:
            stats["recomputes"] += 1
            for key, d in delta.items():
                if passed(key, horizon):
                    stats["dropped_late_rows"] += sum(map(abs, d.values()))
                    continue
                change = pending[key]
                change.update(d)
                for row in [r for r in d if not change[r]]:
                    del change[row]
                if keep(key):
                    changed.add(key)
            live |= changed
            tc, delta = next(changes, (None, None))

        # 2. Fire delay timers due at t (they see the change applied at t).
        # A closed group still materializes its last change, then is
        # forgotten.
        while fifo and fifo[0][0] <= t:
            ft, key = fifo.popleft()
            if timers.get(key) != ft:
                continue  # cancelled by an on-time pane
            del timers[key]
            stats["timer_fires"] += 1
            materialize(key, t)
            changed.discard(key)
            keep(key)

        # 3. Delay timers or immediate emissions for changed groups.
        for key in sorted(changed, key=D.nulls_first):
            if emit.after_delay is not None:
                if key not in timers:
                    timers[key] = t + emit.after_delay
                    fifo.append((timers[key], key))
            elif emit.continuous or passed(key, wm):
                # Under AFTER WATERMARK, a late pane (only reachable with
                # allowed_lateness > 0): a complete group that is not closed.
                materialize(key, t)

        # 4. Watermark advances: on-time panes for groups it completes,
        # then release of groups it closes.
        if ta == t:
            prior, wm = wm, mark
            horizon = None if wm is None else wm - emit.allowed_lateness
            for key in sorted(live, key=D.nulls_first):
                if emit.after_watermark and passed(key, wm) and not passed(key, prior):
                    materialize(key, t)
                    timers.pop(key, None)  # it supersedes a pending early pane
                if passed(key, horizon):
                    stats["finalized_groups"] += 1
                    live.discard(key)
                keep(key)
            ta, mark = next(advances, (None, None))

        stats["max_live_groups"] = max(stats["max_live_groups"], len(live))

    stats["final_live_groups"] = len(live)
    stats["final_watermark"] = wm
    return entries, stats


def run_query(
    spark: SparkSession, logs: Mapping[str, EventLog], query: QueryFn, *,
    emit: EmitSpec = EmitSpec(), key_cols: Optional[Sequence[str]] = None,
    wend_col: Optional[str] = None, until=None,
) -> StreamResult:
    """One-shot :class:`TvrEngine` run; by default the tagged window columns
    group the result, and ``wend_col`` overrides its completeness column."""
    eng = TvrEngine(spark, query, key_cols=key_cols, wend_col=wend_col)
    return eng.run(logs, emit=emit, until=until)


@contextmanager
def _snapshots(spark: SparkSession, logs: Mapping[str, EventLog]) -> Iterator[tuple]:
    """Yield ``at -> {name: snapshot DataFrame}``, the prefix ``ptime <= at``
    of each input's arrivals (a TVR is one relation per ptime, §3.1), and
    the sorted distinct ptimes of all inserts. Each input is shipped once,
    ``ptime`` as int64 ns and its schema inferred from all of its inserts,
    and pinned by ``localCheckpoint``, so steps scan it instead of a
    ``LocalRelation`` that Catalyst evaluates on the driver and every task
    re-ships. A pin is one partition: the filter, windowing, views, joins
    and unions keep its ``SinglePartition``, which satisfies every required
    distribution, so a step plans no ``Exchange`` (AQE runs each shuffle
    stage as a job: 4 per Q7 step at a pin per core) and is one job. The
    pin is lazy: the first step's job stores the blocks. The pins are
    released on exit, also on error."""
    require_utc(spark)
    pinned: Dict[str, DataFrame] = {}
    inserted: set = set()
    try:
        for name, log in logs.items():
            arrivals = log.arrivals_pdf()
            if len(arrivals) == 0:
                raise ValueError(
                    f"input log {name!r} has no inserts; cannot infer a Spark schema"
                )
            inserted.update(pd.DatetimeIndex(arrivals[PTIME].unique()))
            arrivals[PTIME] = arrivals[PTIME].to_numpy("datetime64[ns]").view("int64")
            pinned[name] = spark.createDataFrame(arrivals).coalesce(1).localCheckpoint(eager=False)

        def snapshot(name: str, at) -> DataFrame:
            # A SQL string, like every column the engine and windowing build.
            keep = "true" if at is None else f"{PTIME} <= {pd.Timestamp(at).value}"
            return pinned[name].where(keep).select(*logs[name].columns)

        yield (lambda at: {name: snapshot(name, at) for name in pinned}), sorted(inserted)
    finally:
        for df in pinned.values():
            df._jdf.queryExecution().analyzed().rdd().unpersist(False)
