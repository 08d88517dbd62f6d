"""A Spark-free reference interpreter of the paper's TVR semantics, the
oracle the engine's changelog is checked against.

It shares no code with the engine: it takes only ``EventLog``,
``Watermark`` and ``EmitSpec`` from ``repro``, runs a query's DuckDB twin,
and applies the definitions as the paper states them.

- A TVR is one relation per processing time (§3.1). At every ptime at which
  an input inserts rows, the twin ``sql`` runs over each input's snapshot
  :meth:`EventLog.snapshot_pdf`, registered under the input's name.
- A *group* is the result rows that agree on ``key``. Its change at ``t`` is
  the difference of its rows at ``t`` and at the previous step (DBSP's
  differentiate, Budiu et al., VLDB 2023). NaN reads as NULL.
- The watermark at ``t`` is the minimum of the watermarks of the inputs that
  have an event-time column, undefined until each of them has advanced
  (hold-back, §5).
- A group is *complete* once the watermark reaches its ``wend`` value and
  *closed* once it reaches ``wend`` plus the allowed lateness. A change to a
  closed group is late: it is dropped and its rows are counted (Ext 2).
- A *pane* makes a group's emitted rows equal its accepted rows: undos of
  the rows it loses, then inserts of the rows it gains, each NULLs first, and
  ``ver`` numbers the group's emitted rows from 0 (Ext 4). A group gets a
  pane at each change when nothing gates it; at completeness and at each
  later change under AFTER WATERMARK (Ext 5); ``after_delay`` after its first
  change since its last pane under AFTER DELAY (Ext 6); under both, by delay
  and at completeness, where the on-time pane cancels the running delay
  (Ext 7).

Within one ptime the change comes first, then the delays that are due, then
the panes the change triggers, and last the watermark advance.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from datetime import timedelta
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import duckdb
import pandas as pd

from repro.core.emit import EmitSpec
from repro.core.timeline import EventLog
from repro.core.watermark import Watermark

META = ["undo", "ptime", "ver"]
Step = Tuple[pd.Timestamp, List[tuple]]  # (ptime, result rows)
Mark = Tuple[pd.Timestamp, Optional[pd.Timestamp]]  # (ptime, watermark)


def nulls_first(values: tuple) -> tuple:
    """Sort key that places NULLs first."""
    return tuple((v is not None, v) for v in values)


def query_results(logs: Mapping[str, EventLog], sql: str) -> Tuple[List[str], List[Step]]:
    """The result columns, and the rows of ``sql`` at every insert ptime."""
    ptimes = sorted({p for log in logs.values() for p in log.arrivals_pdf()["ptime"]})
    con = duckdb.connect()
    con.execute("SET threads TO 1")  # float sums in one order at every step
    steps, columns = [], []
    try:
        for t in ptimes:
            for name, log in logs.items():
                con.register(name, log.snapshot_pdf(t))
            result = con.execute(sql).fetchdf()
            columns = list(result.columns)
            rows = result.itertuples(index=False, name=None)
            steps.append((t, [tuple(None if pd.isna(v) else v for v in r) for r in rows]))
    finally:
        con.close()
    return columns, steps


def watermarks(logs: Mapping[str, EventLog]) -> List[Mark]:
    """The held-back watermark at every ptime at which an input's watermark advances."""
    marks: List[Watermark] = [log.watermark() for log in logs.values() if log.etime_col]
    ptimes = sorted({p for m in marks for p, _ in m.updates})
    at = [[m.at(p) for m in marks] for p in ptimes]
    return [(p, None if None in wms else min(wms)) for p, wms in zip(ptimes, at)]


def materialize(
    steps: Sequence[Step], marks: Sequence[Mark], columns: Sequence[str],
    key: Sequence[str], wend: Optional[str], emit: EmitSpec,
) -> Tuple[List[tuple], int]:
    """The EMIT half: the changelog entries ``row + (undo, ptime, ver)`` of
    the result TVR given by its ``steps`` and the watermark ``marks``, and
    the number of late rows dropped."""
    key_at = [list(columns).index(k) for k in key]
    end_at = None if wend is None else list(key).index(wend)
    results, advances = dict(steps), dict(marks)

    def reached(group: tuple, wm, slack=timedelta(0)) -> bool:
        """Whether watermark ``wm`` has reached the group's wend plus slack."""
        end = None if end_at is None else group[end_at]
        return end is not None and wm is not None and pd.Timestamp(end) + slack <= wm

    prev: Dict[tuple, Counter] = {}  # each group's rows at the previous step
    accepted: Dict[tuple, Counter] = {}  # its rows at its last change not dropped
    shown: Dict[tuple, Counter] = {}  # its rows as of its last pane
    ver: Counter = Counter()
    delays: Dict[tuple, pd.Timestamp] = {}  # group -> when its delay is up
    entries: List[tuple] = []
    dropped, wm = 0, None

    def pane(group: tuple, t: pd.Timestamp) -> None:
        had, has = shown.get(group, Counter()), accepted[group]
        for undo, rows in ((True, had - has), (False, has - had)):
            for row in sorted(rows.elements(), key=nulls_first):
                entries.append(row + (undo, t, ver[group]))
                ver[group] += 1
        shown[group] = has

    clock = sorted(set(results) | set(advances))
    while clock:
        t = heapq.heappop(clock)
        while clock and clock[0] == t:
            heapq.heappop(clock)
        changed = []
        if t in results:
            now: Dict[tuple, Counter] = {}
            for row in results[t]:
                now.setdefault(tuple(row[i] for i in key_at), Counter())[row] += 1
            for group in now.keys() | prev.keys():
                has, had = now.get(group, Counter()), prev.get(group, Counter())
                if has == had:
                    continue
                if reached(group, wm, emit.allowed_lateness):
                    dropped += sum((has - had).values()) + sum((had - has).values())
                else:
                    accepted[group] = has
                    changed.append(group)
            prev = now
        due = [group for group, up in delays.items() if up == t]
        for group in due:
            del delays[group]
            pane(group, t)
        for group in changed:
            if group in due:
                continue
            if emit.after_delay is not None:
                if group not in delays:
                    delays[group] = t + emit.after_delay
                    heapq.heappush(clock, delays[group])
            elif not emit.after_watermark or reached(group, wm):
                pane(group, t)
        if t in advances:
            before, wm = wm, advances[t]
            for group in accepted:
                if emit.after_watermark and reached(group, wm) and not reached(group, before):
                    delays.pop(group, None)
                    pane(group, t)
    return entries, dropped


def late_rows(log: EventLog) -> int:
    """The inserts of ``log`` whose event time is below the watermark in force
    when they arrive: the late rows of the identity query in which each row
    is its own group, complete once the watermark passes its event time."""
    arrivals = log.arrivals_pdf()
    bounds = list(enumerate(arrivals[log.etime_col] + pd.Timedelta(1, "ns")))
    ends = arrivals["ptime"].searchsorted(arrivals["ptime"].unique(), side="right")
    steps = [(arrivals["ptime"].iloc[n - 1], bounds[:n]) for n in ends]
    columns = ["row", "bound"]
    return materialize(steps, watermarks({"log": log}), columns, columns, "bound", EmitSpec())[1]


def in_order(entries: List[tuple], columns: Sequence[str], key: Sequence[str]) -> List[tuple]:
    """``entries`` sorted by (ptime, key NULLs first, ver)."""
    key_at = [list(columns).index(k) for k in key]
    return sorted(entries, key=lambda e: (e[-2], nulls_first(tuple(e[i] for i in key_at)), e[-1]))


@dataclass
class Reference:
    """The reference's run: its changelog entries in (ptime, key, ver)
    order and the number of late rows it dropped."""

    columns: List[str]
    entries: List[tuple]
    dropped_late_rows: int

    @property
    def changelog(self) -> pd.DataFrame:
        return pd.DataFrame(self.entries, columns=self.columns + META).astype(
            {"undo": bool, "ver": "int64"}
        )

    def table(self, at=None) -> pd.DataFrame:
        """The changelog integrated up to ptime ``at`` (inclusive)."""
        rows: Counter = Counter()
        for *row, undo, ptime, _ in self.entries:
            if at is None or ptime <= pd.Timestamp(at):
                rows[tuple(row)] += -1 if undo else 1
        assert all(n >= 0 for n in rows.values()), "undo of a row not present"
        return pd.DataFrame(sorted(rows.elements(), key=nulls_first), columns=self.columns)


def run(
    logs: Mapping[str, EventLog], sql: str, key: Sequence[str], wend: Optional[str],
    emit: EmitSpec = EmitSpec(),
) -> Reference:
    """Interpret ``sql`` over ``logs`` under ``emit``; ``key`` names the
    result's group columns and ``wend`` the one that bounds a group in event
    time (``None``: no group completes)."""
    columns, steps = query_results(logs, sql)
    entries, dropped = materialize(steps, watermarks(logs), columns, key, wend, emit)
    return Reference(columns, in_order(entries, columns, key), dropped)
