"""STREAM-style heartbeat buffering (paper §3.2).

The STREAM system "accommodates out-of-order data by buffering it on
intake and presenting it to the query processor in timestamp order" — the
CQL language itself never sees out-of-order input. This module reproduces
that intake stage over an :class:`~repro.core.timeline.EventLog`: rows are
buffered until a heartbeat (we reuse the log's watermark advances as
heartbeats) passes their event timestamp, then released in event-time
order.

Returns three frames: the in-order released stream (with the processing
time of release), heartbeat violations (rows arriving at or below an
already-passed heartbeat — STREAM assumes these cannot happen; we surface
them instead of silently mis-ordering), and rows still pending at end of
input.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np
import pandas as pd

from ..core.timeline import PTIME, EventLog


def reorder_with_heartbeat(
    log: EventLog, until=None
) -> Tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """Replay ``log`` through a heartbeat buffer, one processing time at a
    time: that ptime's inserts enter the buffer, then its heartbeat (if
    any) releases every buffered row at or below it.

    Returns ``(released, violations, pending)``; ``released`` has the
    payload columns plus ``release_ptime`` and is sorted by event time
    (ties: arrival order) — the order in which STREAM's query processor
    would consume the rows.
    """
    if log.etime_col is None:
        raise ValueError("heartbeat reordering needs an event-time column")
    until = None if until is None else pd.Timestamp(until)
    arrivals = log.arrivals_pdf(until)
    heartbeats = {
        p: e for p, e in log.watermark().updates if until is None or p <= until
    }
    steps = sorted(set(arrivals[PTIME]) | set(heartbeats))
    ends = arrivals[PTIME].searchsorted(steps, side="right")
    etimes = arrivals[log.etime_col].to_numpy()

    # Row positions in ``arrivals``; ``buffered`` stays in arrival order.
    buffered = np.empty(0, dtype=int)
    released, release_ptimes, violations = [], [], []
    last_released = None
    start = 0
    for ptime, end in zip(steps, ends):
        batch, start = np.arange(start, end), end
        # A row is a violation only when it can no longer be released in
        # event-time order — i.e. a row with a later event time has
        # already left the buffer. (The paper's own example advances the
        # watermark to 8:05 and later receives a bid *at* 8:05; that row
        # is still orderable, and the paper treats it as on-time.)
        if last_released is not None:
            late = etimes[batch] < last_released
            violations.extend(batch[late])
            batch = batch[~late]
        buffered = np.concatenate([buffered, batch])
        if ptime in heartbeats:
            ready = etimes[buffered] <= heartbeats[ptime]
            out = buffered[ready][np.argsort(etimes[buffered[ready]], kind="stable")]
            buffered = buffered[~ready]
            released.extend(out)
            release_ptimes += [ptime] * len(out)
            if len(out):
                last_released = etimes[out[-1]]
    pending = buffered[np.argsort(etimes[buffered], kind="stable")]
    rows = arrivals[log.columns]
    return (
        rows.iloc[released]
        .assign(release_ptime=pd.DatetimeIndex(release_ptimes))
        .reset_index(drop=True),
        rows.iloc[violations].reset_index(drop=True),
        rows.iloc[pending].reset_index(drop=True),
    )
