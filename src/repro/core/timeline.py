"""Time-varying relations encoded as event logs (§3.1, §6.2).

An :class:`EventLog` is the changelog encoding of an input TVR, stored as
two columns of time:

- the inserts, one pandas frame sorted by processing time: a ``ptime``
  column followed by the payload columns;
- the watermark timeline, a list of ``(ptime, etime)`` advances.

Within one processing time the log has a single order: every insert at
``p`` comes before the watermark advance at ``p``, so a batch is fully
applied before its closing watermark is observed. The snapshot encoding —
the classic relation at any processing time ``p`` — is then the prefix of
the inserts up to ``p`` (:meth:`EventLog.snapshot_pdf`); the two encodings
are duals (Sax et al., cited as [33] in the paper).

Processing time is explicit data here, not a wall clock: the paper's worked
example scripts both the arrival times and the watermark timeline, and
reproducing its listings bit-for-bit requires replaying exactly that script.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
import pandas as pd

from .watermark import Watermark

PTIME = "ptime"


class EventLog:
    """Changelog + watermark-timeline encoding of one input TVR.

    Parameters
    ----------
    columns:
        Payload column names.
    etime_col:
        Name of the distinguished event-time column (Extension 1). May be
        ``None`` for relations with no event-time attribute (classic tables).
    """

    def __init__(self, columns: Sequence[str], etime_col: Optional[str] = None):
        self.columns = list(columns)
        if PTIME in self.columns:
            raise ValueError(f"payload column {PTIME!r} is reserved for the arrival time")
        if etime_col is not None and etime_col not in self.columns:
            raise ValueError(f"etime_col {etime_col!r} not in columns {columns}")
        self.etime_col = etime_col
        self._frame = pd.DataFrame([], columns=[PTIME] + self.columns).astype({PTIME: "M8[ns]"})
        self._appended: list[tuple] = []  # insert() rows not yet in _frame
        self._wms: list[tuple] = []  # (ptime, etime) advances in ptime order
        self._max_ptime: Optional[pd.Timestamp] = None

    # -- construction -----------------------------------------------------

    def _check_ptime(self, ptime) -> pd.Timestamp:
        ptime = pd.Timestamp(ptime)
        if self._max_ptime is not None and ptime < self._max_ptime:
            raise ValueError(
                f"events must be appended in ptime order: {ptime} < {self._max_ptime}"
            )
        self._max_ptime = ptime
        return ptime

    def insert(self, ptime, *values, **kw) -> "EventLog":
        """Append an INSERT. Row given positionally (column order) or by
        keyword; returns ``self`` for chaining."""
        if values and kw:
            raise ValueError("pass the row positionally or by keyword, not both")
        if kw:
            missing = set(self.columns) - set(kw)
            if missing:
                raise ValueError(f"missing columns: {sorted(missing)}")
            extra = set(kw) - set(self.columns)
            if extra:
                raise ValueError(f"unknown columns: {sorted(extra)}")
            values = tuple(kw[c] for c in self.columns)
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, expected {len(self.columns)}"
            )
        self._appended.append((self._check_ptime(ptime), *values))
        return self

    def watermark_to(self, ptime, etime) -> "EventLog":
        """Append a watermark advance; returns ``self`` for chaining. It
        takes effect after every insert at the same ``ptime``, including
        inserts appended after it."""
        if self.etime_col is None:
            raise ValueError("cannot advance a watermark on a log without etime_col")
        self._wms.append((self._check_ptime(ptime), pd.Timestamp(etime)))
        return self

    @staticmethod
    def from_pandas(
        pdf: pd.DataFrame,
        *,
        ptime_col: str,
        etime_col: Optional[str] = None,
        watermarks: Iterable = (),
    ) -> "EventLog":
        """Build a log from a pandas frame with an arrival-time column.

        The rows are stably sorted by ``ptime_col``. ``watermarks`` is an
        iterable of ``(ptime, etime)`` advances, in any order.
        """
        cols = [c for c in pdf.columns if c != ptime_col]
        log = EventLog(cols, etime_col=etime_col)
        wms = sorted(((pd.Timestamp(p), e) for p, e in watermarks), key=lambda w: w[0])
        for p, e in wms:
            log.watermark_to(p, e)
        frame = pdf[[ptime_col] + cols].rename(columns={ptime_col: PTIME})
        frame[PTIME] = pd.to_datetime(frame[PTIME])
        log._frame = frame.sort_values(PTIME, kind="stable", ignore_index=True)
        ends = [*log._frame[PTIME].iloc[-1:], *(p for p, _ in log._wms[-1:])]
        log._max_ptime = max(ends, default=None)
        return log

    # -- inspection -------------------------------------------------------

    def _inserts(self) -> pd.DataFrame:
        """All inserts, with the rows appended since the last read folded in."""
        if self._appended:
            new = pd.DataFrame(self._appended, columns=self._frame.columns)
            if len(self._frame):
                new = pd.concat([self._frame, new], ignore_index=True)
            self._frame = new
            self._appended = []
        return self._frame

    def _upto(self, at) -> pd.DataFrame:
        frame = self._inserts()
        if at is None:
            return frame
        return frame.iloc[: frame[PTIME].searchsorted(pd.Timestamp(at), side="right")]

    @property
    def events(self) -> np.ndarray:
        """The processing time of every event — each insert and each
        watermark advance — in log order. Read-only: tvrbench's tracer
        reports its length as the size of the log."""
        return np.sort(np.concatenate([
            self._inserts()[PTIME].to_numpy("datetime64[ns]"),
            np.array([p for p, _ in self._wms], dtype="datetime64[ns]"),
        ]))

    def watermark(self) -> Watermark:
        """The input watermark timeline as a :class:`Watermark`."""
        return Watermark.from_updates(self._wms)

    # -- snapshot (table) encoding ---------------------------------------

    def snapshot_pdf(self, at=None) -> pd.DataFrame:
        """The classic relation at processing time ``at`` (inclusive) as a
        pandas frame; all rows if ``at`` is None."""
        return self._upto(at)[self.columns]

    def arrivals_pdf(self, at=None) -> pd.DataFrame:
        """Snapshot plus a leading ``ptime`` arrival column, sorted by it."""
        return self._upto(at).copy()
