"""Watermarks — monotonic processing-time → event-time functions (§3.2.2).

A watermark is a step function: a sequence of ``(ptime, etime)`` updates,
non-decreasing in both coordinates. ``at(p)`` returns the event time up to
which the input is believed complete at processing time ``p`` — an assertion
that every record arriving after ``p`` carries an event timestamp strictly
greater than ``at(p)``.

``combine_min`` implements the "hold-back" rule from Section 5: when a
time-varying relation carries more than one watermarked event-time attribute
(e.g. after a join of two watermarked TVRs), the combined watermark is the
pointwise minimum of the inputs, so that *all* event-time attributes remain
aligned.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Optional

import pandas as pd


@dataclass(frozen=True)
class Watermark:
    """An immutable watermark timeline.

    ``updates`` is a tuple of ``(ptime, etime)`` pairs, strictly increasing
    in ``ptime`` and non-decreasing in ``etime``. Construction validates
    monotonicity — a watermark that retreats in event time would violate its
    own completeness assertion.
    """

    updates: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        prev_p: Optional[pd.Timestamp] = None
        prev_e: Optional[pd.Timestamp] = None
        for p, e in self.updates:
            if prev_p is not None:
                if p <= prev_p:
                    raise ValueError(
                        f"watermark ptimes must strictly increase: {prev_p} -> {p}"
                    )
                if e < prev_e:
                    raise ValueError(
                        f"watermark event time must not retreat: {prev_e} -> {e}"
                    )
            prev_p, prev_e = p, e

    @staticmethod
    def from_updates(updates: Iterable) -> "Watermark":
        """Build from any iterable of ``(ptime, etime)``, deduplicating
        same-ptime updates by keeping the latest etime."""
        by_ptime: dict = {}
        for p, e in updates:
            p, e = pd.Timestamp(p), pd.Timestamp(e)
            if p in by_ptime:
                by_ptime[p] = max(by_ptime[p], e)
            else:
                by_ptime[p] = e
        items = sorted(by_ptime.items())
        # Enforce etime monotonicity by taking a running max.
        out, run = [], None
        for p, e in items:
            run = e if run is None else max(run, e)
            out.append((p, run))
        return Watermark(tuple(out))

    def at(self, ptime) -> Optional[pd.Timestamp]:
        """The watermark's event-time value at processing time ``ptime``;
        ``None`` if no update has occurred yet (watermark at -infinity)."""
        ptime = pd.Timestamp(ptime)
        ptimes = [p for p, _ in self.updates]
        i = bisect.bisect_right(ptimes, ptime)
        return self.updates[i - 1][1] if i else None

    @staticmethod
    def combine_min(a: "Watermark", b: "Watermark") -> "Watermark":
        """Pointwise-minimum of two watermarks (multi-attribute hold-back).

        The result advances only when *both* inputs have advanced; its value
        at any ptime is ``min(a.at(p), b.at(p))`` (undefined while either
        input is still at -infinity).
        """
        points = sorted({p for p, _ in a.updates} | {p for p, _ in b.updates})
        out = []
        for p in points:
            ea, eb = a.at(p), b.at(p)
            if ea is None or eb is None:
                continue
            out.append((p, min(ea, eb)))
        # Drop non-advancing duplicates so updates stay strictly increasing
        # in ptime and minimal.
        dedup, last_e = [], None
        for p, e in out:
            if last_e is not None and e == last_e:
                continue
            dedup.append((p, e))
            last_e = e
        return Watermark(tuple(dedup))
