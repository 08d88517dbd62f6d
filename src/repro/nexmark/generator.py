"""Synthetic NEXMark data (substitute for the reference Java generator).

NEXMark models an online auction platform with three streams — Person,
Auction, Bid — and a static Category table. The reference generator is a
network-timed Java program; for a deterministic, oracle-checkable
reproduction we synthesize the same schemas with NumPy, seeded:

- event times are sorted uniform arrivals over a configurable horizon;
- arrival (processing) times add a lognormal out-of-order delay bounded by
  ``max_delay`` — so the stream is genuinely out of event-time order, the
  property the paper's watermark machinery exists for;
- processing times are quantized to ``n_batches`` micro-batch boundaries
  (the Structured-Streaming-analog execution granularity), each batch
  closed by a watermark at ``boundary - max_delay``. This watermark is
  *correct by construction*: any future row arrives after the boundary and
  therefore has event time strictly greater than ``boundary - max_delay``.
- auction keys are Zipf-skewed (hot items), prices uniform integers.

Scale: ``n`` rows directly; tests use ~1k (SF≈0.01-equivalent), benchmarks
~100k–600k (SF≈0.1-equivalent).
"""
from __future__ import annotations

from datetime import timedelta
from typing import Optional

import numpy as np
import pandas as pd

from ..core.timeline import EventLog

REF_START = pd.Timestamp("2023-01-01 08:00:00")

US_STATES = ["OR", "ID", "CA", "WA", "NV", "AZ", "UT", "NY", "TX", "FL"]
CITIES = ["Portland", "Boise", "Fresno", "Seattle", "Reno", "Phoenix", "Provo"]


def _zipf_weights(n_keys: int, alpha: float) -> np.ndarray:
    ranks = np.arange(1, n_keys + 1)
    w = 1.0 / ranks**alpha
    return w / w.sum()


def bids_pdf(
    *,
    n: int,
    seed: int = 7,
    start: pd.Timestamp = REF_START,
    duration: timedelta = timedelta(hours=1),
    n_auctions: int = 1000,
    n_bidders: int = 500,
    max_price: int = 10_000,
    max_delay: timedelta = timedelta(minutes=2),
    zipf_alpha: float = 1.1,
    avoid_boundaries: Optional[timedelta] = None,
) -> pd.DataFrame:
    """Out-of-order Bid stream: columns ``bidtime`` (event time), ``price``,
    ``item`` (Zipf-skewed auction id), ``bidder``, ``ptime`` (arrival).
    Sorted by ``ptime``; deterministic in ``seed``.

    ``avoid_boundaries``: if set, event times that fall exactly on that
    grid are nudged +1s. Used by the CQL-equivalence experiments: CQL's
    ``[RANGE r SLIDE r]`` window is ``(tau-r, tau]`` while Tumble's is
    ``[ws, we)``, so a timestamp exactly on a boundary is assigned to
    different windows by the two (both correct) definitions.
    """
    g = np.random.default_rng(seed)
    dur_s = duration.total_seconds()
    etimes = start + pd.to_timedelta(
        np.sort(g.random(n) * dur_s), unit="s"
    ).floor("s")
    if avoid_boundaries is not None:
        grid = int(avoid_boundaries.total_seconds())
        secs = ((etimes - start).total_seconds()).astype("int64")
        on_grid = (secs + int(start.timestamp())) % grid == 0
        etimes = etimes + pd.to_timedelta(on_grid.astype(int), unit="s")
    delay_s = np.minimum(
        g.lognormal(mean=2.5, sigma=1.0, size=n), max_delay.total_seconds()
    )
    ptimes = etimes + pd.to_timedelta(delay_s, unit="s").floor("s")
    pdf = pd.DataFrame(
        {
            "bidtime": etimes,
            "price": g.integers(1, max_price + 1, n),
            "item": g.choice(
                np.arange(1, n_auctions + 1), size=n, p=_zipf_weights(n_auctions, zipf_alpha)
            ),
            "bidder": g.integers(1, n_bidders + 1, n),
            "ptime": ptimes,
        }
    )
    return pdf.sort_values("ptime", kind="stable").reset_index(drop=True)


def persons_pdf(
    *,
    n: int,
    seed: int = 11,
    start: pd.Timestamp = REF_START,
    duration: timedelta = timedelta(hours=1),
) -> pd.DataFrame:
    """Person stream: ``id, name, city, state, entrytime, ptime`` (in event
    time order; persons register in order)."""
    g = np.random.default_rng(seed)
    etimes = start + pd.to_timedelta(np.sort(g.random(n) * duration.total_seconds()), unit="s").round("s")
    return pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "name": [f"person_{i}" for i in range(1, n + 1)],
            "city": g.choice(CITIES, n),
            "state": g.choice(US_STATES, n),
            "entrytime": etimes,
            "ptime": etimes,
        }
    )


def auctions_pdf(
    *,
    n: int,
    n_sellers: int,
    seed: int = 13,
    start: pd.Timestamp = REF_START,
    duration: timedelta = timedelta(hours=1),
    n_categories: int = 20,
    max_auction_len: timedelta = timedelta(minutes=30),
) -> pd.DataFrame:
    """Auction stream: ``id, itemname, seller, category, reserve, atime,
    expires, ptime``."""
    g = np.random.default_rng(seed)
    etimes = start + pd.to_timedelta(np.sort(g.random(n) * duration.total_seconds()), unit="s").round("s")
    length = pd.to_timedelta(
        g.random(n) * max_auction_len.total_seconds(), unit="s"
    ).round("s")
    return pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "itemname": [f"item_{i}" for i in range(1, n + 1)],
            "seller": g.integers(1, n_sellers + 1, n),
            "category": g.integers(1, n_categories + 1, n),
            "reserve": g.integers(1, 5000, n),
            "atime": etimes,
            "expires": etimes + length,
            "ptime": etimes,
        }
    )


def batch_watermarks(
    pdf: pd.DataFrame,
    *,
    n_batches: int,
    max_delay: timedelta,
    ptime_col: str = "ptime",
) -> tuple[pd.DataFrame, list]:
    """Quantize arrivals into ``n_batches`` micro-batches and derive the
    per-batch closing watermarks.

    Returns ``(pdf with ptime quantized up to its batch boundary,
    [(boundary, boundary - max_delay), ...])``. Quantizing arrival times
    *up* never violates the watermark: rows in later batches still arrive
    after this batch's boundary.
    """
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    p0, p1 = pdf[ptime_col].min(), pdf[ptime_col].max()
    span_s = max(1.0, (p1 - p0).total_seconds())
    width = timedelta(seconds=span_s / n_batches)
    # A row arriving exactly on a boundary belongs to the batch that
    # boundary closes (ceil - 1), so its quantized arrival never crosses
    # its own closing watermark.
    frac = (pdf[ptime_col] - p0).dt.total_seconds() / width.total_seconds()
    idx = np.clip(np.ceil(frac).astype(int) - 1, 0, n_batches - 1)
    boundaries = [p0 + width * (i + 1) for i in range(n_batches)]
    out = pdf.copy()
    out[ptime_col] = [boundaries[i] for i in idx]
    wms = [(b, b - max_delay) for b in boundaries]
    return out.sort_values(ptime_col, kind="stable").reset_index(drop=True), wms


def bid_event_log(
    *,
    n: int,
    n_batches: int = 10,
    seed: int = 7,
    max_delay: timedelta = timedelta(minutes=2),
    etime_col: Optional[str] = "bidtime",
    **kw,
) -> EventLog:
    """A ready-to-run Bid :class:`EventLog`: generated stream, micro-batch
    quantized arrivals, per-batch heuristic watermarks."""
    return stream_event_log(
        bids_pdf(n=n, seed=seed, max_delay=max_delay, **kw),
        etime_col=etime_col,
        n_batches=n_batches,
        max_delay=max_delay,
    )


def stream_event_log(
    pdf: pd.DataFrame,
    *,
    etime_col: Optional[str],
    n_batches: int = 10,
    max_delay: timedelta = timedelta(0),
) -> EventLog:
    """Wrap any generated stream frame (with a ``ptime`` column) as an
    EventLog with micro-batch watermarks."""
    batched, wms = batch_watermarks(pdf, n_batches=n_batches, max_delay=max_delay)
    return EventLog.from_pandas(
        batched, ptime_col="ptime", etime_col=etime_col, watermarks=wms
    )
