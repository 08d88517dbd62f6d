"""The synthetic NEXMark generator: schemas, determinism, out-of-order
properties, and watermark correctness by construction."""
from datetime import timedelta

import pandas as pd
import pytest

from repro.nexmark.generator import (
    REF_START,
    auctions_pdf,
    batch_watermarks,
    bid_event_log,
    bids_pdf,
    persons_pdf,
    stream_event_log,
)
from tests.reference import late_rows


class TestBids:
    @pytest.fixture(scope="class")
    def pdf(self):
        return bids_pdf(n=3000, seed=42, max_delay=timedelta(minutes=2))

    def test_schema(self, pdf):
        assert list(pdf.columns) == ["bidtime", "price", "item", "bidder", "ptime"]

    def test_deterministic_in_seed(self, pdf):
        again = bids_pdf(n=3000, seed=42, max_delay=timedelta(minutes=2))
        pd.testing.assert_frame_equal(pdf, again)

    def test_different_seed_differs(self, pdf):
        other = bids_pdf(n=3000, seed=43, max_delay=timedelta(minutes=2))
        assert not pdf.equals(other)

    def test_sorted_by_arrival(self, pdf):
        assert pdf["ptime"].is_monotonic_increasing

    def test_genuinely_out_of_event_time_order(self, pdf):
        assert not pdf["bidtime"].is_monotonic_increasing

    def test_delay_bounded(self, pdf):
        delay = pdf["ptime"] - pdf["bidtime"]
        assert (delay >= timedelta(0)).all()
        assert (delay <= timedelta(minutes=2)).all()

    def test_event_times_in_horizon(self, pdf):
        assert pdf["bidtime"].min() >= REF_START
        assert pdf["bidtime"].max() < REF_START + timedelta(hours=1)

    def test_item_skew(self, pdf):
        # Zipf keys: the hottest auction gets far more than uniform share.
        top_share = pdf["item"].value_counts().iloc[0] / len(pdf)
        assert top_share > 3 / 1000  # uniform share over 1000 auctions

    def test_prices_positive(self, pdf):
        assert (pdf["price"] >= 1).all() and (pdf["price"] <= 10_000).all()


class TestBatchWatermarks:
    def test_batch_count_and_quantization(self):
        pdf = bids_pdf(n=500, seed=1)
        batched, wms = batch_watermarks(
            pdf, n_batches=8, max_delay=timedelta(minutes=2)
        )
        assert len(wms) == 8
        assert batched["ptime"].nunique() <= 8

    def test_quantization_never_moves_arrivals_earlier(self):
        pdf = bids_pdf(n=500, seed=1).assign(rid=range(500))
        batched, _ = batch_watermarks(pdf, n_batches=8, max_delay=timedelta(minutes=2))
        joined = batched.merge(pdf, on="rid", suffixes=("_q", "_orig"))
        assert (joined["ptime_q"] >= joined["ptime_orig"]).all()

    def test_watermarks_monotonic(self):
        pdf = bids_pdf(n=500, seed=1)
        _, wms = batch_watermarks(pdf, n_batches=8, max_delay=timedelta(minutes=2))
        ptimes = [p for p, _ in wms]
        etimes = [e for _, e in wms]
        assert ptimes == sorted(ptimes) and etimes == sorted(etimes)

    def test_single_batch(self):
        pdf = bids_pdf(n=50, seed=1)
        batched, wms = batch_watermarks(pdf, n_batches=1, max_delay=timedelta(minutes=2))
        assert batched["ptime"].nunique() == 1 and len(wms) == 1

    def test_invalid_batch_count(self):
        with pytest.raises(ValueError):
            batch_watermarks(bids_pdf(n=10, seed=1), n_batches=0,
                             max_delay=timedelta(0))


class TestBidEventLog:
    @pytest.fixture(scope="class")
    def log(self):
        return bid_event_log(n=800, n_batches=10, seed=9,
                             max_delay=timedelta(minutes=2))

    def test_all_rows_present(self, log):
        assert len(log.arrivals_pdf()) == 800

    def test_watermark_has_no_violations(self, log):
        # The heuristic watermark (boundary - max_delay) must be correct
        # by construction: no insert below the in-force watermark.
        assert late_rows(log) == 0

    def test_one_watermark_per_batch(self, log):
        assert len(log.watermark().updates) == 10

    def test_event_columns(self, log):
        assert log.columns == ["bidtime", "price", "item", "bidder"]
        assert log.etime_col == "bidtime"


class TestPersonsAuctionsCategories:
    def test_persons_schema_and_order(self):
        p = persons_pdf(n=200, seed=2)
        assert list(p.columns) == ["id", "name", "city", "state", "entrytime", "ptime"]
        assert p["entrytime"].is_monotonic_increasing
        assert p["id"].is_unique

    def test_auctions_schema(self):
        a = auctions_pdf(n=100, n_sellers=200, seed=2)
        assert list(a.columns) == [
            "id", "itemname", "seller", "category", "reserve", "atime",
            "expires", "ptime",
        ]
        assert (a["expires"] >= a["atime"]).all()
        assert a["seller"].between(1, 200).all()

    def test_stream_event_log_wrapper(self):
        p = persons_pdf(n=100, seed=2)
        log = stream_event_log(p, etime_col="entrytime", n_batches=5)
        assert len(log.arrivals_pdf()) == 100
        assert log.etime_col == "entrytime"
        assert len(log.watermark().updates) == 5
        assert late_rows(log) == 0
