"""Unit tests for EventLog — the changelog encoding of an input TVR."""
from datetime import timedelta

import pandas as pd
import pytest

from repro.core.timeline import EventLog
from repro.nexmark import example as ex
from tests.helpers import ptimes, snapshot_query
from tests.reference import late_rows

t = ex.t


def small_log() -> EventLog:
    log = EventLog(["etime", "v"], etime_col="etime")
    log.insert(t(8, 1), t(8, 0), 10)
    log.watermark_to(t(8, 2), t(8, 0))
    log.insert(t(8, 3), t(8, 2), 20)
    log.insert(t(8, 3), t(8, 1), 30)
    return log


class TestConstruction:
    def test_positional_insert(self):
        log = EventLog(["a", "b"])
        log.insert(t(8, 0), 1, 2)
        arr = log.arrivals_pdf()
        assert list(arr.itertuples(index=False, name=None)) == [(t(8, 0), 1, 2)]

    def test_keyword_insert(self):
        log = EventLog(["a", "b"])
        log.insert(t(8, 0), b=2, a=1)
        assert list(log.snapshot_pdf().itertuples(index=False, name=None)) == [(1, 2)]

    def test_keyword_insert_missing_column(self):
        log = EventLog(["a", "b"])
        with pytest.raises(ValueError, match="missing columns"):
            log.insert(t(8, 0), a=1)

    def test_keyword_insert_unknown_column(self):
        # A misspelt column must not be dropped silently.
        log = EventLog(["a", "b"])
        with pytest.raises(ValueError, match=r"unknown columns: \['bb'\]"):
            log.insert(t(8, 0), a=1, b=2, bb=3)

    def test_wrong_arity(self):
        log = EventLog(["a", "b"])
        with pytest.raises(ValueError, match="expected"):
            log.insert(t(8, 0), 1)

    def test_mixing_positional_and_keyword_rejected(self):
        log = EventLog(["a", "b"])
        with pytest.raises(ValueError, match="not both"):
            log.insert(t(8, 0), 1, b=2)

    def test_ptime_order_enforced(self):
        log = EventLog(["a"])
        log.insert(t(8, 5), 1)
        with pytest.raises(ValueError, match="ptime order"):
            log.insert(t(8, 4), 2)

    def test_same_ptime_allowed(self):
        log = EventLog(["a"])
        log.insert(t(8, 5), 1).insert(t(8, 5), 2)
        assert len(log.events) == 2

    def test_watermark_requires_etime_col(self):
        log = EventLog(["a"])
        with pytest.raises(ValueError, match="etime_col"):
            log.watermark_to(t(8, 0), t(8, 0))

    def test_ptime_payload_column_rejected(self):
        with pytest.raises(ValueError, match="'ptime'"):
            EventLog(["ptime", "x"])
        pdf = pd.DataFrame({"arrival": [t(8, 0)], "ptime": [1], "x": [2]})
        with pytest.raises(ValueError, match="'ptime'"):
            EventLog.from_pandas(pdf, ptime_col="arrival")

    def test_bad_etime_col(self):
        with pytest.raises(ValueError, match="not in columns"):
            EventLog(["a"], etime_col="b")


class TestSnapshots:
    def test_full_snapshot(self):
        pdf = small_log().snapshot_pdf()
        assert len(pdf) == 3 and list(pdf.columns) == ["etime", "v"]

    def test_snapshot_at_excludes_future(self):
        pdf = small_log().snapshot_pdf(at=t(8, 1))
        assert list(pdf["v"]) == [10]

    def test_snapshot_at_is_inclusive(self):
        pdf = small_log().snapshot_pdf(at=t(8, 3))
        assert sorted(pdf["v"]) == [10, 20, 30]

    def test_snapshot_before_everything_is_empty(self):
        assert len(small_log().snapshot_pdf(at=t(7, 0))) == 0

    def test_arrivals_pdf_has_ptime(self):
        pdf = small_log().arrivals_pdf()
        assert list(pdf.columns) == ["ptime", "etime", "v"]
        assert pdf["ptime"].is_monotonic_increasing

    def test_snapshot_df_roundtrip(self, spark):
        df = snapshot_query(spark, {"input": small_log()}, lambda spark_, input: input)
        assert len(df) == 3
        assert set(df.columns) == {"etime", "v"}


class TestWatermarkView:
    def test_watermark_extraction(self):
        w = small_log().watermark()
        assert w.at(t(8, 2)) == t(8, 0)
        assert w.at(t(8, 1)) is None

    def test_paper_example_watermark(self):
        w = ex.bid_log().watermark()
        assert w.at(t(8, 13)) == t(8, 5)
        assert w.at(t(8, 21)) == t(8, 20)

    def test_validate_watermark_clean_log(self):
        assert late_rows(ex.bid_log()) == 0

    def test_validate_watermark_catches_violation(self):
        log = EventLog(["etime", "v"], etime_col="etime")
        log.watermark_to(t(8, 10), t(8, 5))
        log.insert(t(8, 10), t(8, 0), 0)  # before the advance at its ptime
        log.insert(t(8, 11), t(8, 4), 1)  # etime 8:04 < wm 8:05: late
        log.insert(t(8, 12), t(8, 5), 2)  # at the watermark: on time
        assert late_rows(log) == 1


class TestPtimes:
    def test_distinct_sorted(self):
        assert list(ptimes(small_log())) == [t(8, 1), t(8, 2), t(8, 3)]

    def test_paper_example_ptimes(self):
        assert len(ptimes(ex.bid_log())) == 10

    def test_end_ptime(self):
        assert small_log().events[-1] == t(8, 3)

    def test_counts(self):
        log = small_log()
        assert len(log.events) == 4 and len(log.arrivals_pdf()) == 3


class TestFromPandas:
    def test_roundtrip(self):
        pdf = pd.DataFrame(
            {
                "ptime": [t(8, 3), t(8, 1)],
                "etime": [t(8, 2), t(8, 0)],
                "v": [20, 10],
            }
        )
        log = EventLog.from_pandas(pdf, ptime_col="ptime", etime_col="etime")
        assert list(log.snapshot_pdf()["v"]) == [10, 20]

    def test_watermarks_interleaved_after_inserts(self):
        # The insert at 8:01 is applied before the watermark advance at
        # 8:01, so its etime below that watermark is not a violation.
        pdf = pd.DataFrame({"ptime": [t(8, 1)], "etime": [t(8, 0)], "v": [1]})
        log = EventLog.from_pandas(
            pdf,
            ptime_col="ptime",
            etime_col="etime",
            watermarks=[(t(8, 1), t(8, 5))],
        )
        assert late_rows(log) == 0
        assert list(log.events) == [t(8, 1), t(8, 1)]
