"""Unit tests for EventLog — the changelog encoding of an input TVR."""
from datetime import timedelta

import pandas as pd
import pytest

from repro.core import snapshot_query
from repro.core.timeline import EventLog
from repro.nexmark import example as ex

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
        df = snapshot_query(spark, small_log(), lambda spark_, input: input)
        assert df.count() == 3
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
        assert ex.bid_log().validate_watermark().empty

    def test_validate_watermark_catches_violation(self):
        log = EventLog(["etime", "v"], etime_col="etime")
        log.watermark_to(t(8, 10), t(8, 5))
        log.insert(t(8, 11), t(8, 4), 1)  # etime 8:04 <= wm 8:05
        bad = log.validate_watermark()
        assert list(bad["v"]) == [1] and list(bad["ptime"]) == [t(8, 11)]


class TestPtimes:
    def test_distinct_sorted(self):
        assert small_log().ptimes() == [t(8, 1), t(8, 2), t(8, 3)]

    def test_paper_example_ptimes(self):
        assert len(ex.bid_log().ptimes()) == 10

    def test_end_ptime(self):
        assert small_log().ptimes()[-1] == t(8, 3)

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
        assert log.validate_watermark().empty
        assert list(log.events) == [t(8, 1), t(8, 1)]


class TestMerge:
    def _mk(self, rows, wms):
        log = EventLog(["etime", "v"], etime_col="etime")
        events = [(p, 0, (e, v)) for p, e, v in rows] + [(p, 1, e) for p, e in wms]
        for p, kind, payload in sorted(events, key=lambda x: (x[0], x[1])):
            if kind == 0:
                log.insert(p, *payload)
            else:
                log.watermark_to(p, payload)
        return log

    def test_merge_interleaves_inserts(self):
        a = self._mk([(t(8, 1), t(8, 0), 1)], [(t(8, 5), t(8, 3))])
        b = self._mk([(t(8, 2), t(8, 1), 2)], [(t(8, 4), t(8, 2))])
        m = a.merge(b)
        assert list(m.snapshot_pdf()["v"]) == [1, 2]

    def test_merge_holds_back_watermark(self):
        a = self._mk([(t(8, 1), t(8, 0), 1)], [(t(8, 5), t(8, 3))])
        b = self._mk([(t(8, 2), t(8, 1), 2)], [(t(8, 4), t(8, 2))])
        w = a.merge(b).watermark()
        # Combined watermark is min(a, b): undefined until both advanced,
        # then 8:02 (b's), never ahead of either input.
        assert w.at(t(8, 4)) is None
        assert w.at(t(8, 5)) == t(8, 2)

    def test_merge_rejects_schema_mismatch(self):
        a = EventLog(["x"], etime_col=None)
        b = EventLog(["y"], etime_col=None)
        a.insert(t(8, 0), 1)
        b.insert(t(8, 0), 2)
        with pytest.raises(ValueError, match="identical schemas"):
            a.merge(b)

    def test_merge_preserves_duration(self):
        a = self._mk([(t(8, 1), t(8, 0), 1)], [])
        b = self._mk([(t(8, 9), t(8, 8), 2)], [])
        assert a.merge(b).ptimes()[-1] == t(8, 9)
