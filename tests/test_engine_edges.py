"""Engine edge cases: convenience entry points, error paths, empty and
degenerate inputs, and SQL-builder arithmetic at awkward instants."""
from datetime import timedelta

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import EmitSpec, TvrEngine, run_query, snapshot_query
from repro.core.timeline import EventLog
from repro.core.windows import hop_starts_sql, tumble, tumble_end_sql, tumble_start_sql
from repro.nexmark import example as ex
from repro.nexmark.queries import make_q7
from tests.helpers import assert_pdf_equal

t = ex.t


class TestConvenienceEntryPoints:
    def test_single_log_positional(self, spark):
        """run_query accepts a bare EventLog (named ``input`` for the
        query callable)."""

        def q(spark_, input):
            return input.select("item", "price")

        r = run_query(spark, ex.bid_log(), q, emit=EmitSpec(stream=True))
        assert r.emitted_rows() == 6

    def test_single_log_custom_name(self, spark):
        eng = TvrEngine(spark, make_q7(), key_cols=["wstart", "wend"], wend_col="wend")
        r = eng.run(ex.bid_log(), emit=EmitSpec(stream=True), input_name="bid")
        assert_pdf_equal(r.changelog, ex.LISTING_9)

    def test_snapshot_query_single_log(self, spark):
        df = snapshot_query(spark, ex.bid_log(), lambda s, input: input)
        assert df.count() == 6


class TestErrorPaths:
    def test_wend_col_must_be_key(self, spark):
        with pytest.raises(ValueError, match="wend_col must be one of key_cols"):
            TvrEngine(spark, make_q7(), key_cols=["wstart"], wend_col="wend")

    def test_wend_col_checked_against_inferred_keys(self, spark):
        # key_cols=None -> keys become all result columns; a wend_col not
        # among them is caught at first recompute.
        def q(spark_, input):
            return input.select("item")

        eng = TvrEngine(spark, q, wend_col="wend")
        with pytest.raises(ValueError, match="wend_col"):
            eng.run(ex.bid_log(), emit=EmitSpec(stream=True))

    def test_empty_log_rejected(self, spark):
        empty = EventLog(["etime", "v"], etime_col="etime")
        with pytest.raises(ValueError, match="no inserts"):
            run_query(spark, {"x": empty}, lambda s, x: x)

    def test_snapshot_query_empty_log_rejected(self, spark):
        empty = EventLog(["v"])
        with pytest.raises(ValueError, match="no inserts"):
            snapshot_query(spark, {"x": empty}, lambda s, x: x)


class TestDegenerateRuns:
    def test_until_before_first_event(self, spark):
        r = run_query(
            spark, {"bid": ex.bid_log()}, make_q7(),
            emit=EmitSpec(stream=True), until=t(8, 0),
            key_cols=["wstart", "wend"], wend_col="wend",
        )
        assert r.emitted_rows() == 0
        assert len(r.table()) == 0
        assert r.stats["recomputes"] == 0

    def test_query_with_always_empty_result(self, spark):
        def q(spark_, bid):
            return bid.filter("price > 1000000").select("item")

        r = run_query(spark, {"bid": ex.bid_log()}, q, emit=EmitSpec(stream=True))
        assert r.emitted_rows() == 0
        assert list(r.changelog.columns) == ["item", "undo", "ptime", "ver"]

    def test_multiple_inserts_at_same_ptime_one_batch(self, spark):
        log = EventLog(["bidtime", "price", "item"], etime_col="bidtime")
        log.insert(t(8, 5), t(8, 1), 1, "X")
        log.insert(t(8, 5), t(8, 2), 2, "Y")
        log.watermark_to(t(8, 30), t(8, 20))
        r = run_query(
            spark, {"bid": log}, make_q7(), emit=EmitSpec(stream=True),
            key_cols=["wstart", "wend"], wend_col="wend",
        )
        # Both bids land in one micro-batch: one recompute, one insert of
        # the max row (no interim X pane).
        assert r.stats["recomputes"] == 1
        assert list(r.changelog["item"]) == ["Y"]

    def test_log_without_watermarks_never_finalizes(self, spark):
        log = EventLog(["bidtime", "price", "item"], etime_col="bidtime")
        log.insert(t(8, 5), t(8, 1), 1, "X")
        r = run_query(
            spark, {"bid": log}, make_q7(),
            emit=EmitSpec(stream=True, after_watermark=True),
            key_cols=["wstart", "wend"], wend_col="wend",
        )
        assert r.emitted_rows() == 0
        assert r.stats["final_watermark"] is None

    def test_null_group_key(self, spark):
        # Two groups of one window change in the same step, one keyed by a
        # NULL item: the NULL group is emitted first, as Spark orders it.
        log = EventLog(["bidtime", "price", "item"], etime_col="bidtime")
        log.insert(t(8, 5), t(8, 1), 1, "X")
        log.insert(t(8, 5), t(8, 2), 2, None)
        log.watermark_to(t(8, 30), t(8, 20))

        def q(spark_, bid):
            return (
                tumble(bid, "bidtime", timedelta(minutes=10))
                .groupBy("wstart", "wend", "item")
                .agg(F.count(F.lit(1)).alias("n"))
            )

        for emit in (EmitSpec(stream=True), EmitSpec(stream=True, after_watermark=True)):
            r = run_query(
                spark, {"bid": log}, q, emit=emit,
                key_cols=["wstart", "wend", "item"], wend_col="wend",
            )
            assert list(r.changelog["item"]) == [None, "X"]
            assert list(r.table()["item"]) == [None, "X"]


class TestSqlBuilderArithmetic:
    """The shared SQL-text builders at awkward instants, evaluated through
    Catalyst on literal timestamps."""

    def _eval(self, spark, expr):
        return spark.sql(f"SELECT {expr} AS v").collect()[0]["v"]

    @pytest.mark.parametrize(
        "ts,expected_start",
        [
            ("2023-01-01 08:00:00", "2023-01-01 08:00:00"),  # on boundary
            ("2023-01-01 08:09:59", "2023-01-01 08:00:00"),
            ("2023-01-01 08:10:00", "2023-01-01 08:10:00"),
            ("2023-01-01 00:00:01", "2023-01-01 00:00:00"),
        ],
    )
    def test_tumble_start(self, spark, ts, expected_start):
        expr = tumble_start_sql(f"TIMESTAMP '{ts}'", 600)
        assert self._eval(spark, expr) == pd.Timestamp(expected_start)

    def test_tumble_end_is_start_plus_dur(self, spark):
        s = tumble_start_sql("TIMESTAMP '2023-01-01 08:07:00'", 600)
        e = tumble_end_sql("TIMESTAMP '2023-01-01 08:07:00'", 600)
        assert self._eval(spark, e) - self._eval(spark, s) == timedelta(minutes=10)

    def test_tumble_offset(self, spark):
        expr = tumble_start_sql("TIMESTAMP '2023-01-01 08:07:00'", 600, 180)
        assert self._eval(spark, expr) == pd.Timestamp("2023-01-01 08:03:00")

    def test_hop_starts_on_boundary(self, spark):
        expr = hop_starts_sql("TIMESTAMP '2023-01-01 08:10:00'", 600, 300)
        starts = self._eval(spark, expr)
        assert [pd.Timestamp(s, unit="s") for s in starts] == [
            pd.Timestamp("2023-01-01 08:05:00"),
            pd.Timestamp("2023-01-01 08:10:00"),
        ]

    def test_hop_gap_returns_empty(self, spark):
        # 2-minute windows every 10 minutes; 8:07 is in a gap.
        expr = hop_starts_sql("TIMESTAMP '2023-01-01 08:07:00'", 120, 600)
        assert self._eval(spark, expr) == []
