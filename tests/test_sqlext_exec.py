"""End-to-end: the paper's Listing 2 SQL text, verbatim, through the
dialect front end — reproducing Listings 3, 4, 9, 13 and 14 (T12)."""
from datetime import timedelta

import pandas as pd
import pytest
from pyspark.errors import AnalysisException

from repro.core.windows import hop, tumble
from repro.nexmark import example as ex
from repro.nexmark.example import LISTING_2_SQL
from repro.sqlext import run_extended_sql
from tests.helpers import assert_pdf_equal

t = ex.t

LISTING_5_SQL = """
SELECT wstart, wend, bidtime, price, item
FROM Tumble(
    data    => TABLE(Bid),
    timecol => DESCRIPTOR(bidtime),
    dur     => INTERVAL '10' MINUTES,
    offset  => INTERVAL '0' MINUTES)
""".strip()

# Listings 6 and 8 GROUP BY wend alone, exactly as the paper writes them:
# the rewriter's functional-dependency completion makes them valid SQL.
LISTING_6_SQL = """
SELECT TumbleBid.wstart, TumbleBid.wend, MAX(TumbleBid.price) maxprice
FROM Tumble(
    data    => TABLE(Bid),
    timecol => DESCRIPTOR(bidtime),
    dur     => INTERVAL '10' MINUTES) TumbleBid
GROUP BY TumbleBid.wend
""".strip()

LISTING_7_SQL = """
SELECT wstart, wend, bidtime, price, item
FROM Hop(
    data    => TABLE(Bid),
    timecol => DESCRIPTOR(bidtime),
    dur     => INTERVAL '10' MINUTES,
    hopsize => INTERVAL '5' MINUTES)
""".strip()

LISTING_8_SQL = """
SELECT HopBid.wstart, HopBid.wend, MAX(HopBid.price) maxprice
FROM Hop(
    data    => TABLE(Bid),
    timecol => DESCRIPTOR(bidtime),
    dur     => INTERVAL '10' MINUTES,
    hopsize => INTERVAL '5' MINUTES) HopBid
GROUP BY HopBid.wend
""".strip()


@pytest.fixture(scope="module")
def logs():
    return {"Bid": ex.bid_log()}


class TestListing2Verbatim:
    def test_emit_stream_reproduces_listing_9(self, spark, logs):
        r = run_extended_sql(spark, LISTING_2_SQL + " EMIT STREAM", logs)
        assert_pdf_equal(r.changelog, ex.LISTING_9)

    def test_table_view_reproduces_listing_3(self, spark, logs):
        r = run_extended_sql(spark, LISTING_2_SQL, logs)
        assert_pdf_equal(r.table(), ex.LISTING_3, ordered=False)

    def test_table_at_8_13_reproduces_listing_4(self, spark, logs):
        r = run_extended_sql(spark, LISTING_2_SQL, logs, until=t(8, 13))
        assert_pdf_equal(r.table(), ex.LISTING_4, ordered=False)

    def test_table_before_first_insert_is_empty_q7(self, spark, logs):
        # At 8:07 no bid has arrived: the table is Q7's empty relation.
        r = run_extended_sql(spark, LISTING_2_SQL, logs, until=t(8, 7))
        cols = ["wstart", "wend", "bidtime", "price", "item"]
        assert r.columns == cols
        assert list(r.table().columns) == cols and len(r.table()) == 0
        assert r.stats["recomputes"] == 0

    def test_after_watermark_reproduces_listing_13(self, spark, logs):
        r = run_extended_sql(
            spark, LISTING_2_SQL + " EMIT STREAM AFTER WATERMARK", logs
        )
        assert_pdf_equal(r.changelog, ex.LISTING_13)

    def test_after_watermark_table_views(self, spark, logs):
        r = run_extended_sql(spark, LISTING_2_SQL + " EMIT AFTER WATERMARK", logs)
        assert_pdf_equal(r.table(at=t(8, 13)), ex.LISTING_10, ordered=False)
        assert_pdf_equal(r.table(at=t(8, 16)), ex.LISTING_11, ordered=False)
        assert_pdf_equal(r.table(at=t(8, 21)), ex.LISTING_12, ordered=False)

    def test_after_delay_reproduces_listing_14(self, spark, logs):
        r = run_extended_sql(
            spark,
            LISTING_2_SQL + " EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES",
            logs,
        )
        assert_pdf_equal(r.changelog, ex.LISTING_14)


class TestTvfOnlyQueries:
    def test_listing_5_tumble_select_star(self, spark, logs):
        r = run_extended_sql(spark, LISTING_5_SQL, logs)
        assert_pdf_equal(r.table(), ex.LISTING_5, ordered=False)

    def test_listing_6_tumble_group_by_wend(self, spark, logs):
        r = run_extended_sql(spark, LISTING_6_SQL, logs)
        assert_pdf_equal(r.table(), ex.LISTING_6, ordered=False)

    def test_listing_7_hop_select_star(self, spark, logs):
        r = run_extended_sql(spark, LISTING_7_SQL, logs)
        assert_pdf_equal(r.table(), ex.LISTING_7, ordered=False)

    def test_listing_8_hop_group_by(self, spark, logs):
        r = run_extended_sql(spark, LISTING_8_SQL, logs)
        assert_pdf_equal(r.table(), ex.LISTING_8, ordered=False)

    def test_group_by_wend_only_projected(self, spark, logs):
        # Only the tagged wend is in the result: it is the whole key and
        # the completeness column, so each window emits once, on time.
        sql = """
            SELECT wend, MAX(price) AS maxprice
            FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
                        dur => INTERVAL '10' MINUTE)
            GROUP BY wend
            EMIT STREAM AFTER WATERMARK
        """
        r = run_extended_sql(spark, sql, logs)
        expected = pd.DataFrame(
            [(t(8, 10), 5, False, t(8, 16), 0), (t(8, 20), 6, False, t(8, 21), 0)],
            columns=["wend", "maxprice", "undo", "ptime", "ver"],
        )
        assert_pdf_equal(r.changelog, expected)
        assert r.stats["finalized_groups"] == 2


class TestDialectMatchesDataFrameApi:
    """A SQL TVF call and the DataFrame TVF agree on the same snapshot."""

    COLS = ["wstart", "wend", "bidtime", "price", "item"]

    def _check(self, spark, logs, tvf_sql, tvf_df):
        sql = f"SELECT {', '.join(self.COLS)} FROM {tvf_sql}"
        via_sql = run_extended_sql(spark, sql, logs).table()
        df = spark.createDataFrame(ex.bid_log().snapshot_pdf())
        via_df = tvf_df(df).select(*self.COLS).toPandas()
        assert len(via_df)
        assert_pdf_equal(via_sql, via_df, ordered=False)

    def test_tumble_sql_equals_tumble_df(self, spark, logs):
        self._check(
            spark, logs,
            "Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
            "dur => INTERVAL '7' MINUTES)",
            lambda df: tumble(df, "bidtime", timedelta(minutes=7)),
        )

    def test_tumble_offset_sql_equals_tumble_df(self, spark, logs):
        self._check(
            spark, logs,
            "Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
            "dur => INTERVAL '10' MINUTES, offset => INTERVAL '3' MINUTE)",
            lambda df: tumble(df, "bidtime", timedelta(minutes=10), timedelta(minutes=3)),
        )

    def test_hop_sql_equals_hop_df(self, spark, logs):
        self._check(
            spark, logs,
            "Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
            "dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '4' MINUTES)",
            lambda df: hop(df, "bidtime", timedelta(minutes=10), timedelta(minutes=4)),
        )


class TestTempViews:
    """A run drops every temp view it registered, on return and on error:
    a view left behind would read input pins the run has released."""

    TUMBLE = (
        "Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
        "dur => INTERVAL '10' MINUTE)"
    )

    @staticmethod
    def _assert_none_left(spark):
        for view in ("Bid", "__tvf0"):
            assert not spark.catalog.tableExists(view), view

    def test_dropped_after_run(self, spark, logs):
        r = run_extended_sql(spark, LISTING_2_SQL + " EMIT STREAM", logs)
        assert_pdf_equal(r.changelog, ex.LISTING_9)
        self._assert_none_left(spark)

    def test_dropped_when_statement_fails(self, spark, logs):
        with pytest.raises(AnalysisException, match="nope"):
            run_extended_sql(spark, f"SELECT nope FROM {self.TUMBLE}", logs)
        self._assert_none_left(spark)

    def test_dropped_when_run_fails(self, spark, logs):
        # The statement analyzes; the engine then rejects its result.
        with pytest.raises(ValueError, match="'ver'"):
            run_extended_sql(spark, f"SELECT wend, price AS ver FROM {self.TUMBLE}", logs)
        self._assert_none_left(spark)
