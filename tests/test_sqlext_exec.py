"""End-to-end: the paper's Listing 2 SQL text, verbatim, through the
dialect front end — reproducing Listings 3, 4, 9, 13 and 14 (T12)."""
import pytest

from repro.core.windows import tumble
from repro.nexmark import example as ex
from repro.sqlext import run_extended_sql
from tests.helpers import LISTING_2_SQL, assert_pdf_equal

t = ex.t


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
        sql = """
            SELECT wstart, wend, bidtime, price, item
            FROM Tumble(
                data    => TABLE(Bid),
                timecol => DESCRIPTOR(bidtime),
                dur     => INTERVAL '10' MINUTES,
                offset  => INTERVAL '0' MINUTES)
        """
        r = run_extended_sql(spark, sql, logs)
        assert_pdf_equal(r.table(), ex.LISTING_5, ordered=False)

    def test_listing_6_tumble_group_by_wend(self, spark, logs):
        # GROUP BY wend alone, exactly as the paper writes it — the
        # rewriter's functional-dependency completion makes it valid SQL.
        sql = """
            SELECT TumbleBid.wstart, TumbleBid.wend, MAX(TumbleBid.price) maxprice
            FROM Tumble(
                data    => TABLE(Bid),
                timecol => DESCRIPTOR(bidtime),
                dur     => INTERVAL '10' MINUTES) TumbleBid
            GROUP BY TumbleBid.wend
        """
        r = run_extended_sql(spark, sql, logs)
        assert_pdf_equal(r.table(), ex.LISTING_6, ordered=False)

    def test_listing_7_hop_select_star(self, spark, logs):
        sql = """
            SELECT wstart, wend, bidtime, price, item
            FROM Hop(
                data    => TABLE(Bid),
                timecol => DESCRIPTOR(bidtime),
                dur     => INTERVAL '10' MINUTES,
                hopsize => INTERVAL '5' MINUTES)
        """
        r = run_extended_sql(spark, sql, logs)
        assert_pdf_equal(r.table(), ex.LISTING_7, ordered=False)

    def test_listing_8_hop_group_by(self, spark, logs):
        sql = """
            SELECT HopBid.wstart, HopBid.wend, MAX(HopBid.price) maxprice
            FROM Hop(
                data    => TABLE(Bid),
                timecol => DESCRIPTOR(bidtime),
                dur     => INTERVAL '10' MINUTES,
                hopsize => INTERVAL '5' MINUTES) HopBid
            GROUP BY HopBid.wend
        """
        r = run_extended_sql(spark, sql, logs)
        assert_pdf_equal(r.table(), ex.LISTING_8, ordered=False)


class TestDialectMatchesDataFrameApi:
    def test_tumble_sql_equals_tumble_df(self, spark, logs):
        from datetime import timedelta

        sql = """
            SELECT wstart, wend, bidtime, price, item
            FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
                        dur => INTERVAL '7' MINUTES)
        """
        via_sql = run_extended_sql(spark, sql, logs).table()
        df = spark.createDataFrame(ex.bid_log().snapshot_pdf())
        via_df = (
            tumble(df, "bidtime", timedelta(minutes=7))
            .select("wstart", "wend", "bidtime", "price", "item")
            .toPandas()
        )
        assert_pdf_equal(via_sql, via_df, ordered=False)

