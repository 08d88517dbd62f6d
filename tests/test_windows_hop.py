"""The Hop TVF (Extension 3): Listing 7/8 exactness, multiplicity and gap
semantics, and the DuckDB oracle over twins derived from the dialect's
texts (``tests/twins.py``)."""
from datetime import timedelta

import pytest
from pyspark.sql import functions as F

from repro.core.windows import hop, tumble
from repro.nexmark import example as ex
from repro.nexmark.generator import bids_pdf
from repro.nexmark.queries import q5_sql
from repro.sqlext.executor import sql_query_fn
from tests.helpers import assert_pdf_equal, assert_same_tvf
from tests.oracle import assert_equivalent
from tests.test_sqlext_exec import LISTING_8_SQL
from tests.twins import twin

t = ex.t
TEN = timedelta(minutes=10)
FIVE = timedelta(minutes=5)


@pytest.fixture(scope="module")
def bid_df(spark):
    return spark.createDataFrame(ex.bid_log().snapshot_pdf())


@pytest.fixture(scope="module")
def gen_df(spark):
    pdf = bids_pdf(n=1500, seed=5)
    return spark.createDataFrame(pdf.drop(columns=["ptime"])), pdf


class TestListing7:
    def test_exact_rows(self, bid_df):
        got = hop(bid_df, "bidtime", TEN, FIVE).select(
            "wstart", "wend", "bidtime", "price", "item"
        )
        assert_pdf_equal(got.toPandas(), ex.LISTING_7, ordered=False)

    def test_each_bid_in_two_windows(self, bid_df):
        assert hop(bid_df, "bidtime", TEN, FIVE).count() == 2 * bid_df.count()


class TestListing8:
    def test_grouped_max(self, bid_df):
        got = (
            hop(bid_df, "bidtime", TEN, FIVE)
            .groupBy("wstart", "wend")
            .agg(F.max("price").alias("maxprice"))
        )
        assert_pdf_equal(got.toPandas(), ex.LISTING_8, ordered=False)


class TestMultiplicity:
    def test_overlap_factor(self, gen_df):
        """hopsize < dur: every row lands in exactly dur/hopsize windows."""
        df, pdf = gen_df
        assert hop(df, "bidtime", TEN, FIVE).count() == 2 * len(pdf)
        assert (
            hop(df, "bidtime", TEN, timedelta(minutes=2)).count() == 5 * len(pdf)
        )

    def test_hopsize_equal_dur_is_tumble(self, gen_df):
        from repro.core.windows import tumble

        df, _ = gen_df
        h = hop(df, "bidtime", TEN, TEN).select("bidtime", "wstart", "wend")
        tu = tumble(df, "bidtime", TEN).select("bidtime", "wstart", "wend")
        assert h.exceptAll(tu).count() == 0 and tu.exceptAll(h).count() == 0

    def test_window_contains_timestamp(self, gen_df):
        df, _ = gen_df
        out = hop(df, "bidtime", TEN, FIVE)
        bad = out.filter(
            (F.col("bidtime") < F.col("wstart")) | (F.col("bidtime") >= F.col("wend"))
        )
        assert bad.count() == 0

    def test_wstart_on_hop_grid(self, gen_df):
        df, _ = gen_df
        out = hop(df, "bidtime", TEN, FIVE)
        assert out.filter(F.col("wstart").cast("long") % 300 != 0).count() == 0

    def test_matches_spark_native_sliding_window(self, gen_df):
        df, _ = gen_df
        ours = hop(df, "bidtime", TEN, FIVE).select("bidtime", "wstart", "wend")
        native = df.select(
            "bidtime",
            F.window("bidtime", "10 minutes", "5 minutes").start.alias("wstart"),
            F.window("bidtime", "10 minutes", "5 minutes").end.alias("wend"),
        )
        assert ours.exceptAll(native).count() == 0
        assert native.exceptAll(ours).count() == 0


class TestGaps:
    def test_gap_windows_drop_rows(self, spark):
        """hopsize > dur leaves gaps: rows in a gap appear in no window."""
        pdf = ex.bid_log().snapshot_pdf()
        df = spark.createDataFrame(pdf)
        # Windows of 2 min every 10 min: [8:00,8:02), [8:10,8:12), [8:20..
        out = hop(df, "bidtime", timedelta(minutes=2), TEN).toPandas()
        assert sorted(out["item"]) == ["B"]  # only 8:11 falls into a window
        assert out.iloc[0]["wstart"] == t(8, 10)

    def test_all_rows_dropped_when_everything_in_gaps(self, spark):
        pdf = ex.bid_log().snapshot_pdf()
        pdf = pdf[pdf["item"] == "A"]  # 8:07 only
        df = spark.createDataFrame(pdf)
        out = hop(df, "bidtime", timedelta(minutes=2), TEN)
        assert out.count() == 0



class TestRewindow:
    def test_hop_of_tumble(self, bid_df):
        """Hop over a tumbled input replaces its ``wstart``/``wend`` in place."""
        twice = hop(tumble(bid_df, "bidtime", TEN), "bidtime", TEN, FIVE)
        assert_same_tvf(twice, hop(bid_df, "bidtime", TEN, FIVE))


class TestValidation:
    def test_zero_hopsize_rejected(self, bid_df):
        with pytest.raises(ValueError, match="positive"):
            hop(bid_df, "bidtime", TEN, timedelta(0))

    def test_fractional_hop_rejected(self, bid_df):
        with pytest.raises(ValueError, match="whole seconds"):
            hop(bid_df, "bidtime", TEN, timedelta(milliseconds=500))


class TestOracle:
    def test_hop_grouped_max_vs_duckdb(self, gen_df):
        df, pdf = gen_df
        got = (
            hop(df, "bidtime", TEN, FIVE)
            .groupBy("wstart", "wend")
            .agg(F.max("price").alias("maxprice"))
        )
        assert_equivalent(got, twin(LISTING_8_SQL), bid=pdf.drop(columns=["ptime"]))

    def test_q5_hot_items_vs_duckdb(self, spark, gen_df):
        df, pdf = gen_df
        sql = q5_sql(TEN, FIVE)
        got = sql_query_fn(sql)(spark, bid=df)
        assert_equivalent(got, twin(sql), bid=pdf.drop(columns=["ptime"]))
