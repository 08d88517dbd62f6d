"""The Tumble TVF (Extension 3): Listing 5/6 exactness, partitioning
properties at scale, offset handling, and the DuckDB oracle over twins
derived from the dialect's texts (``tests/twins.py``)."""
from datetime import timedelta

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.windows import tumble
from repro.nexmark import example as ex
from repro.nexmark.generator import bids_pdf
from tests.helpers import assert_pdf_equal, assert_same_tvf
from tests.oracle import assert_equivalent
from tests.test_sqlext_exec import LISTING_6_SQL
from tests.twins import twin

t = ex.t
TEN = timedelta(minutes=10)
FIVE = timedelta(minutes=5)


@pytest.fixture(scope="module")
def bid_df(spark):
    return spark.createDataFrame(ex.bid_log().snapshot_pdf())


@pytest.fixture(scope="module")
def gen_df(spark):
    pdf = bids_pdf(n=2000, seed=3)
    return spark.createDataFrame(pdf.drop(columns=["ptime"])), pdf


class TestListing5:
    def test_exact_rows(self, spark, bid_df):
        got = tumble(bid_df, "bidtime", TEN).select(
            "wstart", "wend", "bidtime", "price", "item"
        )
        assert_pdf_equal(got.toPandas(), ex.LISTING_5, ordered=False)

    def test_all_input_columns_preserved(self, bid_df):
        out = tumble(bid_df, "bidtime", TEN)
        assert set(out.columns) == {"bidtime", "price", "item", "wstart", "wend"}

    def test_row_count_unchanged(self, bid_df):
        assert tumble(bid_df, "bidtime", TEN).count() == bid_df.count()


class TestListing6:
    def test_group_by_wend_max(self, spark, bid_df):
        got = (
            tumble(bid_df, "bidtime", TEN)
            .groupBy("wstart", "wend")
            .agg(F.max("price").alias("maxprice"))
        )
        assert_pdf_equal(got.toPandas(), ex.LISTING_6, ordered=False)

    def test_group_by_wstart_equals_group_by_wend(self, bid_df):
        tb = tumble(bid_df, "bidtime", TEN)
        by_wend = tb.groupBy("wend").agg(F.max("price").alias("m")).toPandas()
        by_wstart = tb.groupBy("wstart").agg(F.max("price").alias("m")).toPandas()
        assert sorted(by_wend["m"]) == sorted(by_wstart["m"])
        assert len(by_wend) == len(by_wstart)


class TestPartitioningProperties:
    def test_window_contains_timestamp(self, gen_df):
        df, _ = gen_df
        out = tumble(df, "bidtime", TEN)
        bad = out.filter(
            (F.col("bidtime") < F.col("wstart")) | (F.col("bidtime") >= F.col("wend"))
        )
        assert bad.count() == 0

    def test_window_width_is_dur(self, gen_df):
        df, _ = gen_df
        out = tumble(df, "bidtime", TEN)
        bad = out.filter(
            F.col("wend").cast("long") - F.col("wstart").cast("long") != 600
        )
        assert bad.count() == 0

    def test_wstart_on_grid(self, gen_df):
        df, _ = gen_df
        out = tumble(df, "bidtime", TEN)
        assert out.filter(F.col("wstart").cast("long") % 600 != 0).count() == 0

    def test_each_row_exactly_one_window(self, gen_df):
        df, pdf = gen_df
        assert tumble(df, "bidtime", TEN).count() == len(pdf)

    def test_matches_numpy_computation(self, gen_df):
        df, pdf = gen_df
        got = (
            tumble(df, "bidtime", TEN)
            .select("bidtime", "wstart")
            .toPandas()
            .sort_values(["bidtime", "wstart"])
            .reset_index(drop=True)
        )
        exp = pdf[["bidtime"]].copy()
        exp["wstart"] = exp["bidtime"].dt.floor("10min")
        exp = exp.sort_values(["bidtime", "wstart"]).reset_index(drop=True)
        assert_pdf_equal(got, exp)

    def test_matches_spark_native_window_function(self, gen_df):
        """Cross-check against Spark's built-in window() — the Structured
        Streaming analog of the Tumble TVF."""
        df, _ = gen_df
        ours = tumble(df, "bidtime", TEN).select("bidtime", "wstart", "wend")
        native = df.select(
            "bidtime",
            F.window("bidtime", "10 minutes").start.alias("wstart"),
            F.window("bidtime", "10 minutes").end.alias("wend"),
        )
        assert ours.exceptAll(native).count() == 0
        assert native.exceptAll(ours).count() == 0


class TestOffset:
    def test_offset_shifts_grid(self, spark, bid_df):
        out = tumble(bid_df, "bidtime", TEN, offset=timedelta(minutes=3)).toPandas()
        # 8:07 with offset 3 lands in [8:03, 8:13).
        row = out[out["item"] == "A"].iloc[0]
        assert row["wstart"] == t(8, 3) and row["wend"] == t(8, 13)

    def test_offset_larger_than_dur_wraps(self, spark, bid_df):
        a = tumble(bid_df, "bidtime", TEN, offset=timedelta(minutes=3)).toPandas()
        b = tumble(bid_df, "bidtime", TEN, offset=timedelta(minutes=13)).toPandas()
        assert_pdf_equal(a, b, ordered=False)


class TestRewindow:
    """A TVF over an input that already has ``wstart``/``wend`` replaces
    them in place: one tagged pair, as if applied to the input directly."""

    def test_tumble_of_tumble(self, bid_df):
        twice = tumble(tumble(bid_df, "bidtime", TEN), "bidtime", FIVE)
        assert_same_tvf(twice, tumble(bid_df, "bidtime", FIVE))

    def test_replaced_in_place(self, bid_df):
        inner = tumble(bid_df, "bidtime", TEN).select(
            "wend", "item", "bidtime", "wstart", "price"
        )
        out = tumble(inner, "bidtime", FIVE)
        assert out.columns == inner.columns
        direct = tumble(bid_df, "bidtime", FIVE)
        assert_same_tvf(out.select(*direct.columns), direct)


class TestValidation:
    def test_zero_dur_rejected(self, bid_df):
        with pytest.raises(ValueError, match="positive"):
            tumble(bid_df, "bidtime", timedelta(0))

    def test_fractional_seconds_rejected(self, bid_df):
        with pytest.raises(ValueError, match="whole seconds"):
            tumble(bid_df, "bidtime", timedelta(milliseconds=1500))

    def test_negative_offset_rejected(self, bid_df):
        with pytest.raises(ValueError, match="non-negative"):
            tumble(bid_df, "bidtime", TEN, offset=timedelta(minutes=-1))


class TestOracle:
    def test_tumble_grouped_max_vs_duckdb(self, spark, gen_df):
        df, pdf = gen_df
        got = (
            tumble(df, "bidtime", TEN)
            .groupBy("wstart", "wend")
            .agg(F.max("price").alias("maxprice"))
        )
        assert_equivalent(got, twin(LISTING_6_SQL), bid=pdf.drop(columns=["ptime"]))

    def test_tumble_grouped_count_and_sum_vs_duckdb(self, spark, gen_df):
        df, pdf = gen_df
        got = (
            tumble(df, "bidtime", timedelta(minutes=5))
            .groupBy("wstart")
            .agg(
                F.count(F.lit(1)).alias("n"),
                F.sum("price").alias("total"),
            )
        )
        sql = """
            SELECT wstart, COUNT(*) AS n, SUM(price) AS total
            FROM Tumble(data => TABLE(bid), timecol => DESCRIPTOR(bidtime),
                        dur => INTERVAL '5' MINUTE)
            GROUP BY wstart
        """
        assert_equivalent(got, twin(sql), bid=pdf.drop(columns=["ptime"]))
