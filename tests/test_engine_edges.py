"""Engine edge cases: convenience entry points, error paths, empty and
degenerate inputs, and SQL-builder arithmetic at awkward instants."""
import re
from datetime import timedelta

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import EmitSpec, run_query
from repro.core.engine import TvrEngine
from repro.core.timeline import EventLog
from repro.core.windows import (
    WINDOW_TAG, hop_starts_sql, tumble, tumble_end_sql, tumble_start_sql,
)
from repro.cql import cql_q7
from repro.nexmark import example as ex
from repro.nexmark import generator as gen
from repro.nexmark import queries as Q
from repro.nexmark.example import LISTING_2_SQL
from repro.nexmark.perf import hot_counts_query
from repro.nexmark.queries import make_q7
from repro.sqlext import run_extended_sql
from repro.sqlext.executor import sql_query_fn
from tests.helpers import snapshot_query
from tests.test_engine_properties import ITEM_COUNT_SQL, UNION_COUNT_SQL, split_bid_logs
from tests.test_sqlext_exec import LISTING_6_SQL, LISTING_8_SQL

t = ex.t


class TestConvenienceEntryPoints:
    def test_single_log_positional(self, spark):
        """run_query hands each log to the query callable under its key."""

        def q(spark_, input):
            return input.select("item", "price")

        r = run_query(spark, {"input": ex.bid_log()}, q, emit=EmitSpec(stream=True))
        assert r.emitted_rows() == 6

    def test_snapshot_query_single_log(self, spark):
        df = snapshot_query(spark, {"input": ex.bid_log()}, lambda s, input: input)
        assert len(df) == 6


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
            eng.run({"input": ex.bid_log()}, emit=EmitSpec(stream=True))

    def test_unknown_key_column_named(self, spark):
        msg = r"key columns \['nope'\] not in result columns \['wstart', 'wend'"
        with pytest.raises(ValueError, match=msg):
            run_query(spark, {"bid": ex.bid_log()}, make_q7(), key_cols=["wstart", "nope"])

    def test_metadata_column_name_rejected(self, spark):
        # A result column named like a changelog column would overwrite it.
        def q(spark_, bid):
            return bid.selectExpr("item", "price AS ver")

        with pytest.raises(ValueError, match="'ver'"):
            run_query(spark, {"bid": ex.bid_log()}, q, emit=EmitSpec(stream=True))

    @pytest.mark.parametrize("query, column", [
        (lambda s, bid: tumble(bid, "bidtime", 600).groupBy("wstart", "wend")
         .agg({"item": "collect_list"}), "collect_list(item)"),
        (lambda s, bid: bid.selectExpr("map(item, price) AS m"), "m"),
        (lambda s, bid: bid.selectExpr("struct(item, price) AS s"), "s"),
    ], ids=["array", "map", "struct"])
    def test_nested_column_rejected(self, spark, query, column):
        # The changelog diffs rows as hashable tuples.
        with pytest.raises(ValueError, match=re.escape(f"{column!r} is not scalar")):
            run_query(spark, {"bid": ex.bid_log()}, query, emit=EmitSpec(stream=True))

    def test_empty_log_rejected(self, spark):
        empty = EventLog(["etime", "v"], etime_col="etime")
        with pytest.raises(ValueError, match="no inserts"):
            run_query(spark, {"x": empty}, lambda s, x: x)

    def test_snapshot_query_empty_log_rejected(self, spark):
        empty = EventLog(["v"])
        with pytest.raises(ValueError, match="no inserts"):
            snapshot_query(spark, {"x": empty}, lambda s, x: x)


    def test_non_utc_session_rejected(self, spark):
        """The engine converts pandas timestamps to Spark and back, so it
        refuses a session whose time zone would shift them."""
        spark.conf.set("spark.sql.session.timeZone", "America/New_York")
        try:
            for call in (
                lambda: run_query(spark, {"bid": ex.bid_log()}, make_q7()),
                lambda: snapshot_query(spark, {"bid": ex.bid_log()}, make_q7()),
                lambda: cql_q7(spark, ex.bid_log()),
            ):
                with pytest.raises(ValueError, match="build_session"):
                    call()
        finally:
            spark.conf.set("spark.sql.session.timeZone", "UTC")


def _q8_both_wends(spark_, person, auction):
    """Q8 projecting both inputs' window ends: two tagged ``wend`` columns."""
    p = tumble(person, "entrytime", timedelta(minutes=20)).alias("p")
    a = tumble(auction, "atime", timedelta(minutes=20)).alias("a")
    return p.join(
        a, (F.col("p.id") == F.col("a.seller")) & (F.col("p.wstart") == F.col("a.wstart"))
    ).select("p.id", "p.wstart", "p.wend", F.col("a.wend").alias("awend")).distinct()


class TestWindowTags:
    """The engine's default grouping and completeness column come from the
    window columns ``tumble``/``hop`` tag in the result's schema."""

    def test_tags_survive_query_shapes(self, spark):
        bid = spark.createDataFrame([], "bidtime timestamp, price long, item string")
        person = spark.createDataFrame([], "id long, name string, entrytime timestamp")
        auction = spark.createDataFrame([], "seller long, atime timestamp")
        tumble(bid, "bidtime", 600).createOrReplaceTempView("tagged_bid")
        shapes = {
            "q7": lambda: make_q7()(spark, bid=bid),
            "q5": lambda: sql_query_fn(Q.q5_sql())(spark, bid=bid),
            "q8": lambda: sql_query_fn(Q.q8_sql())(spark, person=person, auction=auction),
            "listing_6": lambda: sql_query_fn(LISTING_6_SQL)(spark, Bid=bid),
            "listing_8": lambda: sql_query_fn(LISTING_8_SQL)(spark, Bid=bid),
            "hot_counts": lambda: hot_counts_query(timedelta(minutes=10))(spark, bid),
            "distinct": lambda: tumble(bid, "bidtime", 600).select("wstart", "wend")
            .distinct(),
            "sql_view": lambda: spark.sql(
                "SELECT wend, wstart, max(price) AS p FROM tagged_bid GROUP BY wstart, wend"
            ),
        }
        sc = spark.sparkContext
        sc.setJobGroup("window-tags", "schema reads only")
        try:
            for name, shape in shapes.items():
                tags = {f.name: f.metadata.get(WINDOW_TAG) for f in shape().schema.fields}
                assert tags["wstart"] == "wstart" and tags["wend"] == "wend", name
            assert sc.statusTracker().getJobIdsForGroup("window-tags") == []
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            spark.catalog.dropTempView("tagged_bid")

    def test_two_tagged_wends_need_wend_col(self, spark):
        pp = gen.persons_pdf(n=30, seed=21, duration=timedelta(minutes=40))
        aa = gen.auctions_pdf(n=40, n_sellers=30, seed=22, duration=timedelta(minutes=40))
        logs = {
            "person": gen.stream_event_log(pp, etime_col="entrytime", n_batches=2),
            "auction": gen.stream_event_log(aa, etime_col="atime", n_batches=2),
        }
        with pytest.raises(ValueError, match=r"\['wend', 'awend'\].*wend_col"):
            run_query(spark, logs, _q8_both_wends, emit=EmitSpec(stream=True))
        r = run_query(
            spark, logs, _q8_both_wends, emit=EmitSpec(stream=True), wend_col="wend"
        )
        assert r.stats["finalized_groups"] > 0
        assert (r.table()["awend"] == r.table()["wend"]).all()

    def test_keys_without_tagged_wend_never_complete(self, spark):
        r = run_query(
            spark, {"bid": ex.bid_log()}, make_q7(), emit=EmitSpec(stream=True),
            key_cols=["wstart"],
        )
        assert r.stats["finalized_groups"] == 0
        assert r.stats["final_live_groups"] == 2



class TestOneJobPerRecompute:
    """Each input is pinned as one partition, which every step's plan
    keeps, so no step needs a shuffle: a recompute is one Spark job, where
    AQE would run each shuffle stage as a job of its own."""

    RUNS = {
        "q7": lambda spark: run_query(spark, {"bid": ex.bid_log()}, make_q7()),
        "listing_2_sql": lambda spark: run_extended_sql(
            spark, LISTING_2_SQL + " EMIT STREAM", {"Bid": ex.bid_log()}
        ),
        "hot_counts": lambda spark: run_query(
            spark, {"bid": ex.bid_log()}, hot_counts_query(timedelta(minutes=10))
        ),
        "union": lambda spark: run_query(spark, split_bid_logs(), sql_query_fn(UNION_COUNT_SQL)),
    }

    @staticmethod
    def _jobs(spark, group: str, call) -> tuple:
        """``call()``'s result and the number of Spark jobs it ran."""
        sc = spark.sparkContext
        sc.setJobGroup(group, "jobs per recompute")
        try:
            out = call()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        return out, len(sc.statusTracker().getJobIdsForGroup(group))

    @pytest.mark.parametrize("shape", list(RUNS))
    def test_run(self, spark, shape):
        r, jobs = self._jobs(spark, f"one-job-{shape}", lambda: self.RUNS[shape](spark))
        assert r.stats["recomputes"] > 0
        assert jobs == r.stats["recomputes"]

    def test_snapshot_query(self, spark):
        df, jobs = self._jobs(
            spark, "one-job-snapshot",
            lambda: snapshot_query(spark, {"bid": ex.bid_log()}, make_q7()),
        )
        assert len(df) and jobs == 1


class TestDegenerateRuns:
    def test_until_before_first_event(self, spark):
        r = run_query(
            spark, {"bid": ex.bid_log()}, make_q7(),
            emit=EmitSpec(stream=True), until=t(8, 0),
        )
        assert r.emitted_rows() == 0
        assert len(r.table()) == 0
        assert r.stats["recomputes"] == 0
        # The columns still come from the query's schema: Q7's empty relation.
        cols = ["wstart", "wend", "bidtime", "price", "item"]
        assert r.columns == cols and list(r.table().columns) == cols

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
        r = run_query(spark, {"bid": log}, make_q7(), emit=EmitSpec(stream=True))
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
        q = sql_query_fn(ITEM_COUNT_SQL)
        for emit in (
            EmitSpec(stream=True),
            EmitSpec(stream=True, after_watermark=True),
            EmitSpec(stream=True, after_delay=timedelta(minutes=3)),
        ):
            r = run_query(
                spark, {"bid": log}, q, emit=emit,
                key_cols=["wstart", "wend", "item"],
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
