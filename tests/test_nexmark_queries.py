"""NEXMark query suite: table-mode correctness against the DuckDB oracle
on generated snapshots, the oracle's own failure modes, plus streaming
behaviour spot checks."""
from datetime import timedelta

import pytest

from repro.core import EmitSpec, run_query
from repro.nexmark import generator as gen
from repro.nexmark import queries as Q
from repro.oracle import assert_equivalent
from tests.helpers import assert_pdf_equal, snapshot_query


@pytest.fixture(scope="module")
def bids(spark):
    pdf = gen.bids_pdf(n=4000, seed=17).drop(columns=["ptime"])
    return spark.createDataFrame(pdf), pdf


@pytest.fixture(scope="module")
def people(spark):
    pdf = gen.persons_pdf(n=400, seed=18).drop(columns=["ptime"])
    return spark.createDataFrame(pdf), pdf


@pytest.fixture(scope="module")
def auctions(spark):
    pdf = gen.auctions_pdf(n=600, n_sellers=400, seed=19).drop(columns=["ptime"])
    return spark.createDataFrame(pdf), pdf


class TestQ1CurrencyConversion:
    def test_vs_oracle(self, spark, bids):
        df, pdf = bids
        assert_equivalent(Q.q1(spark, df), Q.Q1_DUCKDB, bid=pdf)

    def test_row_count_preserved(self, spark, bids):
        df, pdf = bids
        assert Q.q1(spark, df).count() == len(pdf)


class TestQ2Selection:
    def test_vs_oracle(self, spark, bids):
        df, pdf = bids
        assert_equivalent(
            Q.make_q2(123)(spark, df), Q.q2_duckdb_sql(123), bid=pdf
        )

    def test_filter_is_subset(self, spark, bids):
        df, pdf = bids
        out = Q.make_q2(7)(spark, df).toPandas()
        assert (out["item"] % 7 == 0).all()


class TestQ3LocalItemSuggestion:
    def test_vs_oracle(self, spark, people, auctions):
        pdf_p, pp = people
        pdf_a, aa = auctions
        got = Q.make_q3()(spark, pdf_a, pdf_p)
        assert_equivalent(got, Q.q3_duckdb_sql(), auction=aa, person=pp)

    def test_filter_applied(self, spark, people, auctions):
        df_p, _ = people
        df_a, _ = auctions
        out = Q.make_q3(category=10, states=("OR",))(spark, df_a, df_p).toPandas()
        assert set(out["state"]) <= {"OR"}


class TestQ5HotItems:
    def test_vs_oracle(self, spark, bids):
        df, pdf = bids
        got = Q.make_q5()(spark, df)
        assert_equivalent(got, Q.q5_duckdb_sql(), bid=pdf)

    def test_winner_has_window_max_count(self, spark, bids):
        df, _ = bids
        out = Q.make_q5()(spark, df).toPandas()
        per_window_max = out.groupby(["wstart", "wend"])["n_bids"].transform("max")
        assert (out["n_bids"] == per_window_max).all()


class TestQ7HighestBid:
    def test_vs_oracle(self, spark, bids):
        df, pdf = bids
        got = Q.make_q7()(spark, df)
        assert_equivalent(got, Q.q7_duckdb_sql(), bid=pdf)

    def test_small_window_vs_oracle(self, spark, bids):
        df, pdf = bids
        dur = timedelta(minutes=2)
        got = Q.make_q7(dur)(spark, df)
        assert_equivalent(got, Q.q7_duckdb_sql(dur), bid=pdf)

    def test_winning_price_is_window_max(self, spark, bids):
        df, _ = bids
        out = Q.make_q7()(spark, df).toPandas()
        assert (
            out.groupby(["wstart", "wend"])["price"].transform("max") == out["price"]
        ).all()


class TestQ8NewUsers:
    def test_vs_oracle(self, spark, people, auctions):
        df_p, pp = people
        df_a, aa = auctions
        got = Q.make_q8()(spark, df_p, df_a)
        assert_equivalent(got, Q.q8_duckdb_sql(), person=pp, auction=aa)

    def test_distinct(self, spark, people, auctions):
        df_p, _ = people
        df_a, _ = auctions
        out = Q.make_q8()(spark, df_p, df_a).toPandas()
        assert len(out) == len(out.drop_duplicates())


class TestOracleFailureModes:
    def test_oracle_catches_wrong_result(self, spark, bids):
        df, pdf = bids
        got = df.groupBy("item").count().withColumnRenamed("count", "n")
        with pytest.raises(AssertionError):
            assert_equivalent(
                got,
                # Off-by-one oracle: deliberately wrong.
                "SELECT item, COUNT(*) + 1 AS n FROM bid GROUP BY item",
                bid=pdf,
            )

    def test_oracle_catches_column_mismatch(self, spark, bids):
        df, pdf = bids
        got = df.groupBy("item").count()
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(
                got, "SELECT item, COUNT(*) AS n FROM bid GROUP BY item", bid=pdf
            )


class TestStreamingQ8MultiInput:
    """Q8 through the engine with two watermarked inputs — exercises the
    multi-input watermark hold-back (min) path."""

    @pytest.fixture(scope="class")
    def run(self, spark):
        pp = gen.persons_pdf(n=120, seed=21, duration=timedelta(minutes=40))
        aa = gen.auctions_pdf(
            n=150, n_sellers=120, seed=22, duration=timedelta(minutes=40)
        )
        logs = {
            "person": gen.stream_event_log(pp, etime_col="entrytime", n_batches=4),
            "auction": gen.stream_event_log(aa, etime_col="atime", n_batches=5),
        }
        return run_query(
            spark,
            logs,
            Q.make_q8(timedelta(minutes=20)),
            emit=EmitSpec(stream=True, after_watermark=True),
        ), (pp, aa), logs

    def test_final_table_matches_batch_answer(self, spark, run):
        r, (pp, aa), _ = run
        batch = Q.make_q8(timedelta(minutes=20))(
            spark,
            spark.createDataFrame(pp.drop(columns=["ptime"])),
            spark.createDataFrame(aa.drop(columns=["ptime"])),
        ).toPandas()
        # Windows complete under the combined (held-back) watermark are
        # final; with both inputs fully consumed every window closed by
        # min(wm_p, wm_a) must carry the batch answer.
        wm = r.stats["final_watermark"]
        complete = batch[batch["wend"] <= wm]
        assert_pdf_equal(
            r.table().sort_values(["wstart", "id"]).reset_index(drop=True),
            complete[r.columns].sort_values(["wstart", "id"]).reset_index(drop=True),
            ordered=False,
        )

    def test_combined_watermark_is_min(self, run):
        r, _, logs = run
        last = [log.watermark().updates[-1][1] for log in logs.values()]
        assert r.stats["final_watermark"] == min(last)

    def test_changelog_append_only(self, run):
        r, _, _ = run
        assert not r.changelog["undo"].any()


class TestSnapshotVsEngineTableParity:
    def test_q7_generated_stream(self, spark):
        log = gen.bid_event_log(n=600, n_batches=5, seed=33,
                                duration=timedelta(minutes=30))
        r = run_query(spark, {"bid": log}, Q.make_q7(), emit=EmitSpec(stream=True))
        snap = snapshot_query(spark, {"bid": log}, Q.make_q7())
        assert_pdf_equal(r.table(), snap, ordered=False)
