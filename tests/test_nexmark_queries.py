"""NEXMark query suite: each query's text on Spark against the DuckDB twin
derived from the same text (``tests/twins.py``) on generated snapshots, the
oracle's own failure modes, plus streaming behaviour spot checks."""
from datetime import timedelta

import pytest

from repro.core import EmitSpec, run_query
from repro.nexmark import generator as gen
from repro.nexmark import queries as Q
from repro.nexmark.example import LISTING_2_SQL
from repro.sqlext.executor import sql_query_fn
from tests.helpers import assert_pdf_equal, snapshot_query
from tests import twins
from tests.oracle import assert_equivalent


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


def run_sql(spark, sql, **tables):
    """``sql`` over Spark's ``tables`` through the dialect front end."""
    return sql_query_fn(sql)(spark, **tables)


def assert_matches_twin(spark, sql, **tables):
    """``sql`` on Spark equals its derived DuckDB twin on the same tables."""
    got = run_sql(spark, sql, **{name: df for name, (df, _) in tables.items()})
    assert_equivalent(got, twins.twin(sql), **{name: pdf for name, (_, pdf) in tables.items()})


class TestQ1CurrencyConversion:
    def test_vs_oracle(self, spark, bids):
        assert_matches_twin(spark, Q.Q1_SQL, bid=bids)

    def test_row_count_preserved(self, spark, bids):
        df, pdf = bids
        out = run_sql(spark, Q.Q1_SQL, bid=df)
        assert out.count() == len(pdf)
        assert dict(out.dtypes)["price_eur"] == "double"


class TestQ2Selection:
    def test_vs_oracle(self, spark, bids):
        assert_matches_twin(spark, Q.q2_sql(123), bid=bids)

    def test_filter_is_subset(self, spark, bids):
        df, pdf = bids
        out = run_sql(spark, Q.q2_sql(7), bid=df).toPandas()
        assert (out["item"] % 7 == 0).all()


class TestQ3LocalItemSuggestion:
    def test_vs_oracle(self, spark, people, auctions):
        assert_matches_twin(spark, Q.q3_sql(), auction=auctions, person=people)

    def test_filter_applied(self, spark, people, auctions):
        df_p, _ = people
        df_a, _ = auctions
        out = run_sql(spark, Q.q3_sql(category=10, states=("OR",)), auction=df_a, person=df_p)
        assert set(out.toPandas()["state"]) <= {"OR"}


class TestQ5HotItems:
    def test_vs_oracle(self, spark, bids):
        assert_matches_twin(spark, Q.q5_sql(), bid=bids)

    def test_winner_has_window_max_count(self, spark, bids):
        df, _ = bids
        out = run_sql(spark, Q.q5_sql(), bid=df).toPandas()
        per_window_max = out.groupby(["wstart", "wend"])["n_bids"].transform("max")
        assert (out["n_bids"] == per_window_max).all()


class TestQ7HighestBid:
    def test_ten_minute_text_is_listing_2(self):
        assert Q.q7_sql(timedelta(minutes=10)) == LISTING_2_SQL

    def test_vs_oracle(self, spark, bids):
        assert_matches_twin(spark, Q.q7_sql(), bid=bids)

    def test_small_window_vs_oracle(self, spark, bids):
        assert_matches_twin(spark, Q.q7_sql(timedelta(minutes=2)), bid=bids)

    def test_winning_price_is_window_max(self, spark, bids):
        df, _ = bids
        out = Q.make_q7()(spark, bid=df).toPandas()
        assert (
            out.groupby(["wstart", "wend"])["price"].transform("max") == out["price"]
        ).all()


class TestQ8NewUsers:
    def test_vs_oracle(self, spark, people, auctions):
        assert_matches_twin(spark, Q.q8_sql(), person=people, auction=auctions)

    def test_distinct(self, spark, people, auctions):
        df_p, _ = people
        df_a, _ = auctions
        out = run_sql(spark, Q.q8_sql(), person=df_p, auction=df_a).toPandas()
        assert len(out) == len(out.drop_duplicates())


class TestTwinMutations:
    """A wrong window binding in the twin deriver fails the comparisons
    above, so they check each text against the paper's windows."""

    def test_tumble_shifted_one_second_fails_q7(self, spark, bids, monkeypatch):
        start = twins.tumble_start
        monkeypatch.setattr(twins, "tumble_start", lambda call: f"{start(call)} + 1")
        with pytest.raises(AssertionError):
            assert_matches_twin(spark, Q.q7_sql(), bid=bids)

    def test_hop_dropping_last_window_fails_q5(self, spark, bids, monkeypatch):
        starts = twins.hop_starts
        monkeypatch.setattr(twins, "hop_starts", lambda call: f"{starts(call)}[:-2]")
        with pytest.raises(AssertionError):
            assert_matches_twin(spark, Q.q5_sql(), bid=bids)


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
            sql_query_fn(Q.q8_sql(timedelta(minutes=20))),
            emit=EmitSpec(stream=True, after_watermark=True),
        ), (pp, aa), logs

    def test_final_table_matches_batch_answer(self, spark, run):
        r, (pp, aa), _ = run
        batch = run_sql(
            spark, Q.q8_sql(timedelta(minutes=20)),
            person=spark.createDataFrame(pp.drop(columns=["ptime"])),
            auction=spark.createDataFrame(aa.drop(columns=["ptime"])),
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
