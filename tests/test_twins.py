"""The DuckDB twin derived from a query's text (``tests/twins.py``) is
checked without Spark: against the hand-written Q7 twin at every insert
ptime, and against the paper's Listings 5–8 over the example's bids. A
wrong window binding makes the Q7 anchor fail, so the derivation is not
vacuous (its Spark-side mutations are in ``test_nexmark_queries.py``)."""
from datetime import timedelta

import duckdb
import pandas as pd
import pytest

from repro.nexmark import example as ex
from repro.nexmark import queries as Q
from repro.nexmark.generator import bid_event_log
from tests import reference as R
from tests import twins
from tests.helpers import assert_pdf_equal
from tests.test_sqlext_exec import LISTING_5_SQL, LISTING_6_SQL, LISTING_7_SQL, LISTING_8_SQL

LOGS = {
    "example": ex.bid_log,
    "generated": lambda: bid_event_log(
        n=300, n_batches=6, seed=5, duration=timedelta(minutes=40), n_auctions=20,
    ),
}


def steps(log, sql) -> tuple:
    """The result columns and each insert ptime's rows, sorted."""
    columns, results = R.query_results({"bid": log}, sql)
    return columns, [(t, sorted(rows, key=R.nulls_first)) for t, rows in results]


@pytest.mark.parametrize("minutes", [10, 2])
@pytest.mark.parametrize("log", list(LOGS))
def test_q7_twin_equals_hand_written(log, minutes):
    log, dur = LOGS[log](), timedelta(minutes=minutes)
    derived = steps(log, twins.twin(Q.q7_sql(dur)))
    assert derived == steps(log, Q.q7_duckdb_sql(dur))
    assert any(rows for _, rows in derived[1])


def test_shifted_tumble_fails_q7_anchor(monkeypatch):
    start = twins.tumble_start
    monkeypatch.setattr(twins, "tumble_start", lambda call: f"{start(call)} + 1")
    log = LOGS["example"]()
    assert steps(log, twins.twin(Q.q7_sql())) != steps(log, Q.q7_duckdb_sql())


def run_twin(sql: str, bid: pd.DataFrame) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        con.register("bid", bid)
        return con.execute(twins.twin(sql)).fetchdf()
    finally:
        con.close()


@pytest.mark.parametrize("sql, listing", [
    (LISTING_5_SQL, ex.LISTING_5), (LISTING_6_SQL, ex.LISTING_6),
    (LISTING_7_SQL, ex.LISTING_7), (LISTING_8_SQL, ex.LISTING_8),
], ids=["5", "6", "7", "8"])
def test_listing_twins(sql, listing):
    assert_pdf_equal(run_twin(sql, ex.bid_log().snapshot_pdf()), listing, ordered=False)


def test_tumble_offset():
    sql = ("SELECT wstart, bidtime FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),"
           " dur => INTERVAL '10' MINUTE, offset => INTERVAL '3' MINUTE)")
    got = run_twin(sql, ex.bid_log().snapshot_pdf()).sort_values("bidtime")
    assert list(got["wstart"]) == [ex.t(8, 3)] * 4 + [ex.t(8, 13)] * 2


def test_hop_gaps_give_no_rows():
    # 2-minute windows every 10 minutes: only 8:11 falls in one, [8:10, 8:12).
    sql = ("SELECT wstart, wend, item FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),"
           " dur => INTERVAL '2' MINUTE, hopsize => INTERVAL '10' MINUTE)")
    got = run_twin(sql, ex.bid_log().snapshot_pdf())
    assert got.values.tolist() == [[ex.t(8, 10), ex.t(8, 12), "B"]]
