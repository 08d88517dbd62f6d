"""P5 — NEXMark query suite, table-mode throughput at SF≈0.1 (600k bids,
100k auctions, 50k persons) through Catalyst with broadcast joins
disabled (the session fixture forces the shuffle path)."""
import pytest

from repro.nexmark import generator as gen
from repro.nexmark import queries as Q
from repro.sqlext.executor import sql_query_fn

N = 600_000


@pytest.fixture(scope="module")
def tables(spark):
    bid = spark.createDataFrame(
        gen.bids_pdf(n=N, seed=74).drop(columns=["ptime"])
    ).cache()
    person = spark.createDataFrame(
        gen.persons_pdf(n=N // 12, seed=75).drop(columns=["ptime"])
    ).cache()
    auction = spark.createDataFrame(
        gen.auctions_pdf(n=N // 6, n_sellers=N // 12, seed=76).drop(columns=["ptime"])
    ).cache()
    for d in (bid, person, auction):
        d.count()
    yield bid, person, auction
    for d in (bid, person, auction):
        d.unpersist()


def _bench(benchmark, spark, tables, sql, min_rows=0):
    bid, person, auction = tables
    query = sql_query_fn(sql)
    cnt = benchmark.pedantic(
        lambda: query(spark, bid=bid, person=person, auction=auction).count(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert cnt >= min_rows
    benchmark.extra_info["output_rows"] = cnt
    benchmark.extra_info["input_bids"] = N


def test_bench_q1_currency_conversion(benchmark, spark, tables):
    _bench(benchmark, spark, tables, Q.Q1_SQL, min_rows=N)


def test_bench_q2_selection(benchmark, spark, tables):
    _bench(benchmark, spark, tables, Q.q2_sql())


def test_bench_q3_join(benchmark, spark, tables):
    _bench(benchmark, spark, tables, Q.q3_sql())


def test_bench_q5_hot_items(benchmark, spark, tables):
    _bench(benchmark, spark, tables, Q.q5_sql(), min_rows=1)


def test_bench_q7_highest_bid(benchmark, spark, tables):
    _bench(benchmark, spark, tables, Q.q7_sql(), min_rows=1)


def test_bench_q8_new_users(benchmark, spark, tables):
    _bench(benchmark, spark, tables, Q.q8_sql())
