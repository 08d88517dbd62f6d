"""P5 — NEXMark query suite, table-mode throughput at SF≈0.1 (600k bids,
100k auctions, 50k persons) through Catalyst with broadcast joins
disabled (the session fixture forces the shuffle path)."""
import pytest

from repro.nexmark import generator as gen
from repro.nexmark import queries as Q

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


def _bench(benchmark, fn, min_rows=0):
    cnt = benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=1)
    assert cnt >= min_rows
    benchmark.extra_info["output_rows"] = cnt
    benchmark.extra_info["input_bids"] = N


def test_bench_q1_currency_conversion(benchmark, spark, tables):
    bid, _, _ = tables
    _bench(benchmark, lambda: Q.q1(spark, bid).count(), min_rows=N)


def test_bench_q2_selection(benchmark, spark, tables):
    bid, _, _ = tables
    _bench(benchmark, lambda: Q.make_q2()(spark, bid).count())


def test_bench_q3_join(benchmark, spark, tables):
    bid, person, auction = tables
    _bench(benchmark, lambda: Q.make_q3()(spark, auction, person).count())


def test_bench_q5_hot_items(benchmark, spark, tables):
    bid, _, _ = tables
    _bench(benchmark, lambda: Q.make_q5()(spark, bid).count(), min_rows=1)


def test_bench_q7_highest_bid(benchmark, spark, tables):
    bid, _, _ = tables
    _bench(benchmark, lambda: Q.make_q7()(spark, bid).count(), min_rows=1)


def test_bench_q8_new_users(benchmark, spark, tables):
    bid, person, auction = tables
    _bench(benchmark, lambda: Q.make_q8()(spark, person, auction).count())
