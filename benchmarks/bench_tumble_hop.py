"""P4 — windowing TVF throughput (Tumble vs Hop) at SF≈0.1 (600k bids).

The checkable shape: Tumble is row-preserving; Hop multiplies rows by
dur/hopsize; throughput degrades roughly with the multiplication factor.
"""
from datetime import timedelta

import pytest

from repro.core.windows import hop, tumble
from repro.nexmark.generator import bids_pdf

N = 600_000


@pytest.fixture(scope="module")
def bid_df(spark):
    pdf = bids_pdf(n=N, seed=73).drop(columns=["ptime"])
    df = spark.createDataFrame(pdf)
    df.cache().count()
    yield df
    df.unpersist()


def test_bench_tumble_10m(benchmark, spark, bid_df):
    cnt = benchmark.pedantic(
        lambda: tumble(bid_df, "bidtime", timedelta(minutes=10)).count(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert cnt == N
    benchmark.extra_info["rows"] = N
    benchmark.extra_info["multiplication"] = 1.0


def test_bench_hop_10m_5m(benchmark, spark, bid_df):
    cnt = benchmark.pedantic(
        lambda: hop(
            bid_df, "bidtime", timedelta(minutes=10), timedelta(minutes=5)
        ).count(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert cnt == 2 * N
    benchmark.extra_info["rows"] = N
    benchmark.extra_info["multiplication"] = 2.0


def test_bench_hop_10m_2m(benchmark, spark, bid_df):
    cnt = benchmark.pedantic(
        lambda: hop(
            bid_df, "bidtime", timedelta(minutes=10), timedelta(minutes=2)
        ).count(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert cnt == 5 * N
    benchmark.extra_info["rows"] = N
    benchmark.extra_info["multiplication"] = 5.0


def test_bench_tumble_grouped_max(benchmark, spark, bid_df):
    from pyspark.sql import functions as F

    def run():
        return (
            tumble(bid_df, "bidtime", timedelta(minutes=10))
            .groupBy("wstart", "wend")
            .agg(F.max("price").alias("maxprice"))
            .count()
        )

    cnt = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert cnt == 6  # one hour of bids / 10-minute windows
