"""P3 — NEXMark Q7: the proposed SQL run continuously by the TVR engine
(12 micro-batches, EMIT STREAM AFTER WATERMARK) vs the CQL baseline
(heartbeat + RANGE/SLIDE + Rstream, one evaluation over the released
stream), on the same 50k-bid out-of-order log. Answers are cross-checked
for agreement; the tables in EXPERIMENTS.md discuss the cost shape."""
from datetime import timedelta

import pytest

from repro.core import EmitSpec, run_query
from repro.cql import cql_q7
from repro.nexmark.generator import bid_event_log
from repro.nexmark.queries import make_q7

N, BATCHES = 50_000, 12


@pytest.fixture(scope="module")
def log():
    return bid_event_log(
        n=N, n_batches=BATCHES, seed=72, n_auctions=200,
        duration=timedelta(hours=1), max_delay=timedelta(minutes=2),
        # CQL's (tau-r, tau] vs Tumble's [ws, we): keep timestamps off the
        # window grid so the two (both correct) boundary conventions agree.
        avoid_boundaries=timedelta(minutes=10),
    )


def _proposed(spark, log):
    return run_query(
        spark, {"bid": log}, make_q7(),
        emit=EmitSpec(stream=True, after_watermark=True),
    )


def test_bench_q7_proposed_sql_engine(benchmark, spark, log):
    r = benchmark.pedantic(
        lambda: _proposed(spark, log), rounds=2, iterations=1, warmup_rounds=1
    )
    assert r.stats["recomputes"] == BATCHES
    assert r.emitted_rows() >= 5  # one final pane per completed window
    benchmark.extra_info["evaluations"] = r.stats["recomputes"]
    benchmark.extra_info["answers"] = r.emitted_rows()


def test_bench_q7_cql_baseline(benchmark, spark, log):
    pdf = benchmark.pedantic(
        lambda: cql_q7(spark, log), rounds=2, iterations=1, warmup_rounds=1
    )
    assert len(pdf) >= 5
    benchmark.extra_info["answers"] = len(pdf)


def test_q7_systems_agree(spark, log):
    ours = _proposed(spark, log)
    mine = (
        ours.changelog[~ours.changelog["undo"]][["wend", "price", "item"]]
        .sort_values(["wend", "item"]).reset_index(drop=True)
    )
    cql = (
        cql_q7(spark, log)[["wend", "price", "item"]]
        .sort_values(["wend", "item"]).reset_index(drop=True)
    )
    assert mine.astype(str).equals(cql.astype(str))
