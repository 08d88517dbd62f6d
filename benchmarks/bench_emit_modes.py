"""P1 — "torrents of updates" (§5): changelog volume and cost of the three
materialization policies over the same high-cardinality windowed
aggregate (per-window per-auction counts, 50k bids, 12 micro-batches).

Shape asserted: continuous EMIT STREAM emits strictly more rows than
AFTER DELAY, which emits more than AFTER WATERMARK; AFTER WATERMARK emits
one pane per completed group."""
from datetime import timedelta

import pytest

from repro.core import EmitSpec, run_query
from repro.nexmark.generator import bid_event_log
from repro.nexmark.perf import hot_counts_query

N, BATCHES = 50_000, 12
KW = dict(key_cols=["wstart", "wend", "item"])
DUR = timedelta(minutes=10)


@pytest.fixture(scope="module")
def log():
    return bid_event_log(
        n=N, n_batches=BATCHES, seed=70, n_auctions=50,
        duration=timedelta(hours=1), max_delay=timedelta(minutes=2),
    )


@pytest.fixture(scope="module")
def results(spark, log):
    q = hot_counts_query(DUR)
    return {
        "stream": run_query(spark, {"bid": log}, q, emit=EmitSpec(stream=True), **KW),
        "delay": run_query(
            spark, {"bid": log}, q,
            emit=EmitSpec(stream=True, after_delay=timedelta(minutes=8)), **KW,
        ),
        "watermark": run_query(
            spark, {"bid": log}, q,
            emit=EmitSpec(stream=True, after_watermark=True), **KW,
        ),
    }


class TestUpdateVolumeShape:
    def test_ordering(self, results):
        s = results["stream"].emitted_rows()
        d = results["delay"].emitted_rows()
        w = results["watermark"].emitted_rows()
        assert s > d > w > 0

    def test_watermark_emits_one_pane_per_completed_group(self, results):
        r = results["watermark"]
        assert not r.changelog["undo"].any()
        assert r.emitted_rows() == r.stats["finalized_groups"]

    def test_all_policies_converge_to_same_table(self, results):
        final = {
            k: r.table().sort_values(["wstart", "item"]).reset_index(drop=True)
            for k, r in results.items()
            if k in ("stream", "delay")
        }
        assert final["stream"].equals(final["delay"])

    def test_reduction_factor_material(self, results):
        # The delay policy must actually coalesce, not just reorder.
        s = results["stream"].emitted_rows()
        d = results["delay"].emitted_rows()
        assert s / d >= 1.5


def test_bench_emit_stream(benchmark, spark, log):
    r = benchmark.pedantic(
        lambda: run_query(
            spark, {"bid": log}, hot_counts_query(DUR),
            emit=EmitSpec(stream=True), **KW,
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["changelog_rows"] = r.emitted_rows()


def test_bench_emit_after_delay(benchmark, spark, log):
    r = benchmark.pedantic(
        lambda: run_query(
            spark, {"bid": log}, hot_counts_query(DUR),
            emit=EmitSpec(stream=True, after_delay=timedelta(minutes=8)), **KW,
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["changelog_rows"] = r.emitted_rows()


def test_bench_emit_after_watermark(benchmark, spark, log):
    r = benchmark.pedantic(
        lambda: run_query(
            spark, {"bid": log}, hot_counts_query(DUR),
            emit=EmitSpec(stream=True, after_watermark=True), **KW,
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["changelog_rows"] = r.emitted_rows()
