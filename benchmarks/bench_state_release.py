"""P2 — watermark-driven state release (§5: "state can be freed when the
watermark is sufficiently advanced"): peak and final live group counts
with and without event-time completion over a 2-hour stream of 5-minute
windows."""
from datetime import timedelta

import pytest

from repro.core import EmitSpec, run_query
from repro.nexmark.generator import bid_event_log
from repro.nexmark.perf import hot_counts_query, untag_wend

N, BATCHES = 50_000, 16
DUR = timedelta(minutes=5)
KEYS = ["wstart", "wend", "item"]


@pytest.fixture(scope="module")
def log():
    return bid_event_log(
        n=N, n_batches=BATCHES, seed=71, n_auctions=100,
        duration=timedelta(hours=2), max_delay=timedelta(minutes=2),
    )


@pytest.fixture(scope="module")
def results(spark, log):
    q = hot_counts_query(DUR)
    with_wm = run_query(spark, {"bid": log}, q, emit=EmitSpec(stream=True), key_cols=KEYS)
    without = run_query(
        spark, {"bid": log}, untag_wend(q), emit=EmitSpec(stream=True), key_cols=KEYS
    )
    return with_wm, without


class TestStateReleaseShape:
    def test_watermark_caps_live_state(self, results):
        with_wm, without = results
        assert with_wm.stats["max_live_groups"] < without.stats["max_live_groups"]

    def test_final_state_mostly_released(self, results):
        with_wm, without = results
        # All but the last in-flight windows are finalized under
        # watermarks; without them everything stays live forever.
        assert with_wm.stats["final_live_groups"] < without.stats["final_live_groups"]
        assert without.stats["final_live_groups"] == (
            without.stats["final_live_groups"] + without.stats["finalized_groups"]
        )

    def test_same_changelog_content(self, results):
        # Completion only affects state accounting here (no late data in a
        # watermark-correct generated log): both configs emit identically.
        with_wm, without = results
        assert with_wm.changelog.equals(without.changelog)


def test_bench_with_watermark_release(benchmark, spark, log):
    r = benchmark.pedantic(
        lambda: run_query(
            spark, {"bid": log}, hot_counts_query(DUR),
            emit=EmitSpec(stream=True), key_cols=KEYS,
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["max_live_groups"] = r.stats["max_live_groups"]
    benchmark.extra_info["final_live_groups"] = r.stats["final_live_groups"]


def test_bench_without_watermark_release(benchmark, spark, log):
    r = benchmark.pedantic(
        lambda: run_query(
            spark, {"bid": log}, untag_wend(hot_counts_query(DUR)),
            emit=EmitSpec(stream=True), key_cols=KEYS,
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["max_live_groups"] = r.stats["max_live_groups"]
    benchmark.extra_info["final_live_groups"] = r.stats["final_live_groups"]
