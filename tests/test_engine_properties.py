"""Engine-level properties on randomized streams: the stream<->table
duality of the paper (§3.1) holds for the *whole engine*, not just the
differ — replaying the emitted changelog at any processing time equals the
snapshot query at that time (absent late data), for random out-of-order
streams and several query shapes."""
from datetime import timedelta

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import EmitSpec, run_query, snapshot_query
from repro.core.timeline import EventLog
from repro.core.windows import tumble
from repro.nexmark import example as ex
from repro.nexmark.generator import bid_event_log
from tests.helpers import assert_pdf_equal

t = ex.t
TEN = timedelta(minutes=10)


def q_count(spark, bid):
    return (
        tumble(bid, "bidtime", TEN)
        .groupBy("wstart", "wend")
        .agg(F.count(F.lit(1)).alias("n"))
    )


def q_sum(spark, bid):
    return (
        tumble(bid, "bidtime", TEN)
        .groupBy("wstart", "wend")
        .agg(F.sum("price").alias("total"))
    )


def q_distinct_items(spark, bid):
    return tumble(bid, "bidtime", TEN).select("wstart", "wend", "item").distinct()


def q_last_minute_avg(spark, bid):
    """Mean price of the bids in each window's last minute: NULL (NaN once
    collected) while a window has none."""
    w = tumble(bid, "bidtime", TEN)
    last_minute = F.col("bidtime") >= F.col("wend") - F.expr("INTERVAL 1 MINUTE")
    return w.groupBy("wstart", "wend").agg(
        F.avg(F.when(last_minute, F.col("price"))).alias("last_minute_avg")
    )


QUERIES = {
    "count": q_count,
    "sum": q_sum,
    "distinct": q_distinct_items,
    "last_minute_avg": q_last_minute_avg,
}


@pytest.mark.parametrize("qname", list(QUERIES))
@pytest.mark.parametrize("seed", [101, 202])
def test_duality_on_random_streams(spark, qname, seed):
    log = bid_event_log(
        n=150, n_batches=6, seed=seed, duration=timedelta(minutes=45),
        n_auctions=10, max_delay=timedelta(minutes=3),
    )
    r = run_query(
        spark, {"bid": log}, QUERIES[qname], emit=EmitSpec(stream=True),
        key_cols=["wstart", "wend"], wend_col="wend",
    )
    for at in log.ptimes():
        snap = snapshot_query(spark, {"bid": log}, QUERIES[qname], at=at)
        assert_pdf_equal(r.table(at=at), snap.toPandas(), ordered=False)


@pytest.mark.parametrize("seed", [7, 8])
def test_watermark_gated_table_is_prefix_of_final(spark, seed):
    """Monotonicity of completeness: under EMIT AFTER WATERMARK, the table
    at any earlier ptime is a subset of the final table, and every
    materialized row is final."""
    log = bid_event_log(
        n=200, n_batches=8, seed=seed, duration=timedelta(minutes=50),
        n_auctions=10, max_delay=timedelta(minutes=2),
    )
    r = run_query(
        spark, {"bid": log}, q_count, emit=EmitSpec(stream=True, after_watermark=True),
        key_cols=["wstart", "wend"], wend_col="wend",
    )
    final = r.table()
    final_rows = set(map(tuple, final.itertuples(index=False, name=None)))
    for at in log.ptimes():
        here = set(map(tuple, r.table(at=at).itertuples(index=False, name=None)))
        assert here <= final_rows


def test_changelog_integration_never_negative(spark):
    """No undo ever retracts a row that was not previously emitted, at any
    prefix of the changelog (well-formedness of the encoding)."""
    log = bid_event_log(n=150, n_batches=6, seed=55, n_auctions=5,
                        duration=timedelta(minutes=45))
    r = run_query(
        spark, {"bid": log}, q_sum, emit=EmitSpec(stream=True),
        key_cols=["wstart", "wend"], wend_col="wend",
    )
    for at in log.ptimes():
        r.table(at=at)  # raises inside integrate_changelog on violation


def test_delay_mode_final_state_equals_continuous(spark):
    """AFTER DELAY changes emission times and coalesces panes but the
    fully-integrated table must equal the continuous-mode table."""
    log = bid_event_log(n=200, n_batches=8, seed=77, n_auctions=8,
                        duration=timedelta(minutes=50))
    cont = run_query(
        spark, {"bid": log}, q_count, emit=EmitSpec(stream=True),
        key_cols=["wstart", "wend"], wend_col="wend",
    )
    delayed = run_query(
        spark, {"bid": log}, q_count,
        emit=EmitSpec(stream=True, after_delay=timedelta(minutes=4)),
        key_cols=["wstart", "wend"], wend_col="wend",
    )
    assert_pdf_equal(delayed.table(), cont.table(), ordered=False)
    # And it really coalesced: strictly fewer (or equal) changelog rows.
    assert delayed.emitted_rows() <= cont.emitted_rows()


def test_two_input_union_equals_merged_log(spark):
    """Engine over {a, b} with a union query == engine over a.merge(b) —
    the TVR union respects the held-back watermark either way."""
    half1 = EventLog(ex.BID_COLUMNS, etime_col="bidtime")
    half1.insert(t(8, 8), t(8, 7), 2, "A")
    half1.insert(t(8, 13), t(8, 5), 4, "C")
    half1.watermark_to(t(8, 16), t(8, 12))
    half1.watermark_to(t(8, 21), t(8, 20))
    half2 = EventLog(ex.BID_COLUMNS, etime_col="bidtime")
    half2.insert(t(8, 12), t(8, 11), 3, "B")
    half2.insert(t(8, 15), t(8, 9), 5, "D")
    half2.watermark_to(t(8, 16), t(8, 12))
    half2.watermark_to(t(8, 21), t(8, 20))

    def union_q(spark_, a, b):
        return q_count(spark_, a.unionByName(b))

    def plain_q(spark_, bid):
        return q_count(spark_, bid)

    split = run_query(
        spark, {"a": half1, "b": half2}, union_q,
        emit=EmitSpec(stream=True, after_watermark=True),
        key_cols=["wstart", "wend"], wend_col="wend",
    )
    merged = run_query(
        spark, {"bid": half1.merge(half2)}, plain_q,
        emit=EmitSpec(stream=True, after_watermark=True),
        key_cols=["wstart", "wend"], wend_col="wend",
    )
    assert_pdf_equal(split.changelog, merged.changelog)
