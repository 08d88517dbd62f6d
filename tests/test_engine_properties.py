"""Engine-level properties on randomized streams: the stream<->table
duality of the paper (§3.1) holds for the *whole engine*, not just the
differ — replaying the emitted changelog at any processing time equals the
snapshot query at that time (absent late data), for random out-of-order
streams and several query shapes. With late data, the final table holds
exactly the rows that arrived before their window closed (Extension 2).
The query shapes are extended-SQL texts, which ``test_engine_vs_reference``
also runs against the reference over their derived DuckDB twins."""
import random
from datetime import timedelta

import pandas as pd
import pytest

from repro.core import EmitSpec, run_query
from repro.core.timeline import EventLog
from repro.nexmark import example as ex
from repro.nexmark.generator import bid_event_log
from repro.sqlext.executor import sql_query_fn
from tests.helpers import assert_pdf_equal, ptimes, snapshot_query

t = ex.t
TEN = timedelta(minutes=10)


def tumbled(table: str = "bid") -> str:
    """The dialect's 10-minute Tumble of ``table`` by ``bidtime``."""
    return (f"Tumble(data => TABLE({table}), timecol => DESCRIPTOR(bidtime),"
            " dur => INTERVAL '10' MINUTE)")


COUNT_SQL = f"SELECT wstart, wend, count(*) AS n FROM {tumbled()} GROUP BY wstart, wend"
ITEM_COUNT_SQL = (f"SELECT wstart, wend, item, count(*) AS n FROM {tumbled()}"
                  " GROUP BY wstart, wend, item")
# Spark sums a BIGINT as BIGINT, DuckDB as HUGEINT: the cast makes both BIGINT.
SUM_SQL = (f"SELECT wstart, wend, CAST(sum(price) AS BIGINT) AS total FROM {tumbled()}"
           " GROUP BY wstart, wend")
DISTINCT_SQL = f"SELECT DISTINCT wstart, wend, item FROM {tumbled()}"
# Mean price of the bids in each window's last minute: NULL (NaN once
# collected) while a window has none.
LAST_MINUTE_AVG_SQL = (
    "SELECT wstart, wend, avg(CASE WHEN bidtime >= wend - INTERVAL '1' MINUTE"
    f" THEN price END) AS last_minute_avg FROM {tumbled()} GROUP BY wstart, wend"
)
# Not monotone: a window's row vanishes once a bid of 5 or more arrives.
MAX_BELOW_5_SQL = (f"SELECT wstart, wend, max(price) AS maxprice FROM {tumbled()}"
                   " GROUP BY wstart, wend HAVING max(price) < 5")
UNION_COUNT_SQL = (
    "SELECT wstart, wend, count(*) AS n FROM"
    f" (SELECT * FROM {tumbled('a')} UNION ALL SELECT * FROM {tumbled('b')}) ab"
    " GROUP BY wstart, wend"
)

QUERIES = {
    "count": COUNT_SQL,
    "sum": SUM_SQL,
    "distinct": DISTINCT_SQL,
    "last_minute_avg": LAST_MINUTE_AVG_SQL,
}


@pytest.mark.parametrize("qname", list(QUERIES))
@pytest.mark.parametrize("seed", [101, 202])
def test_duality_on_random_streams(spark, qname, seed):
    log = bid_event_log(
        n=150, n_batches=6, seed=seed, duration=timedelta(minutes=45),
        n_auctions=10, max_delay=timedelta(minutes=3),
    )
    query = sql_query_fn(QUERIES[qname])
    r = run_query(spark, {"bid": log}, query, emit=EmitSpec(stream=True))
    for at in ptimes(log):
        snap = snapshot_query(spark, {"bid": log}, query, at=at)
        assert_pdf_equal(r.table(at=at), snap, ordered=False)


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
        spark, {"bid": log}, sql_query_fn(COUNT_SQL),
        emit=EmitSpec(stream=True, after_watermark=True),
    )
    final = r.table()
    final_rows = set(map(tuple, final.itertuples(index=False, name=None)))
    for at in ptimes(log):
        here = set(map(tuple, r.table(at=at).itertuples(index=False, name=None)))
        assert here <= final_rows


def test_changelog_integration_never_negative(spark):
    """No undo ever retracts a row that was not previously emitted, at any
    prefix of the changelog (well-formedness of the encoding)."""
    log = bid_event_log(n=150, n_batches=6, seed=55, n_auctions=5,
                        duration=timedelta(minutes=45))
    r = run_query(spark, {"bid": log}, sql_query_fn(SUM_SQL), emit=EmitSpec(stream=True))
    for at in ptimes(log):
        r.table(at=at)  # raises inside integrate_changelog on violation


def test_delay_mode_final_state_equals_continuous(spark):
    """AFTER DELAY changes emission times and coalesces panes but the
    fully-integrated table must equal the continuous-mode table."""
    log = bid_event_log(n=200, n_batches=8, seed=77, n_auctions=8,
                        duration=timedelta(minutes=50))
    count = sql_query_fn(COUNT_SQL)
    cont = run_query(spark, {"bid": log}, count, emit=EmitSpec(stream=True))
    delayed = run_query(
        spark, {"bid": log}, count,
        emit=EmitSpec(stream=True, after_delay=timedelta(minutes=4)),
    )
    assert_pdf_equal(delayed.table(), cont.table(), ordered=False)
    # And it really coalesced: strictly fewer (or equal) changelog rows.
    assert delayed.emitted_rows() <= cont.emitted_rows()


def split_bid_logs() -> dict:
    """Two bid inputs ``a`` and ``b`` with two of the example's bids each
    and the same watermark script."""
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
    return {"a": half1, "b": half2}


def _watermark_violating_log(seed: int) -> EventLog:
    """Four batches six minutes apart. Each batch's bids have event times
    anywhere since 8:00, and its watermark trails its ptime by up to eight
    minutes, rounded down to five, so bids of older windows arrive late and
    some arrive just as their window (plus lateness) closes."""
    rng = random.Random(seed)
    log = EventLog(ex.BID_COLUMNS, etime_col="bidtime")
    mark = t(8, 0)
    for b in range(1, 5):
        p = t(8, 6 * b)
        for _ in range(rng.randint(2, 4)):
            etime = t(8, rng.randrange(6 * b))
            log.insert(p, etime, rng.randint(1, 9), rng.choice("ABC"))
        mark = max(mark, (p - timedelta(minutes=rng.randint(0, 8))).floor("5min"))
        log.watermark_to(p, mark)
    return log


LATE_SPECS = [
    dict(stream=True),
    dict(stream=True, after_watermark=True),
    dict(stream=True, after_delay=timedelta(minutes=3)),
    dict(stream=True, after_watermark=True, after_delay=timedelta(minutes=3)),
]


@pytest.mark.parametrize("lateness", [0, 5])
@pytest.mark.parametrize("spec", LATE_SPECS, ids=["stream", "wm", "delay", "delay_wm"])
@pytest.mark.parametrize("seed", range(3))
def test_late_rows_dropped_exactly(spark, seed, spec, lateness):
    """A row is kept iff its window's end plus allowed lateness is after the
    watermark in force just before it arrives. The final table is the count
    over the kept rows (under AFTER WATERMARK alone, of the windows the
    final watermark completes), and drops are counted iff a row is dropped.
    Each group's ``ver`` runs 0..k-1 in emission order, and the changelog
    integrates at every ptime of the run."""
    log = _watermark_violating_log(seed)
    emit = EmitSpec(allowed_lateness=timedelta(minutes=lateness), **spec)
    r = run_query(spark, {"bid": log}, sql_query_fn(COUNT_SQL), emit=emit)
    rows = log.arrivals_pdf()
    wstart = rows["bidtime"].dt.floor(TEN)
    marks = [log.watermark().at(p - pd.Timedelta(1)) for p in rows["ptime"]]
    assert any(m is not None and b < m for b, m in zip(rows["bidtime"], marks))
    kept = [m is None or w + TEN + emit.allowed_lateness > m for w, m in zip(wstart, marks)]
    want = (
        rows[kept].assign(wstart=wstart[kept], wend=wstart[kept] + TEN)
        .groupby(["wstart", "wend"]).size().rename("n").reset_index()
    )
    if emit.after_watermark and emit.after_delay is None:
        want = want[want["wend"] <= log.watermark().updates[-1][1]]
    assert_pdf_equal(r.table(), want, ordered=False)
    assert (r.stats["dropped_late_rows"] == 0) == all(kept)
    for _, group_rows in r.changelog.groupby(["wstart", "wend"]):
        assert list(group_rows["ver"]) == list(range(len(group_rows)))
    for at in sorted(set(ptimes(log)) | set(r.changelog["ptime"])):
        r.table(at=at)  # raises on an undo of a row not present
