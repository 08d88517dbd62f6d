"""Properties of the columnar EventLog on random scripts: a log built with
the chaining ``insert()``/``watermark_to()`` builder and the same log built
with ``from_pandas`` are one log. Their snapshots equal a brute-force filter
of the scripted rows at every ptime, and the heartbeat buffer and the
engine see no difference between them.

The scripts repeat ptimes, have ptimes that carry only a watermark, may
have no watermark at all, and may append a watermark advance *before* an
insert at the same ptime; the log applies a ptime's inserts before its
watermark advance whatever the append order.
"""
from datetime import timedelta

import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core import EmitSpec, run_query
from repro.core.timeline import EventLog
from repro.core.windows import tumble
from repro.cql.heartbeat import reorder_with_heartbeat
from tests.helpers import assert_pdf_equal

T0 = pd.Timestamp("2023-01-01 08:00:00")
COLUMNS = ["etime", "v", "item"]


def ptime(slot: int) -> pd.Timestamp:
    return T0 + timedelta(minutes=5 * slot)


def etime(minute: int) -> pd.Timestamp:
    return T0 + timedelta(minutes=minute)


def scripts(min_rows: int):
    """``(rows, wms)``: rows ``(ptime, etime, v, item)`` in arrival order
    within a ptime but not sorted by ptime, and watermark advances
    ``(ptime, etime, before_inserts)``."""
    row = st.builds(
        lambda s, m, v, item: (ptime(s), etime(m), v, item),
        st.integers(0, 4), st.integers(0, 30), st.integers(-3, 9), st.sampled_from("AB"),
    )
    wm = st.builds(
        lambda s, m, first: (ptime(s), etime(m), first),
        st.integers(0, 5), st.integers(0, 30), st.booleans(),
    )
    return st.tuples(
        st.lists(row, min_size=min_rows, max_size=10), st.lists(wm, max_size=4)
    )


def built_log(rows, wms) -> EventLog:
    """The script through the builder, in ptime order; at each ptime the
    watermark advances marked ``before_inserts`` are appended first."""
    log = EventLog(COLUMNS, etime_col="etime")
    ordered = sorted(rows, key=lambda r: r[0])
    for p in sorted({r[0] for r in rows} | {w[0] for w in wms}):
        for wp, we, first in wms:
            if wp == p and first:
                log.watermark_to(wp, we)
        for r in ordered:
            if r[0] == p:
                log.insert(*r)
        for wp, we, first in wms:
            if wp == p and not first:
                log.watermark_to(wp, we)
    return log


def pandas_log(rows, wms) -> EventLog:
    return EventLog.from_pandas(
        pd.DataFrame(rows, columns=["ptime"] + COLUMNS),
        ptime_col="ptime",
        etime_col="etime",
        watermarks=[(p, e) for p, e, _ in wms],
    )


def brute_snapshot(rows, at) -> pd.DataFrame:
    ordered = sorted(rows, key=lambda r: r[0])
    frame = pd.DataFrame([r[1:] for r in ordered], columns=COLUMNS)
    return frame.loc[[r[0] <= at for r in ordered]].reset_index(drop=True)


def brute_violations(rows, wms) -> list:
    """Rows whose etime is below the watermark advanced at an earlier ptime."""
    bad = []
    for r in sorted(rows, key=lambda r: r[0]):
        in_force = [e for p, e, _ in wms if p < r[0]]
        if in_force and r[1] < max(in_force):
            bad.append(r)
    return bad


def brute_heartbeat(rows, wms):
    """The heartbeat buffer row by row, in log order: a ptime's inserts,
    then its watermark advances."""
    events = sorted(
        [(r[0], 0, r) for r in rows] + [(p, 1, e) for p, e, _ in wms],
        key=lambda x: x[:2],
    )
    buffered, released, violations, wm, last = [], [], [], None, None
    for seq, (p, kind, x) in enumerate(events):
        if kind == 0 and last is not None and x[1] < last:
            violations.append(x[1:])
        elif kind == 0:
            buffered.append((x[1], seq, x[1:]))
        else:
            wm = x if wm is None else max(wm, x)
            ready = sorted(b for b in buffered if b[0] <= wm)
            buffered = [b for b in buffered if b[0] > wm]
            released += [(*row, p) for _, _, row in ready]
            last = ready[-1][0] if ready else last
    return released, violations, [b[2] for b in sorted(buffered)]


@given(scripts(min_rows=0))
@settings(max_examples=150, deadline=None)
def test_builder_and_from_pandas_agree(script):
    rows, wms = script
    built, framed = built_log(rows, wms), pandas_log(rows, wms)
    assert len(built.events) == len(framed.events) == len(rows) + len(wms)
    assert built.ptimes() == framed.ptimes()
    assert built.watermark() == framed.watermark()
    for at in [ptime(-1)] + built.ptimes():
        want = brute_snapshot(rows, at)
        pd.testing.assert_frame_equal(built.snapshot_pdf(at), want)
        pd.testing.assert_frame_equal(framed.snapshot_pdf(at), want)
    want_bad = [r[0] for r in brute_violations(rows, wms)]
    assert list(built.validate_watermark()["ptime"]) == want_bad
    assert list(framed.validate_watermark()["ptime"]) == want_bad
    heartbeat = reorder_with_heartbeat(built)
    for got, want in zip(heartbeat, brute_heartbeat(rows, wms)):
        assert list(got.itertuples(index=False, name=None)) == want
    for got, want in zip(reorder_with_heartbeat(framed), heartbeat):
        pd.testing.assert_frame_equal(got, want)


def q_counts(spark, bid):
    return (
        tumble(bid, "etime", timedelta(minutes=10))
        .groupBy("wstart", "wend")
        .agg(F.count(F.lit(1)).alias("n"), F.sum("v").alias("total"))
    )


@given(scripts(min_rows=1))
@settings(max_examples=6, deadline=None)
def test_engine_sees_one_log(spark, script):
    rows, wms = script
    built, framed = built_log(rows, wms), pandas_log(rows, wms)
    for emit in (EmitSpec(stream=True), EmitSpec(stream=True, after_watermark=True)):
        a, b = (
            run_query(
                spark, {"bid": log}, q_counts, emit=emit,
                key_cols=["wstart", "wend"], wend_col="wend",
            )
            for log in (built, framed)
        )
        assert_pdf_equal(a.changelog, b.changelog)
        assert a.stats == b.stats
