"""The engine's changelog equals the reference interpreter's
(``tests/reference.py``), entry for entry in (ptime, key NULLs first, ver)
order, and so does its count of dropped late rows.

The logs are random bid streams with late rows, NULL items and
watermark-only batches, one input or two with their own watermarks (held
back to the minimum). Six query shapes, among them a NULL-keyed count, a
NaN average and a non-monotone ``HAVING max(price) < 5``, run under the four
emit modes with allowed lateness 0 and 5 minutes.

Each shape is one extended-SQL text: Spark runs it through the dialect
front end, the reference runs the DuckDB twin derived from it
(``tests/twins.py``). Most examples never start Spark: the per-step
results of the twin go both to the reference's EMIT half and, diffed as
the change source diffs them, to ``engine._emit``. A few full runs then
check the engine's Spark path end to end against the reference."""
from __future__ import annotations

import random
from datetime import timedelta

import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import EmitSpec, run_query
from repro.core import diff as D
from repro.core.engine import _advances, _emit
from repro.core.timeline import EventLog
from repro.nexmark import example as ex
from repro.sqlext.executor import sql_query_fn
from tests import reference as R
from tests.test_engine_properties import (
    COUNT_SQL, DISTINCT_SQL, ITEM_COUNT_SQL, LAST_MINUTE_AVG_SQL, MAX_BELOW_5_SQL, SUM_SQL,
    UNION_COUNT_SQL, split_bid_logs,
)
from tests.twins import twin

T0 = pd.Timestamp("2023-01-01 08:00")
MIN = pd.Timedelta(minutes=1)

EMITS = [
    EmitSpec(stream=True, allowed_lateness=timedelta(minutes=late), **spec)
    for late in (0, 5)
    for spec in (
        dict(),
        dict(after_watermark=True),
        dict(after_delay=timedelta(minutes=5)),
        dict(after_watermark=True, after_delay=timedelta(minutes=5)),
    )
]


def random_log(rng: random.Random) -> EventLog:
    """Two to six batches one to six minutes apart after 8:00. The first
    inserts one to four bids, a later one up to four (a third of them none):
    event times anywhere since 8:00, so some rows are late, prices 1..9 and
    items A, B or NULL. Three batches in four advance the watermark to a
    ptime up to eight minutes back, floored to five minutes, so it often
    lands exactly on a window end."""
    log = EventLog(ex.BID_COLUMNS, etime_col="bidtime")
    p, mark = T0, T0
    for b in range(rng.randint(2, 6)):
        p += rng.randint(1, 6) * MIN
        for _ in range(rng.choice([0, 0, 1, 2, 3, 4]) if b else rng.randint(1, 4)):
            etime = T0 + rng.randrange((p - T0) // MIN) * MIN
            log.insert(p, etime, rng.randint(1, 9), rng.choice([None, "A", "B"]))
        if rng.random() < 0.75:
            mark = max(mark, (p - rng.randint(0, 8) * MIN).floor("5min"))
            log.watermark_to(p, mark)
    return log


LOGS = st.builds(random_log, st.randoms(use_true_random=False))


WINDOW = ["wstart", "wend"]
# name -> (query text, key columns)
QUERIES = {
    "count": (COUNT_SQL, WINDOW),
    "item_count": (ITEM_COUNT_SQL, WINDOW + ["item"]),
    "sum": (SUM_SQL, WINDOW),
    "distinct": (DISTINCT_SQL, WINDOW),
    "last_minute_avg": (LAST_MINUTE_AVG_SQL, WINDOW),
    "max_below_5": (MAX_BELOW_5_SQL, WINDOW),
}


def assert_emit_matches(logs, sql, key) -> None:
    """Under every emit mode, ``engine._emit`` over the per-step results of
    the text's DuckDB twin, diffed against the previous step as the change
    source diffs them, gives the reference's changelog entries and late-row
    count."""
    columns, steps = R.query_results(logs, twin(sql))
    changes, prev = [], None
    for t, rows in steps:
        pdf = pd.DataFrame(rows, columns=columns, dtype=object)
        changes.append((t, D.rows_by_key(pdf, columns, key, prev)))
        prev = pdf
    advances, marks = _advances(logs), R.watermarks(logs)
    for emit in EMITS:
        entries, stats = _emit(changes, advances, emit, None, key.index("wend"))
        want, dropped = R.materialize(steps, marks, columns, key, "wend", emit)
        got = (R.in_order(entries, columns, key), stats["dropped_late_rows"])
        assert got == (R.in_order(want, columns, key), dropped), emit


@pytest.mark.parametrize("name", QUERIES)
@settings(max_examples=40, deadline=None)
@given(log=LOGS)
# The watermark reaches 8:10, exactly the first window's end, at 8:13: its
# on-time pane cancels the delay its 8:10 change set, and a late bid follows
# at 8:14, within the lateness (Ext 7).
@example(log=random_log(random.Random(63)))
def test_emit_equals_reference(name, log):
    assert_emit_matches({"bid": log}, *QUERIES[name])


@settings(max_examples=40, deadline=None)
@given(a=LOGS, b=LOGS)
def test_emit_equals_reference_two_inputs(a, b):
    assert_emit_matches({"a": a, "b": b}, UNION_COUNT_SQL, WINDOW)


def entries_of(changelog: pd.DataFrame, key) -> list:
    """A changelog frame's entries, NaN read as NULL, in reference order."""
    rows = [tuple(None if pd.isna(v) else v for v in row)
            for row in changelog.itertuples(index=False, name=None)]
    return R.in_order(rows, list(changelog.columns[:-3]), key)


def assert_run_matches(spark, logs, sql, key, emit) -> None:
    """The engine runs ``sql`` on Spark; the reference runs its DuckDB twin."""
    got = run_query(spark, logs, sql_query_fn(sql), emit=emit, key_cols=key)
    want = R.run(logs, twin(sql), key, "wend", emit)
    assert want.entries
    assert got.columns == want.columns
    assert entries_of(got.changelog, key) == want.entries
    assert got.stats["dropped_late_rows"] == want.dropped_late_rows


def rich_log(seed: int) -> EventLog:
    """``random_log(seed)``, checked to hold late rows, NULL items and a
    watermark-only batch."""
    log = random_log(random.Random(seed))
    arrivals = log.arrivals_pdf()
    assert R.late_rows(log) and arrivals["item"].isna().any()
    assert {p for p, _ in log.watermark().updates} - set(arrivals["ptime"])
    return log


@pytest.mark.parametrize("i, name", enumerate(QUERIES))
def test_run_equals_reference(spark, i, name):
    """One Spark run per query shape, each under its own emit mode."""
    sql, key = QUERIES[name]
    assert_run_matches(spark, {"bid": rich_log(74)}, sql, key, EMITS[i * 3 % len(EMITS)])


def test_run_equals_reference_two_inputs(spark):
    logs = {"a": rich_log(17), "b": rich_log(195)}
    assert_run_matches(spark, logs, UNION_COUNT_SQL, WINDOW, EMITS[-1])


def test_two_input_union_equals_reference(spark):
    """Engine over the example's bids split into {a, b}, with a union query,
    == the reference over the same logs: the TVR union respects the
    held-back watermark."""
    emit = EmitSpec(stream=True, after_watermark=True)
    assert_run_matches(spark, split_bid_logs(), UNION_COUNT_SQL, WINDOW, emit)
