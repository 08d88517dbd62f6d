"""The EMIT state machine (``engine._emit``) on its own, without Spark.

It is fed per-step result multisets, diffed the way the change source diffs
them (``diff.rows_by_key`` against the previous result), and random
watermark advances, under four emit modes with allowed lateness 0 and 5
minutes. Each group's ``ver`` runs 0..k-1 and the changelog integrates.
With a watermark that never completes a group, the final table is the last
result under EMIT STREAM and AFTER DELAY, and empty under AFTER WATERMARK
alone."""
from collections import defaultdict
from datetime import timedelta

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import diff as D
from repro.core.emit import EmitSpec
from repro.core.engine import _emit

BASE = pd.Timestamp("2023-01-01 08:00")
MIN = pd.Timedelta(minutes=1)
COLUMNS = ["g", "wend", "v"]
KEY = ["g", "wend"]
WENDS = [BASE + 10 * MIN, BASE + 20 * MIN, BASE + 30 * MIN]

SPECS = [
    dict(stream=True),
    dict(stream=True, after_watermark=True),
    dict(stream=True, after_delay=timedelta(minutes=3)),
    dict(stream=True, after_watermark=True, after_delay=timedelta(minutes=3)),
]
IDS = ["stream", "wm", "delay", "delay_wm"]

ROWS = st.tuples(
    st.sampled_from([None, "a", "b"]), st.sampled_from(WENDS), st.integers(0, 2)
)


@st.composite
def scenarios(draw, max_mark: int = 35):
    """Per-step results at increasing ptimes and watermark advances whose
    event time stays at most ``max_mark`` minutes past 8:00."""
    results = draw(st.lists(st.lists(ROWS, max_size=6), min_size=1, max_size=8))
    gaps = draw(st.lists(st.integers(1, 4), min_size=len(results), max_size=len(results)))
    ptimes = list(BASE + pd.Series(gaps).cumsum() * MIN)
    adv_at = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
    marks = sorted(draw(st.lists(
        st.integers(0, max_mark), min_size=len(adv_at), max_size=len(adv_at)
    )))
    advances = [(BASE + p * MIN, BASE + m * MIN) for p, m in zip(adv_at, marks)]
    return list(zip(ptimes, results)), advances


def run(steps, advances, emit: EmitSpec):
    """Diff consecutive results as the change source does, then run the
    state machine; returns the changelog entries and stats."""
    changes, prev = [], None
    for t, rows in steps:
        pdf = pd.DataFrame(rows, columns=COLUMNS)
        changes.append((t, D.rows_by_key(pdf, COLUMNS, KEY, prev)))
        prev = pdf
    return _emit(changes, advances, emit, None, KEY.index("wend"))


def final_rows(entries) -> list:
    """The integrated changelog's rows; raises on an undo of a row not
    present at that point."""
    table = D.integrate_changelog(D.changelog_to_pdf(entries, COLUMNS), COLUMNS)
    return sorted(table.itertuples(index=False, name=None), key=D.nulls_first)


@pytest.mark.parametrize("lateness", [0, 5])
@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_ver_sequences_and_integration(scenario, spec, lateness):
    steps, advances = scenario
    emit = EmitSpec(allowed_lateness=timedelta(minutes=lateness), **spec)
    entries, stats = run(steps, advances, emit)
    vers = defaultdict(list)
    for e in entries:
        vers[e[:2]].append(e[-1])
    for seq in vers.values():
        assert seq == list(range(len(seq)))
    assert [e[-2] for e in entries] == sorted(e[-2] for e in entries)
    assert stats["recomputes"] == len(steps)
    final_rows(entries)


@pytest.mark.parametrize("lateness", [0, 5])
@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(scenario=scenarios(max_mark=9))
def test_watermark_that_never_completes(scenario, spec, lateness):
    steps, advances = scenario
    emit = EmitSpec(allowed_lateness=timedelta(minutes=lateness), **spec)
    entries, stats = run(steps, advances, emit)
    last = sorted(steps[-1][1], key=D.nulls_first)
    want = [] if emit.after_watermark and emit.after_delay is None else last
    assert final_rows(entries) == want
    assert stats["finalized_groups"] == 0 and stats["dropped_late_rows"] == 0
