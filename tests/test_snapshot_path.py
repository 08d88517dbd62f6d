"""The engine's snapshot path: each input is shipped to Spark once per run
and every snapshot is the prefix ``ptime <= t`` of it.

- On random logs, the identity query through ``snapshot_query`` equals
  ``EventLog.snapshot_pdf`` at every ptime, with the same dtypes, also
  before the first insert. The logs repeat ptimes, have ptimes that carry
  only a watermark, ptimes a nanosecond apart (finer than Spark's
  microsecond timestamps), NULL strings and NULL/NaN floats.
- ``TvrEngine.run`` and ``snapshot_query`` release what they pinned in
  Spark when they return, also when the query raises.
"""
import pandas as pd
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import EmitSpec, run_query
from repro.core.timeline import EventLog
from repro.nexmark import example as ex
from tests.helpers import ptimes, snapshot_query

T0 = pd.Timestamp("2023-01-01 08:00:00")
COLUMNS = ["etime", "price", "item", "qty"]


def logs():
    """Random logs of 1–6 inserts over 3 minutes (each ptime 0 or 1 ns past
    a minute) and up to 2 watermark advances, which may fall on ptimes with
    no insert."""
    ptime = st.builds(
        lambda m, ns: T0 + pd.Timedelta(minutes=m, nanoseconds=ns),
        st.integers(0, 2), st.integers(0, 1),
    )
    row = st.tuples(
        ptime,
        st.builds(lambda m: T0 + pd.Timedelta(minutes=m), st.integers(0, 20)),
        st.sampled_from([1.5, -2.0, float("nan"), None]),
        st.sampled_from(["A", "B", None]),
        st.integers(-5, 5),
    )
    wm = st.tuples(ptime, st.builds(lambda m: T0 + pd.Timedelta(minutes=m), st.integers(0, 20)))
    return st.tuples(st.lists(row, min_size=1, max_size=6), st.lists(wm, max_size=2))


def persisted(spark) -> set:
    return set(spark.sparkContext._jsc.getPersistentRDDs().keys())


@given(logs())
@settings(max_examples=6, deadline=None)
def test_identity_snapshot_equals_snapshot_pdf(spark, script):
    rows, wms = script
    assume(any(r[3] is not None for r in rows))  # Spark infers a string type
    log = EventLog.from_pandas(
        pd.DataFrame(rows, columns=["ptime"] + COLUMNS),
        ptime_col="ptime", etime_col="etime", watermarks=wms,
    )
    before_first = log.arrivals_pdf()["ptime"].iloc[0] - pd.Timedelta(1, "ns")
    for at in [before_first, *ptimes(log)]:
        got = snapshot_query(spark, {"bid": log}, lambda s, bid: bid, at=at)
        pd.testing.assert_frame_equal(got, log.snapshot_pdf(at).reset_index(drop=True))


class TestPinsReleased:
    def test_run_and_snapshot_query(self, spark):
        before = persisted(spark)
        run_query(spark, {"bid": ex.bid_log()}, lambda s, bid: bid, emit=EmitSpec(stream=True))
        assert persisted(spark) == before
        snapshot_query(spark, {"bid": ex.bid_log()}, lambda s, bid: bid)
        assert persisted(spark) == before

    def test_query_raises(self, spark):
        def broken(spark_, bid):
            raise RuntimeError("query failed")

        before = persisted(spark)
        with pytest.raises(RuntimeError, match="query failed"):
            run_query(spark, {"bid": ex.bid_log()}, broken)
        with pytest.raises(RuntimeError, match="query failed"):
            snapshot_query(spark, {"bid": ex.bid_log()}, broken)
        assert persisted(spark) == before

    def test_second_input_empty(self, spark):
        """The first input is pinned before the second is found empty."""
        before = persisted(spark)
        with pytest.raises(ValueError, match="no inserts"):
            run_query(spark, {"bid": ex.bid_log(), "x": EventLog(["v"])}, lambda s, bid, x: bid)
        assert persisted(spark) == before
