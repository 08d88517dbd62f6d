"""EMIT AFTER DELAY (Extensions 6 and 7): Listing 14, timer semantics, and
the combined early/on-time pattern."""
from datetime import timedelta

import pandas as pd
import pytest

from repro.core import EmitSpec, run_query
from repro.core.timeline import EventLog
from repro.nexmark import example as ex
from repro.nexmark.queries import make_q7
from tests.helpers import assert_pdf_equal

t = ex.t
SIX = timedelta(minutes=6)


@pytest.fixture(scope="module")
def delay_run(spark):
    return run_query(
        spark,
        {"bid": ex.bid_log()},
        make_q7(),
        emit=EmitSpec(stream=True, after_delay=SIX),
    )


class TestListing14:
    def test_changelog_exact(self, delay_run):
        assert_pdf_equal(delay_run.changelog, ex.LISTING_14)

    def test_four_rows_instead_of_eight(self, delay_run):
        # The same TVR evolution needed 8 changelog rows continuously
        # (Listing 9); the 6-minute delay coalesces it to 4.
        assert delay_run.emitted_rows() == 4

    def test_interim_b_state_never_materialized(self, delay_run):
        # B led window 2 from 8:12 to 8:18 but the delayed pane at 8:18
        # already sees F — B never reaches the changelog.
        assert "B" not in set(delay_run.changelog["item"])

    def test_a_never_materialized(self, delay_run):
        assert "A" not in set(delay_run.changelog["item"])

    def test_timer_fires_counted(self, delay_run):
        assert delay_run.stats["timer_fires"] == 3  # 8:14, 8:18, 8:21


class TestTimerSemantics:
    def test_delay_measured_from_first_change_since_emission(self, delay_run):
        chg = delay_run.changelog
        # Window 1 first changed at 8:08 -> pane at 8:14; changed again at
        # 8:15 -> pane at 8:21.
        w1 = chg[chg["wend"] == t(8, 10)]
        assert sorted(set(w1["ptime"])) == [t(8, 14), t(8, 21)]

    def test_no_pane_without_change(self, spark):
        """A timer set by a change that is superseded back to the emitted
        value fires without producing rows."""

        def total(spark_, bid):
            return bid.groupBy().agg({"price": "sum"}).toDF("total")

        log = EventLog(["bidtime", "price", "item"], etime_col="bidtime")
        log.insert(t(8, 0), t(8, 0), 5, "A")
        log.insert(t(8, 20), t(8, 1), 3, "B")   # changes sum to 8
        log.insert(t(8, 21), t(8, 2), -3, "C")  # back to 5 before pane fires
        log.watermark_to(t(8, 30), t(8, 25))
        r = run_query(
            spark, {"bid": log}, total,
            emit=EmitSpec(stream=True, after_delay=timedelta(minutes=5)),
            key_cols=[],
        )
        # First pane at 8:05 materializes 5; the 8:20 change schedules a
        # pane at 8:25, but by then the value is 5 again -> nothing.
        assert list(r.changelog["total"]) == [5]
        assert r.stats["timer_fires"] == 2

    def test_table_view_lags_instantaneous_view(self, delay_run):
        # At 8:13 the instantaneous view has C and B (Listing 4) but the
        # delayed materialization has not produced anything yet.
        assert len(delay_run.table(at=t(8, 13))) == 0
        # At 8:14 the first pane appears.
        assert list(delay_run.table(at=t(8, 14))["item"]) == ["C"]

    def test_final_table_matches_continuous_final_table(self, delay_run):
        # Delay changes *when*, not *what*: once all panes fired the
        # integrated table equals the instantaneous result.
        assert_pdf_equal(delay_run.table(), ex.LISTING_3, ordered=False)


class TestCombined:
    """Extension 7: EMIT STREAM AFTER DELAY d AND AFTER WATERMARK — early
    panes every d, then one on-time pane when the watermark passes."""

    @pytest.fixture(scope="class")
    def combined_run(self, spark):
        return run_query(
            spark,
            {"bid": ex.bid_log()},
            make_q7(),
            emit=EmitSpec(stream=True, after_watermark=True, after_delay=SIX),
        )

    def test_early_then_ontime_panes(self, combined_run):
        chg = combined_run.changelog
        w1 = chg[chg["wend"] == t(8, 10)]
        # Early pane C at 8:14 (delay), on-time correction to D at 8:16
        # (watermark) — the 8:21 delay pane of Listing 14 is superseded.
        assert list(zip(w1["item"], w1["undo"], w1["ptime"])) == [
            ("C", False, t(8, 14)),
            ("C", True, t(8, 16)),
            ("D", False, t(8, 16)),
        ]

    def test_window2_single_pane(self, combined_run):
        chg = combined_run.changelog
        w2 = chg[chg["wend"] == t(8, 20)]
        # Early pane F at 8:18; watermark at 8:21 finds nothing changed.
        assert list(zip(w2["item"], w2["undo"], w2["ptime"])) == [
            ("F", False, t(8, 18)),
        ]

    def test_final_table_correct(self, combined_run):
        assert_pdf_equal(combined_run.table(), ex.LISTING_3, ordered=False)

    def test_no_panes_after_freeze(self, combined_run):
        assert combined_run.stats["finalized_groups"] == 2

    def test_ontime_pane_cancels_early_timer(self, spark):
        """The on-time pane at 8:16 cancels window 1's early timer set at
        8:15 for 8:21. A late bid (8:06, $7, L) at 8:17, within allowed
        lateness, sets a new timer, so the late pane comes at 8:23."""
        bids = ex.bid_log()
        late = pd.DataFrame([(t(8, 17), t(8, 6), 7, "L")], columns=["ptime", *ex.BID_COLUMNS])
        log = EventLog.from_pandas(
            pd.concat([bids.arrivals_pdf(), late]), ptime_col="ptime",
            etime_col="bidtime", watermarks=bids.watermark().updates,
        )
        r = run_query(
            spark, {"bid": log}, make_q7(),
            emit=EmitSpec(stream=True, after_watermark=True, after_delay=SIX,
                          allowed_lateness=timedelta(minutes=10)),
        )
        w1 = r.changelog[r.changelog["wend"] == t(8, 10)]
        assert list(zip(w1["item"], w1["undo"], w1["ptime"], w1["ver"])) == [
            ("C", False, t(8, 14), 0),
            ("C", True, t(8, 16), 1),
            ("D", False, t(8, 16), 2),
            ("D", True, t(8, 23), 3),
            ("L", False, t(8, 23), 4),
        ]
        assert r.stats["timer_fires"] == 3  # 8:14, 8:18, 8:23


class TestValidationAndEdges:
    def test_delay_longer_than_stream(self, spark):
        """A pending timer past the end of input still fires (the paper's
        changelog is unbounded; we cut at `until` only when asked)."""
        r = run_query(
            spark,
            {"bid": ex.bid_log()},
            make_q7(),
            emit=EmitSpec(stream=True, after_delay=timedelta(hours=2)),
        )
        # Every pane fires two hours after the first change of its window.
        assert list(r.changelog["ptime"]) == [t(10, 8), t(10, 12)]
        assert_pdf_equal(r.table(), ex.LISTING_3, ordered=False)

    def test_until_cuts_pending_timers(self, spark):
        r = run_query(
            spark,
            {"bid": ex.bid_log()},
            make_q7(),
            emit=EmitSpec(stream=True, after_delay=timedelta(hours=2)),
            until=t(8, 30),
        )
        assert r.emitted_rows() == 0
