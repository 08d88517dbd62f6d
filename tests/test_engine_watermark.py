"""EMIT AFTER WATERMARK (Extensions 2 and 5): Listings 10-13, completeness
gating, late-data dropping, allowed lateness, and state release."""
from datetime import timedelta

import pytest

from repro.core import EmitSpec, run_query
from repro.core.timeline import EventLog
from repro.nexmark import example as ex
from repro.nexmark.perf import untag_wend
from repro.nexmark.queries import make_q7
from repro.sqlext.executor import sql_query_fn
from tests.helpers import assert_pdf_equal
from tests.test_engine_properties import COUNT_SQL, MAX_BELOW_5_SQL

t = ex.t


@pytest.fixture(scope="module")
def wm_run(spark):
    """One EMIT STREAM AFTER WATERMARK run of Q7, shared by the tests."""
    return run_query(
        spark,
        {"bid": ex.bid_log()},
        make_q7(),
        emit=EmitSpec(stream=True, after_watermark=True),
    )


class TestListing13:
    def test_changelog_exact(self, wm_run):
        assert_pdf_equal(wm_run.changelog, ex.LISTING_13)

    def test_exactly_one_final_pane_per_window(self, wm_run):
        assert wm_run.changelog.groupby(["wstart", "wend"]).size().tolist() == [1, 1]

    def test_no_undos(self, wm_run):
        assert not wm_run.changelog["undo"].any()

    def test_panes_stamped_at_watermark_ptime(self, wm_run):
        # Emission ptimes are watermark-advance instants, not bid arrivals.
        assert list(wm_run.changelog["ptime"]) == [t(8, 16), t(8, 21)]


class TestListings10to12:
    def test_listing_10_at_8_13_empty(self, wm_run):
        assert_pdf_equal(wm_run.table(at=t(8, 13)), ex.LISTING_10, ordered=False)

    def test_listing_11_at_8_16_first_window(self, wm_run):
        assert_pdf_equal(wm_run.table(at=t(8, 16)), ex.LISTING_11, ordered=False)

    def test_listing_12_at_8_21_both_windows(self, wm_run):
        assert_pdf_equal(wm_run.table(at=t(8, 21)), ex.LISTING_12, ordered=False)

    def test_at_8_15_still_empty(self, wm_run):
        assert len(wm_run.table(at=t(8, 15))) == 0

    def test_at_8_20_only_first_window(self, wm_run):
        assert_pdf_equal(wm_run.table(at=t(8, 20)), ex.LISTING_11, ordered=False)


def _late_log() -> EventLog:
    """The paper's stream plus a late bid: (8:06, $9, L) arriving at 8:19,
    after the watermark (8:12 at 8:16) passed its window's end (8:10).
    Extension 2: the contribution must be dropped."""
    log = EventLog(ex.BID_COLUMNS, etime_col="bidtime")
    log.watermark_to(t(8, 7), t(8, 5))
    log.insert(t(8, 8), t(8, 7), 2, "A")
    log.insert(t(8, 12), t(8, 11), 3, "B")
    log.insert(t(8, 13), t(8, 5), 4, "C")
    log.watermark_to(t(8, 14), t(8, 8))
    log.insert(t(8, 15), t(8, 9), 5, "D")
    log.watermark_to(t(8, 16), t(8, 12))
    log.insert(t(8, 17), t(8, 13), 1, "E")
    log.insert(t(8, 18), t(8, 17), 6, "F")
    log.insert(t(8, 19), t(8, 6), 9, "L")  # late for window [8:00, 8:10)
    log.watermark_to(t(8, 21), t(8, 20))
    return log


class TestLateDataDropped:
    @pytest.fixture(scope="class")
    def late_run(self, spark):
        return run_query(
            spark,
            {"bid": _late_log()},
            make_q7(),
            emit=EmitSpec(stream=True, after_watermark=True),
        )

    def test_final_result_unchanged_by_late_row(self, late_run):
        assert_pdf_equal(late_run.changelog, ex.LISTING_13)

    def test_drop_is_counted(self, late_run):
        assert late_run.stats["dropped_late_rows"] > 0

    def test_table_views_unchanged(self, late_run):
        assert_pdf_equal(late_run.table(at=t(8, 21)), ex.LISTING_12, ordered=False)

    def test_continuous_mode_also_drops_after_completeness(self, spark):
        # Extension 2 applies to the grouping itself, not only when EMIT
        # AFTER WATERMARK is requested: the closed window ignores the late
        # bid in plain EMIT STREAM mode too.
        r = run_query(spark, {"bid": _late_log()}, make_q7(), emit=EmitSpec(stream=True))
        assert_pdf_equal(r.table(), ex.LISTING_3, ordered=False)
        assert r.stats["dropped_late_rows"] > 0

    @pytest.mark.parametrize("n_later", [0, 1, 2, 3])
    def test_late_row_counted_once(self, spark, n_later):
        """The late bid replaces its closed window's Q7 row once (one undo,
        one insert), so it counts as 2 dropped rows however many
        recomputes of on-time input follow it."""
        log = _late_log()
        for i in range(n_later):
            log.insert(t(8, 22) + timedelta(seconds=10 * i), t(8, 21), 1, f"X{i}")
        r = run_query(spark, {"bid": log}, make_q7(), emit=EmitSpec(stream=True))
        assert r.stats["dropped_late_rows"] == 2


class TestLateOnlyGroups:
    """A group whose every row arrives after the watermark passed its end is
    late as a whole: it gets no on-time pane, and past allowed lateness its
    rows are dropped, as for a late row into a group seen before."""

    @staticmethod
    def _log() -> EventLog:
        log = EventLog(ex.BID_COLUMNS, etime_col="bidtime")
        log.insert(t(8, 12), t(8, 11), 3, "B")
        log.watermark_to(t(8, 16), t(8, 12))
        log.insert(t(8, 19), t(8, 5), 9, "L")  # only row of [8:00, 8:10)
        log.watermark_to(t(8, 21), t(8, 20))
        return log

    @staticmethod
    def _run(spark, emit):
        log = TestLateOnlyGroups._log()
        return run_query(spark, {"bid": log}, sql_query_fn(COUNT_SQL), emit=emit)

    @pytest.mark.parametrize("after_watermark", [False, True])
    def test_dropped(self, spark, after_watermark):
        r = self._run(spark, EmitSpec(stream=True, after_watermark=after_watermark))
        chg = r.changelog
        assert list(chg["wstart"]) == [t(8, 10)] and list(chg["n"]) == [1]
        assert list(chg["ptime"]) == [t(8, 21) if after_watermark else t(8, 12)]
        assert r.stats["dropped_late_rows"] == 1
        assert r.stats["final_live_groups"] == 0

    def test_late_pane_within_lateness(self, spark):
        """Within allowed lateness the group emits at once as a late pane,
        not as an on-time pane at the next watermark advance."""
        r = self._run(spark, EmitSpec(
            stream=True, after_watermark=True, allowed_lateness=timedelta(minutes=10),
        ))
        chg = r.changelog
        assert list(chg["wstart"]) == [t(8, 0), t(8, 10)]
        assert list(chg["ptime"]) == [t(8, 19), t(8, 21)]
        assert r.stats["dropped_late_rows"] == 0


class TestAllowedLateness:
    def test_late_pane_emitted_within_lateness(self, spark):
        """With 10 minutes allowed lateness the late bid L (etime 8:06,
        arriving 8:19 < 8:10 + lateness) produces a late pane that
        retracts the on-time answer."""
        r = run_query(
            spark,
            {"bid": _late_log()},
            make_q7(),
            emit=EmitSpec(
                stream=True, after_watermark=True,
                allowed_lateness=timedelta(minutes=10),
            ),
        )
        chg = r.changelog
        w1 = chg[chg["wend"] == t(8, 10)]
        # on-time D pane, then undo D + insert L at 8:19.
        assert list(w1["item"]) == ["D", "D", "L"]
        assert list(w1["undo"]) == [False, True, False]
        assert list(w1["ptime"]) == [t(8, 16), t(8, 19), t(8, 19)]
        # Final table reflects the late winner.
        assert set(r.table()["item"]) == {"L", "F"}


class TestStateRelease:
    def test_groups_finalized_frees_state(self, wm_run):
        assert wm_run.stats["finalized_groups"] == 2
        assert wm_run.stats["final_live_groups"] == 0

    def test_without_wend_col_state_never_freed(self, spark):
        # Without the window tag on wend, no group completes.
        r = run_query(
            spark, {"bid": ex.bid_log()}, untag_wend(make_q7()), emit=EmitSpec(stream=True)
        )
        assert r.stats["finalized_groups"] == 0
        assert r.stats["final_live_groups"] == 2

    def test_vanished_group_holds_no_state(self, spark):
        """Under the non-monotone ``HAVING max(price) < 5``, windows [8:00,
        8:10) and [8:30, 8:40) appear and vanish again before any pane. They
        hold nothing, so they are neither live nor finalized."""
        log = EventLog(ex.BID_COLUMNS, etime_col="bidtime")
        log.insert(t(8, 1), t(8, 1), 2, "A")
        log.insert(t(8, 2), t(8, 31), 1, "B")
        for etime, price, item in [(t(8, 2), 7, "C"), (t(8, 32), 9, "D"),
                                   (t(8, 12), 1, "E"), (t(8, 25), 3, "F")]:
            log.insert(t(8, 3), etime, price, item)
        log.watermark_to(t(8, 15), t(8, 10))
        log.watermark_to(t(8, 22), t(8, 20))

        r = run_query(
            spark, {"bid": log}, sql_query_fn(MAX_BELOW_5_SQL),
            emit=EmitSpec(stream=True, after_watermark=True),
        )
        assert list(r.changelog["wstart"]) == [t(8, 10)]
        assert list(r.changelog["ptime"]) == [t(8, 22)]
        # Live after 8:03: [8:10, 8:20) and [8:20, 8:30); the parent's
        # zero-count entries also kept the two vanished windows.
        assert r.stats["max_live_groups"] == 2
        assert r.stats["finalized_groups"] == 1
        assert r.stats["final_live_groups"] == 1


class TestTableModeAfterWatermark:
    def test_non_stream_spec_same_materialization(self, spark):
        # EMIT AFTER WATERMARK (table rendering) materializes the same
        # rows at the same instants; only the rendering differs.
        r = run_query(
            spark,
            {"bid": ex.bid_log()},
            make_q7(),
            emit=EmitSpec(stream=False, after_watermark=True),
        )
        assert_pdf_equal(r.table(at=t(8, 13)), ex.LISTING_10, ordered=False)
        assert_pdf_equal(r.table(at=t(8, 16)), ex.LISTING_11, ordered=False)
        assert_pdf_equal(r.table(at=t(8, 21)), ex.LISTING_12, ordered=False)
