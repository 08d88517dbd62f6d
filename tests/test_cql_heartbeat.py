"""STREAM heartbeat buffering (§3.2): in-order release, violations,
pending rows."""
import pytest

from repro.cql.heartbeat import reorder_with_heartbeat
from repro.core.timeline import EventLog
from repro.nexmark import example as ex

t = ex.t


@pytest.fixture()
def released_all():
    return reorder_with_heartbeat(ex.bid_log())


class TestPaperExample:
    def test_all_rows_released(self, released_all):
        released, violations, pending = released_all
        assert len(released) == 6
        assert len(violations) == 0 and len(pending) == 0

    def test_released_in_event_time_order(self, released_all):
        released, _, _ = released_all
        assert released["bidtime"].is_monotonic_increasing
        assert list(released["item"]) == ["C", "A", "D", "B", "E", "F"]

    def test_release_ptimes(self, released_all):
        released, _, _ = released_all
        # A (8:07) and C (8:05) release when WM passes 8:08 at 8:14;
        # D (8:09) + B (8:11) at 8:16 (WM 8:12); E, F at 8:21 (WM 8:20).
        expect = {
            "A": t(8, 14), "C": t(8, 14),
            "D": t(8, 16), "B": t(8, 16),
            "E": t(8, 21), "F": t(8, 21),
        }
        got = dict(zip(released["item"], released["release_ptime"]))
        assert got == expect

    def test_release_ptimes_monotonic(self, released_all):
        released, _, _ = released_all
        assert released["release_ptime"].is_monotonic_increasing


class TestUntil:
    def test_truncation(self):
        released, _, pending = reorder_with_heartbeat(ex.bid_log(), until=t(8, 14))
        assert list(released["item"]) == ["C", "A"]
        assert sorted(pending["item"]) == ["B"]

    def test_truncation_before_any_watermark(self):
        released, _, pending = reorder_with_heartbeat(ex.bid_log(), until=t(8, 13))
        assert len(released) == 0
        assert sorted(pending["item"]) == ["A", "B", "C"]


class TestViolations:
    def test_unorderable_row_surfaced(self):
        log = EventLog(["etime", "v"], etime_col="etime")
        log.insert(t(8, 9), t(8, 4), 0)
        log.watermark_to(t(8, 10), t(8, 5))   # releases v=0 (etime 8:04)
        log.insert(t(8, 11), t(8, 3), 1)      # below last release: violation
        log.insert(t(8, 12), t(8, 6), 2)
        log.watermark_to(t(8, 13), t(8, 7))
        released, violations, _ = reorder_with_heartbeat(log)
        assert list(violations["v"]) == [1]
        assert list(released["v"]) == [0, 2]

    def test_row_at_watermark_is_still_orderable(self):
        # The paper's example: bid C arrives with etime equal to the
        # current watermark; nothing below it has been released, so it is
        # buffered and released in order, not dropped.
        log = EventLog(["etime", "v"], etime_col="etime")
        log.watermark_to(t(8, 10), t(8, 5))
        log.insert(t(8, 11), t(8, 5), 1)
        log.watermark_to(t(8, 13), t(8, 7))
        released, violations, _ = reorder_with_heartbeat(log)
        assert len(violations) == 0
        assert list(released["v"]) == [1]

    def test_inserts_precede_heartbeat_at_same_ptime(self):
        # Appended after the heartbeat, but applied before it: the log has
        # one order within a ptime, inserts first.
        log = EventLog(["etime", "v"], etime_col="etime")
        log.watermark_to(t(8, 10), t(8, 5))
        log.insert(t(8, 10), t(8, 4), 1)
        released, violations, pending = reorder_with_heartbeat(log)
        assert list(released["v"]) == [1]
        assert list(released["release_ptime"]) == [t(8, 10)]
        assert len(violations) == 0 and len(pending) == 0

    def test_requires_etime_col(self):
        log = EventLog(["v"])
        log.insert(t(8, 0), 1)
        with pytest.raises(ValueError, match="event-time column"):
            reorder_with_heartbeat(log)


class TestPending:
    def test_rows_beyond_final_watermark_stay_buffered(self):
        log = EventLog(["etime", "v"], etime_col="etime")
        log.insert(t(8, 1), t(8, 30), 1)  # far future etime
        log.insert(t(8, 2), t(8, 3), 2)
        log.watermark_to(t(8, 5), t(8, 10))
        released, _, pending = reorder_with_heartbeat(log)
        assert list(released["v"]) == [2]
        assert list(pending["v"]) == [1]

    def test_no_watermark_nothing_released(self):
        log = EventLog(["etime", "v"], etime_col="etime")
        log.insert(t(8, 1), t(8, 0), 1)
        released, _, pending = reorder_with_heartbeat(log)
        assert len(released) == 0 and len(pending) == 1
