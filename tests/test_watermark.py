"""Unit tests for the Watermark timeline (§3.2.2)."""
from datetime import timedelta

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.watermark import Watermark

T0 = pd.Timestamp("2023-01-01 08:00:00")


def ts(minutes: float) -> pd.Timestamp:
    return T0 + timedelta(minutes=minutes)


def wm(*pairs) -> Watermark:
    return Watermark(tuple((ts(p), ts(e)) for p, e in pairs))


class TestConstruction:
    def test_empty(self):
        assert Watermark().updates == ()

    def test_single_update(self):
        w = wm((7, 5))
        assert w.updates == ((ts(7), ts(5)),)

    def test_ptime_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            wm((7, 5), (7, 6))

    def test_ptime_must_not_decrease(self):
        with pytest.raises(ValueError, match="strictly increase"):
            wm((7, 5), (6, 6))

    def test_etime_must_not_retreat(self):
        with pytest.raises(ValueError, match="retreat"):
            wm((7, 5), (8, 4))

    def test_etime_may_stall(self):
        w = wm((7, 5), (8, 5))
        assert w.at(ts(8)) == ts(5)

    def test_from_updates_sorts(self):
        w = Watermark.from_updates([(ts(14), ts(8)), (ts(7), ts(5))])
        assert w.updates == ((ts(7), ts(5)), (ts(14), ts(8)))

    def test_from_updates_dedups_same_ptime(self):
        w = Watermark.from_updates([(ts(7), ts(5)), (ts(7), ts(6))])
        assert w.updates == ((ts(7), ts(6)),)

    def test_from_updates_running_max(self):
        # A retreating raw feed is monotonized by running max.
        w = Watermark.from_updates([(ts(7), ts(6)), (ts(8), ts(5))])
        assert w.at(ts(8)) == ts(6)


class TestAt:
    def test_before_first_update_is_none(self):
        assert wm((7, 5)).at(ts(6)) is None

    def test_at_update_instant(self):
        assert wm((7, 5)).at(ts(7)) == ts(5)

    def test_between_updates_holds_previous(self):
        w = wm((7, 5), (14, 8))
        assert w.at(ts(10)) == ts(5)

    def test_after_last_update(self):
        w = wm((7, 5), (14, 8))
        assert w.at(ts(30)) == ts(8)

    def test_paper_example_timeline(self):
        w = wm((7, 5), (14, 8), (16, 12), (21, 20))
        assert w.at(ts(13)) == ts(5)
        assert w.at(ts(15)) == ts(8)
        assert w.at(ts(16)) == ts(12)
        assert w.at(ts(21)) == ts(20)

    def test_empty_watermark_is_always_none(self):
        assert Watermark().at(ts(100)) is None


class TestCombineMin:
    def test_min_of_two(self):
        a, b = wm((7, 5), (14, 10)), wm((8, 6), (12, 8))
        c = Watermark.combine_min(a, b)
        # Defined only once both inputs have advanced (at 8): min(5, 6) = 5.
        assert c.at(ts(7)) is None
        assert c.at(ts(8)) == ts(5)
        assert c.at(ts(13)) == ts(5)  # min(5, 8)
        assert c.at(ts(14)) == ts(8)  # min(10, 8)

    def test_symmetry(self):
        a, b = wm((7, 5), (14, 10)), wm((8, 6), (12, 8))
        ab, ba = Watermark.combine_min(a, b), Watermark.combine_min(b, a)
        for p in range(0, 30):
            assert ab.at(ts(p)) == ba.at(ts(p))

    def test_combine_with_empty_never_advances(self):
        c = Watermark.combine_min(wm((7, 5)), Watermark())
        assert c.updates == ()

    def test_holdback_never_exceeds_either_input(self):
        a, b = wm((5, 3), (10, 9), (20, 15)), wm((7, 4), (12, 6), (18, 14))
        c = Watermark.combine_min(a, b)
        for p in range(0, 25):
            cv = c.at(ts(p))
            if cv is None:
                continue
            for w in (a, b):
                wv = w.at(ts(p))
                assert wv is not None and cv <= wv


@st.composite
def watermarks(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    ptimes = sorted(draw(st.sets(st.integers(0, 500), min_size=n, max_size=n)))
    deltas = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    e, out = 0, []
    for p, d in zip(ptimes, deltas):
        e += d
        out.append((ts(p), ts(e)))
    return Watermark(tuple(out))


class TestProperties:
    @given(watermarks(), st.integers(0, 600))
    @settings(max_examples=60, deadline=None)
    def test_at_is_monotonic(self, w, p):
        earlier, later = w.at(ts(p)), w.at(ts(p + 1))
        if earlier is not None:
            assert later is not None and later >= earlier

    @given(watermarks(), watermarks(), st.integers(0, 600))
    @settings(max_examples=60, deadline=None)
    def test_combine_min_pointwise(self, a, b, p):
        c = Watermark.combine_min(a, b)
        av, bv = a.at(ts(p)), b.at(ts(p))
        cv = c.at(ts(p))
        if av is None or bv is None:
            assert cv is None
        else:
            assert cv == min(av, bv)
