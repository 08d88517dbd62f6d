"""Unit tests for changelog differencing and integration (pure pandas)."""
from collections import Counter, defaultdict

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import diff as D
from repro.nexmark.example import t


class TestRowsByKey:
    def test_groups_by_key_tuple(self):
        pdf = pd.DataFrame({"k": [1, 1, 2], "v": ["a", "b", "c"]})
        out = D.rows_by_key(pdf, ["k", "v"], ["k"])
        assert out[(1,)] == Counter({(1, "a"): 1, (1, "b"): 1})
        assert out[(2,)] == Counter({(2, "c"): 1})

    def test_empty_frame(self):
        assert D.rows_by_key(pd.DataFrame(columns=["k"]), ["k"], ["k"]) == {}

    def test_none_frame(self):
        assert D.rows_by_key(None, ["k"], ["k"]) == {}

    def test_whole_row_key(self):
        pdf = pd.DataFrame({"v": ["a", "a"]})
        out = D.rows_by_key(pdf, ["v"], ["v"])
        assert out[("a",)] == Counter({("a",): 2})

    def test_global_key(self):
        pdf = pd.DataFrame({"v": ["a", "b"]})
        out = D.rows_by_key(pdf, ["v"], [])
        assert out[()] == Counter({("a",): 1, ("b",): 1})


class TestMultisetDiff:
    def test_disjoint(self):
        rem, add = D.multiset_diff(Counter({(1,): 1}), Counter({(2,): 1}))
        assert rem == [(1,)] and add == [(2,)]

    def test_identical(self):
        c = Counter({(1,): 2})
        assert D.multiset_diff(c, c) == ([], [])

    def test_multiplicity_change(self):
        rem, add = D.multiset_diff(Counter({(1,): 1}), Counter({(1,): 3}))
        assert rem == [] and add == [(1,), (1,)]

    def test_output_sorted(self):
        rem, add = D.multiset_diff(Counter(), Counter({(2,): 1, (1,): 1}))
        assert add == [(1,), (2,)]


class TestChangelogRows:
    def test_undo_before_insert_and_ver_sequencing(self):
        # Paper Listing 9 at ptime 8:13: undo A (ver 1) then insert C (ver 2).
        old = {("w1",): Counter({("w1", "A"): 1})}
        new = {("w1",): Counter({("w1", "C"): 1})}
        ver = defaultdict(int)
        ver[("w1",)] = 1  # A was emitted with ver 0 earlier
        rows = D.changelog_rows(old, new, ptime=t(8, 13), ver_counters=ver)
        assert [(r["_row"], r[D.UNDO], r[D.VER]) for r in rows] == [
            (("w1", "A"), True, 1),
            (("w1", "C"), False, 2),
        ]

    def test_ver_counters_are_per_key(self):
        old = {}
        new = {
            ("w1",): Counter({("w1", "A"): 1}),
            ("w2",): Counter({("w2", "B"): 1}),
        }
        ver = defaultdict(int)
        rows = D.changelog_rows(old, new, ptime=t(8, 0), ver_counters=ver)
        assert all(r[D.VER] == 0 for r in rows)

    def test_keys_restriction(self):
        new = {
            ("w1",): Counter({("w1", "A"): 1}),
            ("w2",): Counter({("w2", "B"): 1}),
        }
        rows = D.changelog_rows(
            {}, new, ptime=t(8, 0), ver_counters=defaultdict(int), keys=[("w1",)]
        )
        assert [r["_row"] for r in rows] == [("w1", "A")]

    def test_no_change_no_rows(self):
        state = {("w1",): Counter({("w1", "A"): 1})}
        rows = D.changelog_rows(
            state, state, ptime=t(8, 0), ver_counters=defaultdict(int)
        )
        assert rows == []

    def test_keys_sorted_deterministically(self):
        new = {
            ("b",): Counter({("b", 1): 1}),
            ("a",): Counter({("a", 1): 1}),
        }
        rows = D.changelog_rows({}, new, ptime=t(8, 0), ver_counters=defaultdict(int))
        assert [r["_row"][0] for r in rows] == ["a", "b"]


class TestNullsFirst:
    def test_null_key_sorts_first(self):
        # Two keys of one window change in the same step; one has a NULL
        # item. Plain tuple comparison raises TypeError here.
        new = {
            ("w1", "A"): Counter({("w1", "A", 2): 1}),
            ("w1", None): Counter({("w1", None, 1): 1}),
        }
        rows = D.changelog_rows({}, new, ptime=t(8, 0), ver_counters=defaultdict(int))
        assert [r["_row"] for r in rows] == [("w1", None, 1), ("w1", "A", 2)]

    def test_null_rows_in_diff_and_integration(self):
        rem, add = D.multiset_diff(Counter(), Counter({("a",): 1, (None,): 1}))
        assert add == [(None,), ("a",)]
        chg = pd.DataFrame(
            [("a", False, t(8, 0), 0), (None, False, t(8, 0), 1)],
            columns=["v", "undo", "ptime", "ver"],
        )
        assert list(D.integrate_changelog(chg, ["v"])["v"]) == [None, "a"]

    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from("abc")), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_non_null_order_unchanged(self, rows):
        assert sorted(rows, key=D.nulls_first) == sorted(rows)


class TestChangelogToPdf:
    def test_renders_metadata_columns(self):
        rows = [{"_row": (1, "x"), D.UNDO: False, D.PTIME: t(8, 0), D.VER: 0}]
        pdf = D.changelog_to_pdf(rows, ["k", "v"])
        assert list(pdf.columns) == ["k", "v", "undo", "ptime", "ver"]
        assert pdf["undo"].dtype == bool

    def test_empty(self):
        pdf = D.changelog_to_pdf([], ["k"])
        assert len(pdf) == 0 and list(pdf.columns) == ["k", "undo", "ptime", "ver"]


class TestIntegrateChangelog:
    def _chg(self, rows):
        pdf = pd.DataFrame(rows, columns=["v", "undo", "ptime", "ver"])
        pdf["undo"] = pdf["undo"].astype(bool)
        return pdf

    def test_insert_then_undo_cancels(self):
        chg = self._chg([("a", False, t(8, 0), 0), ("a", True, t(8, 1), 1)])
        out = D.integrate_changelog(chg, ["v"])
        assert len(out) == 0

    def test_integration_at_intermediate_ptime(self):
        chg = self._chg([("a", False, t(8, 0), 0), ("a", True, t(8, 1), 1)])
        out = D.integrate_changelog(chg, ["v"], at=t(8, 0))
        assert list(out["v"]) == ["a"]

    def test_undo_without_insert_raises(self):
        chg = self._chg([("a", True, t(8, 0), 0)])
        with pytest.raises(ValueError, match="undo of a row not present"):
            D.integrate_changelog(chg, ["v"])

    def test_multiplicities(self):
        chg = self._chg(
            [("a", False, t(8, 0), 0), ("a", False, t(8, 1), 1), ("a", True, t(8, 2), 2)]
        )
        out = D.integrate_changelog(chg, ["v"])
        assert list(out["v"]) == ["a"]

    def test_empty_changelog(self):
        out = D.integrate_changelog(self._chg([]), ["v"])
        assert len(out) == 0


rows_st = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from("abc")), max_size=12
)


class TestDualityProperty:
    @given(rows_st, rows_st)
    @settings(max_examples=80, deadline=None)
    def test_diff_then_integrate_reconstructs_new_state(self, old_rows, new_rows):
        """stream->table duality at the diff level: integrating (old state +
        changelog(old, new)) always reconstructs new, for any multisets."""
        cols = ["k", "v"]
        old = D.rows_by_key(pd.DataFrame(old_rows, columns=cols), cols, ["k"])
        new = D.rows_by_key(pd.DataFrame(new_rows, columns=cols), cols, ["k"])
        rows = D.changelog_rows(old, new, ptime=t(8, 0), ver_counters=defaultdict(int))
        state = Counter()
        for key_state in old.values():
            state.update(key_state)
        for r in rows:
            if r[D.UNDO]:
                state[r["_row"]] -= 1
            else:
                state[r["_row"]] += 1
        state = Counter({k: c for k, c in state.items() if c})
        want = Counter()
        for key_state in new.values():
            want.update(key_state)
        assert state == want
