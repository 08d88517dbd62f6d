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


def entries(rows):
    """``(row, undo, ver)`` of each changelog entry; ptime dropped."""
    return [(r[:-3], r[-3], r[-1]) for r in rows]


class TestChangelogRows:
    def test_undo_before_insert_and_ver_sequencing(self):
        # Paper Listing 9 at ptime 8:13: undo A (ver 1) then insert C (ver 2).
        change = Counter({("w1", "C"): 1, ("w1", "A"): -1})
        rows = D.changelog_rows(change, ptime=t(8, 13), ver=1)  # A had ver 0
        assert entries(rows) == [(("w1", "A"), True, 1), (("w1", "C"), False, 2)]
        assert all(r[-2] == t(8, 13) for r in rows)

    def test_ver_counters_are_per_key(self):
        # The engine keeps one counter per group and advances it by the
        # rows each pane emits.
        pdf = pd.DataFrame({"k": ["w1", "w2", "w2"], "v": ["A", "B", "C"]})
        ver = defaultdict(int)
        for key, change in D.rows_by_key(pdf, ["k", "v"], ["k"]).items():
            rows = D.changelog_rows(change, ptime=t(8, 0), ver=ver[key])
            ver[key] += len(rows)
            assert [r[-1] for r in rows] == list(range(len(rows)))
        assert ver == {("w1",): 1, ("w2",): 2}

    def test_multiplicities(self):
        rows = D.changelog_rows(Counter({(1,): 2, (2,): -3}), ptime=t(8, 0), ver=0)
        assert entries(rows) == [
            ((2,), True, 0), ((2,), True, 1), ((2,), True, 2),
            ((1,), False, 3), ((1,), False, 4),
        ]

    def test_no_change_no_rows(self):
        assert D.changelog_rows(Counter(), ptime=t(8, 0), ver=0) == []
        # A change that cancelled out is no change.
        assert D.changelog_rows(Counter({(1,): 0}), ptime=t(8, 0), ver=3) == []

    def test_keys_sorted_deterministically(self):
        change = Counter({("b", 1): 1, ("a", 1): 1, ("c", 1): -1})
        rows = D.changelog_rows(change, ptime=t(8, 0), ver=0)
        assert [r[0] for r in rows] == ["c", "a", "b"]


class TestNullsFirst:
    def test_null_key_sorts_first(self):
        # One window's change holds a row with a NULL item. Plain tuple
        # comparison raises TypeError here.
        change = Counter({("w1", "A", 2): 1, ("w1", None, 1): 1})
        rows = D.changelog_rows(change, ptime=t(8, 0), ver=0)
        assert [r[:3] for r in rows] == [("w1", None, 1), ("w1", "A", 2)]

    def test_null_rows_in_diff_and_integration(self):
        change = D.rows_by_key(pd.DataFrame({"v": ["a", None]}), ["v"], [])[()]
        rows = D.changelog_rows(change, ptime=t(8, 0), ver=0)
        assert [r[0] for r in rows] == [None, "a"]
        chg = pd.DataFrame(
            [("a", False, t(8, 0), 0), (None, False, t(8, 0), 1)],
            columns=["v", "undo", "ptime", "ver"],
        )
        assert list(D.integrate_changelog(chg, ["v"])["v"]) == [None, "a"]

    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from("abc")), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_non_null_order_unchanged(self, rows):
        assert sorted(rows, key=D.nulls_first) == sorted(rows)


class TestNanValues:
    """``toPandas`` collects a NULL double as NaN, which never equals
    itself; the differ reads it as ``None``."""

    @staticmethod
    def result():
        return pd.DataFrame({"k": [1, 1, 2], "v": [float("nan"), 2.0, 3.0]})

    def test_recompute_of_nan_row_is_no_change(self):
        first = D.rows_by_key(self.result(), ["k", "v"], ["k"])
        assert first[(1,)] == Counter({(1, None): 1, (1, 2.0): 1})
        assert D.rows_by_key(self.result(), ["k", "v"], ["k"], prev=self.result()) == {}

    def test_nan_row_integrates_and_undoes(self):
        cols = ["k", "v"]
        steps = [
            (t(8, 1), D.rows_by_key(self.result(), cols, ["k"])),
            (t(8, 2), D.rows_by_key(None, cols, ["k"], prev=self.result())),
        ]
        ver = defaultdict(int)
        rows = []
        for ptime, delta in steps:
            for key, change in delta.items():
                new = D.changelog_rows(change, ptime=ptime, ver=ver[key])
                ver[key] += len(new)
                rows += new
        log = D.changelog_to_pdf(rows, cols)
        table = D.integrate_changelog(log, cols, at=t(8, 1))
        assert table["v"].isna().tolist() == [True, False, False]
        assert len(D.integrate_changelog(log, cols)) == 0


class TestChangelogToPdf:
    def test_renders_metadata_columns(self):
        pdf = D.changelog_to_pdf([(1, "x", False, t(8, 0), 0)], ["k", "v"])
        assert list(pdf.columns) == ["k", "v", "undo", "ptime", "ver"]
        assert pdf["undo"].dtype == bool and pdf["ver"].dtype == "int64"

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


def materialize(results):
    """Emit the first result in one pane at 8:00, sum every later step's
    change per key, emit that sum in one pane at 8:01, and integrate the
    changelog (which raises on an undo of a row not present)."""
    cols = ["k", "v"]
    frames = [pd.DataFrame(r, columns=cols) for r in results]
    pending = defaultdict(Counter)
    for prev, pdf in zip(frames, frames[1:]):
        for key, d in D.rows_by_key(pdf, cols, ["k"], prev).items():
            pending[key].update(d)
    rows, ver = [], defaultdict(int)
    for ptime, delta in [(t(8, 0), D.rows_by_key(frames[0], cols, ["k"])), (t(8, 1), pending)]:
        for key in sorted(delta):
            new = D.changelog_rows(delta[key], ptime=ptime, ver=ver[key])
            ver[key] += len(new)
            rows += new
    table = D.integrate_changelog(D.changelog_to_pdf(rows, cols), cols)
    return [(int(k), v) for k, v in table.itertuples(index=False, name=None)]


class TestDualityProperty:
    @given(rows_st, rows_st)
    @settings(max_examples=80, deadline=None)
    def test_diff_then_integrate_reconstructs_new_state(self, old_rows, new_rows):
        """stream->table duality at the diff level: integrating old plus the
        changelog of its change to new always reconstructs new, for any
        multisets."""
        assert materialize([old_rows, new_rows]) == sorted(new_rows)

    @given(rows_st, rows_st, rows_st)
    @settings(max_examples=80, deadline=None)
    def test_summed_changes_materialize_once(self, a, b, c):
        """The engine's invariant: a group's pending change is the sum of
        its step changes, so materializing the change a->b plus the change
        b->c in one pane turns a into c."""
        assert materialize([a, b, c]) == sorted(c)

    @given(rows_st, rows_st)
    @settings(max_examples=80, deadline=None)
    def test_step_diff_is_signed_difference(self, old_rows, new_rows):
        """``rows_by_key`` against a previous frame yields, per key, each
        row's count in ``new`` minus its count in ``old``, nonzero only."""
        cols = ["k", "v"]
        old, new = (pd.DataFrame(r, columns=cols) for r in (old_rows, new_rows))
        got = D.rows_by_key(new, cols, ["k"], prev=old)
        want = Counter(new_rows)
        want.subtract(Counter(old_rows))
        assert all(key == (row[0],) for key, c in got.items() for row in c)
        assert {row: n for c in got.values() for row, n in c.items()} == {
            row: n for row, n in want.items() if n
        }
