"""Changelog differencing (Extension 4 machinery).

A query result at two consecutive processing times is a pair of relations;
their per-group difference is a signed multiset of rows (a Z-set of DBSP,
Budiu et al., VLDB 2023). The engine sums these per group until the group
materializes; then negative counts become ``undo`` entries, positive ones
inserts, and each emitted row gets a ``ver`` sequence number *relative to
other changes of the same event-time grouping* (the paper's ``ver`` column
in Listing 9).

This module is deliberately pure pandas/python: it is the driver-side
"sink-adjacent" part of the engine, operating on already-collected (small)
query results; all heavy relational work happens in Spark upstream.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence

import pandas as pd

UNDO = "undo"
PTIME = "ptime"
VER = "ver"
META_COLS = [UNDO, PTIME, VER]

Key = tuple


def nulls_first(values: tuple) -> tuple:
    """Sort key for a key or row tuple that places NULLs (``None``) first,
    as Spark's ascending order does; other values compare exactly as in
    plain tuple comparison."""
    return tuple((v is not None, v) for v in values)


def _nan_as_null(pdf: pd.DataFrame) -> pd.DataFrame:
    """``pdf`` with float NaN replaced by ``None``. ``toPandas`` turns a
    NULL double into NaN, which never equals itself, so the same result row
    would differ from one recompute to the next. Frames without NaN are
    returned as they are."""
    nan_cols = [
        c for c in pdf.columns if pdf[c].dtype.kind == "f" and pdf[c].isna().any()
    ]
    if not nan_cols:
        return pdf
    pdf = pdf.copy()
    for c in nan_cols:
        pdf[c] = pdf[c].astype(object).where(pdf[c].notna(), None)
    return pdf


def rows_by_key(
    pdf: pd.DataFrame,
    columns: Sequence[str],
    key_cols: Sequence[str],
    prev: Optional[pd.DataFrame] = None,
) -> Dict[Key, Counter]:
    """The change from result frame ``prev`` (default: none) to ``pdf``,
    grouped as ``{key_tuple: Counter(full-row tuple -> signed count)}``.

    Only rows whose count changed appear, so only changed groups do. This
    is the differentiation step of DBSP (Budiu et al., VLDB 2023), in one
    vectorized pass: the rows of both frames, signed +1 and -1, are summed
    per distinct row. ``key_cols`` empty means one global group (key
    ``()``). Float NaN becomes ``None``, a NULL like any other.
    """
    out: Dict[Key, Counter] = defaultdict(Counter)
    frames = [f[list(columns)] for f in (pdf, prev) if f is not None and len(f)]
    if not frames:
        return out
    both = _nan_as_null(pd.concat(frames, ignore_index=True))
    n_new = 0 if pdf is None else len(pdf)
    sign = pd.Series([1] * n_new + [-1] * (len(both) - n_new))
    counts = sign.groupby(
        [both[c] for c in columns], dropna=False, sort=False
    ).transform("sum")
    changed = (counts != 0) & ~both.duplicated()
    key_idx = [columns.index(k) for k in key_cols]
    for row, n in zip(both[changed].itertuples(index=False, name=None), counts[changed]):
        out[tuple(row[i] for i in key_idx)][row] = n
    return out


def changelog_rows(change: Counter, *, ptime: pd.Timestamp, ver: int) -> List[tuple]:
    """Changelog entries that materialize ``change``, a group's signed row
    counts since its last pane: undo rows for negative counts, then insert
    rows for positive counts, each ``|n|`` times and sorted NULLs first.
    Each entry is ``row + (undo, ptime, ver)``, ``ver`` counting up from
    the given one."""
    rows = [
        (row, undo)
        for undo, sign in ((True, -1), (False, 1))
        for row in sorted(
            (r for r, n in change.items() for _ in range(sign * n)), key=nulls_first
        )
    ]
    return [row + (undo, ptime, ver + i) for i, (row, undo) in enumerate(rows)]


def changelog_to_pdf(entries: List[tuple], columns: Sequence[str]) -> pd.DataFrame:
    """Render accumulated changelog entries as a frame with the result's
    payload columns followed by ``undo``, ``ptime``, ``ver``."""
    return pd.DataFrame(entries, columns=list(columns) + META_COLS).astype(
        {UNDO: bool, VER: "int64"}
    )


def integrate_changelog(
    changelog: pd.DataFrame, columns: Sequence[str], at=None
) -> pd.DataFrame:
    """Replay a changelog into the relation it encodes (stream -> table
    duality): apply inserts and undos in order, up to processing time
    ``at`` inclusive (all of it if None). Float NaN is read as ``None``,
    as :func:`rows_by_key` wrote it, and a float column comes back as a
    float column, with NULLs as NaN as ``toPandas`` gives them."""
    state: Counter = Counter()
    if len(changelog):
        sel = changelog if at is None else changelog[changelog[PTIME] <= pd.Timestamp(at)]
        sel = _nan_as_null(sel[list(columns) + [UNDO]])
        for rec in sel.itertuples(index=False, name=None):
            row, is_undo = rec[:-1], rec[-1]
            if is_undo:
                if state[row] <= 0:
                    raise ValueError(f"undo of a row not present: {row}")
                state[row] -= 1
            else:
                state[row] += 1
    rows = sorted(state.elements(), key=nulls_first)
    floats = {c: changelog[c].dtype for c in columns if changelog[c].dtype.kind == "f"}
    return pd.DataFrame(rows, columns=list(columns)).astype(floats)
