"""Changelog differencing (Extension 4 machinery).

A query result at two consecutive processing times is a pair of relations;
their per-group multiset difference is the changelog step: retracted rows
become ``undo`` entries, new rows become inserts, and each emitted row gets
a ``ver`` sequence number *relative to other changes of the same event-time
grouping* (the paper's ``ver`` column in Listing 9).

This module is deliberately pure pandas/python: it is the driver-side
"sink-adjacent" part of the engine, operating on already-collected (small)
query results; all heavy relational work happens in Spark upstream.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import pandas as pd

UNDO = "undo"
PTIME = "ptime"
VER = "ver"
META_COLS = [UNDO, PTIME, VER]

Key = tuple
Row = tuple


def nulls_first(values: tuple) -> tuple:
    """Sort key for a key or row tuple that places NULLs (``None``) first,
    as Spark's ascending order does; other values compare exactly as in
    plain tuple comparison."""
    return tuple((v is not None, v) for v in values)


def rows_by_key(
    pdf: pd.DataFrame, columns: Sequence[str], key_cols: Sequence[str]
) -> Dict[Key, Counter]:
    """Group a result frame into ``{key_tuple: multiset of full-row tuples}``.

    ``key_cols`` empty means one global group (key ``()``).
    """
    out: Dict[Key, Counter] = defaultdict(Counter)
    if pdf is None or len(pdf) == 0:
        return out
    key_idx = [columns.index(k) for k in key_cols]
    for row in pdf[list(columns)].itertuples(index=False, name=None):
        out[tuple(row[i] for i in key_idx)][row] += 1
    return out


def multiset_diff(old: Counter, new: Counter) -> Tuple[List[Row], List[Row]]:
    """``(removed, added)`` between two row multisets, each sorted for
    deterministic emission order."""
    removed = sorted((old - new).elements(), key=nulls_first)
    added = sorted((new - old).elements(), key=nulls_first)
    return removed, added


def changelog_rows(
    old_by_key: Dict[Key, Counter],
    new_by_key: Dict[Key, Counter],
    *,
    ptime: pd.Timestamp,
    ver_counters: Dict[Key, int],
    keys: Optional[Iterable[Key]] = None,
) -> List[dict]:
    """Diff two keyed result states into changelog entries.

    Emits, per key (sorted): undo rows for retractions then rows for
    insertions, stamping each with ``ptime`` and the key's next ``ver``.
    ``keys`` restricts the diff to a subset (watermark finalization emits
    only the newly-complete groups).

    ``ver_counters`` is mutated: it carries each group's version sequence
    across the whole run.
    """
    todo = set(old_by_key) | set(new_by_key) if keys is None else set(keys)
    out: List[dict] = []
    for key in sorted(todo, key=nulls_first):
        removed, added = multiset_diff(
            old_by_key.get(key, Counter()), new_by_key.get(key, Counter())
        )
        for row, is_undo in [(r, True) for r in removed] + [(r, False) for r in added]:
            out.append(
                {
                    "_row": row,
                    UNDO: is_undo,
                    PTIME: ptime,
                    VER: ver_counters[key],
                }
            )
            ver_counters[key] += 1
    return out


def changelog_to_pdf(entries: List[dict], columns: Sequence[str]) -> pd.DataFrame:
    """Render accumulated changelog entries as a frame with the result's
    payload columns followed by ``undo``, ``ptime``, ``ver``."""
    records = []
    for e in entries:
        rec = dict(zip(columns, e["_row"]))
        rec[UNDO] = e[UNDO]
        rec[PTIME] = e[PTIME]
        rec[VER] = e[VER]
        records.append(rec)
    pdf = pd.DataFrame(records, columns=list(columns) + META_COLS)
    pdf[UNDO] = pdf[UNDO].astype(bool)
    pdf[VER] = pdf[VER].astype("int64")
    return pdf


def integrate_changelog(
    changelog: pd.DataFrame, columns: Sequence[str], at=None
) -> pd.DataFrame:
    """Replay a changelog into the relation it encodes (stream -> table
    duality): apply inserts and undos in order, up to processing time
    ``at`` inclusive (all of it if None)."""
    state: Counter = Counter()
    if len(changelog):
        sel = changelog if at is None else changelog[changelog[PTIME] <= pd.Timestamp(at)]
        for rec in sel[list(columns) + [UNDO]].itertuples(index=False, name=None):
            row, is_undo = rec[:-1], rec[-1]
            if is_undo:
                if state[row] <= 0:
                    raise ValueError(f"undo of a row not present: {row}")
                state[row] -= 1
            else:
                state[row] += 1
    rows = sorted(state.elements(), key=nulls_first)
    return pd.DataFrame(rows, columns=list(columns))
