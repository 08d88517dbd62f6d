"""Shared test utilities: a log's ptimes, the point-in-time query oracle,
frame comparison with timestamp-dtype normalization and windowing-TVF
result comparison."""
from __future__ import annotations

import pandas as pd

from repro.core.engine import _snapshots
from repro.core.windows import WINDOW_TAG
# Listing 2 lives in ``repro.nexmark.example``; ``tvrbench/workloads.py``
# still imports it from here.
from repro.nexmark.example import LISTING_2_SQL  # noqa: F401


def norm_pdf(pdf: pd.DataFrame) -> pd.DataFrame:
    """Normalize dtypes that differ across Spark/pandas/DuckDB round-trips
    (datetime64[us] vs [ns], int32 vs int64) without changing values."""
    pdf = pdf.copy()
    for c in pdf.columns:
        dt = str(pdf[c].dtype)
        if dt.startswith("datetime64"):
            pdf[c] = pdf[c].astype("datetime64[ns]")
        elif dt.startswith("int"):
            pdf[c] = pdf[c].astype("int64")
    return pdf.reset_index(drop=True)


def assert_pdf_equal(
    got: pd.DataFrame, expected: pd.DataFrame, *, ordered: bool = True
) -> None:
    """Assert two frames are equal; ``ordered=False`` compares as sorted
    multisets of rows (for table views where row order is meaningless)."""
    got, expected = norm_pdf(got), norm_pdf(expected)
    assert list(got.columns) == list(expected.columns), (
        f"columns differ: {list(got.columns)} vs {list(expected.columns)}"
    )
    if not ordered:
        got = got.sort_values(list(got.columns)).reset_index(drop=True)
        expected = expected.sort_values(list(expected.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


def assert_same_tvf(got, want) -> None:
    """Assert two windowing-TVF results (Spark DataFrames) have the same
    schema (names, order, types, window tags), one tagged ``wstart``/``wend``
    pair, and the same rows."""
    assert got.schema == want.schema
    tagged = [f.name for f in got.schema.fields if f.metadata.get(WINDOW_TAG)]
    assert tagged == ["wstart", "wend"]
    assert_pdf_equal(got.toPandas(), want.toPandas(), ordered=False)


def ptimes(log) -> pd.DatetimeIndex:
    """The distinct processing times of ``log``'s events, sorted."""
    return pd.DatetimeIndex(log.events).unique()


def snapshot_query(spark, logs, query, at=None) -> pd.DataFrame:
    """Classic instantaneous-view semantics: run ``query`` once over the
    inputs' snapshots at processing time ``at`` (all rows if None), with no
    completeness reasoning and no late drop, and collect the result before
    the inputs are released. The engine's continuous table view equals it
    absent late data."""
    with _snapshots(spark, logs) as (snapshots, _):
        return query(spark, **snapshots(at)).toPandas()
