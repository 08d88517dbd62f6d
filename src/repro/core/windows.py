"""Event-time windowing table-valued functions Tumble and Hop (Extension 3).

Both are plain ``DataFrame -> DataFrame`` transformations executed entirely
through Catalyst (SQL expressions; Hop explodes a ``sequence`` of window
starts), matching the paper's definition: the output relation has all the
input's columns plus event-time interval columns ``wstart`` and ``wend``.
They are the only code that adds window columns: the dialect front end
(``repro.sqlext``) runs each SQL ``Tumble``/``Hop`` call through them.

- ``Tumble(data, timecol, dur, offset)``: partitions event time into
  equally spaced disjoint covering intervals of width ``dur``.
- ``Hop(data, timecol, dur, hopsize, offset)``: intervals of width ``dur``
  whose starts are ``hopsize`` apart; a row may land in several windows
  (``hopsize < dur``) or in none (``hopsize > dur`` — gaps).

Windows are second-granular; the paper's examples use whole minutes.

``tumble``/``hop`` tag ``wstart``/``wend`` in Spark column metadata (key
:data:`WINDOW_TAG`, value the name), as ``EventTimeWatermark`` marks its
columns; the engine reads a result's grouping off its schema. They build
columns from SQL strings with ``selectExpr``, the idiom of the engine and
the dialect front end. That saves no imports: ``from pyspark.sql import
DataFrame`` already loads ``pyspark.sql.functions``, and with a live session
a first ``F.count(F.lit(1))`` loads 2 more modules (pyspark 4.1.2).
"""
from __future__ import annotations

from datetime import timedelta
from typing import Union

from pyspark.sql import DataFrame
from pyspark.sql.types import StructField, StructType

Duration = Union[timedelta, int, float]

WSTART = "wstart"
WEND = "wend"
WINDOW_TAG = "repro.window"


def _tagged(data: DataFrame, start: str, end: str) -> DataFrame:
    """``data`` less Hop's ``__ws``, plus ``wstart``/``wend`` from SQL expressions,
    each tagged with its name by one ``to`` (two ``withMetadata`` plan slower)."""
    exprs = {WSTART: f"{start} AS {WSTART}", WEND: f"{end} AS {WEND}"}
    out = data.selectExpr("*", *exprs.values())
    if {WSTART, WEND} & set(out.columns[:-2]):  # the input's own: replace in place
        kept = [exprs.pop(c, "`" + c.replace("`", "``") + "`") for c in out.columns[:-2]]
        out = data.selectExpr(*kept, *exprs.values())
    tags = {c: {WINDOW_TAG: c} for c in (WSTART, WEND)}
    return out.to(StructType([
        StructField(f.name, f.dataType, f.nullable, tags.get(f.name, f.metadata))
        for f in out.schema.fields if f.name != "__ws"
    ]))


def _seconds(d: Duration, name: str) -> int:
    """A duration as a positive whole number of seconds."""
    s = d.total_seconds() if isinstance(d, timedelta) else float(d)
    if s != int(s):
        raise ValueError(f"{name} must be whole seconds, got {s}")
    if name != "offset" and s <= 0:
        raise ValueError(f"{name} must be positive, got {s}")
    if name == "offset" and s < 0:
        raise ValueError(f"offset must be non-negative, got {s}")
    return int(s)


# -- SQL-text builders ----------------------------------------------------


def tumble_start_sql(timecol: str, dur_s: int, offset_s: int = 0) -> str:
    """SQL expression for the start of the tumbling window containing
    ``timecol``: the largest ``k*dur + offset`` <= timecol."""
    return (
        f"timestamp_seconds(FLOOR((unix_seconds({timecol}) - {offset_s}) / {dur_s})"
        f" * {dur_s} + {offset_s})"
    )


def tumble_end_sql(timecol: str, dur_s: int, offset_s: int = 0) -> str:
    return (
        f"timestamp_seconds(FLOOR((unix_seconds({timecol}) - {offset_s}) / {dur_s})"
        f" * {dur_s} + {offset_s} + {dur_s})"
    )


def hop_starts_sql(timecol: str, dur_s: int, hop_s: int, offset_s: int = 0) -> str:
    """SQL array expression of epoch-second window starts for ``Hop``.

    A window ``[ws, ws + dur)`` contains ``t`` iff ``ws <= t`` and
    ``ws > t - dur``, with ``ws ≡ offset (mod hopsize)``. With gaps
    (``hopsize > dur``) the range may be empty, hence the CASE guard —
    Spark's ``sequence`` would otherwise run backwards.
    """
    u = f"unix_seconds({timecol})"
    ws_max = f"(FLOOR(({u} - {offset_s}) / {hop_s}) * {hop_s} + {offset_s})"
    # smallest grid point strictly greater than t - dur:
    ws_min = (
        f"(FLOOR(({u} - {dur_s} - {offset_s}) / {hop_s}) * {hop_s}"
        f" + {offset_s} + {hop_s})"
    )
    return (
        f"CASE WHEN {ws_min} <= {ws_max} "
        f"THEN sequence({ws_min}, {ws_max}, {hop_s}) "
        f"ELSE array() END"
    )


# -- DataFrame API ---------------------------------------------------------


def tumble(
    data: DataFrame,
    timecol: str,
    dur: Duration,
    offset: Duration = 0,
) -> DataFrame:
    """The Tumble TVF: every input row, plus ``wstart``/``wend`` columns for
    the tumbling window of width ``dur`` containing ``timecol``."""
    d = _seconds(dur, "dur")
    off = _seconds(offset, "offset") % d
    return _tagged(data, tumble_start_sql(timecol, d, off), tumble_end_sql(timecol, d, off))


def hop(
    data: DataFrame,
    timecol: str,
    dur: Duration,
    hopsize: Duration,
    offset: Duration = 0,
) -> DataFrame:
    """The Hop TVF: each input row replicated once per hopping window of
    width ``dur`` (starts ``hopsize`` apart) that contains ``timecol``.
    Rows falling in a gap (possible when ``hopsize > dur``) are dropped,
    matching the relational definition (a row appears once per containing
    window — zero times if none contains it)."""
    d = _seconds(dur, "dur")
    h = _seconds(hopsize, "hopsize")
    off = _seconds(offset, "offset") % h
    starts = hop_starts_sql(timecol, d, h, off)
    exploded = data.selectExpr("*", f"explode({starts}) AS __ws")
    return _tagged(exploded, "timestamp_seconds(__ws)", f"timestamp_seconds(__ws + {d})")

