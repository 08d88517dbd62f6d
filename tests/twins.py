"""A query's DuckDB twin, derived from its extended-SQL text.

``twin(text)`` is ``text`` with each ``Tumble``/``Hop`` call replaced by a
view (``rewrite_extended_sql``, the dialect front end's own rewrite), and
each view bound as a DuckDB CTE over the table the call names. The
bindings are written here from the paper's definitions (§6, Extension 3),
not from ``repro.core.windows``, so a wrong window in the engine's TVFs
cannot hide behind the same wrong window in its oracle:

- Tumble: the window ``[k*dur + offset, (k+1)*dur + offset)`` that holds
  ``timecol``, for the one integer ``k`` with ``k*dur + offset <= t``.
- Hop: one row per window ``[k*hopsize + offset, k*hopsize + offset + dur)``
  that holds ``timecol``; ``k`` runs over the integers with
  ``t - dur < k*hopsize + offset <= t``, none at all in a gap between windows.

Both add ``wstart``/``wend`` after the input's columns. Times are the
epoch seconds of naive timestamps, which DuckDB and Spark (in the UTC
session ``build_session`` sets) read alike.
"""
from __future__ import annotations

import re

from repro.sqlext.rewrite import TvfCall, rewrite_extended_sql


def _secs(d) -> int:
    return int(d.total_seconds())


def tumble_start(call: TvfCall) -> str:
    """The epoch second at which the Tumble window holding a row starts."""
    d, off = _secs(call.dur), _secs(call.offset)
    return f"floor((epoch({call.timecol}) - {off}) / {d}) * {d} + {off}"


def hop_starts(call: TvfCall) -> str:
    """The epoch seconds at which the Hop windows holding a row start, as a
    list: ``k`` from the first window that still holds ``t`` to the last that
    has begun by ``t``; empty when ``t`` falls in a gap."""
    d, h, off = _secs(call.dur), _secs(call.hopsize), _secs(call.offset)
    t = f"(epoch({call.timecol}) - {off})"
    first, last = f"floor(({t} - {d}) / {h}) + 1", f"floor({t} / {h})"
    return (
        f"list_transform(generate_series(CAST({first} AS BIGINT), CAST({last} AS BIGINT)),"
        f" k -> k * {h} + {off})"
    )


def view(call: TvfCall) -> str:
    """The DuckDB query that binds one TVF call's view."""
    start = tumble_start(call) if call.kind == "tumble" else f"unnest({hop_starts(call)})"
    return (
        f"SELECT * EXCLUDE (__ws), TIMESTAMP 'epoch' + to_seconds(__ws) AS wstart,"
        f" TIMESTAMP 'epoch' + to_seconds(__ws + {_secs(call.dur)}) AS wend"
        f" FROM (SELECT *, {start} AS __ws FROM {call.table})"
    )


def twin(text: str) -> str:
    """The DuckDB query of the extended-SQL ``text`` (no EMIT clause)."""
    sql, calls = rewrite_extended_sql(text)
    if not calls:
        return sql
    views = ",\n".join(f"{c.view} AS ({view(c)})" for c in calls)
    head = re.match(r"\s*WITH\s", sql, re.IGNORECASE)  # join the text's own CTEs
    return f"WITH {views},\n{sql[head.end():]}" if head else f"WITH {views}\n{sql}"
