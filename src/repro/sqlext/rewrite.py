"""Rewriting windowing-TVF invocations to temp-view references (Extension 3).

Each ``Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur =>
INTERVAL '10' MINUTE [, offset => ...])`` or ``Hop(...)`` call is parsed
into a :class:`TvfCall` and replaced by its own view name (``__tvf0``, ...),
which the executor registers at every step as ``repro.core.windows``'
``tumble``/``hop`` over the named table: one TVF implementation, one set
of window tags for both front ends.

One deliberate normalization: the paper's listings write ``GROUP BY
TumbleBid.wend`` while projecting ``TumbleBid.wstart`` — valid under the
paper's semantics because ``wstart`` is functionally dependent on ``wend``
("users can group by wstart or wend; both result in the same groupings"),
but rejected by a standard GROUP BY checker. For every TVF output alias we
therefore complete ``wstart``/``wend`` pairs in GROUP BY lists, which is
exactly the functional-dependency reasoning a Calcite planner applies.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import timedelta
from typing import List, Optional, Tuple

from .parser import parse_interval

_TVF_RE = re.compile(r"\b(Tumble|Hop)\s*\(", re.IGNORECASE)
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


@dataclass(frozen=True)
class TvfCall:
    """A parsed windowing-TVF invocation."""

    kind: str  # "tumble" | "hop"
    table: str
    timecol: str
    dur: timedelta
    hopsize: Optional[timedelta]
    offset: timedelta
    alias: Optional[str]
    view: str  # the temp-view name that replaces the call in the SQL text


def _balanced_span(text: str, open_idx: int) -> int:
    """Index just past the ')' matching the '(' at ``open_idx``; respects
    single-quoted strings."""
    depth, i, n = 0, open_idx, len(text)
    while i < n:
        c = text[i]
        if c == "'":
            i += 1
            while i < n and text[i] != "'":
                i += 1
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise ValueError("unbalanced parentheses in TVF invocation")


def _split_top_level(text: str, sep: str = ",") -> List[str]:
    parts, depth, start = [], 0, 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "'":
            i += 1
            while i < n and text[i] != "'":
                i += 1
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
        i += 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _parse_args(kind: str, arg_text: str) -> dict:
    args = {}
    for part in _split_top_level(arg_text):
        m = re.match(rf"({_IDENT})\s*=>\s*(.+)", part, re.DOTALL)
        if not m:
            raise ValueError(f"TVF arguments must be named (name => value): {part!r}")
        args[m.group(1).lower()] = m.group(2).strip()
    required = {"data", "timecol", "dur"} | ({"hopsize"} if kind == "hop" else set())
    missing = required - set(args)
    if missing:
        raise ValueError(f"{kind} missing arguments: {sorted(missing)}")
    allowed = required | {"offset"}
    extra = set(args) - allowed
    if extra:
        raise ValueError(f"{kind} got unexpected arguments: {sorted(extra)}")
    return args


def _parse_table(value: str) -> str:
    m = re.fullmatch(rf"TABLE\s*\(\s*({_IDENT})\s*\)", value, re.IGNORECASE)
    if not m:
        raise ValueError(f"data must be TABLE(<name>): {value!r}")
    return m.group(1)


def _parse_descriptor(value: str) -> str:
    m = re.fullmatch(rf"DESCRIPTOR\s*\(\s*({_IDENT})\s*\)", value, re.IGNORECASE)
    if not m:
        raise ValueError(f"timecol must be DESCRIPTOR(<column>): {value!r}")
    return m.group(1)


def _normalize_group_by(sql: str, aliases: List[str]) -> str:
    """Complete wstart/wend pairs in GROUP BY lists over TVF outputs."""
    list_re = re.compile(
        r"(GROUP\s+BY\s+)((?:[\w.]+\s*,\s*)*[\w.]+)", re.IGNORECASE
    )

    def fix(m: re.Match) -> str:
        items = [x.strip() for x in m.group(2).split(",")]
        lowered = [x.lower() for x in items]
        for alias in aliases + [""]:
            prefix = f"{alias}." if alias else ""
            ws, we = f"{prefix}wstart".lower(), f"{prefix}wend".lower()
            if we in lowered and ws not in lowered:
                items.insert(lowered.index(we), f"{prefix}wstart" if alias else "wstart")
                lowered.insert(lowered.index(we), ws)
            elif ws in lowered and we not in lowered:
                items.insert(lowered.index(ws) + 1, f"{prefix}wend" if alias else "wend")
                lowered.insert(lowered.index(ws) + 1, we)
        return m.group(1) + ", ".join(items)

    return list_re.sub(fix, sql)


def rewrite_extended_sql(sql: str) -> Tuple[str, List[TvfCall]]:
    """Replace every Tumble/Hop invocation with its own view name and
    normalize GROUP BY lists. Returns the rewritten SQL and the parsed calls
    (with their output aliases, if any)."""
    calls: List[TvfCall] = []
    out = sql
    while True:
        m = _TVF_RE.search(out)
        if not m:
            break
        kind = m.group(1).lower()
        open_idx = out.index("(", m.start())
        end = _balanced_span(out, open_idx)
        args = _parse_args(kind, out[open_idx + 1 : end - 1])
        alias_m = re.match(rf"\s*(?:AS\s+)?({_IDENT})", out[end:], re.IGNORECASE)
        alias = None
        if alias_m and alias_m.group(1).upper() not in {
            "WHERE", "GROUP", "ON", "JOIN", "ORDER", "HAVING", "LIMIT",
            "UNION", "EMIT", "INNER", "LEFT", "RIGHT", "FULL", "CROSS",
        }:
            alias = alias_m.group(1)
        call = TvfCall(
            kind=kind,
            table=_parse_table(args["data"]),
            timecol=_parse_descriptor(args["timecol"]),
            dur=parse_interval(args["dur"]),
            hopsize=parse_interval(args["hopsize"]) if kind == "hop" else None,
            offset=parse_interval(args["offset"]) if "offset" in args else timedelta(0),
            alias=alias,
            view=f"__tvf{len(calls)}",
        )
        calls.append(call)
        out = out[: m.start()] + call.view + out[end:]
    aliases = [c.alias for c in calls if c.alias]
    out = _normalize_group_by(out, aliases)
    return out, calls
