"""Shared plumbing for the table-reproduction jobs: rendering of result
frames in the paper's listing style (``8:07`` times, ``$5`` prices,
``undo`` markers)."""
from __future__ import annotations

import pandas as pd


def _fmt_cell(col: str, v) -> str:
    if isinstance(v, pd.Timestamp):
        return f"{v.hour}:{v.minute:02d}"
    if col == "undo":
        return "undo" if v else ""
    if col in ("price", "maxprice"):
        return f"${v}"
    return str(v)


def render(pdf: pd.DataFrame) -> str:
    """Render a frame as the paper's ASCII listing tables."""
    cols = list(pdf.columns)
    rows = [
        [_fmt_cell(c, v) for c, v in zip(cols, rec)]
        for rec in pdf.itertuples(index=False, name=None)
    ]
    widths = [
        max(len(c), *(len(r[i]) for r in rows)) if rows else len(c)
        for i, c in enumerate(cols)
    ]
    def line(vals):
        return "| " + " | ".join(v.ljust(w) for v, w in zip(vals, widths)) + " |"
    sep = "-" * len(line(cols))
    out = [sep, line(cols), sep]
    out += [line(r) for r in rows]
    if not rows:
        out.append("| " + " " * (len(sep) - 4) + " |")
    out.append(sep)
    return "\n".join(out)


def show(title: str, paper: pd.DataFrame, measured: pd.DataFrame) -> None:
    print(f"\n=== {title} ===")
    print("--- paper ---")
    print(render(paper))
    print("--- measured ---")
    print(render(measured))
    match = _frames_match(paper, measured)
    print(f"match: {'EXACT' if match else 'MISMATCH'}")


def _frames_match(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    if list(a.columns) != list(b.columns) or len(a) != len(b):
        return False
    an = a.reset_index(drop=True)
    bn = b.reset_index(drop=True)
    try:
        for c in an.columns:
            av, bv = an[c], bn[c]
            if str(av.dtype).startswith("datetime") or str(bv.dtype).startswith("datetime"):
                av = pd.to_datetime(av).astype("datetime64[ns]")
                bv = pd.to_datetime(bv).astype("datetime64[ns]")
            if not (av.values == bv.values).all():
                return False
    except Exception:
        return False
    return True


def sort_table(pdf: pd.DataFrame) -> pd.DataFrame:
    """Deterministic row order for table views (the paper sorts by window)."""
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)
