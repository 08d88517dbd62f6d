"""The reference interpreter (``tests/reference.py``) on its own, without
Spark: it reproduces the paper's Listings 9–14 from the §4 example, holds
the watermark back to its slowest input, and shares no code with the engine
it is the oracle of."""
import ast
import pathlib
from datetime import timedelta

import pytest

from repro.core.emit import EmitSpec
from repro.core.timeline import EventLog
from repro.nexmark import example as ex
from repro.nexmark.queries import q7_duckdb_sql
from tests import reference as R
from tests.helpers import assert_pdf_equal

t = ex.t
WINDOW = ["wstart", "wend"]


def q7(emit: EmitSpec) -> R.Reference:
    return R.run({"bid": ex.bid_log()}, q7_duckdb_sql(), WINDOW, "wend", emit)


@pytest.mark.parametrize("emit, listing", [
    (EmitSpec(stream=True), ex.LISTING_9),
    (EmitSpec(stream=True, after_watermark=True), ex.LISTING_13),
    (EmitSpec(stream=True, after_delay=timedelta(minutes=6)), ex.LISTING_14),
], ids=["listing_9", "listing_13", "listing_14"])
def test_changelog_listings(emit, listing):
    assert_pdf_equal(q7(emit).changelog, listing)


@pytest.mark.parametrize("at, listing", [
    (t(8, 13), ex.LISTING_10), (t(8, 16), ex.LISTING_11), (t(8, 21), ex.LISTING_12),
], ids=["listing_10", "listing_11", "listing_12"])
def test_after_watermark_table_listings(at, listing):
    assert_pdf_equal(q7(EmitSpec(after_watermark=True)).table(at), listing, ordered=False)


def test_hold_back_waits_for_every_input():
    a = EventLog(["etime"], etime_col="etime").watermark_to(t(8, 1), t(8, 5))
    b = EventLog(["etime"], etime_col="etime").watermark_to(t(8, 2), t(8, 3))
    b.watermark_to(t(8, 4), t(8, 9))
    table = EventLog(["v"])
    assert R.watermarks({"a": a, "b": b, "table": table}) == [
        (t(8, 1), None), (t(8, 2), t(8, 3)), (t(8, 4), t(8, 5)),
    ]


FORBIDDEN = ("pyspark", "repro.core.engine", "repro.core.diff", "repro.core.windows")


def forbidden_imports(tree: ast.AST) -> list:
    """The imports in ``tree`` of a module in :data:`FORBIDDEN` or below it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [n for n in names if any(n == f or n.startswith(f + ".") for f in FORBIDDEN)]
    return found


def test_reference_shares_no_code_with_the_engine():
    source = pathlib.Path(R.__file__).read_text()
    assert forbidden_imports(ast.parse(source)) == []


def test_independence_detector_sees_each_spelling():
    for src in (
        "import pyspark",
        "from pyspark.sql import DataFrame",
        "import repro.core.engine as E",
        "from repro.core import diff",
        "from repro.core.windows import tumble",
        "def f():\n    from repro.core.engine import _emit",
    ):
        assert forbidden_imports(ast.parse(src)), src
    assert forbidden_imports(ast.parse("from repro.core.emit import EmitSpec")) == []
