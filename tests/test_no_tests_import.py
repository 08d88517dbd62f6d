"""No module under ``src/``, ``jobs/`` or ``benchmarks/`` imports the
``tests`` package: test code may use the program, never the reverse, so a
query text or fixture a job needs lives in ``src/``. ``tvrbench/`` is not
scanned: its ``workloads.py`` still reads Listing 2 through
``tests.helpers``, and moves to ``repro.nexmark.example`` with the next
change to the benchmark. Checked on the source, without importing it."""
import ast
import pathlib

import pytest

from tests.test_no_functions_import import imports_of

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    path for top in ("src", "jobs", "benchmarks") for path in (ROOT / top).rglob("*.py")
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_tests_import(path):
    assert imports_of(ast.parse(path.read_text()), "tests") == []


def test_detector_sees_each_spelling():
    for src in (
        "import tests",
        "import tests.helpers as h",
        "from tests.helpers import LISTING_2_SQL",
        "from tests import reference",
        "def f():\n    from tests.twins import twin",
    ):
        assert imports_of(ast.parse(src), "tests"), src
    for src in ("import testsuite", "from .tests import x", "from repro import tests"):
        assert imports_of(ast.parse(src), "tests") == [], src
