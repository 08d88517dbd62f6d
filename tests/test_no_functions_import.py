"""The engine, windowing and SQL front-end modules build every column from
SQL expression strings and never import ``pyspark.sql.functions``: one
idiom, the SQL text the dialect front end writes too. It is not an import
saving. Measured with pyspark 4.1.2: ``from pyspark.sql import DataFrame``
already puts ``pyspark.sql.functions`` in ``sys.modules``; with a live
session the first ``F.count(F.lit(1))`` loads 2 more modules (746 -> 748,
``pyspark.sql.classic`` and its ``column``), and none once a job has run.
Checked on the source, without starting a JVM."""
import ast
import pathlib

import pytest

FUNCTIONS = "pyspark.sql.functions"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = [
    SRC / "core" / name for name in ("engine.py", "diff.py", "timeline.py", "windows.py")
] + sorted((SRC / "sqlext").glob("*.py"))


def imports_of(tree: ast.AST, module: str) -> list:
    """Line numbers of the absolute imports of ``module`` or its submodules
    in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{a.name}" for a in node.names] + [node.module]
        else:
            continue
        if any(n == module or n.startswith(module + ".") for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_functions_import(path):
    assert imports_of(ast.parse(path.read_text()), FUNCTIONS) == []


def test_detector_sees_each_spelling():
    for src in (
        "import pyspark.sql.functions",
        "import pyspark.sql.functions as F",
        "from pyspark.sql import functions as F",
        "from pyspark.sql.functions import col",
        "def f():\n    from pyspark.sql import functions",
    ):
        assert imports_of(ast.parse(src), FUNCTIONS), src
    assert imports_of(ast.parse("from pyspark.sql import DataFrame"), FUNCTIONS) == []
