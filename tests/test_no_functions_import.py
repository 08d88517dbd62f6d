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

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = [
    SRC / "core" / name for name in ("engine.py", "diff.py", "timeline.py", "windows.py")
] + sorted((SRC / "sqlext").glob("*.py"))


def functions_imports(tree: ast.AST) -> list:
    """Line numbers of imports of ``pyspark.sql.functions`` in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names] + [node.module]
        else:
            continue
        if any(n == "pyspark.sql.functions" or n.startswith("pyspark.sql.functions.")
               for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_functions_import(path):
    assert functions_imports(ast.parse(path.read_text())) == []


def test_detector_sees_each_spelling():
    for src in (
        "import pyspark.sql.functions",
        "import pyspark.sql.functions as F",
        "from pyspark.sql import functions as F",
        "from pyspark.sql.functions import col",
        "def f():\n    from pyspark.sql import functions",
    ):
        assert functions_imports(ast.parse(src)), src
    assert functions_imports(ast.parse("from pyspark.sql import DataFrame")) == []
