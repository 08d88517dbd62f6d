"""Smoke test of the listing jobs: each job's ``main(spark)`` runs on the
test session and every table it prints matches the paper's."""
import importlib.util
import os

import pytest

JOBS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "jobs")
LISTING_JOBS = [
    "cql_q7",
    "emit_delay",
    "emit_stream",
    "emit_watermark",
    "listing2_sql",
    "q7_table",
    "windows_tvf",
]


def load_job(name: str):
    spec = importlib.util.spec_from_file_location(
        f"jobs_{name}", os.path.join(JOBS_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", LISTING_JOBS)
def test_listing_job_matches_paper(spark, capsys, name):
    load_job(name).main(spark)
    matches = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("match:")
    ]
    assert matches
    assert matches == ["match: EXACT"] * len(matches)


def test_perf_report_imports():
    """The P1–P5 report is too slow for tier-1; check only that it loads."""
    assert callable(load_job("perf_report").main)
