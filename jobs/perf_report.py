"""P1–P5: the quantitative tables recorded in EXPERIMENTS.md — changelog
volume under the EMIT policies, watermark state release, proposed-SQL vs
CQL, TVF throughput, NEXMark suite throughput.

Run: ``spark-submit jobs/perf_report.py [--small]`` (``--small`` shrinks
inputs ~10x for a quick look).
"""
import sys

from repro.nexmark import perf
from repro.session import build_session


def main(spark, small: bool = False) -> None:
    k = 10 if small else 1

    print("\n=== P1 — changelog volume by EMIT policy ===")
    print(perf.emit_modes_experiment(spark, n=50_000 // k).to_string(index=False))

    print("\n=== P2 — state release via watermark completion ===")
    print(perf.state_release_experiment(spark, n=50_000 // k).to_string(index=False))

    print("\n=== P3 — proposed SQL vs CQL baseline (Q7) ===")
    print(perf.q7_vs_cql_experiment(spark, n=50_000 // k).to_string(index=False))

    print("\n=== P4 — windowing TVF throughput ===")
    print(perf.tvf_throughput_experiment(spark, n=600_000 // k).to_string(index=False))

    print("\n=== P5 — NEXMark suite table-mode throughput ===")
    print(perf.nexmark_suite_experiment(spark, n_bids=600_000 // k).to_string(index=False))


if __name__ == "__main__":
    spark = build_session("perf_report")
    main(spark, small="--small" in sys.argv)
    spark.stop()
