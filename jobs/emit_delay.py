"""T10 (Listing 14): Q7 under ``EMIT STREAM AFTER DELAY INTERVAL '6'
MINUTES`` — periodic coalesced materialization.

Run: ``spark-submit jobs/emit_delay.py``.
"""
import os
import sys
from datetime import timedelta

sys.path.insert(0, os.path.dirname(__file__))
from _common import show  # noqa: E402

from repro.core import EmitSpec, run_query  # noqa: E402
from repro.nexmark import example as ex  # noqa: E402
from repro.nexmark.queries import make_q7  # noqa: E402
from repro.session import build_session  # noqa: E402


def main(spark) -> None:
    r = run_query(
        spark,
        {"bid": ex.bid_log()},
        make_q7(),
        emit=EmitSpec(stream=True, after_delay=timedelta(minutes=6)),
    )
    show(
        "T10 / Listing 14 — EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES",
        ex.LISTING_14,
        r.changelog,
    )
    print(f"\nchangelog rows: {r.emitted_rows()} (continuous mode emits 8)")


if __name__ == "__main__":
    spark = build_session("emit_delay")
    main(spark)
    spark.stop()
