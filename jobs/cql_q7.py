"""T11 (Listing 1): the CQL baseline for Q7 — one answer per 10-minute
window, materialized when the heartbeat passes the window end — next to
the equivalent answers from the proposed SQL under EMIT STREAM AFTER
WATERMARK.

Run: ``spark-submit jobs/cql_q7.py``.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from _common import show  # noqa: E402

from repro.core import EmitSpec, run_query  # noqa: E402
from repro.cql import cql_q7  # noqa: E402
from repro.nexmark import example as ex  # noqa: E402
from repro.nexmark.queries import make_q7  # noqa: E402
from repro.session import build_session  # noqa: E402


def main(spark) -> None:
    cql = cql_q7(spark, ex.bid_log())
    show("T11 / Listing 1 — CQL Q7 baseline (Rstream per window)",
         ex.CQL_Q7_EXPECTED, cql)

    ours = run_query(
        spark,
        {"bid": ex.bid_log()},
        make_q7(),
        emit=EmitSpec(stream=True, after_watermark=True),
    )
    proposed = (
        ours.changelog[~ours.changelog["undo"]][["wend", "price", "item", "ptime"]]
        .sort_values(["wend", "item"])
        .reset_index(drop=True)
    )
    show("T11 — proposed SQL (EMIT STREAM AFTER WATERMARK), same answers",
         ex.CQL_Q7_EXPECTED, proposed)


if __name__ == "__main__":
    spark = build_session("cql_q7")
    main(spark)
    spark.stop()
