"""T1/T2 (Listings 3 and 4): NEXMark Q7 table views over the paper's
example stream, at 8:21 (full input) and 8:13 (partial input).

Run: ``spark-submit jobs/q7_table.py`` (or ``python jobs/q7_table.py``).
"""
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from _common import show, sort_table  # noqa: E402

from repro.core import EmitSpec, run_query  # noqa: E402
from repro.nexmark import example as ex  # noqa: E402
from repro.nexmark.queries import make_q7  # noqa: E402
from repro.session import build_session  # noqa: E402


def main(spark) -> None:
    r = run_query(spark, {"bid": ex.bid_log()}, make_q7(), emit=EmitSpec(stream=True))
    show(
        "T1 / Listing 3 — Q7 at 8:21 (full dataset)",
        sort_table(ex.LISTING_3),
        sort_table(r.table()),
    )
    show(
        "T2 / Listing 4 — Q7 at 8:13 (partial dataset)",
        sort_table(ex.LISTING_4),
        sort_table(r.table(at=ex.t(8, 13))),
    )


if __name__ == "__main__":
    spark = build_session("q7_table")
    main(spark)
    spark.stop()
