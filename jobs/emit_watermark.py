"""T8/T9 (Listings 10–13): Q7 under ``EMIT AFTER WATERMARK`` — gated
table views at 8:13 / 8:16 / 8:21 and the final-pane stream.

Run: ``spark-submit jobs/emit_watermark.py``.
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
    r = run_query(
        spark,
        {"bid": ex.bid_log()},
        make_q7(),
        emit=EmitSpec(stream=True, after_watermark=True),
    )
    show("T8 / Listing 10 — EMIT AFTER WATERMARK at 8:13",
         sort_table(ex.LISTING_10), sort_table(r.table(at=ex.t(8, 13))))
    show("T8 / Listing 11 — EMIT AFTER WATERMARK at 8:16",
         sort_table(ex.LISTING_11), sort_table(r.table(at=ex.t(8, 16))))
    show("T8 / Listing 12 — EMIT AFTER WATERMARK at 8:21",
         sort_table(ex.LISTING_12), sort_table(r.table(at=ex.t(8, 21))))
    show("T9 / Listing 13 — EMIT STREAM AFTER WATERMARK",
         ex.LISTING_13, r.changelog)


if __name__ == "__main__":
    spark = build_session("emit_watermark")
    main(spark)
    spark.stop()
