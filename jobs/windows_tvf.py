"""T3–T6 (Listings 5–8): the Tumble and Hop TVFs over the example Bid
snapshot, bare and with GROUP BY, rendered next to the paper's rows.

Run: ``spark-submit jobs/windows_tvf.py``.
"""
import os
import sys
from datetime import timedelta

sys.path.insert(0, os.path.dirname(__file__))
from _common import show, sort_table  # noqa: E402

from pyspark.sql import functions as F  # noqa: E402

from repro.core.windows import hop, tumble  # noqa: E402
from repro.nexmark import example as ex  # noqa: E402
from repro.session import build_session  # noqa: E402

TEN = timedelta(minutes=10)
FIVE = timedelta(minutes=5)


def main(spark) -> None:
    bid = spark.createDataFrame(ex.bid_log().snapshot_pdf())

    tb = tumble(bid, "bidtime", TEN).select(
        "wstart", "wend", "bidtime", "price", "item"
    )
    show("T3 / Listing 5 — Tumble TVF", sort_table(ex.LISTING_5),
         sort_table(tb.toPandas()))

    t6 = (
        tumble(bid, "bidtime", TEN)
        .groupBy("wstart", "wend")
        .agg(F.max("price").alias("maxprice"))
    )
    show("T4 / Listing 6 — Tumble + GROUP BY wend",
         sort_table(ex.LISTING_6), sort_table(t6.toPandas()))

    hb = hop(bid, "bidtime", TEN, FIVE).select(
        "wstart", "wend", "bidtime", "price", "item"
    )
    show("T5 / Listing 7 — Hop TVF (dur 10m, hop 5m)",
         sort_table(ex.LISTING_7), sort_table(hb.toPandas()))

    t8 = (
        hop(bid, "bidtime", TEN, FIVE)
        .groupBy("wstart", "wend")
        .agg(F.max("price").alias("maxprice"))
    )
    show("T6 / Listing 8 — Hop + GROUP BY wend",
         sort_table(ex.LISTING_8), sort_table(t8.toPandas()))


if __name__ == "__main__":
    spark = build_session("windows_tvf")
    main(spark)
    spark.stop()
