"""NEXMark Query 7 under CQL semantics (paper §4, Listing 1).

::

    SELECT Rstream(B.price, B.itemid)
    FROM   Bid [RANGE 10 MINUTE SLIDE 10 MINUTE] B
    WHERE  B.price = (SELECT MAX(B1.price) FROM BID
                      [RANGE 10 MINUTE SLIDE 10 MINUTE] B1);

Execution model reproduced here: the STREAM intake buffers out-of-order
bids and feeds them in event-time order (heartbeats = the log's watermark
advances). The logical clock evaluates R(tau) at each slide instant; an
instant's output physically materializes at the processing time when the
heartbeat passes tau. The relational work — per-tau window max and the
price-equality selection — runs through Catalyst over the relation
history.
"""
from __future__ import annotations

from datetime import timedelta

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..core.timeline import EventLog
from ..session import require_utc
from .heartbeat import reorder_with_heartbeat
from .relations import TAU, range_slide_history


def cql_q7(
    spark: SparkSession,
    log: EventLog,
    *,
    dur: timedelta = timedelta(minutes=10),
    until=None,
    price_col: str = "price",
    item_col: str = "item",
) -> pd.DataFrame:
    """Evaluate CQL Q7 over a bid log; returns a frame with columns
    ``wend`` (the evaluation instant tau), ``price``, ``item`` and
    ``ptime`` (when the answer materialized), sorted by (wend, item)."""
    require_utc(spark)
    released, _violations, _pending = reorder_with_heartbeat(log, until=until)
    etime = log.etime_col
    out_cols = ["wend", price_col, item_col, "ptime"]
    if len(released) == 0:
        return pd.DataFrame(columns=out_cols)

    bid = spark.createDataFrame(released.drop(columns=["release_ptime"]))
    hist = range_slide_history(bid, etime, dur, dur)
    maxes = hist.groupBy(TAU).agg(F.max(price_col).alias("__maxprice"))
    top = (
        hist.alias("h")
        .join(maxes.alias("m"), on=TAU)
        .filter(F.col(price_col) == F.col("__maxprice"))
        .select(F.col(TAU).alias("wend"), price_col, item_col)
    )
    pdf = top.toPandas()

    # Rstream materialization instants: tau's row becomes available at the
    # processing time its heartbeat passes tau; instants the heartbeat
    # never reached are not yet output.
    wm_updates = log.watermark().updates
    if until is not None:
        wm_updates = tuple(u for u in wm_updates if u[0] <= pd.Timestamp(until))

    def release_ptime(tau: pd.Timestamp):
        for p, e in wm_updates:
            if e >= tau:
                return p
        return None

    pdf["ptime"] = pdf["wend"].map(release_ptime)
    pdf = pdf[pdf["ptime"].notna()]
    return (
        pdf[out_cols]
        .sort_values(["wend", item_col])
        .reset_index(drop=True)
    )
