"""Real Structured Streaming cross-validation (the repro-band analog).

Our engine replays explicit watermark timelines; Structured Streaming
derives its watermark from observed max event time minus a delay, so it
cannot replay the paper's listings bit-for-bit. What must agree — and is
asserted here — is the *semantics of completeness*: feeding the paper's
bids through a genuine Structured Streaming query (file source, event-time
watermark, 10-minute tumbling window, append output mode) yields exactly
the final per-window aggregates our engine materializes under EMIT AFTER
WATERMARK.
"""
import shutil
import tempfile
import time

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import EmitSpec, run_query
from repro.nexmark import example as ex
from repro.sqlext.executor import sql_query_fn
from tests.test_sqlext_exec import LISTING_6_SQL

t = ex.t


@pytest.fixture(scope="module")
def ss_result(spark):
    """Run the Structured Streaming job once; yield the append-mode rows."""
    in_dir = tempfile.mkdtemp(prefix="ss_in_")
    ckpt = tempfile.mkdtemp(prefix="ss_ckpt_")
    schema = "bidtime TIMESTAMP, price BIGINT, item STRING"

    def write_batch(rows):
        pdf = pd.DataFrame(rows, columns=["bidtime", "price", "item"])
        spark.createDataFrame(pdf, schema=schema).coalesce(1).write.mode(
            "append"
        ).parquet(in_dir)

    stream = (
        spark.readStream.schema(schema)
        .option("maxFilesPerTrigger", 1)
        .parquet(in_dir)
        .withWatermark("bidtime", "2 minutes")
        .groupBy(F.window("bidtime", "10 minutes"))
        .agg(F.max("price").alias("maxprice"))
        .select(
            F.col("window.start").alias("wstart"),
            F.col("window.end").alias("wend"),
            "maxprice",
        )
    )
    # Batch 1 must exist before the stream starts resolving.
    write_batch([(t(8, 7), 2, "A"), (t(8, 11), 3, "B"), (t(8, 5), 4, "C")])
    query = (
        stream.writeStream.format("memory")
        .queryName("ss_analog")
        .outputMode("append")
        .option("checkpointLocation", ckpt)
        .start()
    )
    try:
        query.processAllAvailable()
        # Batch 2: rest of the paper's bids. Afterwards the watermark is
        # max(8:17) - 2min = 8:15 > 8:10, so the first window can close.
        write_batch([(t(8, 9), 5, "D"), (t(8, 13), 1, "E"), (t(8, 17), 6, "F")])
        query.processAllAvailable()
        # Sentinel batches push the watermark past 8:20 and then flush.
        write_batch([(t(8, 25), 1, "S1")])
        query.processAllAvailable()
        write_batch([(t(8, 40), 1, "S2")])
        query.processAllAvailable()
        time.sleep(0.5)
        out = spark.sql("SELECT * FROM ss_analog").toPandas()
    finally:
        query.stop()
        shutil.rmtree(in_dir, ignore_errors=True)
        shutil.rmtree(ckpt, ignore_errors=True)
    return out


@pytest.fixture(scope="module")
def engine_result(spark):
    return run_query(
        spark,
        {"bid": ex.bid_log()},
        sql_query_fn(LISTING_6_SQL),
        emit=EmitSpec(stream=True, after_watermark=True),
    )


class TestStructuredStreamingAgreement:
    def _paper_windows(self, pdf):
        sel = pdf[pdf["wend"] <= t(8, 20)].copy()
        return (
            sel.sort_values("wstart")
            .reset_index(drop=True)[["wstart", "wend", "maxprice"]]
            .astype({"maxprice": "int64"})
        )

    def test_both_paper_windows_closed(self, ss_result):
        got = self._paper_windows(ss_result)
        assert len(got) == 2

    def test_ss_matches_engine_after_watermark(self, ss_result, engine_result):
        ss = self._paper_windows(ss_result)
        ours = (
            engine_result.table()
            .sort_values("wstart")
            .reset_index(drop=True)
        )
        ours_cmp = ours[["wstart", "wend", "maxprice"]].astype({"maxprice": "int64"})
        for c in ["wstart", "wend"]:
            ss[c] = ss[c].astype("datetime64[ns]")
            ours_cmp[c] = ours_cmp[c].astype("datetime64[ns]")
        pd.testing.assert_frame_equal(ss, ours_cmp, check_dtype=False)

    def test_append_mode_is_final_no_retraction(self, ss_result):
        # Append mode emits each window at most once — same contract as
        # our EMIT STREAM AFTER WATERMARK panes.
        sel = ss_result[ss_result["wend"] <= t(8, 20)]
        assert sel.groupby(["wstart", "wend"]).size().max() == 1

    def test_engine_panes_match_values(self, engine_result):
        chg = engine_result.changelog
        assert list(chg["maxprice"]) == [5, 6]
