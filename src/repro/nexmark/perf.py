"""Performance experiments P1–P5 (see DESIGN.md table index).

The paper's quantitative claims are qualitative-directional ("torrents of
updates" are curbed by materialization delay; watermarks release state;
the proposed SQL subsumes the CQL baseline). Each experiment here produces
the measured table recorded in EXPERIMENTS.md; the pytest-benchmark files
wrap the same workloads for timing, so numbers regenerate with either
``jobs/perf_report.py`` or ``pytest benchmarks/``.

Scale notes: generated NEXMark bids at n=50k–600k correspond to the SF≈0.1
guidance for benchmarks (tests run the same code at n≈1k).
"""
from __future__ import annotations

import time
from datetime import timedelta
from typing import Callable, List

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..core import EmitSpec, run_query
from ..core.windows import hop, tumble
from ..cql import cql_q7
from . import generator as gen
from . import queries as Q

WKW = dict(key_cols=["wstart", "wend"], wend_col="wend")


def _timed(fn: Callable) -> tuple:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def hot_counts_query(dur: timedelta) -> Callable:
    """Per-(window, auction) bid counts — the high-cardinality aggregate
    whose changelog is the paper's 'torrent of updates'."""

    def q(spark: SparkSession, bid):
        return (
            tumble(bid, "bidtime", dur)
            .groupBy("wstart", "wend", "item")
            .agg(F.count(F.lit(1)).alias("n_bids"))
        )

    return q


def emit_modes_experiment(
    spark: SparkSession,
    *,
    n: int = 50_000,
    n_batches: int = 12,
    n_auctions: int = 50,
    dur: timedelta = timedelta(minutes=10),
    delay: timedelta = timedelta(minutes=8),
    seed: int = 70,
) -> pd.DataFrame:
    """P1 — changelog volume under the three materialization policies."""
    log = gen.bid_event_log(
        n=n, n_batches=n_batches, seed=seed, n_auctions=n_auctions,
        duration=timedelta(hours=1), max_delay=timedelta(minutes=2),
    )
    q = hot_counts_query(dur)
    # ``ver`` counters differ per key; key includes item so counts group
    # per (window, auction).
    kw = dict(key_cols=["wstart", "wend", "item"], wend_col="wend")
    rows: List[dict] = []
    specs = [
        ("EMIT STREAM (continuous)", EmitSpec(stream=True)),
        (f"EMIT STREAM AFTER DELAY {int(delay.total_seconds() // 60)}m",
         EmitSpec(stream=True, after_delay=delay)),
        ("EMIT STREAM AFTER WATERMARK", EmitSpec(stream=True, after_watermark=True)),
    ]
    baseline = None
    for name, spec in specs:
        r, secs = _timed(lambda: run_query(spark, {"bid": log}, q, emit=spec, **kw))
        if baseline is None:
            baseline = r.emitted_rows()
        rows.append(
            {
                "mode": name,
                "changelog_rows": r.emitted_rows(),
                "reduction_vs_stream": round(baseline / max(1, r.emitted_rows()), 2),
                "groups": r.stats["finalized_groups"] + r.stats["final_live_groups"],
                "runtime_s": round(secs, 2),
            }
        )
    return pd.DataFrame(rows)


def state_release_experiment(
    spark: SparkSession,
    *,
    n: int = 50_000,
    n_batches: int = 16,
    dur: timedelta = timedelta(minutes=5),
    seed: int = 71,
) -> pd.DataFrame:
    """P2 — live (unreleased) groups with vs. without watermark-driven
    completion (Extension 2 / §5 'state freed when the watermark passes')."""
    log = gen.bid_event_log(
        n=n, n_batches=n_batches, seed=seed, n_auctions=100,
        duration=timedelta(hours=2), max_delay=timedelta(minutes=2),
    )
    q = hot_counts_query(dur)
    kw = dict(key_cols=["wstart", "wend", "item"])
    rows = []
    for name, wend_col in [
        ("with watermark finalization", "wend"),
        ("without (no event-time completion)", None),
    ]:
        r, secs = _timed(
            lambda: run_query(
                spark, {"bid": log}, q, emit=EmitSpec(stream=True),
                wend_col=wend_col, **kw,
            )
        )
        rows.append(
            {
                "configuration": name,
                "max_live_groups": r.stats["max_live_groups"],
                "final_live_groups": r.stats["final_live_groups"],
                "finalized_groups": r.stats["finalized_groups"],
                "runtime_s": round(secs, 2),
            }
        )
    return pd.DataFrame(rows)


def q7_vs_cql_experiment(
    spark: SparkSession,
    *,
    n: int = 50_000,
    n_batches: int = 12,
    dur: timedelta = timedelta(minutes=10),
    seed: int = 72,
) -> pd.DataFrame:
    """P3 — NEXMark Q7: the proposed SQL evaluated continuously by the TVR
    engine vs. the CQL baseline (heartbeat + RANGE/SLIDE + Rstream), same
    input log, answers cross-checked."""
    log = gen.bid_event_log(
        n=n, n_batches=n_batches, seed=seed, n_auctions=200,
        duration=timedelta(hours=1), max_delay=timedelta(minutes=2),
        # Boundary convention: CQL windows are (tau-r, tau], Tumble's are
        # [ws, we); keep timestamps off the grid so answers are comparable.
        avoid_boundaries=dur,
    )
    ours, ours_s = _timed(
        lambda: run_query(
            spark, {"bid": log}, Q.make_q7(dur),
            emit=EmitSpec(stream=True, after_watermark=True), **WKW,
        )
    )
    cql, cql_s = _timed(lambda: cql_q7(spark, log, dur=dur))
    ours_ans = (
        ours.changelog[~ours.changelog["undo"]][["wend", "price", "item"]]
        .sort_values(["wend", "item"]).reset_index(drop=True)
    )
    cql_ans = cql[["wend", "price", "item"]].sort_values(
        ["wend", "item"]
    ).reset_index(drop=True)
    agree = ours_ans.astype(str).equals(cql_ans.astype(str))
    return pd.DataFrame(
        [
            {
                "system": "proposed SQL (TVR engine, EMIT STREAM AFTER WATERMARK)",
                "answers": len(ours_ans),
                "runtime_s": round(ours_s, 2),
                "evaluations": ours.stats["recomputes"],
                "answers_agree": agree,
            },
            {
                "system": "CQL baseline (heartbeat + RANGE/SLIDE + Rstream)",
                "answers": len(cql_ans),
                "runtime_s": round(cql_s, 2),
                "evaluations": 1,
                "answers_agree": agree,
            },
        ]
    )


def tvf_throughput_experiment(
    spark: SparkSession, *, n: int = 600_000, seed: int = 73
) -> pd.DataFrame:
    """P4 — one-shot Tumble vs Hop TVF throughput and the Hop row
    multiplication factor (dur/hopsize)."""
    pdf = gen.bids_pdf(n=n, seed=seed).drop(columns=["ptime"])
    df = spark.createDataFrame(pdf)
    df.cache().count()
    rows = []
    cases = [
        ("Tumble 10m", lambda: tumble(df, "bidtime", timedelta(minutes=10))),
        ("Hop 10m/5m (x2)", lambda: hop(df, "bidtime", timedelta(minutes=10),
                                        timedelta(minutes=5))),
        ("Hop 10m/2m (x5)", lambda: hop(df, "bidtime", timedelta(minutes=10),
                                        timedelta(minutes=2))),
    ]
    for name, mk in cases:
        cnt, secs = _timed(lambda: mk().count())
        rows.append(
            {
                "tvf": name,
                "input_rows": n,
                "output_rows": cnt,
                "multiplication": round(cnt / n, 2),
                "runtime_s": round(secs, 2),
                "rows_per_s": int(n / secs),
            }
        )
    df.unpersist()
    return pd.DataFrame(rows)


def nexmark_suite_experiment(
    spark: SparkSession, *, n_bids: int = 600_000, seed: int = 74
) -> pd.DataFrame:
    """P5 — table-mode throughput of the NEXMark query suite at SF≈0.1."""
    bids = gen.bids_pdf(n=n_bids, seed=seed).drop(columns=["ptime"])
    people = gen.persons_pdf(n=n_bids // 12, seed=seed + 1).drop(columns=["ptime"])
    aucts = gen.auctions_pdf(
        n=n_bids // 6, n_sellers=n_bids // 12, seed=seed + 2
    ).drop(columns=["ptime"])
    bid = spark.createDataFrame(bids).cache()
    person = spark.createDataFrame(people).cache()
    auction = spark.createDataFrame(aucts).cache()
    for d in (bid, person, auction):
        d.count()
    cases = [
        ("Q1 currency conversion", lambda: Q.q1(spark, bid).count()),
        ("Q2 selection", lambda: Q.make_q2()(spark, bid).count()),
        ("Q3 local item suggestion", lambda: Q.make_q3()(spark, auction, person).count()),
        ("Q5 hot items", lambda: Q.make_q5()(spark, bid).count()),
        ("Q7 highest bid", lambda: Q.make_q7()(spark, bid).count()),
        ("Q8 new users", lambda: Q.make_q8()(spark, person, auction).count()),
    ]
    rows = []
    for name, fn in cases:
        cnt, secs = _timed(fn)
        rows.append(
            {
                "query": name,
                "input_rows": n_bids,
                "output_rows": cnt,
                "runtime_s": round(secs, 2),
                "bids_per_s": int(n_bids / secs),
            }
        )
    for d in (bid, person, auction):
        d.unpersist()
    return pd.DataFrame(rows)
