"""The benchmark's NEXMark replay workloads: input generation, one replay
through the engine's public entry points, and the output check.

Every workload replays an out-of-order bid log cut into micro-batches, each
closed by a watermark that is correct by construction (see
``repro.nexmark.generator.batch_watermarks``), so no row is ever late and
the final table of every replay is known in advance:

- ``q7_sql_watermark``: the paper's Listing 2 text with ``EMIT STREAM AFTER
  WATERMARK`` through ``repro.sqlext.run_extended_sql``. Large input, few
  steps, tiny result: input-log build, snapshot shipping, the join plan and
  the SQL front end carry the run; diffing is idle.
- ``counts_delay_long``: per-(5-min window, item) counts under ``EMIT
  STREAM AFTER DELAY`` through ``TvrEngine.run``, over a long horizon in
  many small steps.
  Whole-prefix recompute ships many times the input to Spark, and the
  emit/watermark bookkeeping runs every step over many frozen groups and
  timer fires.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import timedelta
from typing import Callable, Optional, Tuple

import duckdb
import pandas as pd

from repro.core.engine import StreamResult, TvrEngine
from repro.core.timeline import EventLog
from repro.nexmark import generator as gen
from repro.nexmark.perf import hot_counts_query
from repro.nexmark.queries import q7_duckdb_sql
from repro.sqlext import executor as sql_executor
from repro.sqlext import parser as sql_parser
from tests.helpers import LISTING_2_SQL

#: Out-of-orderness bound of the generated arrivals; every batch closes
#: with a watermark this far behind its boundary.
MAX_DELAY = timedelta(minutes=2)

#: Wraps a query callable (``(spark, **snapshots) -> DataFrame``) before the
#: engine sees it; the benchmark uses it for per-step timestamps and spans.
Instrument = Callable[[Callable], Callable]


@dataclass(frozen=True)
class Workload:
    name: str
    sql: bool  # Listing 2 via run_extended_sql, else hot counts via TvrEngine
    n_bids: int
    hours: int
    n_auctions: int
    n_batches: int
    window: timedelta
    emit: str  # the EMIT clause, parsed by the SQL front end

    def generate(self, seed: int) -> Tuple[pd.DataFrame, list]:
        """The input frame (ptime quantized to batch boundaries) and the
        per-batch ``(ptime, etime)`` watermarks; deterministic in ``seed``."""
        bids = gen.bids_pdf(
            n=self.n_bids,
            seed=seed,
            duration=timedelta(hours=self.hours),
            n_auctions=self.n_auctions,
            max_delay=MAX_DELAY,
        )
        return gen.batch_watermarks(bids, n_batches=self.n_batches, max_delay=MAX_DELAY)

    def replay(
        self, spark, frame: pd.DataFrame, wms: list, instrument: Instrument
    ) -> StreamResult:
        """One replay: build the input log from the frame and run the query
        to the end of input. This is the timed unit of the benchmark."""
        log = EventLog.from_pandas(
            frame, ptime_col="ptime", etime_col="bidtime", watermarks=wms
        )
        if self.sql:
            make = sql_executor.sql_query_fn
            sql_executor.sql_query_fn = lambda core: instrument(make(core))
            try:
                return sql_executor.run_extended_sql(
                    spark, f"{LISTING_2_SQL}\n{self.emit}", {"Bid": log}
                )
            finally:
                sql_executor.sql_query_fn = make
        emit = sql_parser.parse_emit_clause(self.emit)
        engine = TvrEngine(
            spark,
            instrument(hot_counts_query(self.window)),
            key_cols=["wstart", "wend", "item"],
            wend_col="wend",
        )
        return engine.run({"bid": log}, emit=emit)

    def expected(self, frame: pd.DataFrame, wms: list) -> pd.DataFrame:
        """The table-semantics answer the integrated changelog must equal,
        computed without Spark."""
        bids = frame.drop(columns=["ptime"])
        if self.sql:
            # AFTER WATERMARK materializes exactly the windows the final
            # watermark completes.
            con = duckdb.connect()
            try:
                con.register("bid", bids)
                full = con.execute(q7_duckdb_sql(self.window)).fetchdf()
            finally:
                con.close()
            final_wm = max(etime for _, etime in wms)
            return _canonical(full[full["wend"] <= final_wm])
        wstart = bids["bidtime"].dt.floor(self.window)
        counts = (
            bids.assign(wstart=wstart, wend=wstart + self.window)
            .groupby(["wstart", "wend", "item"])
            .size()
            .rename("n_bids")
            .reset_index()
        )
        return _canonical(counts)

    def check(self, result: StreamResult, expected: pd.DataFrame) -> Optional[str]:
        """``None`` if the replay's integrated changelog equals ``expected``,
        else a description of the first difference."""
        try:
            got = _canonical(result.table())
        except ValueError as e:  # an undo of a row never inserted
            return f"changelog does not integrate: {e}"
        if list(got.columns) != list(expected.columns):
            return f"columns {list(got.columns)} != {list(expected.columns)}"
        if len(got) != len(expected):
            return f"{len(got)} rows, expected {len(expected)}"
        diff = (got != expected).any(axis=1)
        if diff.any():
            i = int(diff.to_numpy().argmax())
            return f"row {i}: got {got.iloc[i].to_dict()}, expected {expected.iloc[i].to_dict()}"
        return None


def _canonical(pdf: pd.DataFrame) -> pd.DataFrame:
    """Normalize dtypes and row order so Spark, DuckDB and pandas results
    compare by value."""
    pdf = pdf.copy()
    for c in pdf.columns:
        kind = str(pdf[c].dtype)
        if kind.startswith("datetime64"):
            pdf[c] = pdf[c].astype("datetime64[ns]")
        elif kind.startswith(("int", "uint")):
            pdf[c] = pdf[c].astype("int64")
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def changelog_digest(result: StreamResult) -> str:
    """SHA-256 of the changelog in emission order: two engine versions that
    emit identical changelogs on the same input have equal digests."""
    text = result.changelog.to_csv(index=False, date_format="%Y-%m-%dT%H:%M:%S")
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="q7_sql_watermark",
            sql=True,
            n_bids=50_000,
            hours=1,
            n_auctions=1000,
            n_batches=3,
            window=timedelta(minutes=10),
            emit="EMIT STREAM AFTER WATERMARK",
        ),
        Workload(
            name="counts_delay_long",
            sql=False,
            n_bids=5_000,
            hours=4,
            n_auctions=100,
            n_batches=16,
            window=timedelta(minutes=5),
            emit="EMIT STREAM AFTER DELAY INTERVAL '3' MINUTE",
        ),
    ]
}

#: Seed used while the benchmark was written; seed 2 was kept out of tuning.
DEFAULT_SEED = 1
