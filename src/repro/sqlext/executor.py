"""Executing extended-SQL text over event logs with the TVR engine.

``run_extended_sql`` is the end-to-end path the paper proposes: take a
query in the extended dialect (TVF syntax + EMIT clause), split off the
materialization spec, rewrite the relational core to plain Spark SQL, and
evaluate it continuously over the inputs' scripted timelines.
"""
from __future__ import annotations

from typing import Mapping

from pyspark.sql import DataFrame, SparkSession

from ..core.engine import StreamResult, TvrEngine
from ..core.timeline import EventLog
from .parser import split_emit
from .rewrite import rewrite_extended_sql


def sql_query_fn(core_sql: str):
    """Wrap already-rewritten Spark SQL as the engine's query callable:
    each micro-batch registers the inputs' snapshots as temp views and runs
    the statement through Catalyst."""

    def query(spark: SparkSession, **dfs: DataFrame) -> DataFrame:
        for name, df in dfs.items():
            df.createOrReplaceTempView(name)
        return spark.sql(core_sql)

    return query


def run_extended_sql(
    spark: SparkSession,
    sql: str,
    logs: Mapping[str, EventLog],
    *,
    until=None,
) -> StreamResult:
    """Run an extended-dialect query over the given event logs, keyed by
    the table names the query reads. The EMIT clause decides
    materialization; a query with a windowing TVF groups its result by
    (wstart, wend), complete once the watermark passes wend, passed here
    because the rewritten SQL text carries no window-tag column metadata."""
    core, emit = split_emit(sql)
    rewritten, calls = rewrite_extended_sql(core)
    engine = TvrEngine(
        spark,
        sql_query_fn(rewritten),
        key_cols=["wstart", "wend"] if calls else None,
        wend_col="wend" if calls else None,
    )
    return engine.run(logs, emit=emit, until=until)
