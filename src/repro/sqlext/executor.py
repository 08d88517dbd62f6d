"""Executing extended-SQL text over event logs with the TVR engine.

``run_extended_sql`` is the end-to-end path the paper proposes: take a
query in the extended dialect (TVF syntax + EMIT clause), split off the
materialization spec, and evaluate the relational core continuously over
the inputs' scripted timelines. Each TVF call runs through ``tumble``/``hop``,
so the engine derives the grouping from the result's window tags.
"""
from __future__ import annotations

from typing import Mapping

from pyspark.sql import DataFrame, SparkSession

from ..core.engine import StreamResult, TvrEngine
from ..core.timeline import EventLog
from ..core.windows import hop, tumble
from .parser import split_emit
from .rewrite import TvfCall, rewrite_extended_sql


def _apply(spark: SparkSession, call: TvfCall) -> DataFrame:
    """One TVF call over the table it names, as the DataFrame API runs it."""
    data = spark.table(call.table)
    if call.kind == "tumble":
        return tumble(data, call.timecol, call.dur, call.offset)
    return hop(data, call.timecol, call.dur, call.hopsize, call.offset)


def sql_query_fn(core_sql: str):
    """Wrap the relational core of an extended-dialect query (no EMIT
    clause) as the engine's query callable: each micro-batch registers the
    inputs' snapshots as temp views, then each TVF call's view over them,
    runs the rewritten statement through Catalyst, which analyzes it at
    once, and drops the views, so none outlives the run's input pins."""
    sql, calls = rewrite_extended_sql(core_sql)

    def query(spark: SparkSession, **dfs: DataFrame) -> DataFrame:
        try:
            for name, df in dfs.items():
                df.createOrReplaceTempView(name)
            for call in calls:
                _apply(spark, call).createOrReplaceTempView(call.view)
            return spark.sql(sql)
        finally:
            for view in [*dfs, *(c.view for c in calls)]:
                spark.catalog.dropTempView(view)

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
    materialization; the tagged window columns in the result group it."""
    core, emit = split_emit(sql)
    return TvrEngine(spark, sql_query_fn(core)).run(logs, emit=emit, until=until)
