"""The one place that builds and configures a Spark session.

Master and driver memory are launch-time settings: they come from
``spark-submit`` or ``PYSPARK_SUBMIT_ARGS`` and are read when the JVM
starts. Everything the reproduction depends on after launch is set here:

- Arrow-backed ``toPandas``/``createDataFrame``;
- broadcast joins off, so joins go through a shuffle at test scale;
- session time zone UTC, so timestamps round-trip between pandas and
  Spark unchanged whatever the machine's locale (the engine checks it);
- one shuffle partition per core (``defaultParallelism``).

The shuffle settings shape table-mode queries (P4/P5, static tests) only:
the engine pins each input as one partition, so its steps plan no shuffle.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def build_session(app: str) -> SparkSession:
    """Get or create the session named ``app`` with the settings above."""
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.session.timeZone", "UTC")
        .getOrCreate()
    )
    spark.conf.set(
        "spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism
    )
    return spark


def require_utc(spark: SparkSession) -> None:
    """Raise unless the session time zone is UTC. The engine converts
    pandas timestamps to Spark and back; in any other zone they shift."""
    tz = spark.conf.get("spark.sql.session.timeZone")
    if tz != "UTC":
        raise ValueError(
            f"session time zone is {tz!r}, not 'UTC': build the session "
            "with repro.session.build_session"
        )
