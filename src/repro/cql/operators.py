"""CQL relation-to-stream operator (paper §2.1.1).

Over a relation history (a DataFrame with a ``tau`` instant column, as
produced by :func:`~repro.cql.relations.range_slide_history` or by any
relation-to-relation query over it), ``Rstream(R)`` is every ``(r, tau)``
with ``r`` in R(tau). Listing 1 needs only Rstream.
"""
from __future__ import annotations

from pyspark.sql import DataFrame


def rstream(history: DataFrame) -> DataFrame:
    """Rstream: every element of every instantaneous relation."""
    return history
