"""CQL/STREAM baseline substrate (paper §2.1 and §4, Listing 1).

Implements the semantics of the Stanford STREAM system's CQL dialect that
the paper contrasts against: heartbeat-based in-order buffering of
out-of-order input, the stream-to-relation ``[RANGE r SLIDE s]`` window,
and CQL Q7, whose ``Rstream`` emits every row of every instantaneous
relation of the window's history.
"""
from .q7 import cql_q7  # noqa: F401
