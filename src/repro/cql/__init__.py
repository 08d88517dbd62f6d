"""CQL/STREAM baseline substrate (paper §2.1 and §4, Listing 1).

Implements the semantics of the Stanford STREAM system's CQL dialect that
the paper contrasts against: heartbeat-based in-order buffering of
out-of-order input, the stream-to-relation ``[RANGE r SLIDE s]`` window,
and the relation-to-stream operator ``Rstream``.
"""
from .heartbeat import reorder_with_heartbeat  # noqa: F401
from .operators import rstream  # noqa: F401
from .relations import range_slide_history  # noqa: F401
from .q7 import cql_q7  # noqa: F401
