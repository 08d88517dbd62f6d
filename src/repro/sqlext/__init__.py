"""The streaming-SQL dialect front end (paper §6 syntax).

Parses the paper's proposed extensions — windowing TVF invocations like
``Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur =>
INTERVAL '10' MINUTE)`` and the ``EMIT`` clause family — into Spark SQL
over one temp view per TVF call, each the DataFrame API's ``tumble``/``hop``,
plus an :class:`~repro.core.emit.EmitSpec`, executed by the TVR engine.
The paper's Listing 2 text runs verbatim through this layer and reproduces
Listings 3, 4, 9 and 13.
"""
from .executor import run_extended_sql  # noqa: F401
from .rewrite import rewrite_extended_sql  # noqa: F401
