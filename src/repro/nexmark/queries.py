"""NEXMark queries over the TVR model (paper §4 + Appendix B workloads).

Each query is one text in the paper's dialect (§6: ``Tumble``/``Hop``
calls, standard SQL otherwise), the single definition of what it computes
over streams and tables alike. ``sql_query_fn(text)`` makes it the TVR
engine's ``(spark, **snapshots) -> DataFrame`` callable; the tests derive
each query's DuckDB twin from the same text (``tests/twins.py``). Input
names are case-insensitive on both sides, so ``Bid`` reads a ``bid`` log.

Q7 — the paper's centerpiece — is Listing 2 with its window width
substituted. ``q7_duckdb_sql`` stays hand-written: it is the anchor that
checks Listing 2's answer without going through the dialect front end, and
tvrbench's expected answer. Dialect differences are settled in the text
itself, so Spark and DuckDB type each column alike (Q1 converts ``price``
to DOUBLE before scaling it).
"""
from __future__ import annotations

from datetime import timedelta
from typing import Callable

from ..sqlext.executor import sql_query_fn
from .example import LISTING_2_SQL


def _secs(d: timedelta) -> int:
    return int(d.total_seconds())


def _interval(d: timedelta) -> str:
    """``d`` as the dialect's interval literal, in minutes when whole."""
    s = _secs(d)
    return f"INTERVAL '{s // 60}' MINUTE" if s % 60 == 0 else f"INTERVAL '{s}' SECOND"


# -- Q7: highest-priced bid per tumbling window ----------------------------


def q7_sql(dur: timedelta = timedelta(minutes=10)) -> str:
    """Listing 2 with window width ``dur``; at 10 minutes, Listing 2 itself."""
    return LISTING_2_SQL.replace("INTERVAL '10' MINUTE", _interval(dur))


def make_q7(dur: timedelta = timedelta(minutes=10)) -> Callable:
    """Listing 2, parameterized by window width, as the engine's query."""
    return sql_query_fn(q7_sql(dur))


def q7_duckdb_sql(dur: timedelta = timedelta(minutes=10)) -> str:
    """DuckDB oracle for Q7's table semantics over a ``bid`` snapshot."""
    d = _secs(dur)
    return f"""
        WITH tb AS (
            SELECT *,
                   time_bucket(INTERVAL '{d} seconds', bidtime) AS wstart,
                   time_bucket(INTERVAL '{d} seconds', bidtime)
                       + INTERVAL '{d} seconds' AS wend
            FROM bid
        ),
        maxbid AS (
            SELECT wstart, wend, MAX(price) AS maxprice
            FROM tb GROUP BY wstart, wend
        )
        SELECT m.wstart AS wstart, m.wend AS wend,
               b.bidtime AS bidtime, b.price AS price, b.item AS item
        FROM bid b, maxbid m
        WHERE b.price = m.maxprice
          AND b.bidtime >= m.wend - INTERVAL '{d} seconds'
          AND b.bidtime < m.wend
    """


# -- Q1: currency conversion (stateless map) -------------------------------

Q1_SQL = """
SELECT item, bidder, CAST(price AS DOUBLE) * 0.908 AS price_eur, bidtime
FROM Bid
""".strip()


# -- Q2: selection on a set of auctions (stateless filter) -----------------


def q2_sql(modulus: int = 123) -> str:
    return f"SELECT item, price FROM Bid WHERE item % {modulus} = 0"


# -- Q3: local item suggestion (incremental join) --------------------------


def q3_sql(category: int = 10, states=("OR", "ID", "CA")) -> str:
    st = ", ".join(f"'{s}'" for s in states)
    return f"""
SELECT P.name, P.city, P.state, A.id AS auction
FROM Auction A JOIN Person P ON A.seller = P.id
WHERE A.category = {category} AND P.state IN ({st})
""".strip()


# -- Q5: hot items (hopping-window count, per-window argmax) ---------------


def q5_sql(
    dur: timedelta = timedelta(minutes=10), hopsize: timedelta = timedelta(minutes=5)
) -> str:
    return f"""
WITH Counts AS (
  SELECT HopBid.wstart, HopBid.wend, HopBid.item, COUNT(*) AS n_bids
  FROM Hop(
    data    => TABLE(Bid),
    timecol => DESCRIPTOR(bidtime),
    dur     => {_interval(dur)},
    hopsize => {_interval(hopsize)}) HopBid
  GROUP BY HopBid.wstart, HopBid.wend, HopBid.item)
SELECT C.wstart, C.wend, C.item, C.n_bids
FROM Counts C,
  (SELECT wstart, wend, MAX(n_bids) AS max_bids
   FROM Counts GROUP BY wstart, wend) M
WHERE C.wstart = M.wstart AND C.wend = M.wend AND C.n_bids = M.max_bids
""".strip()


# -- Q8: monitor new users (windowed stream-stream join) -------------------


def q8_sql(dur: timedelta = timedelta(minutes=20)) -> str:
    return f"""
SELECT DISTINCT P.id, P.name, P.wstart, P.wend
FROM Tumble(
    data    => TABLE(Person),
    timecol => DESCRIPTOR(entrytime),
    dur     => {_interval(dur)}) P
  JOIN Tumble(
    data    => TABLE(Auction),
    timecol => DESCRIPTOR(atime),
    dur     => {_interval(dur)}) A
  ON P.id = A.seller AND P.wstart = A.wstart
""".strip()
