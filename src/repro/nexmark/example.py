"""The paper's §4 worked example — dataset and every expected listing.

This module is the single source of truth for the reproduction's
listing-exact tables: the scripted Bid stream (arrival times, event times,
watermark timeline), Listing 2's query text, and the row-for-row expected
outputs of Listings 3–14, as pandas frames. Tests assert engine output
equals these; jobs print the paper's rows next to the measured ones.

Times are mapped onto a reference date (the paper writes bare clock times);
``t(8, 7)`` is 08:07 on REF_DATE. Prices are integer dollars.
"""
from __future__ import annotations

from datetime import timedelta

import pandas as pd

from ..core.timeline import EventLog

REF_DATE = pd.Timestamp("2023-01-01")

BID_COLUMNS = ["bidtime", "price", "item"]


def t(hour: int, minute: int) -> pd.Timestamp:
    """Clock time ``hour:minute`` on the example's reference date."""
    return REF_DATE + timedelta(hours=hour, minutes=minute)


def bid_log() -> EventLog:
    """The example Bid stream exactly as scripted in §4:

    ==========  =============================
    ptime       event
    ==========  =============================
    8:07        WM -> 8:05
    8:08        INSERT (8:07, $2, A)
    8:12        INSERT (8:11, $3, B)
    8:13        INSERT (8:05, $4, C)
    8:14        WM -> 8:08
    8:15        INSERT (8:09, $5, D)
    8:16        WM -> 8:12
    8:17        INSERT (8:13, $1, E)
    8:18        INSERT (8:17, $6, F)
    8:21        WM -> 8:20
    ==========  =============================
    """
    log = EventLog(BID_COLUMNS, etime_col="bidtime")
    log.watermark_to(t(8, 7), t(8, 5))
    log.insert(t(8, 8), t(8, 7), 2, "A")
    log.insert(t(8, 12), t(8, 11), 3, "B")
    log.insert(t(8, 13), t(8, 5), 4, "C")
    log.watermark_to(t(8, 14), t(8, 8))
    log.insert(t(8, 15), t(8, 9), 5, "D")
    log.watermark_to(t(8, 16), t(8, 12))
    log.insert(t(8, 17), t(8, 13), 1, "E")
    log.insert(t(8, 18), t(8, 17), 6, "F")
    log.watermark_to(t(8, 21), t(8, 20))
    return log


#: NEXMark Query 7 exactly as the paper's Listing 2 writes it (the item
#: column is named ``item`` to match the example data; the paper uses
#: ``itemid`` against the NEXMark schema).
LISTING_2_SQL = """
SELECT
  MaxBid.wstart, MaxBid.wend,
  Bid.bidtime, Bid.price, Bid.item
FROM
  Bid,
  (SELECT
     MAX(TumbleBid.price) maxPrice,
     TumbleBid.wstart wstart,
     TumbleBid.wend wend
   FROM
     Tumble(
       data    => TABLE(Bid),
       timecol => DESCRIPTOR(bidtime),
       dur     => INTERVAL '10' MINUTE) TumbleBid
   GROUP BY
     TumbleBid.wend) MaxBid
WHERE
  Bid.price = MaxBid.maxPrice AND
  Bid.bidtime >= MaxBid.wend
    - INTERVAL '10' MINUTE AND
  Bid.bidtime < MaxBid.wend
""".strip()

Q7_COLUMNS = ["wstart", "wend", "bidtime", "price", "item"]
CHANGELOG_COLUMNS = Q7_COLUMNS + ["undo", "ptime", "ver"]


def _q7(rows) -> pd.DataFrame:
    return pd.DataFrame(rows, columns=Q7_COLUMNS)


def _chg(rows) -> pd.DataFrame:
    pdf = pd.DataFrame(rows, columns=CHANGELOG_COLUMNS)
    pdf["undo"] = pdf["undo"].astype(bool)
    pdf["ver"] = pdf["ver"].astype("int64")
    return pdf


#: Listing 3 — Q7 table view at 8:21 (full dataset).
LISTING_3 = _q7(
    [
        (t(8, 0), t(8, 10), t(8, 9), 5, "D"),
        (t(8, 10), t(8, 20), t(8, 17), 6, "F"),
    ]
)

#: Listing 4 — Q7 table view at 8:13 (partial dataset).
LISTING_4 = _q7(
    [
        (t(8, 0), t(8, 10), t(8, 5), 4, "C"),
        (t(8, 10), t(8, 20), t(8, 11), 3, "B"),
    ]
)

#: Listing 5 — the Tumble TVF over the Bid snapshot at 8:21.
LISTING_5 = pd.DataFrame(
    [
        (t(8, 0), t(8, 10), t(8, 7), 2, "A"),
        (t(8, 10), t(8, 20), t(8, 11), 3, "B"),
        (t(8, 0), t(8, 10), t(8, 5), 4, "C"),
        (t(8, 0), t(8, 10), t(8, 9), 5, "D"),
        (t(8, 10), t(8, 20), t(8, 13), 1, "E"),
        (t(8, 10), t(8, 20), t(8, 17), 6, "F"),
    ],
    columns=["wstart", "wend", "bidtime", "price", "item"],
)

#: Listing 6 — Tumble + GROUP BY (max price per 10-minute window).
LISTING_6 = pd.DataFrame(
    [
        (t(8, 0), t(8, 10), 5),
        (t(8, 10), t(8, 20), 6),
    ],
    columns=["wstart", "wend", "maxprice"],
)

#: Listing 7 — the Hop TVF (dur 10 min, hopsize 5 min) at 8:21.
LISTING_7 = pd.DataFrame(
    [
        (t(8, 0), t(8, 10), t(8, 7), 2, "A"),
        (t(8, 5), t(8, 15), t(8, 7), 2, "A"),
        (t(8, 5), t(8, 15), t(8, 11), 3, "B"),
        (t(8, 10), t(8, 20), t(8, 11), 3, "B"),
        (t(8, 0), t(8, 10), t(8, 5), 4, "C"),
        (t(8, 5), t(8, 15), t(8, 5), 4, "C"),
        (t(8, 0), t(8, 10), t(8, 9), 5, "D"),
        (t(8, 5), t(8, 15), t(8, 9), 5, "D"),
        (t(8, 5), t(8, 15), t(8, 13), 1, "E"),
        (t(8, 10), t(8, 20), t(8, 13), 1, "E"),
        (t(8, 10), t(8, 20), t(8, 17), 6, "F"),
        (t(8, 15), t(8, 25), t(8, 17), 6, "F"),
    ],
    columns=["wstart", "wend", "bidtime", "price", "item"],
)

#: Listing 8 — Hop + GROUP BY (max price per hopping window).
LISTING_8 = pd.DataFrame(
    [
        (t(8, 0), t(8, 10), 5),
        (t(8, 5), t(8, 15), 5),
        (t(8, 10), t(8, 20), 6),
        (t(8, 15), t(8, 25), 6),
    ],
    columns=["wstart", "wend", "maxprice"],
)

#: Listing 9 — Q7 ``EMIT STREAM``: the full changelog with undo/ptime/ver.
LISTING_9 = _chg(
    [
        (t(8, 0), t(8, 10), t(8, 7), 2, "A", False, t(8, 8), 0),
        (t(8, 10), t(8, 20), t(8, 11), 3, "B", False, t(8, 12), 0),
        (t(8, 0), t(8, 10), t(8, 7), 2, "A", True, t(8, 13), 1),
        (t(8, 0), t(8, 10), t(8, 5), 4, "C", False, t(8, 13), 2),
        (t(8, 0), t(8, 10), t(8, 5), 4, "C", True, t(8, 15), 3),
        (t(8, 0), t(8, 10), t(8, 9), 5, "D", False, t(8, 15), 4),
        (t(8, 10), t(8, 20), t(8, 11), 3, "B", True, t(8, 18), 1),
        (t(8, 10), t(8, 20), t(8, 17), 6, "F", False, t(8, 18), 2),
    ]
)

#: Listing 10 — ``EMIT AFTER WATERMARK`` table at 8:13: nothing complete.
LISTING_10 = _q7([])

#: Listing 11 — ``EMIT AFTER WATERMARK`` table at 8:16: first window final.
LISTING_11 = _q7([(t(8, 0), t(8, 10), t(8, 9), 5, "D")])

#: Listing 12 — ``EMIT AFTER WATERMARK`` table at 8:21: both windows final.
LISTING_12 = LISTING_3.copy()

#: Listing 13 — ``EMIT STREAM AFTER WATERMARK``: one final pane per window.
LISTING_13 = _chg(
    [
        (t(8, 0), t(8, 10), t(8, 9), 5, "D", False, t(8, 16), 0),
        (t(8, 10), t(8, 20), t(8, 17), 6, "F", False, t(8, 21), 0),
    ]
)

#: Listing 14 — ``EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES``.
LISTING_14 = _chg(
    [
        (t(8, 0), t(8, 10), t(8, 5), 4, "C", False, t(8, 14), 0),
        (t(8, 10), t(8, 20), t(8, 17), 6, "F", False, t(8, 18), 0),
        (t(8, 0), t(8, 10), t(8, 5), 4, "C", True, t(8, 21), 1),
        (t(8, 0), t(8, 10), t(8, 9), 5, "D", False, t(8, 21), 2),
    ]
)

#: §4 / Listing 1 — the CQL baseline's output stream: one answer per
#: 10-minute window, available once the window's input is complete.
#: Columns: window end (CQL's evaluation instant tau), price, item, and the
#: processing time at which the heartbeat/watermark released the result.
CQL_Q7_EXPECTED = pd.DataFrame(
    [
        (t(8, 10), 5, "D", t(8, 16)),
        (t(8, 20), 6, "F", t(8, 21)),
    ],
    columns=["wend", "price", "item", "ptime"],
)
