"""T12 (Listing 2): the paper's proposed-SQL text, verbatim, through the
dialect front end (each TVF call a view of the tagged ``tumble``, plus EMIT
parsing) — reproducing Listings 3 and 9 from the same query string.

Run: ``spark-submit jobs/listing2_sql.py``.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from _common import show, sort_table  # noqa: E402

from repro.nexmark import example as ex  # noqa: E402
from repro.session import build_session  # noqa: E402
from repro.sqlext import rewrite_extended_sql, run_extended_sql  # noqa: E402


def main(spark) -> None:
    print("=== Listing 2 (input, verbatim) ===")
    print(ex.LISTING_2_SQL)
    rewritten, calls = rewrite_extended_sql(ex.LISTING_2_SQL)
    print("\n=== rewritten to Spark SQL over one view per TVF call ===")
    print(rewritten)
    print(f"\nparsed TVF calls: {calls}")

    r = run_extended_sql(spark, ex.LISTING_2_SQL + " EMIT STREAM", {"Bid": ex.bid_log()})
    show("T12 — Listing 2 + EMIT STREAM == Listing 9", ex.LISTING_9, r.changelog)
    show("T12 — Listing 2 table view == Listing 3",
         sort_table(ex.LISTING_3), sort_table(r.table()))


if __name__ == "__main__":
    spark = build_session("listing2_sql")
    main(spark)
    spark.stop()
