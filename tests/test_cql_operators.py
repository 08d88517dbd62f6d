"""CQL's stream-to-relation window (§2.1.1), checked against its
definitional semantics and the DuckDB oracle."""
from datetime import timedelta

import pandas as pd
import pytest

from repro.cql.relations import TAU, range_slide_history
from repro.nexmark import example as ex
from tests.oracle import assert_equivalent

t = ex.t
TEN = timedelta(minutes=10)
FIVE = timedelta(minutes=5)


@pytest.fixture(scope="module")
def bid_df(spark):
    return spark.createDataFrame(ex.bid_log().snapshot_pdf())


@pytest.fixture(scope="module")
def hist10(spark, bid_df):
    """Bid [RANGE 10 MINUTE SLIDE 10 MINUTE] — the Listing 1 window."""
    return range_slide_history(bid_df, "bidtime", TEN, TEN)


class TestRangeSlide:
    def test_tumbling_window_membership(self, hist10):
        pdf = hist10.toPandas()
        # Each bid visible at exactly one tau (range == slide).
        assert len(pdf) == 6
        got = dict(zip(pdf["item"], pdf[TAU]))
        assert got == {
            "A": t(8, 10), "C": t(8, 10), "D": t(8, 10),
            "B": t(8, 20), "E": t(8, 20), "F": t(8, 20),
        }

    def test_overlapping_range(self, spark, bid_df):
        # RANGE 10 SLIDE 5: each bid visible at two instants.
        hist = range_slide_history(bid_df, "bidtime", TEN, FIVE)
        pdf = hist.toPandas()
        assert len(pdf) == 12
        a_taus = sorted(pdf[pdf["item"] == "A"][TAU])
        assert a_taus == [t(8, 10), t(8, 15)]

    def test_boundary_timestamp_belongs_to_closing_instant(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"bidtime": [t(8, 10)], "v": [1]})
        )
        pdf = range_slide_history(df, "bidtime", TEN, TEN).toPandas()
        # R(tau) contains timestamps in (tau-10, tau]: 8:10 is in R(8:10).
        assert list(pdf[TAU]) == [t(8, 10)]

    def test_vs_duckdb_oracle(self, spark, bid_df):
        hist = range_slide_history(bid_df, "bidtime", TEN, FIVE).select(
            "bidtime", "price", "item", TAU
        )
        # Same semantics in DuckDB: tau grid = 5-minute points, tuple in
        # (tau - 10min, tau].
        assert_equivalent(
            hist,
            """
            SELECT b.bidtime AS bidtime, b.price AS price, b.item AS item,
                   g.tau AS tau
            FROM bid b
            JOIN (SELECT range AS tau
                  FROM range(TIMESTAMP '2023-01-01 08:00:00',
                             TIMESTAMP '2023-01-01 08:30:00',
                             INTERVAL '5 minutes')) g
              ON b.bidtime <= g.tau
             AND b.bidtime > g.tau - INTERVAL '10 minutes'
            """,
            bid=ex.bid_log().snapshot_pdf(),
        )

