"""EMIT STREAM (Extension 4) and the instantaneous table views: Listings
3, 4 and 9, plus structural changelog properties and the stream<->table
duality on the paper's example."""
import pandas as pd
import pytest

from repro.core import EmitSpec, run_query
from repro.nexmark import example as ex
from repro.nexmark.queries import make_q7, q7_duckdb_sql
from tests.helpers import assert_pdf_equal, snapshot_query
from tests.oracle import assert_equivalent

t = ex.t


@pytest.fixture(scope="module")
def stream_run(spark):
    """One EMIT STREAM run of Q7 over the paper's example, shared."""
    return run_query(spark, {"bid": ex.bid_log()}, make_q7(), emit=EmitSpec(stream=True))


class TestListing9:
    def test_changelog_exact(self, stream_run):
        assert_pdf_equal(stream_run.changelog, ex.LISTING_9)

    def test_eight_rows(self, stream_run):
        assert stream_run.emitted_rows() == 8

    def test_ver_is_per_window_sequence(self, stream_run):
        for _, grp in stream_run.changelog.groupby(["wstart", "wend"]):
            assert list(grp["ver"]) == list(range(len(grp)))

    def test_ptime_non_decreasing(self, stream_run):
        assert stream_run.changelog["ptime"].is_monotonic_increasing

    def test_undos_reference_previously_emitted_rows(self, stream_run):
        chg = stream_run.changelog
        seen = set()
        for rec in chg.itertuples(index=False):
            row = (rec.wstart, rec.wend, rec.bidtime, rec.price, rec.item)
            if rec.undo:
                assert row in seen, f"undo of never-emitted row {row}"
            else:
                seen.add(row)

    def test_watermark_only_steps_emit_nothing(self, stream_run):
        # WM advances at 8:07/8:14/8:16/8:21 don't change the result.
        ptimes = set(stream_run.changelog["ptime"])
        for wm_ptime in [t(8, 7), t(8, 14), t(8, 16), t(8, 21)]:
            assert wm_ptime not in ptimes


class TestTableViews:
    def test_listing_3_full_dataset(self, stream_run):
        assert_pdf_equal(stream_run.table(), ex.LISTING_3, ordered=False)

    def test_listing_4_partial_dataset(self, stream_run):
        assert_pdf_equal(stream_run.table(at=t(8, 13)), ex.LISTING_4, ordered=False)

    def test_table_at_8_08(self, stream_run):
        got = stream_run.table(at=t(8, 8))
        assert_pdf_equal(
            got,
            pd.DataFrame(
                [(t(8, 0), t(8, 10), t(8, 7), 2, "A")], columns=ex.Q7_COLUMNS
            ),
            ordered=False,
        )

    def test_table_before_any_data_is_empty(self, stream_run):
        assert len(stream_run.table(at=t(8, 7))) == 0


class TestDuality:
    """The paper's core claim: streams and tables are two encodings of one
    TVR. Integrating the changelog at any ptime must equal the snapshot
    query at that ptime (no late data in the example, so the continuous
    view matches the instantaneous view)."""

    @pytest.mark.parametrize(
        "at", [t(8, 8), t(8, 12), t(8, 13), t(8, 14), t(8, 15), t(8, 17), t(8, 18), t(8, 21)]
    )
    def test_integrated_changelog_equals_snapshot_query(self, spark, stream_run, at):
        snap = snapshot_query(spark, {"bid": ex.bid_log()}, make_q7(), at=at)
        assert_pdf_equal(stream_run.table(at=at), snap, ordered=False)


class TestOracleQ7:
    def test_final_table_vs_duckdb(self, spark, stream_run):
        snap = snapshot_query(spark, {"bid": ex.bid_log()}, make_q7())
        assert_equivalent(snap, q7_duckdb_sql(), bid=ex.bid_log().snapshot_pdf())

    def test_partial_table_vs_duckdb(self, spark):
        snap = snapshot_query(spark, {"bid": ex.bid_log()}, make_q7(), at=t(8, 13))
        assert_equivalent(
            snap, q7_duckdb_sql(), bid=ex.bid_log().snapshot_pdf(at=t(8, 13))
        )


class TestNonWindowedStream:
    """EMIT STREAM over a plain (non-grouped) query: each row is its own
    grouping; a filter's changelog is append-only."""

    def _filter_query(self, spark, bid):
        return bid.filter("price >= 4").select("bidtime", "price", "item")

    @pytest.fixture(scope="class")
    def run(self, spark):
        return run_query(
            spark, {"bid": ex.bid_log()}, self._filter_query,
            emit=EmitSpec(stream=True),
        )

    def test_append_only(self, run):
        assert not run.changelog["undo"].any()

    def test_rows_and_arrival_times(self, run):
        got = run.changelog[["item", "ptime"]].values.tolist()
        assert got == [["C", t(8, 13)], ["D", t(8, 15)], ["F", t(8, 18)]]

    def test_vers_all_zero(self, run):
        assert (run.changelog["ver"] == 0).all()


class TestStats:
    def test_counters(self, stream_run):
        s = stream_run.stats
        assert s["recomputes"] == 6  # one per insert step
        assert s["steps"] == 10
        assert s["emitted_rows"] == 8
        assert s["finalized_groups"] == 2
        assert s["final_live_groups"] == 0
        assert s["dropped_late_rows"] == 0

    def test_final_watermark(self, stream_run):
        assert stream_run.stats["final_watermark"] == t(8, 20)


class TestUntil:
    def test_run_truncated_at_8_13(self, spark):
        r = run_query(
            spark, {"bid": ex.bid_log()}, make_q7(),
            emit=EmitSpec(stream=True), until=t(8, 13)
        )
        assert_pdf_equal(r.changelog, ex.LISTING_9.iloc[:4].reset_index(drop=True))
        assert_pdf_equal(r.table(), ex.LISTING_4, ordered=False)
