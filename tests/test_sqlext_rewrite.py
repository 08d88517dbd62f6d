"""Unit tests for the TVF rewriter: each call is parsed and replaced by its
own temp-view name."""
from datetime import timedelta

import pytest

from repro.sqlext.rewrite import rewrite_extended_sql

TUMBLE = (
    "SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTE)"
)
HOP = (
    "SELECT * FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTE, hopsize => INTERVAL '5' MINUTE)"
)


class TestTumbleRewrite:
    def test_call_parsed(self):
        _, calls = rewrite_extended_sql(TUMBLE)
        (c,) = calls
        assert c.kind == "tumble" and c.table == "Bid" and c.timecol == "bidtime"
        assert c.dur == timedelta(minutes=10) and c.alias is None

    def test_rewritten_is_plain_sql(self):
        out, calls = rewrite_extended_sql(TUMBLE)
        assert "Tumble(" not in out and "TABLE(" not in out
        assert out == f"SELECT * FROM {calls[0].view}"

    def test_alias_captured(self):
        out, calls = rewrite_extended_sql(TUMBLE + " TumbleBid")
        assert calls[0].alias == "TumbleBid"
        assert out.rstrip().endswith("TumbleBid")

    def test_as_alias(self):
        _, calls = rewrite_extended_sql(TUMBLE + " AS TB")
        assert calls[0].alias == "TB"

    def test_keyword_after_call_not_alias(self):
        _, calls = rewrite_extended_sql(TUMBLE + " WHERE 1 = 1")
        assert calls[0].alias is None

    def test_offset(self):
        sql = TUMBLE[:-1] + ", offset => INTERVAL '3' MINUTE)"
        out, calls = rewrite_extended_sql(sql)
        assert calls[0].offset == timedelta(minutes=3)
        assert "Tumble(" not in out and "offset" not in out
        assert out == f"SELECT * FROM {calls[0].view}"

    def test_case_insensitive_keywords(self):
        sql = (
            "SELECT * FROM tumble(DATA => table(Bid), TIMECOL => descriptor(bidtime), "
            "DUR => INTERVAL '10' MINUTE)"
        )
        _, calls = rewrite_extended_sql(sql)
        assert calls[0].kind == "tumble"


class TestHopRewrite:
    def test_call_parsed(self):
        _, calls = rewrite_extended_sql(HOP)
        (c,) = calls
        assert c.kind == "hop" and c.hopsize == timedelta(minutes=5)

    def test_rewritten_to_own_view(self):
        out, calls = rewrite_extended_sql(HOP)
        assert "Hop(" not in out
        assert out == f"SELECT * FROM {calls[0].view}"

    def test_hop_requires_hopsize(self):
        bad = HOP.replace(", hopsize => INTERVAL '5' MINUTE", "")
        with pytest.raises(ValueError, match="hopsize"):
            rewrite_extended_sql(bad)


class TestArgumentErrors:
    def test_missing_dur(self):
        bad = TUMBLE.replace(", dur => INTERVAL '10' MINUTE", "")
        with pytest.raises(ValueError, match="dur"):
            rewrite_extended_sql(bad)

    def test_positional_args_rejected(self):
        with pytest.raises(ValueError, match="named"):
            rewrite_extended_sql("SELECT * FROM Tumble(TABLE(Bid))")

    def test_unknown_arg_rejected(self):
        bad = TUMBLE[:-1] + ", slide => INTERVAL '1' MINUTE)"
        with pytest.raises(ValueError, match="unexpected"):
            rewrite_extended_sql(bad)

    def test_data_must_be_table_ref(self):
        bad = TUMBLE.replace("TABLE(Bid)", "Bid")
        with pytest.raises(ValueError, match="TABLE"):
            rewrite_extended_sql(bad)

    def test_timecol_must_be_descriptor(self):
        bad = TUMBLE.replace("DESCRIPTOR(bidtime)", "bidtime")
        with pytest.raises(ValueError, match="DESCRIPTOR"):
            rewrite_extended_sql(bad)

    def test_unbalanced_parens(self):
        with pytest.raises(ValueError, match="unbalanced"):
            rewrite_extended_sql("SELECT * FROM Tumble(data => TABLE(Bid)")


class TestGroupByNormalization:
    def test_wend_completed_with_wstart(self):
        sql = TUMBLE + " TB GROUP BY TB.wend"
        out, _ = rewrite_extended_sql(sql)
        assert "GROUP BY TB.wstart, TB.wend" in out

    def test_wstart_completed_with_wend(self):
        sql = TUMBLE + " TB GROUP BY TB.wstart"
        out, _ = rewrite_extended_sql(sql)
        assert "GROUP BY TB.wstart, TB.wend" in out

    def test_both_present_untouched(self):
        sql = TUMBLE + " TB GROUP BY TB.wstart, TB.wend"
        out, _ = rewrite_extended_sql(sql)
        assert "GROUP BY TB.wstart, TB.wend" in out
        assert "TB.wstart, TB.wstart" not in out

    def test_unqualified_wend(self):
        sql = TUMBLE + " GROUP BY wend"
        out, _ = rewrite_extended_sql(sql)
        assert "GROUP BY wstart, wend" in out

    def test_unrelated_group_by_untouched(self):
        sql = "SELECT item FROM Bid GROUP BY item"
        out, _ = rewrite_extended_sql(sql)
        assert "GROUP BY item" in out


class TestMultipleCalls:
    def test_two_tvfs_in_one_query(self):
        sql = f"SELECT * FROM ({TUMBLE}) a JOIN ({HOP}) b ON a.wend = b.wend"
        out, calls = rewrite_extended_sql(sql)
        assert len(calls) == 2
        assert {c.kind for c in calls} == {"tumble", "hop"}
        assert "Tumble(" not in out and "Hop(" not in out
        a, b = calls
        assert a.view != b.view
        assert out == (
            f"SELECT * FROM (SELECT * FROM {a.view}) a "
            f"JOIN (SELECT * FROM {b.view}) b ON a.wend = b.wend"
        )
