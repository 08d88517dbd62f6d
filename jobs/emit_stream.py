"""T7 (Listing 9): Q7 under ``EMIT STREAM`` — the full changelog of the
result TVR with undo/ptime/ver metadata columns.

Run: ``spark-submit jobs/emit_stream.py``.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from _common import show  # noqa: E402

from repro.core import EmitSpec, run_query  # noqa: E402
from repro.nexmark import example as ex  # noqa: E402
from repro.nexmark.queries import make_q7  # noqa: E402
from repro.session import build_session  # noqa: E402


def main(spark) -> None:
    r = run_query(spark, {"bid": ex.bid_log()}, make_q7(), emit=EmitSpec(stream=True))
    show("T7 / Listing 9 — EMIT STREAM changelog", ex.LISTING_9, r.changelog)
    print(f"\nengine stats: {r.stats}")


if __name__ == "__main__":
    spark = build_session("emit_stream")
    main(spark)
    spark.stop()
