"""Tiny-size self-test of the benchmark itself (about two minutes).

Checks that

1. every metric ``BENCHMARK.json`` names is emitted, with its unit, by
   ``--trace 0`` (end-to-end) and ``--trace 1`` (per-layer) on each
   workload, and the result line says the outputs were correct;
2. the output check rejects a corrupted changelog, and a corrupted
   changelog no longer matches the reference digest.

Run from the repository root: ``python3 tvrbench/selftest.py``. Exits 0
on success; raises on the first failed check.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import pandas as pd

import run  # tvrbench/run.py: sets up sys.path for repro and the workloads
import workloads as W

TINY = {
    name: dataclasses.replace(w, n_bids=600, n_batches=min(w.n_batches, 4))
    for name, w in W.WORKLOADS.items()
}
SEED = 99


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def metrics_are_emitted() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in run.SPEC[section]}
        for name in TINY:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.main(
                    ["--workload", name, "--seed", str(SEED), "--seconds", "0.1",
                     "--trace", str(trace)],
                    workloads=TINY,
                )
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            check(rc == 0, f"{name} trace {trace}: exit {rc}")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace {trace}: outputs not correct: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace {trace}: metrics {got} != {want}")
            print(f"ok  {name:18} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} replays")


def corruption_is_caught() -> None:
    run.confine_to_checkout()
    spark, _ = run.start_session()
    try:
        w = TINY["counts_delay_long"]
        frame, wms = w.generate(SEED)
        result = w.replay(spark, frame, wms, instrument=lambda q: q)
        expected = w.expected(frame, wms)
        check(w.check(result, expected) is None, "clean replay fails the check")
        digest = W.changelog_digest(result)

        inserts = result.changelog.index[~result.changelog["undo"]]
        corrupted = [
            ("dropped insert", result.changelog.drop(index=inserts[-1])),
            ("changed count", result.changelog.assign(
                n_bids=result.changelog["n_bids"].where(
                    result.changelog.index != inserts[-1], 10**6))),
            ("duplicated insert", pd.concat(
                [result.changelog, result.changelog.loc[inserts[:1]]])),
        ]
        for what, changelog in corrupted:
            bad = dataclasses.replace(result, changelog=changelog.reset_index(drop=True))
            check(w.check(bad, expected) is not None, f"check accepts a {what}")
            check(W.changelog_digest(bad) != digest, f"digest misses a {what}")
            print(f"ok  corrupted changelog ({what}) fails the check")
    finally:
        run.stop_session(spark)


if __name__ == "__main__":
    corruption_is_caught()
    metrics_are_emitted()
    print("selftest passed")
    sys.exit(0)
