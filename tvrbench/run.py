"""TVR-engine benchmark: replay generated NEXMark bid logs through the
engine's public entry points and report end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 tvrbench/run.py --workload counts_delay_long --seed 1 --seconds 20 --trace 0

One process runs one closed loop: replays run back to back on one driver
thread against a ``local[N]`` Spark session, N = min(4, cores). Processing
time is scripted data, so ``rows_per_s`` is work per second at the stated
input size, not a sustainable arrival rate.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` interleaves
untraced and traced replays and reports the per-layer metrics
(``tvrbench/tracing.py``). Either way every replay's output is checked
outside the timed region, metrics are printed one per line with their
units, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Details, spans and the
per-layer table go to ``tvrbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import statistics
import sys
import tempfile
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT, HERE]

import pandas as pd  # noqa: E402
import pyarrow  # noqa: E402
import pyspark  # noqa: E402
import repro  # noqa: E402
from pyspark import SparkContext  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

CORES = min(4, os.cpu_count() or 1)
#: Discarded replays run this long first: with the default tiered JIT, a
#: fresh driver JVM needs two or three replays before C2 has compiled
#: Spark's hot paths and replay times level off.
WARMUP_S = 12
#: setup_s is the median of this many cold starts, each a new JVM.
SETUP_STARTS = 3
DRIVER_MEMORY = "2g"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
#: Unit of every metric, as ``BENCHMARK.json`` declares it.
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

TMP = os.path.join(OUT, "tmp")
JAVA_TMP_OPTS = f"-Djava.io.tmpdir={TMP} -XX:-UsePerfData"


def confine_to_checkout() -> None:
    """Point every temporary file of this process, the Spark launcher and
    the driver JVM at ``tvrbench/out/tmp``, and drop inherited submit flags."""
    os.makedirs(TMP, exist_ok=True)
    tempfile.tempdir = TMP
    os.environ["TMPDIR"] = TMP
    os.environ["SPARK_LAUNCHER_OPTS"] = JAVA_TMP_OPTS
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"


def session_conf() -> dict:
    """Every session setting the benchmark depends on, stated explicitly
    rather than inherited from the test fixture or the jobs' builder."""
    return {
        "spark.master": f"local[{CORES}]",
        "spark.app.name": "tvrbench",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.driver.host": "127.0.0.1",
        "spark.driver.extraJavaOptions": JAVA_TMP_OPTS,
        "spark.local.dir": os.path.join(OUT, "spark-local"),
        "spark.sql.warehouse.dir": os.path.join(OUT, "spark-warehouse"),
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.shuffle.partitions": str(CORES),
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.session.timeZone": "UTC",
    }


def start_session() -> tuple:
    """Launch a fresh JVM, build the session and run one trivial job through
    the engine's own path (a pandas frame in, a pandas frame out)."""
    t0 = time.perf_counter()
    builder = SparkSession.builder
    for k, v in session_conf().items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark.createDataFrame(pd.DataFrame({"x": [1]})).toPandas()
    return spark, time.perf_counter() - t0


def stop_session(spark: SparkSession) -> None:
    """Stop the session and its JVM, and wait for the JVM to exit, so the
    next start is cold and no process outlives the benchmark."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    proc.stdin.close()  # the gateway server exits when its stdin closes
    proc.wait(timeout=60)


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count from its current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb(pid="self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def machine_facts(spark: SparkSession) -> dict:
    jvm = spark.sparkContext._jvm
    return {
        "nproc": os.cpu_count(),
        "spark_master": spark.sparkContext.master,
        "driver_memory": spark.conf.get("spark.driver.memory"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "python": sys.version.split()[0],
        "spark": pyspark.__version__,
        "pandas": pd.__version__,
        "pyarrow": pyarrow.__version__,
        "java": jvm.java.lang.System.getProperty("java.version"),
    }


class StepClock:
    """Per-micro-batch latency: one timestamp per query call. Step *i* runs
    from the call for batch *i* to the call for batch *i+1*; the last step
    ends when the replay returns."""

    def __init__(self):
        self.calls = []

    def wrap(self, query):
        def timed_query(*args, **kwargs):
            self.calls.append(time.perf_counter())
            return query(*args, **kwargs)

        return timed_query

    def steps(self, end: float) -> list:
        return [b - a for a, b in zip(self.calls, self.calls[1:] + [end])]


class Runner:
    """Replays one workload and checks every output against the first
    replay's, which is itself checked against the table-semantics answer."""

    def __init__(self, spark, workload: W.Workload, seed: int):
        self.spark = spark
        self.w = workload
        self.frame, self.wms = workload.generate(seed)
        self.reference = None  # digest of the checked warm-up output
        self.reference_error = None
        self.attempted = 0
        self.failed = 0

    def replay(self, tracer=None) -> tuple:
        """One timed replay; returns ``(result, seconds, step latencies)``.
        Both heaps are collected first, so every replay starts from the
        same garbage-free state."""
        gc.collect()
        self.spark.sparkContext._jvm.System.gc()
        clock = StepClock()

        def instrument(query):
            return clock.wrap(tracer.wrap_query(query) if tracer else query)

        if tracer is None:
            t0 = time.perf_counter()
            result = self.w.replay(self.spark, self.frame, self.wms, instrument)
            t1 = time.perf_counter()
        else:
            with tracer.replay():
                t0 = time.perf_counter()
                result = self.w.replay(self.spark, self.frame, self.wms, instrument)
                t1 = time.perf_counter()
        return result, t1 - t0, clock.steps(t1)

    def warm_up(self, seconds: float) -> None:
        """Discarded replays for ``seconds`` while the JVM's JIT compiles the
        hot paths (the first replays in a fresh JVM run slow). The first
        one's output is checked and becomes the reference for every later
        replay."""
        t_end = time.perf_counter() + seconds
        result, _, _ = self.replay()
        self.reference_error = self.w.check(result, self.w.expected(self.frame, self.wms))
        self.reference = W.changelog_digest(result)
        while time.perf_counter() < t_end and self.attempt() is not None:
            pass

    def attempt(self, tracer=None):
        """A counted replay: ``(result, seconds, steps)``, or ``None`` if it
        raised or its changelog differs from the checked reference."""
        self.attempted += 1
        try:
            result, secs, steps = self.replay(tracer)
        except Exception as e:  # a failed replay is counted, not fatal
            print(f"replay failed: {type(e).__name__}: {e}", file=sys.stderr)
            self.failed += 1
            return None
        if self.reference_error is not None or W.changelog_digest(result) != self.reference:
            self.failed += 1
            return None
        return result, secs, steps


def p90(samples: list) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> tuple:
    times, steps = [], []
    reset_peak_rss()  # from here on the peak covers the timed replays only
    t_end = time.perf_counter() + seconds
    while True:  # stop before a replay of median length would overrun
        got = runner.attempt()
        if got is None:  # counted as failed; the result line says so
            break
        times.append(got[1])
        steps.extend(got[2])
        if time.perf_counter() + statistics.median(times) > t_end:
            break
    if not times:
        raise RuntimeError("no replay succeeded")
    replay_s = statistics.median(times)
    step_p90 = p90(steps)
    return {
        "setup_s": setup_s,
        "replay_s": replay_s,
        "rows_per_s": runner.w.n_bids / replay_s,
        "step_p50_s": statistics.median(steps),
        "step_p90_s": step_p90,
        "peak_rss_mb": peak_rss_mb(),
    }, {"replay_samples_s": times, "step_samples": len(steps),
        "steps_above_p90": sum(s > step_p90 for s in steps)}


def per_layer(runner: Runner, seconds: float, tag: str) -> tuple:
    """Untraced and traced replays in ABBA order, so the JIT's warming
    favours neither; per-layer metrics are medians over the traced ones,
    the overhead ratio compares the two medians."""
    tracer = tracing.Tracer(runner.spark)
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    for i in itertools.count():
        with_trace = i % 4 in (1, 2)
        got = runner.attempt(tracer if with_trace else None)
        if got is None:
            break
        if with_trace:
            result = got[0]
            traced.append(tracing.layer_metrics(
                tracer.run_spans(), runner.w.n_bids, result.stats, result.emitted_rows()))
        else:
            plain.append(got[1])
        if plain and traced and (
            time.perf_counter() + statistics.median(plain) > t_end
        ):
            break
    if not plain or not traced:
        raise RuntimeError("no replay succeeded")
    for m in traced:
        if m["trace.step_spans"] != m["engine.recomputes"]:
            print(f"warning: {m['trace.step_spans']} step spans for "
                  f"{m['engine.recomputes']} recomputes", file=sys.stderr)
    metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    metrics["trace.overhead_ratio"] = metrics.pop("trace.replay_s") / statistics.median(plain)
    metrics["spark.jvm_peak_rss_mb"] = peak_rss_mb(SparkContext._gateway.proc.pid)
    spans_path = os.path.join(OUT, f"{tag}.spans.csv")
    tracer.write(spans_path)
    with open(os.path.join(OUT, f"{tag}.layers.txt"), "w") as f:
        f.write(layer_table(metrics))
    return metrics, {"traced_replays": len(traced), "untraced_replays": len(plain),
                     "spans_file": os.path.relpath(spans_path, ROOT)}


def layer_table(m: dict) -> str:
    """Time per layer as a share of the traced replay (median replay)."""
    rows = [
        ("timeline (input log)", m["timeline.from_pandas_s"] + m["timeline.arrivals_pdf_s"]),
        ("snapshot (createDataFrame)", m["snapshot.create_s"]),
        ("spark plan (query callable)", m["spark.plan_s"]),
        ("spark collect (toPandas)", m["spark.collect_s"]),
        ("diff (keying, changelog)", m["diff.rows_by_key_s"] + m["diff.changelog_rows_s"]
         + m["diff.changelog_to_pdf_s"]),
        ("sqlext (front end)", m["sqlext.rewrite_s"]),
        ("engine bookkeeping (self)", m["engine.self_s"]),
    ]
    total = sum(s for _, s in rows)
    lines = [f"{'layer':32} {'seconds':>9} {'share':>7}"]
    lines += [f"{name:32} {s:9.4f} {s / total:7.1%}" for name, s in rows]
    return "\n".join(lines) + "\n"


def main(argv=None, workloads=W.WORKLOADS) -> int:
    """Run one workload; ``workloads`` lets the self-test pass tiny ones."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(repro.__path__[0]).startswith(src):
        raise SystemExit(f"repro was imported from {repro.__path__[0]}, not {src}")
    confine_to_checkout()
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"

    spark = None
    try:
        # setup_s is a median of cold starts; per-layer runs need only one.
        setups = []
        for _ in range(SETUP_STARTS - 1 if args.trace == 0 else 0):
            spark, secs = start_session()
            stop_session(spark)
            spark = None
            setups.append(secs)
        spark, secs = start_session()
        setups.append(secs)
        setup_s = IMPORT_S + statistics.median(setups)
        runner = Runner(spark, workloads[args.workload], args.seed)
        runner.warm_up(WARMUP_S)
        if args.trace == 0:
            metrics, detail = end_to_end(runner, args.seconds, setup_s)
        else:
            metrics, detail = per_layer(runner, args.seconds, tag)
        facts = machine_facts(spark)
    finally:
        if spark is not None:
            stop_session(spark)

    correct = runner.reference_error is None and runner.failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "input_rows": runner.w.n_bids,
        "changelog_digest": runner.reference,
        "check_error": runner.reference_error,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / max(1, runner.attempted),
        "machine": facts,
        "setup_samples_s": setups,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        **detail,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as f:
        json.dump(report, f, indent=2, default=str)

    for k, v in metrics.items():
        print(f"{k:28} {v:16.6f} {UNITS[k]}")
    print(f"{'error_rate':28} {report['error_rate']:16.6f} ratio")
    print(f"changelog_digest {runner.reference}  check: {runner.reference_error or 'ok'}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
