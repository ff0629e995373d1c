"""Runs one workload in this fresh process; prints one JSON line.

Started by ``run.py`` (one worker per run, single-threaded), never imported
by the package.  With ``--trace 0`` it runs a closed loop with one client for
``--seconds`` of timed operation time (at least ``MIN_OPS`` operations), then
the non-existence suite ``APPENDIX_CALLS`` times.  With ``--trace 1`` it runs
half the time untraced and half traced, and reports per-layer metrics.
Operations whose input carries a documented defect run as untimed probes,
outside the workload's counts (``Probes``).
Spans of traced runs are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from calibration import Gauge  # noqa: E402
from tracer import Tracer  # noqa: E402

# Ten operations must lie beyond the 95th percentile.
MIN_OPS = 200
# Wall-clock cap on the operation loop, checks included, so a run always
# ends well within the 180 s a run may take.
MAX_LOOP_SECONDS = 100.0
APPENDIX_CALLS = 2
# Timed seconds per untraced or traced block of a traced run.
TRACE_BLOCK_S = 0.5
# Workloads whose traced run includes the non-existence suite.
TRACED_APPENDIX = ("oracle_appendix",)
# Problems printed to stderr per run.
SHOWN_PROBLEMS = 5


class Tally:
    """Outcomes of the operations of one phase of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []  # CPU seconds until finalize(): reference seconds
        self.windows = []  # gauge samples taken during each operation
        self.raw_seconds = 0.0
        self.kind_log = []
        self.exact = 0
        self.residuals = 0
        self.kinds = Counter()
        self.loop_ops = 0
        self.reused = 0
        self.seen = set()
        self.problems = []

    def record(self, op, seconds, window, output, error) -> None:
        self.attempted += 1
        self.kinds[op.kind] += 1
        self.kind_log.append(op.kind)
        self.latencies.append(seconds)
        self.windows.append(window)
        self.raw_seconds += seconds
        keys = op.loops
        if keys:
            self.loop_ops += 1
            if (op.multi_tau or len(set(keys)) < len(keys)
                    or self.seen.intersection(keys)):
                self.reused += 1
            self.seen.update(keys)
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                problems = op.check(op, output)
            except Exception as exc:  # a malformed output fails its op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.exact += sum(1 for v in op.residuals if wl.ref.is_exact(v))
            self.residuals += len(op.residuals)
        if not problems:
            return
        self.failed += 1
        self.problems.append(f"{op.kind}: {'; '.join(problems)}")

    def finalize(self, gauge: Gauge) -> None:
        """Turn CPU seconds into reference seconds, once the gauge stopped."""
        self.latencies = [s * gauge.factor(*w)
                          for s, w in zip(self.latencies, self.windows)]

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.latencies)


class Probes:
    """Operations whose input carries a documented defect of the package
    (``Op.known_defect``).  They run untimed and are not counted as
    attempted or failed: the workloads hold only operations that can pass.
    Each probe is checked like an operation; ``failed`` counts the probes on
    which the defect still shows, so it falls to 0 when the package is
    fixed."""

    def __init__(self):
        self.run = Counter()
        self.failed = Counter()

    def probe(self, op) -> None:
        try:
            shows = bool(op.check(op, op.call()))
        except Exception:  # the defect may also raise
            shows = True
        self.run[op.known_defect] += 1
        self.failed[op.known_defect] += shows

    def record(self) -> dict:
        return {name: {"run": n, "failed": self.failed[name]}
                for name, n in sorted(self.run.items())}


def timed_call(op, gauge: Gauge):
    """(seconds, gauge sample window, output, error) of one operation; an
    exception is its output's failure, reported by the check.

    Seconds are CPU time of this (only) thread without the gauge's kernel
    runs: the operations are CPU-bound, and unlike wall time CPU time
    excludes the time a shared virtual machine's host runs other guests on
    this CPU (steal time).
    """
    first = len(gauge.samples)
    t0 = gauge.work_ns()
    try:
        output, error = op.call(), None
    except Exception as exc:
        output, error = None, exc
    seconds = (gauge.work_ns() - t0) / 1e9
    return seconds, (first, len(gauge.samples)), output, error


def run_ops(stream, tally: Tally, probes: Probes, gauge: Gauge, seconds: float,
            min_ops: int, tracer: Tracer = None) -> None:
    """Closed loop with one client: the next operation starts when the
    previous one has returned and been checked (checks are not timed).
    Runs until ``seconds`` of operation time, ``min_ops`` operations and the
    end of a round of the stream.  Known-defect inputs go to ``probes``."""
    timed = 0.0
    start = time.perf_counter()
    op = None
    while op is None or not (op.ends_round and timed >= seconds
                             and tally.attempted >= min_ops):
        op = next(stream)
        if op.known_defect is not None:
            probes.probe(op)
            continue
        if tracer is not None:
            tracer.begin_op(tally.attempted)
        outcome = timed_call(op, gauge)
        if tracer is not None:
            tracer.end_op()
        timed += outcome[0]
        tally.record(op, *outcome)
        if time.perf_counter() - start > MAX_LOOP_SECONDS:
            break


def run_prelude(name, workdir, tally: Tally, gauge: Gauge) -> None:
    """The workload's checked operations that run once, outside the loop."""
    for op in wl.PRELUDES.get(name, lambda _: ())(workdir):
        tally.record(op, *timed_call(op, gauge))


def run_appendix(tally: Tally, gauge: Gauge, tracer: Tracer = None) -> None:
    """One whole non-existence suite call, timed like an operation."""
    op = wl.appendix_op()
    if tracer is not None:
        tracer.begin_op(-1)
    outcome = timed_call(op, gauge)
    if tracer is not None:
        tracer.end_op()
    tally.record(op, *outcome)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(name, seed, seconds, workdir) -> dict:
    tally, prelude, appendix, probes = Tally(), Tally(), Tally(), Probes()
    with Gauge() as gauge:
        run_prelude(name, workdir, prelude, gauge)
        run_ops(wl.WORKLOADS[name](seed, workdir), tally, probes, gauge,
                seconds, MIN_OPS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for _ in range(APPENDIX_CALLS):
            run_appendix(appendix, gauge)
    tally.finalize(gauge)
    appendix.finalize(gauge)
    lat_ms = [s * 1000 for s in tally.latencies]
    attempted = tally.attempted + prelude.attempted + appendix.attempted
    failed = tally.failed + prelude.failed + appendix.failed
    p95 = percentile(lat_ms, 0.95)
    metrics = {
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p95_ms": (p95, "ms"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
        "exact_share": (tally.exact / tally.residuals, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "appendix_s": (statistics.median(appendix.latencies), "s"),
    }
    record = {
        "ops": tally.attempted,
        "timed_reference_s": sum(tally.latencies),
        "timed_cpu_s": tally.raw_seconds,
        "ops_beyond_p95": sum(1 for x in lat_ms if x > p95),
        "fail_ratio": failed / attempted,
        "known_defect_probes": probes.record(),
        "appendix_runs_s": appendix.latencies,
    }
    return _result(metrics, record, [tally, prelude, appendix])


def traced(name, seed, seconds, workdir) -> dict:
    """Alternate untraced and traced blocks of the same operation stream, so
    that drift and warm-up fall on both sides of the overhead ratio."""
    stream = wl.WORKLOADS[name](seed, workdir)
    untraced, tally, prelude, appendix = Tally(), Tally(), Tally(), Tally()
    probes = Probes()
    start = time.perf_counter()
    with Gauge() as gauge:
        run_prelude(name, workdir, prelude, gauge)
        tracer = Tracer(clock=gauge.work_ns)
        while (min(untraced.raw_seconds, tally.raw_seconds) < seconds / 2
               and time.perf_counter() - start < MAX_LOOP_SECONDS):
            run_ops(stream, untraced, probes, gauge, TRACE_BLOCK_S, 1)
            tracer.install()
            try:
                run_ops(stream, tally, probes, gauge, TRACE_BLOCK_S, 1, tracer)
            finally:
                tracer.uninstall()
        if name in TRACED_APPENDIX:
            tracer.install()
            try:
                run_appendix(appendix, gauge, tracer)
            finally:
                tracer.uninstall()
    for t in (untraced, tally, prelude, appendix):
        t.finalize(gauge)
    metrics = tracer.layer_metrics(tally.attempted)
    metrics["trace.overhead_ratio"] = (overhead_ratio(untraced, tally), "ratio")
    metrics["known_defects.failed"] = (
        sum(probes.failed.values()) / (untraced.attempted + tally.attempted),
        "count/op")
    spans = OUT / f"spans-{name}-seed{seed}.csv.gz"
    tracer.write_spans(spans)
    record = {"untraced_ops": untraced.attempted, "traced_ops": tally.attempted,
              "spans": len(tracer.spans), "spans_file": str(spans.relative_to(ROOT)),
              "known_defect_probes": probes.record()}
    return _result(metrics, record, [untraced, tally, prelude, appendix])


def overhead_ratio(untraced: Tally, traced: Tally) -> float:
    """Traced over untraced throughput on the traced run's mix of operation
    kinds: the untraced mean latency of each kind, weighted by how often the
    kind ran traced, over the traced time."""
    means = {}
    for kind in untraced.kinds:
        times = [s for s, k in zip(untraced.latencies, untraced.kind_log) if k == kind]
        means[kind] = sum(times) / len(times)
    expected = traced_time = 0.0
    for seconds, kind in zip(traced.latencies, traced.kind_log):
        if kind in means:
            expected += means[kind]
            traced_time += seconds
    return expected / traced_time


def _result(metrics, record, tallies) -> dict:
    kinds = Counter()
    for t in tallies:
        kinds.update(t.kinds)
    record.update(
        op_counts=dict(sorted(kinds.items())),
        loop_reuse_share=(sum(t.reused for t in tallies)
                          / sum(t.loop_ops for t in tallies)),
    )
    problems = [p for t in tallies for p in t.problems]
    return {
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
        "problems": problems[:SHOWN_PROBLEMS],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    import bibennett

    if Path(bibennett.__file__).resolve().parents[1] != ROOT / "src":
        print(f"bibennett imported from {bibennett.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else end_to_end
        result = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
