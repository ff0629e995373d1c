"""bibennett benchmark: one seeded workload, one run, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload exact_certify --seed 1 --seconds 10 --trace 0

Workloads: exact_certify, float_certify, limits_sweep, oracle_appendix (see
bench/NOTES.md).  Set-up time is measured over fresh interpreters importing
the package from ``src/``; the workload itself runs in one fresh
single-threaded worker process (``worker.py``).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are a readable summary and the run record.  ``correct`` is false when any
operation failed.  Inputs that carry a documented defect of the package are
not workload operations: they run as untimed probes, reported in the summary
and the run record (bench/NOTES.md).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "bibennett"

WORKLOADS = ("exact_certify", "float_certify", "limits_sweep", "oracle_appendix")
# Fresh interpreters for set-up time, before and after the worker (after
# one that writes bytecode, which users pay once).
SETUP_RUNS = 4
# A run must end within 180 s.
RUN_DEADLINE_S = 170.0

# CPU time of the fresh interpreter (start-up included) when the import
# returns, scaled to reference seconds by calibration kernel runs taken
# during the import (see calibration.py): CPU time, not wall time, so that
# steal time on a shared virtual machine does not count.
SETUP_PROBE = f"""import sys
sys.path.append({str(BENCH)!r})
from calibration import Gauge, integer_kernel
sys.path.pop()
with Gauge(integer_kernel) as gauge:
    import bibennett
    cpu = gauge.work_ns() / 1e9
print(cpu * gauge.factor(0, len(gauge.samples)), int('numpy' in sys.modules))
"""


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(runs: int, warm_up: bool = False):
    """Reference seconds from starting a fresh interpreter to ``import
    bibennett`` returning, per run, and whether numpy was loaded."""
    times, numpy_loaded = [], []
    for i in range(runs + warm_up):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                             env=worker_env(), capture_output=True, text=True,
                             timeout=60, check=True).stdout.split()
        if i or not warm_up:
            times.append(float(out[0]))
            numpy_loaded.append(int(out[1]))
    return times, numpy_loaded


def run_worker(args, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity() -> dict:
    """The git commit when there is one, and a digest of the package source
    (the benchmark often runs from an export without git metadata)."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(PACKAGE)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def compose(args, setup_times, numpy_loaded, result):
    """The run record and the result line from the set-up probes and the
    worker's result."""
    metrics = result["metrics"]
    if args.trace:
        metrics["setup.numpy_imported"] = {"value": numpy_loaded[0], "unit": "flag"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                   **metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        **source_identity(), "setup_runs_s": setup_times, **result["record"],
    }
    final = {"correct": result["failed"] == 0,
             "attempted": result["attempted"], "failed": result["failed"],
             "metrics": metrics}
    return record, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source at {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        setup_times, numpy_loaded = measure_setup(
            1 if args.trace else SETUP_RUNS, warm_up=True)
        result = run_worker(args, deadline)
        if not args.trace:
            setup_times += measure_setup(SETUP_RUNS)[0]
    except (subprocess.SubprocessError, RuntimeError, ValueError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    record, final = compose(args, setup_times, numpy_loaded, result)
    for problem in result["problems"]:
        print(f"failure: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{final['attempted']} attempted, {final['failed']} failed")
    for defect, probe in record["known_defect_probes"].items():
        print(f"  known defect {defect}: shows on {probe['failed']} of "
              f"{probe['run']} probe inputs")
    if not args.trace:
        print(f"  {'fail_ratio':24s} {record['fail_ratio']:.6g} ratio")
    for name, m in final["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
