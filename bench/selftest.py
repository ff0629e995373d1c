"""Self-test of the benchmark harness (about half a minute).

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that a deliberately wrong expectation is counted as a
failure, that the tracer rebinds every module attribute of a traced function
and restores it, that the documented defects are recognised and run as
probes outside the workload, and that the benchmark refuses to run without
the package source.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import worker  # puts src/ on sys.path
import run
import workloads as wl
from tracer import Tracer

import bibennett

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(condition, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def tiny(name: str, trace: int, workdir: Path):
    """A small run of one workload through the worker and run.py code:
    (the worker's result, the result line)."""
    runner = worker.traced if trace else worker.end_to_end
    result = runner(name, 7, 0.3, workdir)
    args = argparse.Namespace(workload=name, seed=7, seconds=0.3, trace=trace)
    return result, run.compose(args, [0.2, 0.3, 0.25], [1], result)[1]


def check_metrics(workdir: Path) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in run.WORKLOADS:
            _, final = tiny(name, trace, workdir)
            got = {k: m["unit"] for k, m in final["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: metrics differ: "
                   f"missing {sorted(set(want) - set(got))}, "
                   f"extra {sorted(set(got) - set(want))}, "
                   f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
            expect(final["correct"] and final["attempted"] >= 1,
                   f"{name} trace={trace}: {final}")
    print("ok: every metric with its unit on every workload, both modes")


def sabotaged(name: str, change):
    """The workload's stream with ``change`` applied to its first operation."""
    def stream(seed, workdir):
        ops = wl.WORKLOADS[name](seed, workdir)
        op = next(ops)
        change(op)
        yield op
        yield from ops
    return stream


def check_wrong_expectation(workdir: Path) -> None:
    cases = (("exact_certify", lambda op: op.expected.update(verdict=False)),
             ("limits_sweep", lambda op: op.expected.update(exit=1)))
    for name, change in cases:
        wl.WORKLOADS["sabotaged"] = sabotaged(name, change)
        try:
            result, final = tiny("sabotaged", 0, workdir)
        finally:
            del wl.WORKLOADS["sabotaged"]
        ok_ratio = final["metrics"]["ok_ratio"]["value"]
        expect(final["failed"] == 1 and not final["correct"],
               f"{name}: a wrong expectation was not caught: {result['problems']}")
        expect(ok_ratio == 1 - final["failed"] / final["attempted"] < 1,
               f"{name}: the failure is not counted in ok_ratio")
    print("ok: a wrong expected output is counted as a failure")


def check_tracer() -> None:
    original = bibennett.bennett.frame
    tracer = Tracer()
    tracer.install()
    try:
        bound = [bibennett.frame, bibennett.bennett.frame, bibennett.families.frame,
                 bibennett.appendix.frame]
        expect(all(f is bound[0] and f is not original for f in bound),
               "frame is not rebound at every module attribute")
        tracer.begin_op(0)
        design = bibennett.validate(F(1, 2), F(1, 3), F(1))
        bibennett.families.Loop(design, bibennett.MuSet(1, 2, 1, 2)).quad(F(3, 4))
        tracer.end_op()
    finally:
        tracer.uninstall()
    expect(bibennett.families.frame is original and bibennett.frame is original,
           "uninstall did not restore frame")
    metrics = tracer.layer_metrics(1)
    expect(metrics["bennett.frame.calls"][0] == 1, "frame call not traced")
    expect(metrics["algebra.mat_mul.calls"][0] == 4, "mat_mul calls not traced")
    print("ok: tracer rebinds and restores every binding")


def check_defect_signatures() -> None:
    """The reproducers of bench/NOTES.md fail, and are recognised."""
    cases = {"spherical_planar_quad": (F(1), F(9), F(0), F(5, 8), F(2, 3), 1, 1, F(16, 7)),
             "near_equal_diagonals": (F(2), F(7, 3), F(4, 9), F(-1, 7), F(-8, 11), -1, -1,
                                      F(36, 7))}
    for name, (a1, a2, k, mu14, mu12, s, branch, tau) in cases.items():
        bib = bibennett.family_c(bibennett.validate(a1, a2, k), mu14, mu12, s, branch)
        expect(not bibennett.halfturn_certificate(bib, tau).verdict,
               f"{name} no longer reproduces: update bench/NOTES.md")
        spec = {"family": "C", "a1": a1, "a2": a2, "k": k, "mu": (mu14, mu12) * 2,
                "tau": tau}
        expect(wl.known_defect(spec) == name, f"{name} is not recognised")
    print("ok: documented defects reproduce and are recognised")


def check_defect_probes(workdir: Path) -> None:
    """The spherical family-C inputs of the certify streams run as probes:
    the defect shows there, and no workload operation fails."""
    for name in ("exact_certify", "float_certify"):
        result, final = tiny(name, 0, workdir)
        probe = result["record"]["known_defect_probes"].get("spherical_planar_quad")
        expect(probe is not None and probe["failed"] >= 1,
               f"{name}: no spherical_planar_quad probe failed: {probe}")
        expect(final["correct"] and final["failed"] == 0,
               f"{name}: {final['failed']} operations failed")
    print("ok: known-defect inputs run as probes, outside the workload")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=worker.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "exact_certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"ran without the package source: {proc.returncode} {proc.stdout!r}")
    print("ok: refuses to run without the package source")


def main() -> int:
    worker.MIN_OPS = 5
    worker.APPENDIX_CALLS = 1
    worker.TRACE_BLOCK_S = 0.1
    worker.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=worker.OUT))
    try:
        check_tracer()
        check_defect_signatures()
        check_refuses_without_source()
        check_wrong_expectation(workdir)
        check_defect_probes(workdir)
        check_metrics(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
