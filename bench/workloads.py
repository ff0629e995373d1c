"""The benchmark's seeded workloads.

Each workload is an endless stream of operations drawn from a
``random.Random(seed)``; the package only ever sees the generated inputs.  An
:class:`Op` carries the timed call, the check of its output (run outside the
timed region, against :mod:`reference`) and, where its input carries one,
the name of a documented defect of the package.  The worker runs such an
operation as an untimed probe outside the workload (see ``Op``).

Package functions are looked up as module attributes when an operation runs,
so that the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import reference as ref

import bibennett.appendix as appendix
import bibennett.bennett as bennett
import bibennett.cli as cli
import bibennett.families as families
import bibennett.io_export as io_export
import bibennett.properties as properties

# Drive values, as in the acceptance suite.
TAU_POOL = tuple(F(n, 7) for n in range(1, 45)) + tuple(
    F(-n, 5) for n in range(1, 20))

# Absolute tolerance for float residuals the package reports.
RESIDUAL_TOL = 1e-9

# Diagonal-length gap below which the half-turn certificate's negative check
# (an absolute 1e-6 distance) cannot tell the two diagonals apart.
NEAR_EQUAL_DIAGONALS = 1e-5

FIXTURE_DIGESTS = Path(__file__).with_name("fixture_digests.json")


@dataclass
class Op:
    """One operation of a closed loop.

    ``call`` is timed and returns the output that ``check`` reads.  ``check``
    compares it with ``expected``, returns the list of problems (empty when
    the output is right) and stores the residual values the package returned
    in ``residuals``.  ``known_defect`` names a documented defect the input
    carries (bench/NOTES.md), judged from the reference geometry before the
    operation runs; such an operation is not part of the workload, so that
    every workload operation can pass: the worker runs it untimed and
    reports whether the defect still shows.
    ``loops`` names every loop the operation poses, once per use.  A run
    stops only after an operation that ``ends_round`` of the stream's fixed
    pattern, so that every run covers whole rounds.
    """

    kind: str
    loops: tuple
    call: Callable[[], object]
    check: Callable[["Op", object], list]
    expected: dict
    multi_tau: bool = False
    known_defect: str = None
    ends_round: bool = True
    residuals: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# random draws, as the acceptance suite's _rand_* helpers
# ---------------------------------------------------------------------------

class Draw:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def fraction(self, signed: bool = False):
        value = F(self.rng.randint(1, 12), self.rng.randint(1, 12))
        if signed and self.rng.random() < 0.5:
            value = -value
        return value

    def sign(self):
        return self.rng.choice((1, -1))

    def pair(self):
        """Two distinct positive rationals (a1 != a2, d1 != d2, mu14 != mu12)."""
        while True:
            a, b = self.fraction(), self.fraction()
            if a != b:
                return a, b

    def family_a_mu(self):
        while True:
            mu = tuple(self.fraction(signed=True) for _ in range(4))
            if ref.family_a_squares(mu) is not None:
                return mu

    def taus(self, count, relation=None):
        """``count`` distinct pool drive values, each with a real companion
        parameter when a family-C ``relation`` is given; None when too few
        exist."""
        rough = relation and tuple(float(c) for c in relation)
        chosen = []
        for tau in self.rng.sample(TAU_POOL, len(TAU_POOL)):
            # a float pre-test skips most exact evaluations
            if relation is None or (
                    (ref.bar_tau_sq(rough, float(tau)) or 0) > -1e-9
                    and (ref.bar_tau_sq(relation, tau) or 0) > 0):
                chosen.append(tau)
                if len(chosen) == count:
                    return chosen
        return None


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _parse_scalar(text: str):
    """A scalar as the package prints it: "p/q" and integers are exact."""
    return F(text) if "/" in text or text.lstrip("-").isdigit() else float(text)


def _check_tau_bar(tau_bar, tau, spec):
    """A companion parameter against the reference relation (family C) or
    the identity tau_bar = tau (line-symmetric families)."""
    if spec["relation"] is None:
        return [] if ref.close(tau_bar, tau) else [f"tau_bar {tau_bar} != tau {tau}"]
    expected = ref.bar_tau_sq(spec["relation"], F(tau))
    problems = []
    if not ref.close(tau_bar * tau_bar, expected):
        problems.append(f"tau_bar^2 = {float(tau_bar) ** 2} but the "
                        f"coupling relation gives {float(expected)}")
    if (tau_bar > 0) != (spec["branch"] > 0):
        problems.append(f"tau_bar {tau_bar} is off branch {spec['branch']}")
    return problems


def _check_closure(value, label):
    if ref.is_exact(value):
        return [] if value == 0 else [f"exact {label} residual {value} != 0"]
    return [] if abs(value) <= RESIDUAL_TOL else [f"{label} residual {value}"]


def _anchors(axes, mu):
    """Quad vertices point + mu * direction, axes given by label."""
    return [tuple(p + m * d for p, d in zip(*axes[label]))
            for label, m in zip(ref.LABELS, mu)]


def _check_quads(quad, partner, companion, spec):
    """Shared-quad sides against the tau-free reference sides, and the
    six-distance congruence (criterion 4) of the moved partner quad and,
    when given, the companion quad."""
    problems = []
    six = ref.six_dist_sq(quad)
    sides = ref.side_sq(spec["links"], spec["mu"])
    if not all(ref.close(s, e) for s, e in zip(six[:4], sides)):
        problems.append("shared-quad sides differ from the tau-free sides")
    for name, points in (("moved partner", partner), ("companion", companion)):
        if points is not None and not all(
                ref.close(a, b) for a, b in zip(ref.six_dist_sq(points), six)):
            problems.append(f"{name} quad is not congruent to the shared quad")
    return problems


# ---------------------------------------------------------------------------
# exact_certify / float_certify
# ---------------------------------------------------------------------------

CERTIFICATES = {"A": "isogonal_certificate", "B": "deltoidal_certificate",
                "C": "halfturn_certificate"}


def coupling_specs(seed: int):
    """Fresh family A, B, C couplings in turn, each with one drive value;
    every tenth design sits at the spherical limit k = 0.  No loop repeats.

    A spec holds the constructor's exact arguments, the full quad offsets
    ``mu``, the reference ``links`` and, for family C, the companion
    ``relation`` (else None).
    """
    draw = Draw(seed)
    seen = set()
    index = 0
    while True:
        family = "ABC"[index % 3]
        k = F(0) if index % 10 == 0 else draw.fraction()
        spec = {"family": family, "k": k, "relation": None}
        if family == "A":
            mu = draw.family_a_mu()
            spec.update(mu=mu, links=[
                ref.bennett_link(a_sq, k) for a_sq in ref.family_a_squares(mu)])
        else:
            a1, a2 = draw.pair()
            spec.update(a1=a1, a2=a2, links=[ref.bennett_link(a1 * a1, k),
                                             ref.bennett_link(a2 * a2, k)])
            if family == "B":
                m23, m34 = draw.fraction(True), draw.fraction(True)
                spec.update(args=(m23, m34), mu=(m23, m34) * 2)
            else:
                m14, m12 = draw.pair()
                s, branch = draw.sign(), draw.sign()
                spec.update(args=(s * m14, s * m12), s=s, branch=branch,
                            mu=(s * m14, s * m12) * 2,
                            relation=ref.relation_bennett(a1, a2, k, m14, m12))
        taus = draw.taus(1, spec["relation"])
        key = (family, spec.get("a1"), spec.get("a2"), k, spec["mu"])
        if taus is None or key in seen:
            continue
        seen.add(key)
        spec.update(tau=taus[0], key=key)
        index += 1
        yield spec


def _build_coupling(spec, exact: bool):
    v = (lambda x: x) if exact else float
    k = v(spec["k"])
    if spec["family"] == "A":
        return families.make_family_a(
            families.MuSet(*(v(m) for m in spec["mu"])), k=k)
    design = bennett.validate(v(spec["a1"]), v(spec["a2"]), k)
    args = [v(m) for m in spec["args"]]
    if spec["family"] == "B":
        return families.make_family_b(*args, design)
    return families.family_c(design, *args, spec["s"], spec["branch"])


def certify_op(spec, exact: bool) -> Op:
    tau = spec["tau"] if exact else float(spec["tau"])
    certificate = CERTIFICATES[spec["family"]]

    def call():
        bib = _build_coupling(spec, exact)
        return bib, getattr(properties, certificate)(bib, tau)

    loops = (spec["key"],)
    if spec["family"] == "C":
        loops += (spec["key"] + ("bar",),)
    return Op(kind=f"certify-{spec['family']}", loops=loops, call=call,
              check=_check_certify,
              expected={"verdict": True, "spec": spec, "tau": tau},
              known_defect=known_defect(spec))


def known_defect(spec):
    """Name of the documented half-turn certificate defect (bench/NOTES.md)
    that a family-C input carries, from the exact reference quad, or None."""
    if spec["family"] != "C":
        return None
    points = ref.quad(spec["a1"], spec["a2"], spec["k"], spec["mu"], spec["tau"])
    if spec["k"] == 0 and ref.is_planar(points):
        return "spherical_planar_quad"
    if ref.diagonal_gap(points) < NEAR_EQUAL_DIAGONALS:
        return "near_equal_diagonals"
    return None


def _check_certify(op: Op, output) -> list:
    bib, report = output
    spec, tau = op.expected["spec"], op.expected["tau"]
    op.residuals = [entry.value for entry in report.residuals]
    problems = []
    if report.verdict != op.expected["verdict"]:
        problems.append(f"certificate verdict {report.verdict}: "
                        + ", ".join(e.label for e in report.failed()))
    cp = families.coupled_pose(bib, tau)
    hat_axes = {l: (a.point, a.direction) for l, a in cp.hat_axes.items()}
    problems += _check_quads(
        list(cp.quad.vertices()), _anchors(hat_axes, bib.bar_mu.as_tuple()),
        list(cp.bar_quad.vertices()), spec)
    problems += _check_closure(bennett.loop_closure_residual(bib.design, tau),
                               "closure")
    if spec["family"] == "C":
        problems += _check_tau_bar(cp.tau_bar, tau, spec)
        problems += _check_closure(
            bennett.loop_closure_residual(bib.bar_design, cp.tau_bar),
            "bar closure")
    return problems


def exact_certify(seed: int, workdir: Path):
    for spec in coupling_specs(seed):
        yield certify_op(spec, exact=True)


def float_certify(seed: int, workdir: Path):
    for spec in coupling_specs(seed):
        yield certify_op(spec, exact=False)


# ---------------------------------------------------------------------------
# limits_sweep: bibennett subcommands on generated config files
# ---------------------------------------------------------------------------

# (family, prismatic case) in the fixed order configs are generated.
CONFIG_KINDS = (
    ("single", None), ("planar", None), ("A", None), ("B", None), ("C", None),
    ("trivial", None), ("A-prismatic", "anti"), ("A-prismatic", "para"),
    ("B-prismatic", "anti"), ("C-prismatic", "anti"), ("C-prismatic", "para"),
    ("A-pyramidal", None), ("B-pyramidal", None), ("C-pyramidal", None),
)

# The trivial pattern maps a tube onto itself: no genuine coupling, so no
# certificate verdict is claimed for it and it gets no certify or sweep.
SUBCOMMANDS = {
    "single": ("validate", "construct", "export"),
    "planar": ("validate", "construct", "export"),
    "trivial": ("validate", "construct", "export"),
    "A": ("validate", "construct", "sweep", "certify", "export"),
    "B": ("validate", "construct", "sweep", "certify", "export"),
    "C": ("validate", "construct", "sweep", "certify", "export"),
}
LIMIT_SUBCOMMANDS = ("validate", "construct", "sweep", "limits", "export")

# Report names of the family certificates, as `certify` and `sweep` print them.
CERTIFICATE_NAMES = {"A": "isogonal", "B": "deltoidal", "C": "halfturn"}
SWEEP_RESIDUALS = ("closure_residual", "bar_closure_residual", "side_residual")


def config_spec(draw: Draw, family: str, case):
    """Config values and what the checks need (see :func:`coupling_specs`),
    or None when the draw is unusable (trivial pattern, too few taus)."""
    base, _, limit = family.partition("-")
    k = F(0) if limit == "pyramidal" else draw.fraction()
    values = {}
    spec = {"family": family, "relation": None, "bar_mu": None}
    mu = (0, 0, 0, 0)
    if limit == "prismatic" or family == "planar":
        d1, d2 = draw.pair()
        if family == "planar":
            case = ("1a", "1b", "2a", "2b")[draw.rng.randrange(4)]
        twists = (ref.PRISMATIC_TWISTS if limit else ref.PLANAR_TWISTS)[case]
        values.update(case=case, d1=d1, d2=d2)
        links = [ref.planar_link(twists[0], d1), ref.planar_link(twists[1], d2)]
    elif base == "A":
        mu = draw.family_a_mu()
        links = [ref.bennett_link(a_sq, k) for a_sq in ref.family_a_squares(mu)]
    else:
        a1, a2 = draw.pair()
        values.update(a1=a1, a2=a2)
        links = [ref.bennett_link(a1 * a1, k), ref.bennett_link(a2 * a2, k)]
    if family in ("single", "A", "B", "C", "trivial"):
        values["k"] = k
    if family == "A-prismatic":
        m12, m23, m34 = (draw.fraction(True) for _ in range(3))
        sign = 1 if case == "anti" else -1
        mu = (m12 - sign * (m23 - m34), m12, m23, m34)
        if mu[0] == -mu[2] and mu[1] == -mu[3]:
            return None
        values.update(mu12=m12, mu23=m23, mu34=m34)
    elif base == "A":
        values.update(mu14=mu[0], mu12=mu[1], mu23=mu[2], mu34=mu[3])
    elif base in ("B", "trivial"):
        m23, m34 = draw.fraction(True), draw.fraction(True)
        values.update(mu23=m23, mu34=m34)
        mu = (m23, m34) * 2 if base == "B" else (-m23, -m34, m23, m34)
    if base in ("A", "B", "trivial"):
        spec["bar_mu"] = mu  # the partner is the half-turn image
    elif base == "C":
        m14, m12 = draw.pair()
        s, branch = draw.sign(), draw.sign()
        values.update(mu14=m14, mu12=m12, s=s, branch=branch)
        mu = (m14, m12) * 2
        spec.update(bar_mu=(s * m12, s * m14) * 2, branch=branch)
        spec["relation"] = (
            ref.relation_prismatic(case, d1, d2, m14, m12) if limit == "prismatic"
            else ref.relation_bennett(a1, a2, k, m14, m12))
    taus = draw.taus(3, spec["relation"])
    if taus is None:
        return None
    values["tau"] = taus[0]
    if base not in ("single", "planar"):
        values["tau_samples"] = tuple(sorted(taus))
    spec.update(values=values, links=links, mu=mu)
    return spec


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind, argv, loops, expected, multi_tau=False) -> Op:
    """A subcommand expected to exit 0; ``expected["check"]`` reads its
    standard output."""
    return Op(kind=kind, loops=loops, call=lambda: _run_cli(argv),
              check=_check_cli, expected=dict(expected, exit=0),
              multi_tau=multi_tau)


def _check_cli(op: Op, output) -> list:
    code, stdout, stderr = output
    if code != op.expected["exit"]:
        return [f"exit code {code}, expected {op.expected['exit']}: "
                f"{stderr.strip()[-200:]}"]
    return op.expected["check"](op, stdout)


def _check_validate(op, stdout):
    line = stdout.splitlines()[0]
    want = f"config ok: family {op.expected['spec']['family']}, mode exact"
    return [] if line == want else [f"validate printed {line!r}"]


def _check_construct(op, stdout):
    spec = op.expected["spec"]
    out = json.loads(Path(op.expected["out"]).read_text(encoding="utf-8"))
    if spec["bar_mu"] is None:
        return _check_closure(_parse_scalar(out["closure_residual"]), "closure")

    def axes(key):
        return {(int(name[0]), int(name[1])): (a["point"], a["direction"])
                for name, a in out[key].items()}

    problems = _check_quads(_anchors(axes("axes"), spec["mu"]),
                            _anchors(axes("hat_axes"), spec["bar_mu"]),
                            None, spec)
    return problems + _check_tau_bar(_parse_scalar(out["tau_bar"]),
                                     spec["values"]["tau"], spec)


def _sweep_rows(op, stdout):
    """Rows of a sweep CSV; keeps the residual columns of "ok" rows."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    for row in rows:
        if row["status"] == "ok":
            row["residuals"] = [_parse_scalar(row[key]) for key in SWEEP_RESIDUALS]
            op.residuals += row["residuals"]
    return rows


def _check_sweep(op, stdout):
    spec = op.expected["spec"]
    rows = _sweep_rows(op, stdout)
    samples = spec["values"]["tau_samples"]
    if [F(row["tau"]) for row in rows] != list(samples):
        return [f"sweep rows {[row['tau'] for row in rows]} != samples"]
    problems = []
    for row in rows:
        tau = F(row["tau"])
        if row["status"] != "ok" or row["verdict"] != "pass":
            problems.append(f"row tau={tau}: {row['status']} {row['verdict']}")
            continue
        if row["certificate"] != op.expected["certificate"]:
            problems.append(f"row tau={tau}: certificate {row['certificate']}")
        for label, value in zip(("closure", "bar closure", "side"),
                                row["residuals"]):
            problems += _check_closure(value, f"tau={tau} {label}")
        problems += _check_tau_bar(_parse_scalar(row["tau_bar"]), tau, spec)
    return problems


def _check_report_line(op, stdout):
    """The certificate report's head line "<name>: PASS"; `limits` prints
    the limit kind on the line before it."""
    lines = stdout.splitlines()
    index = 1 if op.kind.startswith("limits") else 0
    line = lines[index] if len(lines) > index else ""
    name, _, verdict = line.partition(": ")
    if verdict != "PASS" or not name.startswith(op.expected["certificate"]):
        return [f"report line {line!r}"]
    return []


def _check_export(op, stdout):
    text = Path(op.expected["out"]).read_text(encoding="utf-8")
    counts = {"g": 0, "v": 0, "f": 0}
    for line in text.splitlines():
        tag, *fields = line.split()
        counts[tag] += 1
        if tag == "v" and not all(math.isfinite(float(x)) for x in fields):
            return [f"non-finite vertex {line!r}"]
    patches = 8 if op.expected["spec"]["bar_mu"] is not None else 4
    want = {"g": patches, "v": patches * 25, "f": patches * 16}
    return [] if counts == want else [f"OBJ counts {counts}, expected {want}"]


def _check_digest(op, stdout):
    if "out" in op.expected:
        data = Path(op.expected["out"]).read_bytes()
    else:
        _sweep_rows(op, stdout)
        data = stdout.encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    return [] if digest == op.expected["sha256"] else [
        f"digest {digest} differs from the pinned {op.expected['sha256']}"]


CLI_CHECKS = {"validate": _check_validate, "construct": _check_construct,
              "sweep": _check_sweep, "export": _check_export,
              "certify": _check_report_line, "limits": _check_report_line}


def _config_ops(index, spec, workdir: Path):
    family = spec["family"]
    path = workdir / f"config{index}.json"
    config = io_export.Config(family=family, **spec["values"])
    path.write_text(io_export.serialize_config(config), encoding="utf-8")
    base, _, limit = family.partition("-")
    certificate = "limit-labels" if limit else CERTIFICATE_NAMES.get(base)
    for sub in LIMIT_SUBCOMMANDS if limit else SUBCOMMANDS[base]:
        argv = [sub, "-c", str(path)]
        expected = {"spec": spec, "check": CLI_CHECKS[sub],
                    "certificate": "labels[" if sub == "limits" else certificate}
        if sub in ("construct", "export"):
            expected["out"] = str(workdir / f"{sub}{index}.out")
            argv += ["--out", expected["out"]]
        yield _cli_op(f"{sub}-{family}", argv, ((family, index),), expected,
                      multi_tau=sub == "sweep")


def fixture_ops(workdir: Path):
    """Sweep and export of every bundled fixture, against pinned digests.
    They run once per run, before the timed loop: their inputs do not come
    from the seed, and as a fixed block their weight would change with the
    number of rounds a run covers."""
    pins = json.loads(FIXTURE_DIGESTS.read_text(encoding="utf-8"))
    for name, digests in sorted(pins.items()):
        for sub, sha in sorted(digests.items()):
            expected = {"sha256": sha, "check": _check_digest}
            argv = [sub, "-c", name]
            if sub == "export":
                expected["out"] = str(workdir / f"{name}.obj")
                argv += ["--out", expected["out"]]
            yield _cli_op(f"fixture-{sub}", argv, (("fixture", name),),
                          expected, multi_tau=sub == "sweep")


def limits_sweep(seed: int, workdir: Path):
    """Generated configs of every family in a fixed order, each run through
    every subcommand that applies to it; a round is one config of each."""
    draw = Draw(seed)
    index = 0
    while True:
        family, case = CONFIG_KINDS[index % len(CONFIG_KINDS)]
        spec = config_spec(draw, family, case)
        if spec is None:
            continue
        ops = list(_config_ops(index, spec, workdir))
        for op in ops[:-1]:
            op.ends_round = False
        ops[-1].ends_round = family == CONFIG_KINDS[-1][0]
        yield from ops
        index += 1


# ---------------------------------------------------------------------------
# oracle_appendix: the 13-condition oracle, and the non-existence suite
# ---------------------------------------------------------------------------

def _oracle_call(spec, eps):
    def call():
        bib = _build_coupling(spec, exact=True)
        bar = bib.bar_loop()
        if eps:
            mu = bib.bar_mu
            bar = families.Loop(bib.bar_design, families.MuSet(
                mu.mu14 + eps, mu.mu12, mu.mu23, mu.mu34))
        return families.necessary_conditions(bib.loop(), bar)
    return call


def _check_oracle(op: Op, report) -> list:
    op.residuals = list(report.side_residuals) + list(report.resultant_coeffs)
    if len(op.residuals) != 13:
        return [f"{len(op.residuals)} residuals instead of 13"]
    zero = all(r == 0 for r in op.residuals)
    if op.expected["member"]:
        if not (zero and report.degenerate_resultant):
            return ["oracle rejects a genuine coupling"]
    elif zero:
        return ["oracle accepts a perturbed companion"]
    return []


def oracle_appendix(seed: int, workdir: Path):
    """Each generated A, B or C coupling (criterion 7) is followed by a
    companion whose first offset is perturbed by 1/100 to 9/100."""
    draw = Draw(seed + 1)
    for spec in coupling_specs(seed):
        eps = F(draw.rng.randint(1, 9), 100)
        bar_key = spec["key"] if spec["family"] != "C" else spec["key"] + ("bar",)
        yield Op(kind=f"oracle-member-{spec['family']}",
                 loops=(spec["key"], bar_key), call=_oracle_call(spec, 0),
                 check=_check_oracle, expected={"member": True})
        yield Op(kind=f"oracle-perturbed-{spec['family']}",
                 loops=(spec["key"], spec["key"] + ("perturbed", eps)),
                 call=_oracle_call(spec, eps), check=_check_oracle,
                 expected={"member": False})


def _check_appendix(op: Op, report) -> list:
    op.residuals = [entry.value for entry in report.residuals]
    if len(report.residuals) != 13 or not report.verdict:
        return ["non-existence suite: " + "; ".join(report.lines())]
    return []


def appendix_op() -> Op:
    """One whole run of the plane-symmetric non-existence suite."""
    return Op(kind="appendix", loops=(), call=lambda: appendix.verify_nonexistence(),
              check=_check_appendix, expected={})


WORKLOADS = {
    "exact_certify": exact_certify,
    "float_certify": float_certify,
    "limits_sweep": limits_sweep,
    "oracle_appendix": oracle_appendix,
}

# Checked operations a workload runs once, before its timed loop.
PRELUDES = {"limits_sweep": fixture_ops}
