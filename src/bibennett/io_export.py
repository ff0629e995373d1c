"""Configuration parsing, OBJ geometry export, and sweep reports.

Configs are JSON objects with a versioned schema; rationals may be written as
"p/q" strings and are kept exact in exact mode.  Geometry export renders each
link of a coupling as a slim ribbon of bilinear (hyperbolic-paraboloid)
patches spanned between consecutive anchor points, and sweep reports tabulate
closure residuals, companion parameters, and certificate verdicts over a list
of drive values.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import parse_scalar
from .bennett import (
    AXIS_LABELS,
    BennettDesign,
    ConventionError,
    DegenerateDesignError,
    PLANAR_CASES,
    PlanarDesign,
    frame,
    half_turn_point,
    loop_closure_residual,
    validate,
)
from .families import (
    BiBennett,
    MuSet,
    NoRealBranchError,
    coupled_pose,
    family_c,
    isogram_residuals,
    make_family_a,
    make_family_b,
    make_trivial,
    quad_symmetry_line,
)
from .limits import (
    LimitStructure,
    prismatic_limit_AB,
    prismatic_limit_C,
    pyramidal_limit,
    verify_labels,
)
from .properties import (
    deltoidal_certificate,
    halfturn_certificate,
    isogonal_certificate,
)


class ConfigError(ValueError):
    """A configuration is malformed; the message names the offending key."""


SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Config:
    """A validated run configuration; numeric fields are exact Fractions in
    exact mode and floats in float mode."""

    family: str
    a1: object = None
    a2: object = None
    k: object = None
    d1: object = None
    d2: object = None
    case: str = None
    mu14: object = None
    mu12: object = None
    mu23: object = None
    mu34: object = None
    s: int = 1
    branch: int = -1
    tau: object = None
    tau_samples: tuple = None
    mode: str = "exact"
    tol: float = None


_COMMON_KEYS = {"schema", "family", "tau", "tau_samples", "mode", "tol"}

# Every config family: its required keys, its optional keys, and the builder
# of the structure it describes from a Config (a BennettDesign or
# PlanarDesign for one loop, a BiBennett for a coupling, a LimitStructure
# for a limit).
FAMILIES = {
    "single": ({"a1", "a2", "k"}, set(),
               lambda c: validate(c.a1, c.a2, c.k)),
    "planar": ({"case", "d1", "d2"}, set(),
               lambda c: PlanarDesign(c.d1, c.d2, c.case)),
    "A": ({"k", "mu14", "mu12", "mu23", "mu34"}, set(),
          lambda c: make_family_a(MuSet(c.mu14, c.mu12, c.mu23, c.mu34),
                                  k=c.k)),
    "B": ({"a1", "a2", "k", "mu23", "mu34"}, set(),
          lambda c: make_family_b(c.mu23, c.mu34, validate(c.a1, c.a2, c.k))),
    "C": ({"a1", "a2", "k", "mu14", "mu12"}, {"s", "branch"},
          lambda c: family_c(validate(c.a1, c.a2, c.k), c.mu14, c.mu12,
                             c.s, c.branch)),
    "trivial": ({"a1", "a2", "k", "mu23", "mu34"}, set(),
                lambda c: make_trivial(c.mu23, c.mu34,
                                       validate(c.a1, c.a2, c.k))),
    "A-prismatic": ({"case", "d1", "d2", "mu12", "mu23", "mu34"}, set(),
                    lambda c: prismatic_limit_AB("A", c.case, c.d1, c.d2,
                                                 mu12=c.mu12, mu23=c.mu23,
                                                 mu34=c.mu34)),
    "B-prismatic": ({"case", "d1", "d2", "mu23", "mu34"}, set(),
                    lambda c: prismatic_limit_AB("B", c.case, c.d1, c.d2,
                                                 mu23=c.mu23, mu34=c.mu34)),
    "C-prismatic": ({"case", "d1", "d2", "mu14", "mu12"}, {"s", "branch"},
                    lambda c: prismatic_limit_C(c.case, c.d1, c.d2, c.mu14,
                                                c.mu12, c.s, c.branch)),
    "A-pyramidal": ({"mu14", "mu12", "mu23", "mu34"}, set(),
                    lambda c: pyramidal_limit(
                        "A", mu=MuSet(c.mu14, c.mu12, c.mu23, c.mu34))),
    "B-pyramidal": ({"a1", "a2", "mu23", "mu34"}, set(),
                    lambda c: pyramidal_limit("B", a1=c.a1, a2=c.a2,
                                              mu23=c.mu23, mu34=c.mu34)),
    "C-pyramidal": ({"a1", "a2", "mu14", "mu12"}, {"s", "branch"},
                    lambda c: pyramidal_limit("C", a1=c.a1, a2=c.a2,
                                              mu14=c.mu14, mu12=c.mu12,
                                              s=c.s, branch=c.branch)),
}
_SCALAR_KEYS = ("a1", "a2", "k", "d1", "d2",
                "mu14", "mu12", "mu23", "mu34", "tau")


def _convert(key, convert, value):
    try:
        result = convert(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    if isinstance(result, float) and not math.isfinite(result):
        raise ConfigError(f"key {key!r}: {value!r} is not a finite number")
    return result


def config_object(raw) -> dict:
    """The top-level JSON object of a config given as text or UTF-8 bytes."""
    try:
        data = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level value must be an object")
    return data


def parse_config(text) -> Config:
    """Parse and validate a JSON configuration (text or UTF-8 bytes)."""
    data = config_object(text)
    if data.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"'schema' must be {SCHEMA_VERSION}")
    family = data.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(
            f"'family' must be one of {sorted(FAMILIES)}, got {family!r}"
        )
    required, optional, _ = FAMILIES[family]
    allowed = _COMMON_KEYS | required | optional
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for family {family!r}")
    for key in required:
        if key not in data:
            raise ConfigError(f"family {family!r} requires key {key!r}")

    mode = data.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ConfigError("'mode' must be 'exact' or 'float'")
    exact = mode == "exact"

    def scalar(v):
        return parse_scalar(v, exact)

    values = {"family": family, "mode": mode}
    for key in _SCALAR_KEYS:
        if key in data:
            values[key] = _convert(key, scalar, data[key])
    if "case" in data:
        if data["case"] not in PLANAR_CASES and data["case"] not in ("anti", "para"):
            raise ConfigError(
                f"'case' must be a planar case {PLANAR_CASES} or anti/para"
            )
        values["case"] = data["case"]
    for key in ("s", "branch"):
        if key in data:
            if data[key] not in (-1, 1):
                raise ConfigError(f"{key!r} must be -1 or 1")
            values[key] = data[key]
    if "tol" in data:
        values["tol"] = _convert("tol", float, data["tol"])
    if "tau_samples" in data:
        raw = data["tau_samples"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("'tau_samples' must be a non-empty list")
        values["tau_samples"] = tuple(_convert("tau_samples", scalar, v)
                                      for v in raw)
    config = Config(**values)
    _validate_convention(config)
    return config


def _validate_convention(config: Config) -> None:
    """Reject designs the constructions exclude, naming the violated rule."""
    required = FAMILIES[config.family][0]
    if {"a1", "a2"} <= required:
        try:
            k = config.k if config.k is not None else 0
            validate(config.a1, config.a2, k)
        except (DegenerateDesignError, ConventionError) as exc:
            raise ConfigError(f"invalid design: {exc}") from exc
    if "d1" in required and config.d1 == config.d2:
        raise ConfigError(
            "invalid design: equal offsets d1 = d2 put the planar "
            "transmission at a pole"
        )


def serialize_config(config: Config) -> str:
    """Canonical JSON for a Config; parse(serialize(c)) == c."""
    data = {"schema": SCHEMA_VERSION, "family": config.family,
            "mode": config.mode}
    for key in _SCALAR_KEYS:
        value = getattr(config, key)
        if value is not None:
            data[key] = _scalar_str(value)
    if config.case is not None:
        data["case"] = config.case
    for key in FAMILIES[config.family][1]:
        data[key] = getattr(config, key)
    if config.tol is not None:
        data["tol"] = config.tol
    if config.tau_samples is not None:
        data["tau_samples"] = [_scalar_str(v) for v in config.tau_samples]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _scalar_str(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def load_config(path) -> Config:
    """Parse and validate the config file at ``path``."""
    with open(path, "rb") as handle:
        return parse_config(handle.read())


# ---------------------------------------------------------------------------
# structure construction
# ---------------------------------------------------------------------------

def build_structure(config: Config):
    """Instantiate the object a config describes, by the builder of its
    family in FAMILIES."""
    if config.family not in FAMILIES:
        raise ConfigError(f"unsupported family {config.family!r}")
    try:
        return FAMILIES[config.family][2](config)
    except ValueError as exc:
        raise ConfigError(
            f"cannot build family {config.family!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

def hp_patch(quad, n: int):
    """Bilinear tessellation of a (possibly skew) quadrilateral.

    The four corners are taken in cyclic order; the grid point at (i/n, j/n)
    is the bilinear blend, so every vertex lies on the hyperbolic paraboloid
    through the corners.  Returns (vertices, faces) with (n+1)^2 vertices and
    n^2 quad faces indexed locally from 0.
    """
    if n < 1:
        raise ValueError("patch density must be at least 1")
    q0, q1, q2, q3 = [tuple(float(x) for x in p) for p in quad]
    vertices = []
    for j in range(n + 1):
        v = j / n
        for i in range(n + 1):
            u = i / n
            vertices.append(tuple(
                (1 - u) * (1 - v) * q0[c] + u * (1 - v) * q1[c]
                + u * v * q2[c] + (1 - u) * v * q3[c]
                for c in range(3)
            ))
    faces = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            faces.append((a, a + 1, a + n + 2, a + n + 1))
    return vertices, faces


def as_bibennett(structure):
    """The coupling of a BiBennett or LimitStructure; None for one loop."""
    if isinstance(structure, LimitStructure):
        return structure.bibennett
    if isinstance(structure, BiBennett):
        return structure
    return None


# Ribbon width as a fraction of the mean quad edge length.
RIBBON_WIDTH = 0.1


def _single_loop_ribbons(pose):
    """Ribbon quads for one uncoupled loop, anchored at the frame origins."""
    points = pose.points()
    return _ribbons_from_anchors("tube1", points,
                                 {l: pose.axes[l].direction for l in points})


def _ribbons_from_anchors(group_prefix, anchors, directions):
    labels = list(AXIS_LABELS)
    mean_edge = sum(
        _dist(anchors[labels[i]], anchors[labels[(i + 1) % 4]])
        for i in range(4)
    ) / 4.0
    width = RIBBON_WIDTH * mean_edge
    ribbons = []
    for i in range(4):
        la, lb = labels[i], labels[(i + 1) % 4]
        corners = []
        for label, sign in ((la, -1), (la, 1), (lb, 1), (lb, -1)):
            p = anchors[label]
            r = _unit(directions[label])
            corners.append(tuple(
                float(p[c]) + sign * width * r[c] for c in range(3)
            ))
        name = f"{group_prefix}_link_{la[0]}{la[1]}_{lb[0]}{lb[1]}"
        ribbons.append((name, corners))
    return ribbons


def _dist(p, q):
    return sum((float(p[c]) - float(q[c])) ** 2 for c in range(3)) ** 0.5


def _unit(v):
    norm = sum(float(x) * float(x) for x in v) ** 0.5
    return tuple(float(x) / norm for x in v)


def coupling_ribbons(bib: BiBennett, tau, tau_bar=None):
    """Ribbon quads of both tubes of a coupling: 8 ribbons, 4 per tube,
    each spanned between consecutive anchor points offset along the axes."""
    cp = coupled_pose(bib, tau, tau_bar)
    quad_points = {l: cp.quad[l] for l in AXIS_LABELS}
    directions = {l: cp.pose.axes[l].direction for l in AXIS_LABELS}
    ribbons = _ribbons_from_anchors("tube1", quad_points, directions)
    if cp.delta is not None:
        hat_anchors = {l: cp.delta.apply_point(cp.bar_quad[l])
                       for l in AXIS_LABELS}
    else:
        point, direction = quad_symmetry_line(cp.quad)
        hat_anchors = {l: half_turn_point(cp.quad[l], point, direction)
                       for l in AXIS_LABELS}
    hat_directions = {l: cp.hat_axes[l].direction for l in AXIS_LABELS}
    ribbons += _ribbons_from_anchors("tube2", hat_anchors, hat_directions)
    return ribbons


def export_obj_text(structure, tau, patch_n: int = 4) -> str:
    """Deterministic OBJ text for a structure at drive value tau."""
    bib = as_bibennett(structure)
    if bib is not None:
        ribbons = coupling_ribbons(bib, tau)
    elif isinstance(structure, (BennettDesign, PlanarDesign)):
        ribbons = _single_loop_ribbons(frame(structure, tau))
    else:
        raise TypeError(f"cannot export {type(structure).__name__}")
    lines = []
    offset = 0
    for name, corners in ribbons:
        vertices, faces = hp_patch(corners, patch_n)
        lines.append(f"g {name}")
        for v in vertices:
            lines.append("v " + " ".join(f"{x:.12g}" for x in v))
        for f in faces:
            lines.append("f " + " ".join(str(offset + i + 1) for i in f))
        offset += len(vertices)
    return "\n".join(lines) + "\n"


def export_obj(structure, tau, path, patch_n: int = 4) -> None:
    """Write the OBJ mesh of a structure to ``path``."""
    text = export_obj_text(structure, tau, patch_n)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# sweep reports
# ---------------------------------------------------------------------------

SWEEP_HEADER = ("tau", "status", "tau_bar", "closure_residual",
                "bar_closure_residual", "side_residual", "certificate",
                "verdict")

_EMPTY_BRANCH = "no-real-branch"
_POLE = "pole"


def certify(structure, tau, tol):
    """(certificate name, report) for a coupling or limit structure at tau;
    ``tol`` None keeps the certificate's own tolerance."""
    if isinstance(structure, LimitStructure):
        return "limit-labels", verify_labels(structure, tau)
    bib = as_bibennett(structure)
    kw = {"tol": tol} if tol is not None else {}
    if bib.family == "A":
        return "isogonal", isogonal_certificate(bib, tau, **kw)
    if bib.family in ("B", "TrivialLineSym"):
        return "deltoidal", deltoidal_certificate(bib, tau, **kw)
    return "halfturn", halfturn_certificate(bib, tau, **kw)


def sweep_report(config: Config, tau_samples=None):
    """Tabulate a coupling over drive values.

    Returns ``(csv_text, report_dict)``; the dict mirrors the CSV rows.  Rows
    at the transmission pole tau = 0 are kept with a marker and no data; rows
    whose companion parameter has no real branch are marked likewise.
    """
    samples = tau_samples if tau_samples is not None else config.tau_samples
    if samples is None:
        raise ConfigError("no tau samples: pass tau_samples or set it in the config")
    structure = build_structure(config)
    bib = as_bibennett(structure)
    if bib is None:
        raise ConfigError(f"family {config.family!r} has no coupling to sweep")
    rows = []
    for tau in samples:
        row = {"tau": _scalar_str(tau)}
        if tau == 0:
            row.update(status=_POLE, tau_bar="", closure_residual="",
                       bar_closure_residual="", side_residual="",
                       certificate="", verdict="")
            rows.append(row)
            continue
        try:
            cp = coupled_pose(bib, tau)
        except NoRealBranchError:
            row.update(status=_EMPTY_BRANCH, tau_bar="", closure_residual="",
                       bar_closure_residual="", side_residual="",
                       certificate="", verdict="")
            rows.append(row)
            continue
        name, report = certify(structure, tau, config.tol)
        side = max(abs(float(r)) for r in isogram_residuals(cp.quad))
        row.update(
            status="ok",
            tau_bar=_scalar_str(cp.tau_bar),
            closure_residual=_scalar_str(
                loop_closure_residual(bib.design, tau)),
            bar_closure_residual=_scalar_str(
                loop_closure_residual(bib.bar_design, cp.tau_bar)),
            side_residual=side,
            certificate=name,
            verdict="pass" if report.verdict else "fail",
        )
        rows.append(row)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=SWEEP_HEADER)
    writer.writeheader()
    for row in rows:
        writer.writerow({key: str(row[key]) for key in SWEEP_HEADER})
    report = {"schema": SCHEMA_VERSION, "family": config.family,
              "rows": [dict(row) for row in rows]}
    return buffer.getvalue(), report
