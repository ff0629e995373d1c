"""Configuration parsing, OBJ geometry export, and sweep reports.

Configs are JSON objects with a versioned schema; rationals may be written as
"p/q" strings and are kept exact in exact mode.  Export renders each link as
a slim ribbon of bilinear patches between consecutive anchor points; sweep
reports tabulate residuals, companion parameters and verdicts over taus.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import TOL, parse_scalar, to_floats
from .bennett import (
    AXIS_LABELS,
    BennettDesign,
    PlanarDesign,
    PoleError,
    frame,
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
)
from .limits import (
    label_check,
    prismatic_limit_AB,
    prismatic_limit_C,
    pyramidal_limit,
)
from .properties import (
    bennett_loop_check,
    deltoidal_check,
    halfturn_check,
    isogonal_check,
    planar_loop_check,
    trivial_check,
)


class ConfigError(ValueError):
    """A configuration is malformed; the message names the offending key."""


SCHEMA_VERSION = 1


class Config(NamedTuple):
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


class Family(NamedTuple):
    """A config family: its required and optional keys, the builder of the
    structure it describes from a Config (a BennettDesign or PlanarDesign for
    one loop, a BiBennett for a coupling, a labelled BiBennett for a limit),
    and its certificate as (report name, check).  A check is a pure function
    of one pose of the structure and a float tolerance, ``check(pose, tol)``:
    a Pose of a loop, a CoupledPose of a coupling."""

    required: set
    optional: set
    build: object
    certificate: tuple


_LIMIT_LABELS = ("limit-labels", label_check)

# Every config family, the one place one is defined.
FAMILIES = {
    "single": Family({"a1", "a2", "k"}, set(),
                     lambda c: validate(c.a1, c.a2, c.k),
                     ("bennett-loop", bennett_loop_check)),
    "planar": Family({"case", "d1", "d2"}, set(),
                     lambda c: PlanarDesign(c.d1, c.d2, c.case),
                     ("planar-loop", planar_loop_check)),
    "A": Family({"k", "mu14", "mu12", "mu23", "mu34"}, set(),
                lambda c: make_family_a(MuSet(c.mu14, c.mu12, c.mu23, c.mu34),
                                        k=c.k),
                ("isogonal", isogonal_check)),
    "B": Family({"a1", "a2", "k", "mu23", "mu34"}, set(),
                lambda c: make_family_b(c.mu23, c.mu34,
                                        validate(c.a1, c.a2, c.k)),
                ("deltoidal", deltoidal_check)),
    "C": Family({"a1", "a2", "k", "mu14", "mu12"}, {"s", "branch"},
                lambda c: family_c(validate(c.a1, c.a2, c.k), c.mu14, c.mu12,
                                   c.s, c.branch),
                ("halfturn", halfturn_check)),
    "trivial": Family({"a1", "a2", "k", "mu23", "mu34"}, set(),
                      lambda c: make_trivial(c.mu23, c.mu34,
                                             validate(c.a1, c.a2, c.k)),
                      ("trivial", trivial_check)),
    "A-prismatic": Family({"case", "d1", "d2", "mu12", "mu23", "mu34"}, set(),
                          lambda c: prismatic_limit_AB(
                              "A", c.case, c.d1, c.d2, mu12=c.mu12,
                              mu23=c.mu23, mu34=c.mu34),
                          _LIMIT_LABELS),
    "B-prismatic": Family({"case", "d1", "d2", "mu23", "mu34"}, set(),
                          lambda c: prismatic_limit_AB(
                              "B", c.case, c.d1, c.d2, mu23=c.mu23,
                              mu34=c.mu34),
                          _LIMIT_LABELS),
    "C-prismatic": Family({"case", "d1", "d2", "mu14", "mu12"},
                          {"s", "branch"},
                          lambda c: prismatic_limit_C(c.case, c.d1, c.d2,
                                                      c.mu14, c.mu12, c.s,
                                                      c.branch),
                          _LIMIT_LABELS),
    "A-pyramidal": Family({"mu14", "mu12", "mu23", "mu34"}, set(),
                          lambda c: pyramidal_limit(make_family_a(
                              MuSet(c.mu14, c.mu12, c.mu23, c.mu34), k=0)),
                          _LIMIT_LABELS),
    "B-pyramidal": Family({"a1", "a2", "mu23", "mu34"}, set(),
                          lambda c: pyramidal_limit(make_family_b(
                              c.mu23, c.mu34, validate(c.a1, c.a2, 0))),
                          _LIMIT_LABELS),
    "C-pyramidal": Family({"a1", "a2", "mu14", "mu12"}, {"s", "branch"},
                          lambda c: pyramidal_limit(family_c(
                              validate(c.a1, c.a2, 0), c.mu14, c.mu12, c.s,
                              c.branch)),
                          _LIMIT_LABELS),
}
_SCALAR_KEYS = ("a1", "a2", "k", "d1", "d2",
                "mu14", "mu12", "mu23", "mu34", "tau")


def _convert(key, convert, value):
    if isinstance(value, bool):
        raise ConfigError(f"key {key!r}: {value!r} is not a number")
    try:
        result = convert(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    if isinstance(result, float) and not math.isfinite(result):
        raise ConfigError(f"key {key!r}: {value!r} is not a finite number")
    return result


def config_object(raw) -> dict:
    """The top-level JSON object of a config given as text or UTF-8 bytes;
    a dict passes through."""
    if isinstance(raw, dict):
        return raw
    try:
        data = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level value must be an object")
    return data


def parse_config(raw) -> Config:
    """Parse a JSON configuration (text, UTF-8 bytes or its parsed object)
    and check its schema: the keys of its family and the type of each
    number, sign and sample list.  :func:`build_structure` checks the case
    and the design."""
    data = config_object(raw)
    if data.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"'schema' must be {SCHEMA_VERSION}")
    family = data.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(
            f"'family' must be one of {sorted(FAMILIES)}, got {family!r}"
        )
    row = FAMILIES[family]
    allowed = _COMMON_KEYS | row.required | row.optional
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for family {family!r}")
    for key in row.required:
        if key not in data:
            raise ConfigError(f"family {family!r} requires key {key!r}")

    mode = data.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ConfigError("'mode' must be 'exact' or 'float'")
    scalar = functools.partial(parse_scalar, exact=mode == "exact")
    values = {"family": family, "mode": mode}
    for key in _SCALAR_KEYS:
        if key in data:
            values[key] = _convert(key, scalar, data[key])
    if "case" in data:
        values["case"] = data["case"]
    for key in ("s", "branch"):
        if key in data:
            if type(data[key]) is not int or data[key] not in (-1, 1):
                raise ConfigError(f"{key!r} must be the integer -1 or 1")
            values[key] = data[key]
    if "tol" in data:
        values["tol"] = _convert("tol", float, data["tol"])
        if values["tol"] < 0:
            raise ConfigError(f"'tol' must be nonnegative: {values['tol']}")
    if "tau_samples" in data:
        raw = data["tau_samples"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("'tau_samples' must be a non-empty list")
        values["tau_samples"] = tuple(_convert("tau_samples", scalar, v)
                                      for v in raw)
    return Config(**values)


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
    for key in FAMILIES[config.family].optional:
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
    """Parse the config file at ``path`` by :func:`parse_config`."""
    with open(path, "rb") as handle:
        return parse_config(handle.read())


# ---------------------------------------------------------------------------
# structure construction
# ---------------------------------------------------------------------------

def build_structure(config: Config):
    """Instantiate the object a config describes, by the builder of its
    family in FAMILIES, which rejects a design its construction excludes."""
    if config.family not in FAMILIES:
        raise ConfigError(f"unsupported family {config.family!r}")
    try:
        return FAMILIES[config.family].build(config)
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
    weights, faces = _patch_grid(n)
    q0, q1, q2, q3 = [tuple(float(x) for x in p) for p in quad]
    return [tuple(w0 * q0[c] + w1 * q1[c] + w2 * q2[c] + w3 * q3[c]
                  for c in range(3)) for w0, w1, w2, w3 in weights], list(faces)


@functools.cache
def _patch_grid(n: int):
    """The corner weights at the grid points (i/n, j/n), row by row, and the
    faces of the n x n grid."""
    steps = [i / n for i in range(n + 1)]
    weights = tuple(((1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v)
                    for v in steps for u in steps)
    faces = tuple((a, a + 1, a + n + 2, a + n + 1)
                  for a in (j * (n + 1) + i for j in range(n) for i in range(n)))
    return weights, faces


# Ribbon width as a fraction of the mean quad edge length.
RIBBON_WIDTH = 0.1


def _ribbons_from_anchors(group_prefix, anchors, directions):
    """The four ribbons of one tube between consecutive ``anchors``, offset
    along the axis ``directions``: both (numerators, den) pairs, in the
    order of AXIS_LABELS."""
    points = [to_floats(p, anchors[1]) for p in anchors[0]]
    width = RIBBON_WIDTH * (sum(
        sum((p[c] - q[c]) ** 2 for c in range(3)) ** 0.5
        for p, q in zip(points, points[1:] + points[:1])) / 4.0)
    rails = []  # each anchor moved by -width and +width along its unit axis
    for p, r in zip(points, directions[0]):
        r = to_floats(r, directions[1])
        norm = sum(x * x for x in r) ** 0.5
        rails.append([tuple(p[c] + sign * width * (r[c] / norm)
                            for c in range(3)) for sign in (-1, 1)])
    ends = AXIS_LABELS[1:] + AXIS_LABELS[:1]
    return [(f"{group_prefix}_link_{la[0]}{la[1]}_{lb[0]}{lb[1]}",
             [*rails[i], *rails[(i + 1) % 4][::-1]])
            for i, (la, lb) in enumerate(zip(AXIS_LABELS, ends))]


def coupling_ribbons(bib: BiBennett, tau):
    """Ribbon quads of both tubes of a coupling: 8 ribbons, 4 per tube,
    each spanned between consecutive anchor points offset along the axes."""
    cp = coupled_pose(bib, tau)
    points, _, pden = cp.delta.images(cp.bar_quad.points, [], cp.bar_quad.den)
    hat = cp.hat_pose  # the bar pose moved by delta: its axis directions
    return (_ribbons_from_anchors("tube1", (cp.quad.points, cp.quad.den),
                                  (cp.pose.directions, cp.pose.den))
            + _ribbons_from_anchors("tube2", (points, pden),
                                    (hat.directions, hat.den)))


def export_obj_text(structure, tau, patch_n: int) -> str:
    """Deterministic OBJ text for a structure at drive value tau."""
    if isinstance(structure, BiBennett):
        ribbons = coupling_ribbons(structure, tau)
    elif isinstance(structure, (BennettDesign, PlanarDesign)):
        pose = frame(structure, tau)
        ribbons = _ribbons_from_anchors("tube1", (pose.points, pose.den),
                                        (pose.directions, pose.den))
    else:
        raise TypeError(f"cannot export {type(structure).__name__}")
    lines = []
    offset = 0
    for name, corners in ribbons:
        vertices, faces = hp_patch(corners, patch_n)
        lines.append(f"g {name}")
        lines += ["v %.12g %.12g %.12g" % v for v in vertices]
        lines += ["f %d %d %d %d" % tuple(offset + 1 + i for i in face)
                  for face in faces]
        offset += len(vertices)
    return "\n".join(lines) + "\n"


def export_obj(structure, tau, path, patch_n: int) -> None:
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


def certify(config: Config, structure, tau):
    """(report name, report) of the certificate that FAMILIES gives the
    config's family, for its structure posed at tau: a loop by
    :func:`frame`, a coupling by :func:`coupled_pose`.  Float entries are
    held to the config's ``tol``, or to ``TOL`` when it is not set."""
    pose = (coupled_pose(structure, tau) if isinstance(structure, BiBennett)
            else frame(structure, tau))
    return _certify_pose(config, pose)


def _certify_pose(config: Config, pose):
    """:func:`certify` on ``pose``, a pose of the config's structure."""
    name, check = FAMILIES[config.family].certificate
    return name, check(pose, TOL if config.tol is None else config.tol)


def sweep_report(config: Config):
    """Tabulate a coupling over the config's drive values: its
    ``tau_samples``, else its ``tau``.

    Returns ``(csv_text, report_dict)``; the dict mirrors the CSV rows.  A
    row whose pose is at a pole (of the joint-angle substitution at tau = 0
    or at tau_bar = 0, or of the tau_bar relation) is kept with a marker and
    no data; a row whose companion parameter has no real branch likewise.
    """
    if config.tau_samples is None and config.tau is None:
        raise ConfigError("no tau samples: set tau_samples or tau in the config")
    bib = build_structure(config)
    if not isinstance(bib, BiBennett):
        raise ConfigError(f"family {config.family!r} has no coupling to sweep")
    blank = dict.fromkeys(SWEEP_HEADER, "")
    rows = []
    for tau in config.tau_samples or (config.tau,):
        row = dict(blank, tau=_scalar_str(tau))
        try:
            cp = coupled_pose(bib, tau)
        except PoleError:
            row["status"] = "pole"
        except NoRealBranchError:
            row["status"] = "no-real-branch"
        else:
            name, report = _certify_pose(config, cp)
            side = max(abs(float(r)) for r in isogram_residuals(cp.quad))
            row.update(
                status="ok",
                tau_bar=_scalar_str(cp.tau_bar),
                closure_residual=_scalar_str(
                    loop_closure_residual(bib.design, tau)),
                bar_closure_residual=_scalar_str(
                    loop_closure_residual(bib.design, cp.tau_bar)),
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
              "rows": rows}
    return buffer.getvalue(), report
