"""Prismatic (planar) and pyramidal (spherical) limits of the coupling families.

Sending all axes parallel turns a Bennett tube into a quadrilateral prism,
sending the scale k to zero into a quadrilateral pyramid.  The coupling
constructions survive both limits; this module builds them and re-verifies the
symmetry class labels of the limiting structures by direct geometric
predicates rather than trusting the construction path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    det3,
    v_add,
    v_cross,
    v_dot,
    v_norm,
    v_scale,
    v_sub,
)
from .bennett import (
    AXIS_LABELS,
    SWAP,
    PlanarDesign,
    half_turn_point,
    validate,
)
from .families import (
    BiBennett,
    MuSet,
    TrivialQuadError,
    coupled_pose,
    detect_trivial,
    family_c,
    make_family_a,
    make_family_b,
    quad_symmetry_line,
)
from .properties import CertificateReport, ResidualEntry

PARALLEL_TOL = 1e-12
PREDICATE_TOL = 1e-9

KINDS = ("PrismaticAnti", "PrismaticPara", "Pyramidal")

CLASS_LABELS = ("I1", "I2", "I3", "III1", "III2i", "III2ii",
                "III3", "III4i", "III4ii")


@dataclass(frozen=True)
class LimitStructure:
    """A coupling in a prismatic or pyramidal limit with its class labels.

    ``isogonal_compatible`` records whether the extra factor condition that
    narrows the general prismatic solution set down to isogonal (family-A
    style) vertices holds; None when not applicable.
    """

    kind: str
    source_family: str
    bibennett: BiBennett
    labels: frozenset
    isogonal_compatible: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown limit kind {self.kind!r}")
        bad = set(self.labels) - set(CLASS_LABELS)
        if bad:
            raise ValueError(f"labels outside the taxonomy: {sorted(bad)}")


def _planar_design(case: str, d1, d2) -> PlanarDesign:
    if case not in ("anti", "para"):
        raise ValueError("case must be 'anti' or 'para'")
    return PlanarDesign(d1, d2, "2a" if case == "anti" else "2b")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def prismatic_limit_AB(family: str, case: str, d1, d2,
                       mu12=None, mu23=None, mu34=None) -> LimitStructure:
    """Prismatic limit of the line-symmetric couplings.

    In the planar limit the isogram conditions factor; the branch
    mu14 = mu23, mu12 = mu34 is the family-B pattern (anti case only) and the
    solved branches mu14 = mu12 -+ mu23 +- mu34 extend the family-A limits.
    """
    pd = _planar_design(case, d1, d2)
    if family == "B":
        if case == "para":
            raise TrivialQuadError(
                "the parallelogramic branch of this pattern maps the prism "
                "onto itself (trivial)")
        mu = MuSet(mu23, mu34, mu23, mu34)
        bib = BiBennett("B", pd, mu, pd, mu)
        return LimitStructure("PrismaticAnti", "B", bib,
                              frozenset({"III1", "III2ii"}))
    if family != "A":
        raise ValueError("family must be 'A' or 'B'")
    if case == "anti":
        mu14 = mu12 - mu23 + mu34
        extra = ((d1 * mu12 - d1 * mu23 - d2 * mu23 + d2 * mu34)
                 * (d1 * mu12 - d1 * mu23 + d2 * mu23 - d2 * mu34))
        labels = {"III1"}
        kind = "PrismaticAnti"
    else:
        mu14 = mu12 + mu23 - mu34
        extra = ((d1 * mu12 + d1 * mu23 + d2 * mu23 - d2 * mu34)
                 * (d1 * mu12 + d1 * mu23 - d2 * mu23 + d2 * mu34))
        labels = {"III1", "III4ii"}
        kind = "PrismaticPara"
    mu = MuSet(mu14, mu12, mu23, mu34)
    if detect_trivial(mu):
        raise TrivialQuadError("mu-set is the trivial self-symmetric pattern")
    isogonal = extra == 0 if not isinstance(extra, float) else abs(extra) < 1e-12
    if case == "anti" and isogonal:
        labels.add("III3")
    bib = BiBennett("A", pd, mu, pd, mu)
    return LimitStructure(kind, "A", bib, frozenset(labels), isogonal)


def prismatic_limit_C(case: str, d1, d2, mu14, mu12, s: int,
                      branch: int = 1) -> LimitStructure:
    """Prismatic limit of family C; the coupled prism shares both distances."""
    pd = _planar_design(case, d1, d2)
    bib = family_c(pd, mu14, mu12, s, branch)
    label = "III2ii" if case == "anti" else "III4ii"
    kind = "PrismaticAnti" if case == "anti" else "PrismaticPara"
    return LimitStructure(kind, "C", bib, frozenset({label}))


def pyramidal_limit(family: str, *, mu=None, mu23=None, mu34=None,
                    a1=None, a2=None, mu14=None, mu12=None,
                    s: int = 1, branch: int = -1) -> LimitStructure:
    """Pyramidal (k = 0) limit: same constructions with all anchors copunctal."""
    if family == "A":
        bib = make_family_a(mu, k=0)
        labels = {"I1", "I3"}
    elif family == "B":
        design = validate(a1, a2, 0)
        bib = make_family_b(mu23, mu34, design)
        labels = {"I1", "I2"}
    elif family == "C":
        design = validate(a1, a2, 0)
        bib = family_c(design, mu14, mu12, s, branch)
        labels = {"I2"}
    else:
        raise ValueError("family must be 'A', 'B' or 'C'")
    return LimitStructure("Pyramidal", family, bib, frozenset(labels))


# ---------------------------------------------------------------------------
# geometric predicates for the class labels
# ---------------------------------------------------------------------------

def _floats(v):
    return tuple(float(x) for x in v)


def prism_parallel_residual(cp) -> float:
    """Largest sine of the angle between the edges within each prism.

    Each tube becomes a prism on its own; like the two apexes of a
    bipyramid, the two prisms of a coupled pair keep distinct directions.
    """
    worst = 0.0
    for group in (cp.pose.axes.values(), cp.hat_axes.values()):
        axes = list(group)
        ref = _floats(axes[0].direction)
        ref = v_scale(1.0 / v_norm(ref), ref)
        for ax in axes[1:]:
            d = _floats(ax.direction)
            worst = max(worst, v_norm(v_cross(ref, d)) / v_norm(d))
    return worst


def _apexes(cp):
    """Apex of each tube in a pyramidal structure."""
    origin = (0, 0, 0)
    if cp.delta is None:
        lp, ld = quad_symmetry_line(cp.quad)
        return origin, half_turn_point(origin, lp, ld)
    return origin, cp.delta.apply_point((0.0, 0.0, 0.0))


def _coplanarity_residual(quad) -> float:
    verts = [_floats(v) for v in quad.vertices()]
    e1 = v_sub(verts[1], verts[0])
    e2 = v_sub(verts[2], verts[0])
    e3 = v_sub(verts[3], verts[0])
    scale = max(v_norm(e) for e in (e1, e2, e3)) ** 3
    return abs(det3(e1, e2, e3)) / scale


def _line_symmetry_residual(cp) -> float:
    """Half-turn about the quad symmetry line must swap the quad vertices and
    carry the first tube's axes onto the hat axes."""
    lp, ld = quad_symmetry_line(cp.quad)
    lp, ld = _floats(lp), _floats(ld)
    worst = 0.0
    for label, target in SWAP.items():
        img = half_turn_point(_floats(cp.quad[label]), lp, ld)
        worst = max(worst, math.dist(img, _floats(cp.quad[target])))
    for label, ax in cp.pose.axes.items():
        img_p = half_turn_point(_floats(ax.point), lp, ld)
        hat = cp.hat_axes[label]
        hp, hd = _floats(hat.point), _floats(hat.direction)
        # image point must lie on the hat axis (direction may flip)
        worst = max(worst, v_norm(v_cross(v_sub(img_p, hp), hd)) / v_norm(hd))
    return worst


def _plane_symmetry_residual(cp) -> float:
    """Best residual over the three choices of the vertex pair contained in
    the symmetry plane (the other two opposite pairs get reflected)."""
    apex, apex_hat = _apexes(cp)
    pairs = [
        (_floats(cp.quad[(1, 4)]), _floats(cp.quad[(2, 3)])),
        (_floats(cp.quad[(1, 2)]), _floats(cp.quad[(3, 4)])),
        (_floats(apex), _floats(apex_hat)),
    ]
    best = math.inf
    for keep in range(3):
        swapped = [pairs[i] for i in range(3) if i != keep]
        res = _reflection_residual(swapped, pairs[keep])
        best = min(best, res)
    return best


def _reflection_residual(swapped_pairs, inplane_pair) -> float:
    (u1, u2), (w1, w2) = swapped_pairs
    n = v_sub(u1, u2)
    nn = v_norm(n)
    if nn < 1e-14:
        n = v_sub(w1, w2)
        nn = v_norm(n)
        if nn < 1e-14:
            # both swapped pairs coincide: any plane through them works
            return 0.0
    n = v_scale(1.0 / nn, n)
    offset = v_dot(n, v_scale(0.5, v_add(u1, u2)))
    worst = 0.0
    # second pair reflects across the same plane
    m = v_sub(w1, w2)
    mn = v_norm(m)
    if mn > 1e-14:
        worst = max(worst, v_norm(v_cross(n, v_scale(1.0 / mn, m))))
    worst = max(worst, abs(v_dot(n, v_scale(0.5, v_add(w1, w2))) - offset))
    # in-plane pair lies in the plane
    for p in inplane_pair:
        worst = max(worst, abs(v_dot(n, p) - offset))
    return worst


def _arcs(center, targets):
    """Spherical side arcs between the rays from ``center`` to consecutive
    ``targets`` (float points)."""
    rays = []
    for t in targets:
        v = v_sub(t, center)
        rays.append(v_scale(1.0 / v_norm(v), v))
    return [math.acos(max(-1.0, min(1.0, v_dot(rays[j], rays[(j + 1) % 4]))))
            for j in range(4)]


def _vertex_arcs_pyramid(cp, center):
    """Spherical side arcs of the bipyramid vertex figure at a quad vertex:
    rays toward the previous vertex, the apex, the next vertex, the hat apex."""
    order = list(AXIS_LABELS)
    i = order.index(center)
    apex, apex_hat = _apexes(cp)
    return _arcs(_floats(cp.quad[center]), [
        _floats(cp.quad[order[(i - 1) % 4]]),
        _floats(apex),
        _floats(cp.quad[order[(i + 1) % 4]]),
        _floats(apex_hat),
    ])


def _apex_arcs(cp, hat: bool):
    apex, apex_hat = _apexes(cp)
    return _arcs(_floats(apex_hat if hat else apex),
                 [_floats(cp.quad[label]) for label in AXIS_LABELS])


def _vertex_class(arcs, tol: float) -> str:
    v_hedral = (abs(arcs[0] - arcs[2]) < tol and abs(arcs[1] - arcs[3]) < tol)
    anti = (abs(arcs[0] + arcs[2] - math.pi) < tol
            and abs(arcs[1] + arcs[3] - math.pi) < tol)
    if v_hedral and not anti:
        return "V"
    if anti and not v_hedral:
        return "anti"
    if anti and v_hedral:
        return "both"
    return "other"


def _flat_pose_pattern_residual(cp) -> float:
    """Congruence of the two orthogonal prism cross-sections (the hallmark of
    the two-flat-pose prismatic class)."""
    d = _floats(cp.pose.axes[(1, 4)].direction)
    d = v_scale(1.0 / v_norm(d), d)

    def project(p):
        p = _floats(p)
        return v_sub(p, v_scale(v_dot(p, d), d))

    own = [project(cp.pose.axes[label].point) for label in AXIS_LABELS]
    hat = [project(cp.hat_axes[label].point) for label in AXIS_LABELS]

    def shape(pts):
        vals = [math.dist(pts[i], pts[(i + 1) % 4]) for i in range(4)]
        vals += [math.dist(pts[0], pts[2]), math.dist(pts[1], pts[3])]
        return sorted(vals)

    return max(abs(a - b) for a, b in zip(shape(own), shape(hat)))


def _is_parallelogram_residual(quad) -> float:
    a = v_sub(_floats(quad.p12), _floats(quad.p14))
    b = v_sub(_floats(quad.p23), _floats(quad.p34))
    return math.dist(a, b)


def _antiparallelogram_residuals(quad):
    s = [math.sqrt(float(x)) for x in quad.side_sq()]
    eq = max(abs(s[0] - s[2]), abs(s[1] - s[3]))
    not_para = _is_parallelogram_residual(quad)
    return eq, not_para


def _sym_plane_parallel_edges_residual(cp) -> float:
    """The symmetry plane of the coplanar anti-parallelogram must be parallel
    to the prism edges."""
    lp, ld = quad_symmetry_line(cp.quad)
    verts = [_floats(v) for v in cp.quad.vertices()]
    normal = v_cross(v_sub(verts[1], verts[0]), v_sub(verts[2], verts[0]))
    plane_normal = v_cross(_floats(ld), normal)
    edge = _floats(cp.pose.axes[(1, 4)].direction)
    denom = v_norm(plane_normal) * v_norm(edge)
    if denom < 1e-14:
        return math.inf
    return abs(v_dot(plane_normal, edge)) / denom


# ---------------------------------------------------------------------------
# label verification
# ---------------------------------------------------------------------------

def verify_labels(structure: LimitStructure, tau,
                  tol: float = PREDICATE_TOL) -> CertificateReport:
    """Re-derive every emitted class label from the configured geometry."""
    cp = coupled_pose(structure.bibennett, tau)
    residuals = []
    if structure.kind.startswith("Prismatic"):
        residuals.append(ResidualEntry(
            "axes parallel", prism_parallel_residual(cp), PARALLEL_TOL))
    else:
        worst = max(v_norm(_floats(ax.point)) for ax in cp.pose.axes.values())
        residuals.append(ResidualEntry("anchors copunctal", worst, tol))
    for label in sorted(structure.labels):
        residuals.extend(_label_residuals(label, cp, tol))
    return CertificateReport(f"labels[{','.join(sorted(structure.labels))}]",
                             tuple(residuals))


def _label_residuals(label: str, cp, tol: float):
    if label in ("III1", "I1"):
        return [ResidualEntry(f"{label}: line symmetry",
                              _line_symmetry_residual(cp), tol)]
    if label == "III2ii":
        eq, not_para = _antiparallelogram_residuals(cp.quad)
        return [
            ResidualEntry("III2ii: vertices coplanar",
                          _coplanarity_residual(cp.quad), tol),
            ResidualEntry("III2ii: anti-parallelogram sides", eq, tol),
            ResidualEntry("III2ii: not a parallelogram",
                          0.0 if not_para > 1e-6 else 1.0, 0.5),
            ResidualEntry("III2ii: symmetry plane parallel to edges",
                          _sym_plane_parallel_edges_residual(cp), tol),
        ]
    if label == "III3":
        return [ResidualEntry("III3: congruent cross-sections",
                              _flat_pose_pattern_residual(cp), tol)]
    if label == "III4ii":
        return [
            ResidualEntry("III4ii: vertices coplanar",
                          _coplanarity_residual(cp.quad), tol),
            ResidualEntry("III4ii: parallelogram",
                          _is_parallelogram_residual(cp.quad), tol),
        ]
    if label == "I2":
        return [ResidualEntry("I2: plane symmetry",
                              _plane_symmetry_residual(cp), tol)]
    if label == "I3":
        classes = []
        for center in AXIS_LABELS:
            classes.append(_vertex_class(
                _vertex_arcs_pyramid(cp, center), 1e-7))
        classes.append(_vertex_class(_apex_arcs(cp, False), 1e-7))
        classes.append(_vertex_class(_apex_arcs(cp, True), 1e-7))
        # opposite pairs: (P14,P23), (P12,P34), (apex, apex_hat)
        pair_classes = [
            (classes[0], classes[2]), (classes[1], classes[3]),
            (classes[4], classes[5]),
        ]
        v_pairs = sum(1 for a, b in pair_classes
                      if a in ("V", "both") and b in ("V", "both"))
        anti_pairs = sum(1 for a, b in pair_classes
                         if a in ("anti", "both") and b in ("anti", "both"))
        ok = v_pairs >= 2 and anti_pairs >= 1
        return [ResidualEntry("I3: two V-hedral pairs + one anti-V-hedral",
                              0.0 if ok else 1.0, 0.5)]
    raise ValueError(f"no predicate for label {label!r}")
