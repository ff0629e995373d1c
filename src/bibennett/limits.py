"""Prismatic (planar) and pyramidal (spherical) limits of the coupling families.

Sending all axes parallel turns a Bennett tube into a quadrilateral prism,
sending the scale k to zero into a quadrilateral pyramid.  The coupling
constructions survive both limits; this module builds them as couplings that
carry their symmetry class labels, and re-verifies those labels by direct
geometric predicates rather than trusting the construction path.  The kind
of limit is read off the design (:func:`limit_kind`).
"""

from __future__ import annotations

import math
from dataclasses import replace

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
)
from .families import (
    BiBennett,
    MuSet,
    TrivialQuadError,
    ZeroOffsetError,
    coupled_pose,
    detect_trivial,
    family_c,
    quad_symmetry_line,
)
from .properties import CertificateReport, ResidualEntry

PARALLEL_TOL = 1e-12
PREDICATE_TOL = 1e-9

_PRISMATIC_KINDS = {"2a": "PrismaticAnti", "2b": "PrismaticPara"}

# Class labels of the pyramidal (k = 0) limit of each family.
_PYRAMIDAL_LABELS = {"A": frozenset({"I1", "I3"}),
                     "B": frozenset({"I1", "I2"}),
                     "C": frozenset({"I2"})}


def limit_kind(bib: BiBennett):
    """The limit a coupling sits in, read off its design: PrismaticAnti
    (planar case 2a), PrismaticPara (case 2b) or Pyramidal (a Bennett design
    with k = 0); None for any other design."""
    if isinstance(bib.design, PlanarDesign):
        return _PRISMATIC_KINDS.get(bib.design.case)
    return "Pyramidal" if bib.design.k == 0 else None


def _planar_design(case: str, d1, d2) -> PlanarDesign:
    if case not in ("anti", "para"):
        raise ValueError("case must be 'anti' or 'para'")
    return PlanarDesign(d1, d2, "2a" if case == "anti" else "2b")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def prismatic_limit_AB(family: str, case: str, d1, d2,
                       mu12=None, mu23=None, mu34=None) -> BiBennett:
    """Prismatic limit of the line-symmetric couplings.

    In the planar limit the isogram conditions factor; the branch
    mu14 = mu23, mu12 = mu34 is the family-B pattern (anti case only) and the
    solved branches mu14 = mu12 -+ mu23 +- mu34 extend the family-A limits.
    On the anti branch, the extra factor condition that narrows the general
    solution set down to isogonal (family-A style) vertices adds III3.
    """
    pd = _planar_design(case, d1, d2)
    if family == "B":
        if case == "para":
            raise TrivialQuadError(
                "the parallelogramic branch of this pattern maps the prism "
                "onto itself (trivial)")
        mu = MuSet(mu23, mu34, mu23, mu34)
        return BiBennett("B", pd, mu, pd, mu, frozenset({"III1", "III2ii"}))
    if family != "A":
        raise ValueError("family must be 'A' or 'B'")
    if case == "anti":
        mu14 = mu12 - mu23 + mu34
        extra = ((d1 * mu12 - d1 * mu23 - d2 * mu23 + d2 * mu34)
                 * (d1 * mu12 - d1 * mu23 + d2 * mu23 - d2 * mu34))
        labels = {"III1"}
    else:
        mu14 = mu12 + mu23 - mu34
        extra = ((d1 * mu12 + d1 * mu23 + d2 * mu23 - d2 * mu34)
                 * (d1 * mu12 + d1 * mu23 - d2 * mu23 + d2 * mu34))
        labels = {"III1", "III4ii"}
    mu = MuSet(mu14, mu12, mu23, mu34)
    if detect_trivial(mu):
        raise TrivialQuadError("mu-set is the trivial self-symmetric pattern")
    isogonal = extra == 0 if not isinstance(extra, float) else abs(extra) < 1e-12
    if case == "anti" and isogonal:
        labels.add("III3")
    return BiBennett("A", pd, mu, pd, mu, frozenset(labels))


def prismatic_limit_C(case: str, d1, d2, mu14, mu12, s: int,
                      branch: int = 1) -> BiBennett:
    """Prismatic limit of family C; the coupled prism shares both distances."""
    bib = family_c(_planar_design(case, d1, d2), mu14, mu12, s, branch)
    label = "III2ii" if case == "anti" else "III4ii"
    return replace(bib, labels=frozenset({label}))


def pyramidal_limit(bib: BiBennett) -> BiBennett:
    """Pyramidal (k = 0) limit: ``bib``, a k = 0 coupling of family A, B or
    C (all anchors copunctal), labelled with its family's classes.  A zero
    offset is rejected: its quad vertex would sit on the apex."""
    if isinstance(bib.design, PlanarDesign) or bib.design.k != 0:
        raise ValueError("a pyramidal limit needs a Bennett design with k = 0")
    if bib.family not in _PYRAMIDAL_LABELS:
        raise ValueError("family must be 'A', 'B' or 'C'")
    if 0 in bib.mu.as_tuple():
        raise ZeroOffsetError(
            "a zero offset puts its quad vertex on the apex of the pyramid")
    return replace(bib, labels=_PYRAMIDAL_LABELS[bib.family])


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
    return origin, cp.delta.apply_point(origin)


def _coplanarity_residual(cp) -> float:
    verts = [_floats(v) for v in cp.quad.vertices()]
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


def _is_parallelogram_residual(cp) -> float:
    quad = cp.quad
    a = v_sub(_floats(quad.p12), _floats(quad.p14))
    b = v_sub(_floats(quad.p23), _floats(quad.p34))
    return math.dist(a, b)


def _not_parallelogram_residual(cp) -> float:
    """0 when the quad is clearly not a parallelogram, else 1."""
    return 0.0 if _is_parallelogram_residual(cp) > 1e-6 else 1.0


def _antiparallelogram_sides_residual(cp) -> float:
    s = [math.sqrt(float(x)) for x in cp.quad.side_sq()]
    return max(abs(s[0] - s[2]), abs(s[1] - s[3]))


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

def _i3_residual(cp) -> float:
    """0 when two opposite vertex pairs of the bipyramid are V-hedral and
    one is anti-V-hedral, else 1."""
    classes = [_vertex_class(_vertex_arcs_pyramid(cp, center), 1e-7)
               for center in AXIS_LABELS]
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
    return 0.0 if v_pairs >= 2 and anti_pairs >= 1 else 1.0


# Each class label's certificate entries: (entry name, predicate of a
# CoupledPose, fixed tolerance or None for the caller's tolerance).
_LABEL_ENTRIES = {
    "I1": (("I1: line symmetry", _line_symmetry_residual, None),),
    "I2": (("I2: plane symmetry", _plane_symmetry_residual, None),),
    "I3": (("I3: two V-hedral pairs + one anti-V-hedral", _i3_residual,
            0.5),),
    "III1": (("III1: line symmetry", _line_symmetry_residual, None),),
    "III2ii": (
        ("III2ii: vertices coplanar", _coplanarity_residual, None),
        ("III2ii: anti-parallelogram sides",
         _antiparallelogram_sides_residual, None),
        ("III2ii: not a parallelogram", _not_parallelogram_residual, 0.5),
        ("III2ii: symmetry plane parallel to edges",
         _sym_plane_parallel_edges_residual, None),
    ),
    "III3": (("III3: congruent cross-sections", _flat_pose_pattern_residual,
              None),),
    "III4ii": (
        ("III4ii: vertices coplanar", _coplanarity_residual, None),
        ("III4ii: parallelogram", _is_parallelogram_residual, None),
    ),
}


def verify_labels(bib: BiBennett, tau,
                  tol: float = PREDICATE_TOL) -> CertificateReport:
    """:func:`label_check` of the labelled coupling posed at tau."""
    return label_check(coupled_pose(bib, tau), tol)


def label_check(cp, tol) -> CertificateReport:
    """Re-derive every class label of the coupling ``cp.bib`` from ``cp``,
    a coupled pose of it; a coupling without labels is rejected."""
    labels = sorted(cp.bib.labels)
    if not labels:
        raise ValueError("the coupling carries no class labels")
    if isinstance(cp.bib.design, PlanarDesign):
        residuals = [ResidualEntry(
            "axes parallel", prism_parallel_residual(cp), PARALLEL_TOL)]
    else:
        worst = max(v_norm(_floats(ax.point)) for ax in cp.pose.axes.values())
        residuals = [ResidualEntry("anchors copunctal", worst, tol)]
    for label in labels:
        if label not in _LABEL_ENTRIES:
            raise ValueError(f"no predicate for label {label!r}")
        residuals.extend(
            ResidualEntry(name, predicate(cp), tol if fixed is None else fixed)
            for name, predicate, fixed in _LABEL_ENTRIES[label])
    return CertificateReport(f"labels[{','.join(labels)}]", tuple(residuals))
