"""Prismatic (planar) and pyramidal (spherical) limits of the coupling families.

Sending all axes parallel turns a Bennett tube into a quadrilateral prism,
sending the scale k to zero into a quadrilateral pyramid.  This module builds
the couplings of both limits with their symmetry class labels, and verifies
those labels by direct geometric predicates.  The kind of limit is read off
the design (:func:`limit_kind`).
"""

from __future__ import annotations

from itertools import combinations

from .algebra import (
    TOL,
    det3,
    div,
    is_exact,
    one_denominator,
    tolerance_of,
    v_add,
    v_cross,
    v_dot,
    v_norm_sq,
    v_scale,
    v_sub,
)
from .bennett import (
    AXIS_LABELS,
    VERTEX_ROLES,
    DegenerateQuadError,
    PlanarDesign,
    half_turn_residual,
)
from .families import (
    BiBennett,
    MuSet,
    SkewQuad,
    TrivialQuadError,
    ZeroOffsetError,
    coupled_pose,
    detect_trivial,
    family_c,
    isogram_residuals,
)
from .properties import CertificateReport, ResidualEntry, parallel_residual

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
    solution set down to isogonal (family-A style) vertices adds III3, where
    d1 (mu12 - mu23) = +-d2 (mu23 - mu34) (floats: within TOL of the terms).
    """
    pd = _planar_design(case, d1, d2)
    if family == "B":
        if case == "para":
            raise TrivialQuadError(
                "the parallelogramic branch of this pattern maps the prism "
                "onto itself (trivial)")
        mu = MuSet(mu23, mu34, mu23, mu34)
        return BiBennett("B", pd, mu, mu, frozenset({"III1", "III2ii"}))
    if family != "A":
        raise ValueError("family must be 'A' or 'B'")
    if case == "anti":
        mu14 = mu12 - mu23 + mu34
        a, b = d1 * (mu12 - mu23), d2 * (mu23 - mu34)
        size = d1 * (abs(mu12) + abs(mu23)) + d2 * (abs(mu23) + abs(mu34))
        isogonal = any(abs(f) <= tolerance_of(f, TOL) * size
                       for f in (a - b, a + b))
        labels = {"III1", "III3"} if isogonal else {"III1"}
    else:
        mu14 = mu12 + mu23 - mu34
        labels = {"III1", "III4ii"}
    mu = MuSet(mu14, mu12, mu23, mu34)
    if detect_trivial(mu):
        raise TrivialQuadError("mu-set is the trivial self-symmetric pattern")
    return BiBennett("A", pd, mu, mu, frozenset(labels))


def prismatic_limit_C(case: str, d1, d2, mu14, mu12, s: int,
                      branch: int) -> BiBennett:
    """Prismatic limit of family C; the coupled prism shares both distances."""
    bib = family_c(_planar_design(case, d1, d2), mu14, mu12, s, branch)
    label = "III2ii" if case == "anti" else "III4ii"
    return bib._replace(labels=frozenset({label}))


def pyramidal_limit(bib: BiBennett) -> BiBennett:
    """Pyramidal (k = 0) limit: ``bib``, a k = 0 coupling of family A, B or
    C (all anchors copunctal), labelled with its family's classes.  A zero
    offset is rejected: its quad vertex would sit on the apex."""
    if isinstance(bib.design, PlanarDesign) or bib.design.k != 0:
        raise ValueError("a pyramidal limit needs a Bennett design with k = 0")
    if bib.family not in _PYRAMIDAL_LABELS:
        raise ValueError("family must be 'A', 'B' or 'C'")
    if 0 in bib.mu:
        raise ZeroOffsetError(
            "a zero offset puts its quad vertex on the apex of the pyramid")
    return bib._replace(labels=_PYRAMIDAL_LABELS[bib.family])


# ---------------------------------------------------------------------------
# geometric predicates for the class labels
# ---------------------------------------------------------------------------
# Each predicate is a division-free polynomial in the points of one
# CoupledPose as integers over one D (:func:`one_denominator`), formed once,
# over a power of D and a scale (the largest coordinate of a vector, which
# keeps a length a length): exact for exact points, else (family-C hat
# points) a float.

def _ratio(num, den):
    """num / den; 0/0 reads 0, as a scale vanishes only with its residual."""
    return div(num, den) if den else num


def _vanishes(num, den, tol) -> bool:
    """Whether num / den passes :func:`tolerance_of`."""
    if den == 0 and not is_exact(num):  # a zero-length ray, or underflow
        raise DegenerateQuadError("a limit predicate has a zero denominator")
    return abs(_ratio(num, den)) <= tolerance_of(num, tol)


def _largest(vectors):
    return max(abs(c) for v in vectors for c in v)


def _over_one(*records):
    """(vectors, D): the points of ``records`` (SkewQuads and Poses), then
    the directions of the Poses, over one D."""
    return one_denominator([(r.points, r.den) for r in records] + [
        (r.directions, r.den) for r in records if not isinstance(r, SkewQuad)])


def prism_parallel_residual(cp):
    """Largest coordinate of the cross products of each prism's first (unit)
    edge direction with its others.  Each tube becomes a prism on its own;
    like the two apexes of a bipyramid, the two keep distinct directions."""
    v, den = _over_one(cp.pose, cp.hat_pose)
    return max(parallel_residual(v[8:12], den), parallel_residual(v[12:], den))


def _coplanarity_residual(cp, tol):
    """Orientation determinant over the cube of the largest coordinate of
    the edges from P14."""
    p14, *rest = cp.quad.points
    edges = [v_sub(v, p14) for v in rest]
    return _ratio(abs(det3(*edges)), _largest(edges) ** 3)


def _antiparallelogram_sides_residual(cp, tol):
    """Largest difference of opposite squared sides over the largest side
    coordinate."""
    v = cp.quad.points
    sides = [v_sub(v[i - 1], v[i]) for i in range(4)]
    return _ratio(max(isogram_residuals(SkewQuad(v, 1))),
                  _largest(sides) * cp.quad.den)


def _parallelogram_gap(cp):
    """(largest coordinate of P12 - P14 - (P23 - P34), D)."""
    p14, p12, p23, p34 = cp.quad.points
    gap = v_sub(v_sub(p12, p14), v_sub(p23, p34))
    return max(map(abs, gap)), cp.quad.den


def _is_parallelogram_residual(cp, tol):
    return div(*_parallelogram_gap(cp))


def _not_parallelogram_residual(cp, tol) -> int:
    """0 when the quad is not a parallelogram, else 1."""
    return int(_vanishes(*_parallelogram_gap(cp), tol))


def _sym_plane_parallel_edges_residual(cp, tol):
    """The symmetry plane of the coplanar anti-parallelogram must be parallel
    to the prism edges.  It swaps P14 <-> P23 and P12 <-> P34, so it bisects
    both diagonals at right angles, and the edge direction r14 is normal to
    both: largest |diagonal . r14| over the largest coordinates of the
    diagonals and of r14."""
    (p14, p12, p23, p34, edge), _ = one_denominator([
        (cp.quad.points, cp.quad.den), (cp.pose.directions[:1], cp.pose.den)])
    diagonals = (v_sub(p23, p14), v_sub(p34, p12))
    return _ratio(max(abs(v_dot(d, edge)) for d in diagonals),
                  _largest(diagonals) * _largest([edge]))


def _line_symmetry_residual(cp, tol):
    """The half-turn ``cp.delta`` about the quad's symmetry line must swap
    opposite quad vertices and carry each anchor onto its hat anchor."""
    (through, line, *vectors), den = one_denominator([
        (cp.delta.line, cp.delta.den)] + [
        (rec.points, rec.den) for rec in (cp.quad, cp.pose, cp.hat_pose)])
    p14, p12, p23, p34 = vectors[:4]
    return half_turn_residual(through, line, [
        (p14, p23), (p12, p34), *zip(vectors[4:8], vectors[8:])], den)


def _mirror_residual(swapped, fixed, den):
    """A mirror swapping both point pairs ``swapped`` and containing both
    points ``fixed``.  The mirror of u1 <-> u2 is n.(2x - u1 - u2) = 0 with
    n = u1 - u2; for either swapped pair, the other's difference must be
    parallel to n and its sum, like twice each fixed point, on that plane.
    Largest term over the largest coordinate of the two differences."""
    normals = [v_sub(*pair) for pair in swapped]
    sums = [v_add(*pair) for pair in swapped]
    terms = [*v_cross(*normals),
             v_dot(normals[0], v_sub(sums[1], sums[0])),
             v_dot(normals[1], v_sub(sums[0], sums[1]))]
    for p in fixed:
        terms += [v_dot(n, v_sub(v_scale(2, p), s))
                  for n, s in zip(normals, sums)]
    return _ratio(max(map(abs, terms)), _largest(normals) * den)


def _plane_symmetry_residual(cp, tol):
    """Best residual over the three choices of the opposite pair of the
    bipyramid in the mirror, (P14, P23), (P12, P34) or the apexes; the
    mirror swaps the other two pairs."""
    # the anchors (1,4), [4] and [8], are the apexes of a pyramidal limit
    v, den = _over_one(cp.quad, cp.pose, cp.hat_pose)
    pairs = [(v[0], v[2]), (v[1], v[3]), (v[4], v[8])]
    return min(_mirror_residual(pairs[:i] + pairs[i + 1:], pairs[i], den)
               for i in range(3))


def _flat_pose_pattern_residual(cp, tol):
    """Congruence of the two orthogonal prism cross-sections (the hallmark of
    the two-flat-pose prismatic class).  Along the edge direction r = r14,
    two anchors lie |(x - y) x r| / |r| apart, so the sorted |(x - y) x r|^2
    over the sides and diagonals of the two sections must agree: largest
    difference over the largest coordinate of those products times r's."""
    points, den = _over_one(cp.pose, cp.hat_pose)
    edge = points[8]
    crosses = [[v_cross(v_sub(x, y), edge) for x, y in combinations(sec, 2)]
               for sec in (points[:4], points[4:8])]
    own, hat = (sorted(map(v_norm_sq, c)) for c in crosses)
    return _ratio(max(abs(a - b) for a, b in zip(own, hat)),
                  _largest(crosses[0] + crosses[1]) * _largest([edge]) * den)


def _vertex_class(center, targets, tol):
    """(V-hedral, anti-V-hedral): the spherical quadrilateral of the rays
    r_j from ``center`` to the four ``targets`` has equal, resp.
    supplementary, opposite side arcs.  Arc j has cosine
    c_j = d_j / sqrt(n_j n_{j+1}), d_j = <r_j, r_{j+1}>, n_j = |r_j|^2; on
    [0, pi] equal arcs have equal cosines and supplementary arcs opposite
    ones, and c_j = +-c_{j+2} iff d_j^2 n_{j+2} n_{j+3} = d_{j+2}^2 n_j n_{j+1}
    with the sign of d_j d_{j+2}, unless c_j^2 vanishes (then both hold)."""
    rays = [v_sub(t, center) for t in targets]
    dots = [v_dot(rays[j], rays[j - 3]) for j in range(4)]
    norms = [v_norm_sq(r) for r in rays]
    v_hedral = anti = True
    for j in (0, 1):
        n_a, n_b = norms[j] * norms[j + 1], norms[j + 2] * norms[j - 1]
        if not _vanishes(dots[j] ** 2 * n_b - dots[j + 2] ** 2 * n_a,
                         n_a * n_b, tol):
            return False, False
        if not _vanishes(dots[j] ** 2, n_a, tol):
            sign = dots[j] * dots[j + 2]
            v_hedral, anti = v_hedral and sign > 0, anti and sign < 0
    return v_hedral, anti


# ---------------------------------------------------------------------------
# label verification
# ---------------------------------------------------------------------------

def _i3_residual(cp, tol) -> int:
    """0 when two opposite vertex pairs of the bipyramid are V-hedral and
    one is anti-V-hedral, else 1.  A quad vertex's figure runs through its
    previous neighbor, the apex, its next neighbor and the hat apex; an
    apex's through the quad vertices."""
    v, _ = _over_one(cp.quad, cp.pose, cp.hat_pose)
    vertices, apex, apex_hat = v[:4], v[4], v[8]
    quad = dict(zip(AXIS_LABELS, vertices))
    classes = {
        center: _vertex_class(
            quad[center], (quad[prev_n], apex, quad[next_n], apex_hat), tol)
        for center, _, prev_n, next_n in VERTEX_ROLES}
    pair_classes = [(classes[center], classes[opposite])
                    for center, opposite, _, _ in VERTEX_ROLES[:2]]
    pair_classes.append(tuple(_vertex_class(a, vertices, tol)
                              for a in (apex, apex_hat)))
    v_pairs = sum(a[0] and b[0] for a, b in pair_classes)
    anti_pairs = sum(a[1] and b[1] for a, b in pair_classes)
    return 0 if v_pairs >= 2 and anti_pairs >= 1 else 1


# Each class label's certificate entries: (entry name, predicate of a
# CoupledPose and the tolerance).
_LABEL_ENTRIES = {
    "I1": (("I1: line symmetry", _line_symmetry_residual),),
    "I2": (("I2: plane symmetry", _plane_symmetry_residual),),
    "I3": (("I3: two V-hedral pairs + one anti-V-hedral", _i3_residual),),
    "III1": (("III1: line symmetry", _line_symmetry_residual),),
    "III2ii": (
        ("III2ii: vertices coplanar", _coplanarity_residual),
        ("III2ii: anti-parallelogram sides",
         _antiparallelogram_sides_residual),
        ("III2ii: not a parallelogram", _not_parallelogram_residual),
        ("III2ii: symmetry plane parallel to edges",
         _sym_plane_parallel_edges_residual),
    ),
    "III3": (("III3: congruent cross-sections",
              _flat_pose_pattern_residual),),
    "III4ii": (
        ("III4ii: vertices coplanar", _coplanarity_residual),
        ("III4ii: parallelogram", _is_parallelogram_residual),
    ),
}


def verify_labels(bib: BiBennett, tau, tol: float = TOL) -> CertificateReport:
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
            "axes parallel", prism_parallel_residual(cp), tol)]
    else:  # the largest anchor coordinate: the apex is the origin
        residuals = [ResidualEntry("anchors copunctal", div(
            _largest(cp.pose.points), cp.pose.den), tol)]
    for label in labels:
        if label not in _LABEL_ENTRIES:
            raise ValueError(f"no predicate for label {label!r}")
        residuals.extend(ResidualEntry(name, predicate(cp, tol), tol)
                         for name, predicate in _LABEL_ENTRIES[label])
    return CertificateReport(f"labels[{','.join(labels)}]", tuple(residuals))
