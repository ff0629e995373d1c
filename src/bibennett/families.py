"""The three families of flexible bi-Bennett couplings.

Two Bennett loops can be glued along the skew quadrilateral P_ij = F_ij +
mu_ij r_ij such that the composite still flexes.  Families A and B are
line-symmetric (the partner loop is the half-turn image of the first about the
symmetry line of the quad); family C couples two distinct loops through an
orientation-preserving isometry with a companion motion parameter tau_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import (
    DegenerateResultantError,
    det3,
    resultant_tau_bar,
    sqrt_scalar,
    v_add,
    v_cross,
    v_dist_sq,
    v_norm_sq,
    v_scale,
    v_sub,
)
from .bennett import (
    AXIS_LABELS,
    Axis,
    BennettDesign,
    PlanarDesign,
    PoleError,
    Pose,
    frame,
    half_turn_direction,
    half_turn_point,
    validate,
)

FAMILIES = ("A", "B", "C", "TrivialLineSym")


class NoRealFamilyError(ValueError):
    """A radicand of the family-A construction is not positive."""


class ExcludedBranchError(ValueError):
    """The mu-set sits on the branch where the family-A formulas degenerate
    (the separately handled line-symmetric solutions)."""


class TrivialQuadError(ValueError):
    """The requested mu-set collapses the coupling to a single tube."""


class NotIsometricError(ValueError):
    """Two quads with different distance sets cannot be rigidly aligned."""


class DegenerateQuadError(ValueError):
    """Coplanar/degenerate tetrahedron where a spatial frame is required."""


class DegenerateCouplingError(ValueError):
    """Family-C offsets with mu14^2 = mu12^2: the coupling relation
    degenerates to tau_bar = +-tau and the offsets form the family-B
    pattern."""


class ZeroOffsetError(ValueError):
    """A zero quad offset puts a quad vertex on its anchor (at k = 0, on the
    apex), where the coupling's certificate cannot pass."""


# ---------------------------------------------------------------------------
# quads on axes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MuSet:
    """Signed offsets mu_ij of the quad vertices along the four axes."""

    mu14: object
    mu12: object
    mu23: object
    mu34: object

    def __getitem__(self, label):
        return {(1, 4): self.mu14, (1, 2): self.mu12,
                (2, 3): self.mu23, (3, 4): self.mu34}[label]

    def as_tuple(self):
        return (self.mu14, self.mu12, self.mu23, self.mu34)


@dataclass(frozen=True)
class SkewQuad:
    """Vertex quadrilateral P14, P12, P23, P34 on the four axes."""

    p14: tuple
    p12: tuple
    p23: tuple
    p34: tuple

    def __getitem__(self, label):
        return {(1, 4): self.p14, (1, 2): self.p12,
                (2, 3): self.p23, (3, 4): self.p34}[label]

    def vertices(self):
        return (self.p14, self.p12, self.p23, self.p34)

    def side_sq(self):
        """Squared side lengths in the cyclic order 14-12, 12-23, 23-34, 34-14."""
        return (
            v_dist_sq(self.p14, self.p12),
            v_dist_sq(self.p12, self.p23),
            v_dist_sq(self.p23, self.p34),
            v_dist_sq(self.p34, self.p14),
        )

    def diag_sq(self):
        """Squared diagonals 14-23 and 12-34."""
        return (v_dist_sq(self.p14, self.p23), v_dist_sq(self.p12, self.p34))

    def orientation_det(self):
        """Signed volume (times six) of the tetrahedron P14, P12, P23, P34."""
        return det3(
            v_sub(self.p12, self.p14),
            v_sub(self.p23, self.p14),
            v_sub(self.p34, self.p14),
        )


def points_on_axes(pose: Pose, mu: MuSet) -> SkewQuad:
    pts = {}
    for label in AXIS_LABELS:
        ax = pose.axes[label]
        pts[label] = v_add(ax.point, v_scale(mu[label], ax.direction))
    return SkewQuad(pts[(1, 4)], pts[(1, 2)], pts[(2, 3)], pts[(3, 4)])


@dataclass(frozen=True)
class Loop:
    """A Bennett (or planar-limit) loop together with its quad offsets."""

    design: object  # BennettDesign or PlanarDesign
    mu: MuSet

    def pose(self, tau) -> Pose:
        return frame(self.design, tau)

    def quad(self, tau) -> SkewQuad:
        return points_on_axes(self.pose(tau), self.mu)


# ---------------------------------------------------------------------------
# line-symmetric families (A, B) and the trivial branch
# ---------------------------------------------------------------------------

def family_a(mu: MuSet):
    """Half-tangents (a1, a2) making the quad a skew isogram for every tau.

    The construction solves the isogram conditions for the squared
    half-tangents; it degenerates exactly on the separately handled
    line-symmetric mu-patterns.
    """
    s1 = mu.mu14 - mu.mu12 + mu.mu23 - mu.mu34
    s2 = mu.mu14 - mu.mu12 - mu.mu23 + mu.mu34
    s3 = mu.mu14 + mu.mu12 + mu.mu23 + mu.mu34
    s4 = mu.mu14 + mu.mu12 - mu.mu23 - mu.mu34
    if s3 * s4 == 0 or s3 * s2 == 0:
        raise ExcludedBranchError(
            "mu-set lies on a branch where the solved formulas degenerate "
            "(covered by the dedicated line-symmetric patterns)")
    a1_sq = -(s1 * s2) / (s3 * s4)
    a2_sq = -(s4 * s1) / (s3 * s2)
    if a1_sq <= 0 or a2_sq <= 0:
        raise NoRealFamilyError("no real half-tangents for this mu-set")
    return sqrt_scalar(a1_sq), sqrt_scalar(a2_sq)


def family_b(mu23, mu34) -> MuSet:
    """The mu-pattern (mu23, mu34, mu23, mu34), an isogram for any design."""
    if mu23 == 0 and mu34 == 0:
        raise TrivialQuadError("mu23 = mu34 = 0 collapses the quad onto F")
    return MuSet(mu23, mu34, mu23, mu34)


def detect_trivial(mu: MuSet) -> bool:
    """The pattern mu14 = -mu23, mu12 = -mu34: the partner tube coincides
    with the original."""
    return mu.mu14 == -mu.mu23 and mu.mu12 == -mu.mu34


def quad_symmetry_line(quad: SkewQuad):
    """Symmetry line of a skew isogram.

    Generically the line through the midpoints of the two diagonals; when the
    quad is a parallelogram (coincident midpoints) the half-turn axis is the
    normal of the quad plane through the common midpoint.
    """
    half = Fraction(1, 2)
    m1 = v_scale(half, v_add(quad.p14, quad.p23))
    m2 = v_scale(half, v_add(quad.p12, quad.p34))
    d = v_sub(m2, m1)
    if d == (0, 0, 0):
        d = v_cross(v_sub(quad.p12, quad.p14), v_sub(quad.p23, quad.p14))
        if d == (0, 0, 0):
            raise DegenerateQuadError("quad degenerates to a segment")
    return m1, d


def isogram_residuals(quad: SkewQuad):
    """Absolute differences of the two pairs of opposite squared side lengths."""
    s = quad.side_sq()
    return (abs(s[0] - s[2]), abs(s[1] - s[3]))


# ---------------------------------------------------------------------------
# bi-Bennett records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiBennett:
    """A coupled pair of Bennett tubes.

    For families A, B and the trivial branch the partner tube is the
    half-turn image of the first (the bar loop is a congruent copy, coupled at
    tau_bar = tau).  For family C the bar loop carries swapped offsets and a
    genuinely different companion parameter tau_bar.  A coupling in a
    prismatic or pyramidal limit carries its symmetry class ``labels``
    (see :mod:`bibennett.limits`); a plain coupling carries none.
    """

    family: str
    design: object
    mu: MuSet
    bar_design: object
    bar_mu: MuSet
    labels: frozenset
    s: int = 1
    branch: int = -1  # sign of the tau_bar root followed by default

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.s not in (-1, 1) or self.branch not in (-1, 1):
            raise ValueError("s and branch must be -1 or +1")

    def loop(self) -> Loop:
        return Loop(self.design, self.mu)

    def bar_loop(self) -> Loop:
        return Loop(self.bar_design, self.bar_mu)


def make_family_a(mu: MuSet, k=1) -> BiBennett:
    a1, a2 = family_a(mu)
    design = validate(a1, a2, k)
    return BiBennett("A", design, mu, design, mu, frozenset())


def make_family_b(mu23, mu34, design: BennettDesign) -> BiBennett:
    mu = family_b(mu23, mu34)
    return BiBennett("B", design, mu, design, mu, frozenset())


def make_trivial(mu23, mu34, design: BennettDesign) -> BiBennett:
    mu = MuSet(-mu23, -mu34, mu23, mu34)
    return BiBennett("TrivialLineSym", design, mu, design, mu,
                     frozenset())


def family_c(design, mu14, mu12, s: int, branch: int = -1) -> BiBennett:
    """Family C: same design twice, quad offsets (mu14, mu12, mu14, mu12) on
    the first tube and s-scaled swapped offsets on the second.

    Rejects mu14^2 = mu12^2, and on a Bennett design a zero offset; a
    planar design keeps zero offsets, which its label certificate passes."""
    if s not in (-1, 1):
        raise ValueError("s must be -1 or +1")
    if mu14 * mu14 == mu12 * mu12:
        raise DegenerateCouplingError(
            "mu14^2 = mu12^2 degenerates the coupling relation to "
            "tau_bar = +-tau")
    if mu14 * mu12 == 0 and isinstance(design, BennettDesign):
        raise ZeroOffsetError(
            "mu14 mu12 = 0 puts two quad vertices on their anchors, where "
            "the half-turn certificate's planes and frames degenerate")
    mu = MuSet(mu14, mu12, mu14, mu12)
    bar_mu = MuSet(s * mu12, s * mu14, s * mu12, s * mu14)
    return BiBennett("C", design, mu, design, bar_mu, frozenset(), s=s,
                     branch=branch)


# ---------------------------------------------------------------------------
# the coupling quartic and tau_bar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingQuartic:
    """Coefficients of A tau^2 tau_bar^2 + B tau^2 + C tau_bar^2 + D."""

    a: object
    b: object
    c: object
    d: object


def coupling_quartic(design, mu14, mu12) -> CouplingQuartic:
    """The biquadratic relation between tau and tau_bar for family C.

    Valid for arbitrary scale k (the spherical limit k = 0 included).
    """
    a1, a2, k = design.a1, design.a2, design.k
    dm = mu14 * mu14 - mu12 * mu12
    sm = mu14 * mu14 + mu12 * mu12 + 2 * k * k
    return CouplingQuartic(
        dm * (a1 - a2) ** 2,
        dm * (a1 * a1 + a2 * a2) + 2 * sm * a1 * a2,
        dm * (a1 * a1 + a2 * a2) - 2 * sm * a1 * a2,
        dm * (a1 + a2) ** 2,
    )


def bar_tau_squared(q: CouplingQuartic, tau):
    den = q.a * tau * tau + q.c
    if den == 0:
        raise PoleError("tau sits on the pole of the tau_bar relation")
    return -(q.b * tau * tau + q.d) / den


def solve_bar_tau(q: CouplingQuartic, tau):
    """Real companion parameters tau_bar at this tau: 0, 1 or 2 values,
    ordered positive root first."""
    sq = bar_tau_squared(q, tau)
    if sq < 0:
        return []
    if sq == 0:
        return [sq * 0]
    root = sqrt_scalar(sq)
    return [root, -root]


# ---------------------------------------------------------------------------
# partner maps: the half-turn and the rigid alignment of two quads
# ---------------------------------------------------------------------------

class _AxisMap:
    """An isometry acting on axes through its point and direction maps."""

    def apply_axis(self, ax: Axis) -> Axis:
        return Axis(ax.label, self.apply_point(ax.point),
                    self.apply_direction(ax.direction))


@dataclass(frozen=True)
class HalfTurn(_AxisMap):
    """Half-turn about the line through ``point`` with direction
    ``direction`` of squared norm ``norm_sq``; exact for rational input."""

    point: tuple
    direction: tuple
    norm_sq: object
    orientation = 1

    def apply_point(self, p):
        return half_turn_point(p, self.point, self.direction, self.norm_sq)

    def apply_direction(self, d):
        return half_turn_direction(d, self.direction, self.norm_sq)


@dataclass(frozen=True)
class RigidMotion(_AxisMap):
    """Isometry of 3-space as a homogeneous transform (column convention)."""

    transform: tuple  # 4x4 rows acting on (w, x, y, z) columns
    orientation: int  # +1 direct, -1 reversing

    def apply_point(self, p):
        m = self.transform
        return tuple(
            m[i][0] + m[i][1] * p[0] + m[i][2] * p[1] + m[i][3] * p[2]
            for i in (1, 2, 3)
        )

    def apply_direction(self, d):
        m = self.transform
        return tuple(
            m[i][1] * d[0] + m[i][2] * d[1] + m[i][3] * d[2]
            for i in (1, 2, 3)
        )


# Relative tolerance of the float alignment's distance and residual checks.
ALIGN_TOL = 1e-9


def align_isometry(src: SkewQuad, dst: SkewQuad) -> RigidMotion:
    """Isometry delta with delta(src vertices) = dst vertices.

    Reversing (orientation -1) when the two tetrahedra have opposite
    orientations, each with a volume above ALIGN_TOL times the cube of the
    longest distance; direct otherwise, so rounding noise on a (near)
    coplanar pair never mirrors the alignment.  Raises NotIsometricError
    when the six pairwise distances disagree.  Gates and transform are
    Python floats; numpy, imported on first use, builds the frames.
    """
    import numpy as np

    def frame_matrix(quad: SkewQuad):
        """Orthonormal frame from the tetrahedron edges (Gram-Schmidt)."""
        e1 = np.array([float(x) for x in v_sub(quad.p12, quad.p14)])
        e2 = np.array([float(x) for x in v_sub(quad.p23, quad.p14)])
        u1 = e1 / np.linalg.norm(e1)
        u2 = e2 - np.dot(e2, u1) * u1
        n2 = np.linalg.norm(u2)
        if n2 < 1e-12:
            raise DegenerateQuadError("collinear quad edges; no spatial frame")
        u2 /= n2
        return np.column_stack([u1, u2, v_cross(u1, u2)])

    fsrc, fdst = (SkewQuad(*(tuple(map(float, p)) for p in q.vertices()))
                  for q in (src, dst))
    pairs = [((1, 4), (1, 2)), ((1, 2), (2, 3)), ((2, 3), (3, 4)),
             ((3, 4), (1, 4)), ((1, 4), (2, 3)), ((1, 2), (3, 4))]
    longest_sq = 0.0
    for a, b in pairs:
        ds = v_dist_sq(fsrc[a], fsrc[b])
        dd = v_dist_sq(fdst[a], fdst[b])
        scale = max(1.0, abs(ds), abs(dd))
        if abs(ds - dd) > ALIGN_TOL * scale:
            raise NotIsometricError(  # reports the rounded exact distances
                f"distance {a}-{b} differs: {float(v_dist_sq(src[a], src[b]))}"
                f" vs {float(v_dist_sq(dst[a], dst[b]))}")
        longest_sq = max(longest_sq, ds, dd)
    fs = frame_matrix(src)
    fd = frame_matrix(dst)
    sign = 1
    vol_s = fsrc.orientation_det()
    vol_d = fdst.orientation_det()
    flat = ALIGN_TOL * longest_sq ** 1.5
    if vol_s * vol_d < 0 and min(abs(vol_s), abs(vol_d)) > flat:
        sign = -1
        fs = fs.copy()
        fs[:, 2] = -fs[:, 2]
    rot = fd @ fs.T
    trans = np.array(fdst.p14) - rot @ np.array(fsrc.p14)
    rows = ((t, *r) for t, r in zip(trans.tolist(), rot.tolist()))
    motion = RigidMotion(((1.0, 0.0, 0.0, 0.0), *rows), sign)
    worst = max(math.dist(motion.apply_point(fsrc[lab]), fdst[lab])
                for lab in AXIS_LABELS)
    if worst > 10 * ALIGN_TOL * max(1.0, abs(vol_s) ** (1 / 3)):
        raise NotIsometricError(f"alignment residual {worst} too large")
    return motion


# ---------------------------------------------------------------------------
# the coupled pose
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoupledPose:
    """Both tubes at matched motion parameters, glued along the shared quad.

    ``delta`` carries the partner tube onto the shared quad: the half-turn
    about the quad's symmetry line for families A, B and the trivial branch
    (whose partner is the first tube itself, at tau_bar = tau), the rigid
    alignment of the bar quad for family C.  ``hat_axes`` are the bar axes
    moved by ``delta`` into the frame of the first tube; ``bib`` is the
    coupling posed.
    """

    bib: BiBennett
    tau: object
    tau_bar: object
    pose: Pose
    quad: SkewQuad
    bar_pose: Pose
    bar_quad: SkewQuad
    hat_axes: dict
    delta: object  # HalfTurn or RigidMotion


class NoRealBranchError(ValueError):
    """No real companion parameter tau_bar at this tau."""


def coupled_pose(bib: BiBennett, tau) -> CoupledPose:
    """Resolve the coupling at tau, solving for tau_bar on the coupling's
    branch."""
    pose = bib.loop().pose(tau)
    quad = points_on_axes(pose, bib.mu)
    if bib.family in ("A", "B", "TrivialLineSym"):
        tau_bar, bar_pose, bar_quad = tau, pose, quad
        line_point, line_dir = quad_symmetry_line(quad)
        delta = HalfTurn(line_point, line_dir, v_norm_sq(line_dir))
    else:
        if isinstance(bib.design, PlanarDesign):
            roots = planar_bar_tau(bib, tau)
        else:
            q = coupling_quartic(bib.design, bib.mu.mu14, bib.mu.mu12)
            roots = solve_bar_tau(q, tau)
        # both solvers return root sets closed under negation, so the
        # requested branch is empty only when there is no root at all
        roots = [r for r in roots if (r > 0) == (bib.branch > 0) or r == 0]
        if not roots:
            raise NoRealBranchError(f"no real tau_bar at tau = {tau}")
        tau_bar = roots[0]
        bar_pose = bib.bar_loop().pose(tau_bar)
        bar_quad = points_on_axes(bar_pose, bib.bar_mu)
        delta = align_isometry(bar_quad, quad)
    hat_axes = {label: delta.apply_axis(ax)
                for label, ax in bar_pose.axes.items()}
    return CoupledPose(bib, tau, tau_bar, pose, quad, bar_pose, bar_quad,
                       hat_axes, delta)


# ---------------------------------------------------------------------------
# exact diagonal-distance rational functions and the necessary conditions
# ---------------------------------------------------------------------------

def _exact_loop(loop: Loop) -> Loop:
    """Rationalize a loop's parameters; floats convert without rounding."""
    scalars = {name: v for name, v in vars(loop.design).items()
               if not isinstance(v, str)}  # PlanarDesign.case is a label
    if not any(isinstance(v, float)
               for v in (*scalars.values(), *loop.mu.as_tuple())):
        return loop
    design = replace(loop.design,
                     **{name: Fraction(v) for name, v in scalars.items()})
    return Loop(design, MuSet(*(Fraction(m) for m in loop.mu.as_tuple())))


def diagonal_rational(loop: Loop, which: int):
    """Exact (numerator, denominator) coefficient lists (ascending, degree 2)
    of the squared diagonal which in {0, 1} as a function of tau.

    Two links (c_a, s_a, d_a), (c_b, s_b, d_b) joined by a joint of angle
    theta put the points at offsets m_a, m_b on their outer axes at squared
    distance E + P cos(theta) + Q sin(theta).  Diagonal 0 (P14-P23) spans
    links 1, 2 around the joint with half-tangent K/tau (K the transmission
    ratio); diagonal 1 (P12-P34) spans links 2, 1 around the joint with
    half-tangent tau, since the joint at axis (1,2) fixes P12.  Float
    parameters are first converted to the rationals they represent.
    """
    loop = _exact_loop(loop)
    link1, link2 = loop.design.links()
    mu = loop.mu
    if which == 0:
        (ca, sa, da), (cb, sb, db), ma, mb = link1, link2, mu.mu14, mu.mu23
    else:
        (ca, sa, da), (cb, sb, db), ma, mb = link2, link1, mu.mu12, mu.mu34
    e = da * da + db * db + ma * ma + mb * mb - 2 * ma * mb * ca * cb
    p = 2 * da * db + 2 * ma * mb * sa * sb
    q = 2 * ma * sa * db - 2 * mb * sb * da
    if which == 0:
        kk = loop.design.transmission()
        num, den = [kk * kk * (e - p), 2 * kk * q, e + p], [kk * kk, 0, 1]
    else:
        num, den = [e + p, 2 * q, e - p], [1, 0, 1]
    return [Fraction(c) for c in num], [Fraction(c) for c in den]


def _coupling_form(num, den, bar_num, bar_den):
    """N(tau) Mbar(tau_bar) - Nbar(tau_bar) M(tau) as a bidegree-(2,2) form,
    the 3x3 nested list of its coefficients of tau^i tau_bar^j."""
    return [[num[i] * bar_den[j] - bar_num[j] * den[i] for j in range(3)]
            for i in range(3)]


@dataclass(frozen=True)
class NecessaryReport:
    """The thirteen necessary conditions for a flexible coupling.

    Four tau-free side conditions plus the nine coefficients of the
    degree-8 elimination of tau_bar from the two diagonal conditions.  For
    the known families the two diagonal conditions are proportional, which
    makes the eliminant identically zero; this shows up as
    ``degenerate_resultant`` (shared quadratic factor) rather than a
    coefficient-wise accident.
    """

    side_residuals: tuple  # 4 scalars
    resultant_coeffs: tuple  # 9 scalars (tau^0 .. tau^8)
    degenerate_resultant: bool

    def residuals(self):
        return self.side_residuals + self.resultant_coeffs

    def all_zero(self) -> bool:
        return all(r == 0 for r in self.residuals())


def necessary_conditions(loop: Loop, bar_loop: Loop) -> NecessaryReport:
    """Evaluate the 13-equation necessary system for flexible coupling.

    Exact when both loops carry Fraction parameters.
    """
    probe = Fraction(7, 5)
    sides = loop.quad(probe).side_sq()
    bar_sides = bar_loop.quad(probe).side_sq()
    # sides of a Bennett quad do not depend on tau; double-check that before
    # treating the single probe as representative
    probe2 = Fraction(-8, 7)
    if loop.quad(probe2).side_sq() != sides and not any(
            isinstance(s, float) for s in sides):
        raise ValueError("side lengths unexpectedly depend on tau")
    side_res = tuple(s - b for s, b in zip(sides, bar_sides))

    forms = []
    for which in (0, 1):
        num, den = diagonal_rational(loop, which)
        bnum, bden = diagonal_rational(bar_loop, which)
        forms.append(_coupling_form(num, den, bnum, bden))
    try:
        coeffs = resultant_tau_bar(forms[0], forms[1])
    except DegenerateResultantError:
        coeffs = [0] * 9
    return NecessaryReport(side_res, tuple(coeffs), not any(coeffs))


def planar_bar_tau(bib: BiBennett, tau):
    """Companion parameters for a family-C coupling in the prismatic limit.

    Solve the first diagonal-matching condition exactly for tau_bar and
    return its real roots, largest first; the rigid alignment of the two
    quads in :func:`coupled_pose` then checks all six distances.
    """
    target = bib.loop().quad(tau).diag_sq()[0]
    bnum, bden = diagonal_rational(bib.bar_loop(), 0)
    # bnum(tb)/bden(tb) = target  ->  quadratic in tb
    roots = _real_quadratic_roots(
        *(n - target * d for n, d in zip(bnum, bden)))
    return sorted(roots, key=float, reverse=True)


def _real_quadratic_roots(c0, c1, c2):
    if c2 == 0:  # the diagonals are even in tau_bar, so c1 is 0 as well
        return []
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    root = sqrt_scalar(disc)
    return [(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)]
