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
    Quadratic2,
    det3,
    fit_rational,
    resultant_tau_bar,
    sqrt_scalar,
    v_add,
    v_cross,
    v_dist_sq,
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


def family_b(mu23, mu34, design: BennettDesign) -> MuSet:
    """The mu-pattern (mu23, mu34, mu23, mu34), an isogram for any design."""
    if mu23 == 0 and mu34 == 0:
        raise TrivialQuadError("mu23 = mu34 = 0 collapses the quad onto F")
    _ = design  # any valid design works; kept in the signature for intent
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


def halfturn_partner(pose: Pose, quad: SkewQuad, tol: float = 1e-9) -> Pose:
    """Axes of the partner tube: the half-turn image of the pose about the
    symmetry line of the quad."""
    res = isogram_residuals(quad)
    if any(float(abs(r)) > tol for r in res):
        raise ValueError("quad is not a skew isogram; no line symmetry")
    lp, ld = quad_symmetry_line(quad)
    axes = {}
    for label, ax in pose.axes.items():
        axes[label] = Axis(
            label,
            half_turn_point(ax.point, lp, ld),
            half_turn_direction(ax.direction, ld),
        )
    return Pose(pose.tau, axes)


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
    genuinely different companion parameter tau_bar.
    """

    family: str
    design: object
    mu: MuSet
    bar_design: object
    bar_mu: MuSet
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
    return BiBennett("A", design, mu, design, mu)


def make_family_b(mu23, mu34, design: BennettDesign) -> BiBennett:
    mu = family_b(mu23, mu34, design)
    return BiBennett("B", design, mu, design, mu)


def make_trivial(mu23, mu34, design: BennettDesign) -> BiBennett:
    mu = MuSet(-mu23, -mu34, mu23, mu34)
    return BiBennett("TrivialLineSym", design, mu, design, mu)


def family_c(design, mu14, mu12, s: int, branch: int = -1) -> BiBennett:
    """Family C: same design twice, quad offsets (mu14, mu12, mu14, mu12) on
    the first tube and s-scaled swapped offsets on the second."""
    if s not in (-1, 1):
        raise ValueError("s must be -1 or +1")
    mu = MuSet(mu14, mu12, mu14, mu12)
    bar_mu = MuSet(s * mu12, s * mu14, s * mu12, s * mu14)
    return BiBennett("C", design, mu, design, bar_mu, s=s, branch=branch)


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

    def __call__(self, tau, tau_bar):
        t2, b2 = tau * tau, tau_bar * tau_bar
        return self.a * t2 * b2 + self.b * t2 + self.c * b2 + self.d


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
# rigid alignment of two quads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidMotion:
    """Isometry of 3-space as a homogeneous transform (column convention)."""

    transform: tuple  # Mat4
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

    def apply_axis(self, ax: Axis) -> Axis:
        return Axis(ax.label, self.apply_point(ax.point),
                    self.apply_direction(ax.direction))


def align_isometry(src: SkewQuad, dst: SkewQuad, tol: float = 1e-9) -> RigidMotion:
    """Isometry delta with delta(src vertices) = dst vertices.

    Direct when the two tetrahedra have the same orientation, reversing
    (orientation -1) otherwise.  Raises NotIsometricError when the six
    pairwise distances disagree.  This float alignment is the one place the
    package uses numpy, imported on first use.
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
        u3 = np.cross(u1, u2)
        return np.column_stack([u1, u2, u3])

    pairs = [((1, 4), (1, 2)), ((1, 2), (2, 3)), ((2, 3), (3, 4)),
             ((3, 4), (1, 4)), ((1, 4), (2, 3)), ((1, 2), (3, 4))]
    for a, b in pairs:
        ds = float(v_dist_sq(src[a], src[b]))
        dd = float(v_dist_sq(dst[a], dst[b]))
        scale = max(1.0, abs(ds), abs(dd))
        if abs(ds - dd) > tol * scale:
            raise NotIsometricError(
                f"distance {a}-{b} differs: {ds} vs {dd}")
    fs = frame_matrix(src)
    fd = frame_matrix(dst)
    sign = 1
    vol_s = float(src.orientation_det())
    vol_d = float(dst.orientation_det())
    if vol_s * vol_d < 0:
        sign = -1
        fs = fs.copy()
        fs[:, 2] = -fs[:, 2]
    rot = fd @ fs.T
    ps = np.array([float(x) for x in src.p14])
    pd = np.array([float(x) for x in dst.p14])
    trans = pd - rot @ ps
    m = [[1.0, 0.0, 0.0, 0.0]]
    for i in range(3):
        m.append([trans[i]] + [rot[i][j] for j in range(3)])
    motion = RigidMotion(tuple(tuple(r) for r in m), sign)
    worst = max(
        math.dist(motion.apply_point(tuple(float(x) for x in src[lab])),
                  tuple(float(x) for x in dst[lab]))
        for lab in AXIS_LABELS
    )
    if worst > 10 * tol * max(1.0, abs(vol_s) ** (1 / 3)):
        raise NotIsometricError(f"alignment residual {worst} too large")
    return motion


# ---------------------------------------------------------------------------
# the coupled pose
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoupledPose:
    """Both tubes at matched motion parameters, glued along the shared quad.

    ``hat_axes`` are the axes of the partner tube moved into the frame of the
    first tube; for family C they are delta(bar axes), for families A/B the
    half-turn image of the first tube's own axes.
    """

    tau: object
    tau_bar: object
    pose: Pose
    quad: SkewQuad
    bar_pose: Pose
    bar_quad: SkewQuad
    hat_axes: dict
    delta: object  # RigidMotion or None for the exact half-turn families


class NoRealBranchError(ValueError):
    """No real companion parameter tau_bar at this tau."""


def coupled_pose(bib: BiBennett, tau, tau_bar=None) -> CoupledPose:
    """Resolve the coupling at tau (solving for tau_bar when not supplied)."""
    pose = bib.loop().pose(tau)
    quad = points_on_axes(pose, bib.mu)
    if bib.family in ("A", "B", "TrivialLineSym"):
        hat = halfturn_partner(pose, quad)
        return CoupledPose(tau, tau, pose, quad, pose, quad,
                           dict(hat.axes), None)
    if tau_bar is None:
        if isinstance(bib.design, PlanarDesign):
            roots = planar_bar_tau(bib, tau)
        else:
            q = coupling_quartic(bib.design, bib.mu.mu14, bib.mu.mu12)
            roots = solve_bar_tau(q, tau)
        roots = [r for r in roots
                 if (r > 0) == (bib.branch > 0) or r == 0] or roots
        if not roots:
            raise NoRealBranchError(f"no real tau_bar at tau = {tau}")
        tau_bar = roots[0]
    bar_pose = bib.bar_loop().pose(tau_bar)
    bar_quad = points_on_axes(bar_pose, bib.bar_mu)
    delta = align_isometry(bar_quad, quad)
    hat_axes = {label: delta.apply_axis(ax)
                for label, ax in bar_pose.axes.items()}
    return CoupledPose(tau, tau_bar, pose, quad, bar_pose, bar_quad,
                       hat_axes, delta)


# ---------------------------------------------------------------------------
# exact diagonal-distance rational functions and the necessary conditions
# ---------------------------------------------------------------------------

_FIT_POINTS = [Fraction(n) for n in (1, 2, 3, 4, -1, -2, -3, 5, -4)] + [
    Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(-5, 3)]


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

    The fit is exact interpolation, so float parameters are first converted
    to the rationals they represent.
    """
    loop = _exact_loop(loop)

    def f(tau):
        return loop.quad(tau).diag_sq()[which]

    return fit_rational(f, 2, 2, points=_FIT_POINTS, checks=3)


def _coupling_form(num, den, bar_num, bar_den) -> Quadratic2:
    """N(tau) Mbar(tau_bar) - Nbar(tau_bar) M(tau) as a bidegree-(2,2) form."""
    coeff = tuple(
        tuple(num[i] * bar_den[j] - bar_num[j] * den[i] for j in range(3))
        for i in range(3)
    )
    return Quadratic2(coeff)


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
        res = resultant_tau_bar(forms[0], forms[1])
        coeffs = res.coefficients("tau") if not res.is_zero() else []
        flat = [c.terms.get((), 0) for c in coeffs]
        flat += [0] * (9 - len(flat))
        degenerate = res.is_zero()
    except DegenerateResultantError:
        flat = [0] * 9
        degenerate = True
    return NecessaryReport(side_res, tuple(flat[:9]), degenerate)


def planar_bar_tau(bib: BiBennett, tau):
    """Companion parameters for a family-C coupling in the prismatic limit.

    Solve both diagonal-matching conditions exactly for tau_bar and return
    their common real roots.
    """
    loop, bar_loop = bib.loop(), bib.bar_loop()
    roots_per_diag = []
    for which in (0, 1):
        target = loop.quad(tau).diag_sq()[which]
        bnum, bden = diagonal_rational(bar_loop, which)
        # bnum(tb)/bden(tb) = target  ->  quadratic in tb
        c2 = bnum[2] - target * bden[2]
        c1 = bnum[1] - target * bden[1]
        c0 = bnum[0] - target * bden[0]
        roots_per_diag.append(_real_quadratic_roots(c2, c1, c0))
    out = []
    for r in roots_per_diag[0]:
        if any(abs(float(r) - float(r2)) < 1e-9 for r2 in roots_per_diag[1]):
            out.append(r)
    out.sort(key=float, reverse=True)
    return out


def _real_quadratic_roots(c2, c1, c0):
    if c2 == 0:
        if c1 == 0:
            return []
        return [-c0 / c1]
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    root = sqrt_scalar(disc)
    return [(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)]


# ---------------------------------------------------------------------------
# 6R loops
# ---------------------------------------------------------------------------

def extract_6r_loops(bib: BiBennett, tau, tau_bar=None):
    """The four 6R loops inside a coupled pose.

    Each loop omits one axis label from both tubes and traverses the three
    remaining axes of the first tube followed by the three remaining hat
    axes; returned as a list of four 6-element Axis sequences.
    """
    cp = coupled_pose(bib, tau, tau_bar)
    loops = []
    for omitted in AXIS_LABELS:
        kept = [label for label in AXIS_LABELS if label != omitted]
        seq = [cp.pose.axes[label] for label in kept]
        seq += [cp.hat_axes[label] for label in reversed(kept)]
        loops.append(tuple(seq))
    return loops
