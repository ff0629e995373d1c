"""The three families of flexible bi-Bennett couplings.

Two Bennett loops can be glued along the skew quadrilateral P_ij = F_ij +
mu_ij r_ij such that the composite still flexes.  Families A and B are
line-symmetric (the partner loop is the half-turn image of the first about the
symmetry line of the quad); family C couples two distinct loops through an
orientation-preserving isometry with a companion motion parameter tau_bar.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .algebra import (TOL, DegenerateResultantError, clear_denominators,
                      coordinates, det3, div, is_exact, one_denominator,
                      resultant_tau_bar, sqrt_scalar, to_floats, v_add,
                      v_cross, v_dist_sq, v_dot, v_norm_sq, v_scale, v_sub)
from .bennett import (AXIS_LABELS, BennettDesign, DegenerateQuadError,
                      PlanarDesign, PoleError, Pose, frame, symmetry_line,
                      validate)

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

class MuSet(NamedTuple):
    """Signed offsets mu_ij of the quad vertices along the four axes."""

    mu14: object
    mu12: object
    mu23: object
    mu34: object

    def as_tuple(self):
        return tuple(self)


class SkewQuad(NamedTuple):
    """Vertex quadrilateral P14, P12, P23, P34 on the four axes: ``points``
    are integers over ``den``, or any other coordinates over 1."""

    points: tuple
    den: object

    def __getitem__(self, label):
        return coordinates(self.points[AXIS_LABELS.index(label)], self.den)

    def vertices(self):
        return tuple(coordinates(p, self.den) for p in self.points)

    def _dist_sq(self, i, j):
        return div(v_dist_sq(self.points[i], self.points[j]), self.den ** 2)

    def side_sq(self):
        """Squared side lengths in the cyclic order 14-12, 12-23, 23-34, 34-14."""
        return tuple(self._dist_sq(i, (i + 1) % 4) for i in range(4))

    def diag_sq(self):
        """Squared diagonals 14-23 and 12-34."""
        return self._dist_sq(0, 2), self._dist_sq(1, 3)

    def orientation_det(self):
        """Signed volume (times six) of the tetrahedron P14, P12, P23, P34."""
        p14, *rest = self.points
        return div(det3(*(v_sub(p, p14) for p in rest)), self.den ** 3)


def points_on_axes(pose: Pose, mu: MuSet) -> SkewQuad:
    """The quad at offsets ``mu`` on the axes of ``pose``: integers over D m
    from a pose over D and offsets over m, else the coordinates F + mu r."""
    den = pose.den
    if den == 1 or not all(map(is_exact, mu)):
        return SkewQuad(tuple(
            v_add(coordinates(p, den), v_scale(m, coordinates(r, den)))
            for p, r, m in zip(pose.points, pose.directions, mu)), 1)
    (mus,), m = clear_denominators([mu])
    return SkewQuad(tuple(v_add(v_scale(m, p), v_scale(n, r)) for p, r, n
                          in zip(pose.points, pose.directions, mus)), den * m)


class Loop(NamedTuple):
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


def isogram_residuals(quad: SkewQuad):
    """Absolute differences of the two pairs of opposite squared side lengths."""
    s = quad.side_sq()
    return (abs(s[0] - s[2]), abs(s[1] - s[3]))


# ---------------------------------------------------------------------------
# bi-Bennett records
# ---------------------------------------------------------------------------

class _BiBennett(NamedTuple):
    family: str
    design: object
    mu: MuSet
    bar_mu: MuSet
    labels: frozenset
    branch: int = -1  # sign of the tau_bar root followed by default


class BiBennett(_BiBennett):
    """A coupled pair of Bennett tubes of one design, with quad offsets
    ``mu`` on the first tube and ``bar_mu`` on the partner.  For families A,
    B and the trivial branch the partner tube is the half-turn image of the
    first (a congruent copy, coupled at tau_bar = tau); for family C the bar
    loop carries swapped offsets and its own companion parameter tau_bar.
    A coupling in a prismatic or pyramidal limit carries its symmetry class
    ``labels`` (see :mod:`bibennett.limits`); a plain coupling carries none.
    """

    __slots__ = ()

    # ``_replace`` skips these checks; the package replaces only ``labels``
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.branch not in (-1, 1):
            raise ValueError("branch must be -1 or +1")
        return self

    @property
    def bar_design(self):
        """The partner tube's design, the coupling's one design."""
        return self.design

    def loop(self) -> Loop:
        return Loop(self.design, self.mu)

    def bar_loop(self) -> Loop:
        return Loop(self.design, self.bar_mu)


def make_family_a(mu: MuSet, k=1) -> BiBennett:
    a1, a2 = family_a(mu)
    design = validate(a1, a2, k)
    return BiBennett("A", design, mu, mu, frozenset())


def make_family_b(mu23, mu34, design: BennettDesign) -> BiBennett:
    mu = family_b(mu23, mu34)
    return BiBennett("B", design, mu, mu, frozenset())


def make_trivial(mu23, mu34, design: BennettDesign) -> BiBennett:
    mu = MuSet(-mu23, -mu34, mu23, mu34)
    return BiBennett("TrivialLineSym", design, mu, mu, frozenset())


def family_c(design, mu14, mu12, s: int, branch: int) -> BiBennett:
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
    return BiBennett("C", design, mu, bar_mu, frozenset(), branch=branch)


# ---------------------------------------------------------------------------
# the coupling quartic and tau_bar
# ---------------------------------------------------------------------------

class CouplingQuartic(NamedTuple):
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

class _HalfTurn(NamedTuple):
    line: tuple
    den: object


class HalfTurn(_HalfTurn):
    """Half-turn about the ``line`` (P, l) through P / 2 along l, integers
    over an int ``den`` (:func:`symmetry_line`) or floats."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):  # ``_replace`` skips the check
        self = super().__new__(cls, *args, **kwargs)
        kinds = {type(x) for v in self.line for x in v}
        if kinds != {float} and not kinds | {type(self.den)} <= {int}:
            raise ValueError("line is neither ints over an int den nor floats")
        return self

    def images(self, points, directions, den):
        """(point images, direction images, their denominator D n) of
        ``points`` and ``directions`` over ``den``, all over one D with the
        line: p goes to 2 b + 2 ((p - b).l / |l|^2) l - p, r to
        2 (r.l / |l|^2) l - r, integers over n = |l|^2 for exact input
        (Bareiss, Math. Comp. 22, 1968), floats over n = 1 otherwise."""
        (through, l, *vectors), common = one_denominator([
            (self.line, self.den), ((*points, *directions), den)])
        points, directions = vectors[:len(points)], vectors[len(points):]
        if float in {type(x) for v in (through, l, *vectors) for x in v}:
            b, ns = v_scale(Fraction(1, 2), through), v_norm_sq(l)
            return ([v_sub(v_add(v_scale(2, b), v_scale(
                        2 * (v_dot(v_sub(p, b), l) / ns), l)), p)
                     for p in points],
                    [v_sub(v_scale(2 * (v_dot(r, l) / ns), l), r)
                     for r in directions], 1.0)
        n, images = v_norm_sq(l), []
        # a direction maps as a point would about the parallel line through 0
        for v, base in zip(vectors, [through] * len(points)
                           + [(0, 0, 0)] * len(directions)):
            c = v_dot(v_sub(v_scale(2, v), base), l)
            images.append(tuple(bi * n + c * li - vi * n
                                for bi, li, vi in zip(base, l, v)))
        return images[:len(points)], images[len(points):], common * n


class RigidMotion(NamedTuple):
    """Isometry of 3-space, p to t + R p: the ``rotation`` R as three rows
    and the ``translation`` t."""

    rotation: tuple
    translation: tuple
    orientation: int  # +1 direct, -1 reversing

    def apply_point(self, p):
        return tuple([t + r[0] * p[0] + r[1] * p[1] + r[2] * p[2]
                      for t, r in zip(self.translation, self.rotation)])

    def apply_direction(self, d):
        return tuple([r[0] * d[0] + r[1] * d[1] + r[2] * d[2]
                      for r in self.rotation])

    def images(self, points, directions, den):
        """(point images, direction images, 1): floats, of ``points`` and
        ``directions`` over ``den``."""
        return ([self.apply_point(to_floats(p, den)) for p in points],
                [self.apply_direction(to_floats(d, den)) for d in directions],
                1)


def _fma(a, b, c):
    """a * b + c rounded once, an IEEE fused multiply-add: Dekker's exact
    product of Veltkamp's halves (Numer. Math. 18, 1971) plus c by fsum, or
    Fractions where a half or a product could leave the float range."""
    if 2.0 ** -900 < abs(a * b) < 2.0 ** 995 > abs(a) + abs(b) + abs(c):
        ah, bh = a * (2.0 ** 27 + 1), b * (2.0 ** 27 + 1)
        ah, bh = ah - (ah - a), bh - (bh - b)
        al, bl = a - ah, b - bh
        return math.fsum((ah * bh, ah * bl, al * bh, al * bl, c))
    if not (a and b and math.isfinite(a) and math.isfinite(b)) or c != c:
        return a * b + c  # a * b exact (a zero or non-finite factor), or c NaN
    try:
        return float(Fraction(a) * Fraction(b) + Fraction(c))
    except OverflowError:  # c is +-inf, or the sum rounds past the floats
        return c if math.isinf(c) else math.copysign(math.inf, a * b)


def _dot(a, b):  # two 3-vectors, as a fused chain (README)
    return _fma(a[2], b[2], _fma(a[1], b[1], 0.0 + a[0] * b[0]))


def align_isometry(src: SkewQuad, dst: SkewQuad) -> RigidMotion:
    """Isometry delta with delta(src vertices) = dst vertices.

    Reversing (orientation -1) when the two tetrahedra have opposite
    orientations, each with a volume above TOL times the cube of the
    longest distance; direct otherwise, so rounding noise on a (near)
    coplanar pair never mirrors the alignment.  Raises NotIsometricError
    when the six pairwise distances disagree, or when a vertex misses its
    image by more than 10 TOL times the longest distance (at least 1).
    Gates and motion are Python floats, in the fused forms of the README.
    """

    def frame_matrix(quad: SkewQuad):
        """Orthonormal frame from the tetrahedron edges (Gram-Schmidt)."""
        p14, p12, p23, _ = quad.points
        e1, e2 = (to_floats(v_sub(p, p14), quad.den) for p in (p12, p23))
        n1 = math.sqrt(_dot(e1, e1)) or math.nan  # P12 = P14: NaNs
        u1 = e1[0] / n1, e1[1] / n1, e1[2] / n1
        u2 = v_sub(e2, v_scale(_dot(e2, u1), u1))
        n2 = math.sqrt(_dot(u2, u2))
        if not n2 >= 1e-12:  # NaN where P12 = P14
            raise DegenerateQuadError("collinear quad edges; no spatial frame")
        u2 = u2[0] / n2, u2[1] / n2, u2[2] / n2
        return u1, u2, v_cross(u1, u2)

    ps, pd = ([to_floats(p, q.den) for p in q.points] for q in (src, dst))
    longest_sq = 0.0
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)):
        ds, dd = v_dist_sq(ps[i], ps[j]), v_dist_sq(pd[i], pd[j])
        if abs(ds - dd) > TOL * max(1.0, abs(ds), abs(dd)):
            raise NotIsometricError(  # reports the rounded exact distances
                f"distance {AXIS_LABELS[i]}-{AXIS_LABELS[j]} differs: "
                f"{float(src._dist_sq(i, j))} vs {float(dst._dist_sq(i, j))}")
        longest_sq = max(longest_sq, ds, dd)
    fs, fd = frame_matrix(src), frame_matrix(dst)
    vol_s, vol_d = (det3(*(v_sub(p, q[0]) for p in q[1:])) for q in (ps, pd))
    sign, flat = 1, TOL * longest_sq ** 1.5
    if vol_s * vol_d < 0 and min(abs(vol_s), abs(vol_d)) > flat:
        sign, fs = -1, (fs[0], fs[1], v_scale(-1, fs[2]))
    rot = tuple(tuple(_dot(a, b) for b in zip(*fs)) for a in zip(*fd))
    p = ps[0]
    trans = tuple(x - (0.0 + _fma(r[2], p[2], _fma(r[0], p[0], r[1] * p[1])))
                  for x, r in zip(pd[0], rot))
    motion = RigidMotion(rot, trans, sign)
    worst = max(math.dist(motion.apply_point(p), q) for p, q in zip(ps, pd))
    if not worst <= 10 * TOL * max(1.0, math.sqrt(longest_sq)):
        raise NotIsometricError(f"alignment residual {worst} too large")
    return motion


# ---------------------------------------------------------------------------
# the coupled pose
# ---------------------------------------------------------------------------

class _CoupledPose(NamedTuple):
    bib: BiBennett
    tau: object
    tau_bar: object
    pose: Pose
    quad: SkewQuad
    bar_pose: Pose
    bar_quad: SkewQuad
    delta: object  # HalfTurn or RigidMotion


class CoupledPose(_CoupledPose):
    """Both tubes at matched motion parameters, glued along the shared quad.

    ``delta`` carries the partner tube onto the shared quad: the half-turn
    about the quad's symmetry line for families A, B and the trivial branch
    (the first tube itself, at tau_bar = tau), the rigid alignment of the
    bar quad for family C.  ``hat_pose``, built on first read, is the bar
    pose moved by ``delta``, and ``hat_axes`` its axes.
    """

    @cached_property
    def hat_pose(self) -> Pose:
        bar = self.bar_pose
        return Pose(bar.design, self.tau_bar,
                    *self.delta.images(bar.points, bar.directions, bar.den))

    @property
    def hat_axes(self) -> dict:
        return self.hat_pose.axes


class NoRealBranchError(ValueError):
    """No real companion parameter tau_bar at this tau."""


def coupled_pose(bib: BiBennett, tau) -> CoupledPose:
    """Resolve the coupling at tau, solving for tau_bar on the coupling's
    branch."""
    pose = bib.loop().pose(tau)
    quad = points_on_axes(pose, bib.mu)
    if bib.family in ("A", "B", "TrivialLineSym"):
        tau_bar, bar_pose, bar_quad = tau, pose, quad
        delta = HalfTurn(symmetry_line(quad.points), quad.den)
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
    return CoupledPose(bib, tau, tau_bar, pose, quad, bar_pose, bar_quad,
                       delta)


# ---------------------------------------------------------------------------
# exact diagonal-distance rational functions and the necessary conditions
# ---------------------------------------------------------------------------

def _exact_loop(loop: Loop) -> Loop:
    """Rationalize a loop's parameters; floats convert without rounding."""
    design, mu = loop
    if not any(isinstance(v, float) for v in (*design, *mu)):
        return loop
    # the fields, not the values a design caches; PlanarDesign.case is a label
    return Loop(type(design)(*(v if isinstance(v, str) else Fraction(v)
                               for v in design)), MuSet(*map(Fraction, mu)))


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
    design, mu = _exact_loop(loop)
    link1, link2 = design.links()
    if which == 0:
        (ca, sa, da), (cb, sb, db), ma, mb = link1, link2, mu.mu14, mu.mu23
    else:
        (ca, sa, da), (cb, sb, db), ma, mb = link2, link1, mu.mu12, mu.mu34
    e = da * da + db * db + ma * ma + mb * mb - 2 * ma * mb * ca * cb
    p = 2 * da * db + 2 * ma * mb * sa * sb
    q = 2 * ma * sa * db - 2 * mb * sb * da
    if which == 0:
        kk = design.transmission()
        num, den = [kk * kk * (e - p), 2 * kk * q, e + p], [kk * kk, 0, 1]
    else:
        num, den = [e + p, 2 * q, e - p], [1, 0, 1]
    return [Fraction(c) for c in num], [Fraction(c) for c in den]


def _side_sq(loop: Loop):
    """Squared sides 14-12, 12-23, 23-34, 34-14 of the loop's quad, which do
    not depend on tau: side i spans link i mod 2 + 1, (c, s, d), between the
    points at offsets m_a, m_b on its two axes, at squared distance
    d^2 + m_a^2 + m_b^2 - 2 m_a m_b c."""
    links, mu = loop.design.links() * 2, loop.mu
    return tuple(Fraction(d * d + ma * ma + mb * mb - 2 * ma * mb * c)
                 for (c, _, d), ma, mb in zip(links, mu, mu[1:] + mu[:1]))


class NecessaryReport(NamedTuple):
    """The thirteen necessary conditions for a flexible coupling.

    Four tau-free side conditions plus the nine coefficients of the
    degree-8 elimination of tau_bar from the two diagonal conditions.  For
    the known families the two diagonal conditions are proportional, which
    makes the eliminant identically zero.
    """

    side_residuals: tuple  # 4 scalars
    resultant_coeffs: tuple  # 9 scalars (tau^0 .. tau^8)

    @property
    def degenerate_resultant(self) -> bool:
        """Whether every coefficient of the eliminant is zero."""
        return not any(self.resultant_coeffs)


def necessary_conditions(loop: Loop, bar_loop: Loop) -> NecessaryReport:
    """Evaluate the 13-equation necessary system for flexible coupling,
    exactly: float parameters convert to the rationals they represent.  The
    diagonals' coefficient lists clear to integers over one L; each coupling
    form N(tau) Mbar(tau_bar) - Nbar(tau_bar) M(tau), 3x3 over L^2, is
    divided by its content g_w; as Res(x p, y q) = x^2 y^2 Res(p, q) for
    quadratics, the eliminant takes one scale (g_0 g_1 / L^4)^2 at the end."""
    loop, bar_loop = _exact_loop(loop), _exact_loop(bar_loop)
    side_res = tuple(s - b for s, b in zip(_side_sq(loop), _side_sq(bar_loop)))
    lists, common = clear_denominators([
        c for which in (0, 1) for part in (loop, bar_loop)
        for c in diagonal_rational(part, which)])
    forms, contents = [], 1
    for num, den, bar_num, bar_den in (lists[:4], lists[4:]):
        form = [[num[i] * bar_den[j] - bar_num[j] * den[i] for j in range(3)]
                for i in range(3)]
        content = math.gcd(*form[0], *form[1], *form[2]) or 1
        forms.append([[c // content for c in row] for row in form])
        contents *= content
    scale = Fraction(contents, common ** 4) ** 2
    try:
        coeffs = [scale * c if c else 0 for c in resultant_tau_bar(*forms)]
    except DegenerateResultantError:
        coeffs = [0] * 9
    return NecessaryReport(side_res, tuple(coeffs))


def planar_bar_tau(bib: BiBennett, tau):
    """Companion parameters for a family-C coupling in the prismatic limit.

    Solve the first diagonal-matching condition exactly for tau_bar and
    return its real roots, largest first; the rigid alignment of the two
    quads in :func:`coupled_pose` then checks all six distances.
    """
    target = bib.loop().quad(tau).diag_sq()[0]
    bnum, bden = diagonal_rational(bib.bar_loop(), 0)
    # bnum(tb)/bden(tb) = target  ->  quadratic in tb
    c0, c1, c2 = (n - target * d for n, d in zip(bnum, bden))
    disc = c1 * c1 - 4 * c2 * c0
    if c2 == 0 or disc < 0:  # c2 = 0 makes c1 0: the diagonals are even
        return []
    root = sqrt_scalar(disc)
    return sorted([(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)],
                  key=float, reverse=True)
