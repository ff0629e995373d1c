"""Single Bennett loops and their planar limits: parameters, DH chain,
closure, symmetries.

All kinematic quantities are rational functions of the design parameters and
the motion parameter tau, so every operation here is exact when called with
Fractions or ints.

A planar loop is the Bennett loop with its twists pinned to 0 or pi, so the
two kinds of design differ only in what they answer to ``links()`` (the two
links as (cos, sin, offset)) and ``transmission()``; ``frame`` and
``loop_closure_residual`` take either.  Both run through one kernel that
applies the sparse factors of the DH chain to basis vectors, fraction-free
for rational input: ``frame`` applies the open chain to the reference point
and direction, and ``loop_closure_residual`` applies the eight factors of
the closed chain to the four basis rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .algebra import (
    div,
    is_exact,
    nullspace_vector,
    v_add,
    v_cross,
    v_dot,
    v_norm_sq,
    v_scale,
    v_sub,
)

FLOAT_TOL = 1e-9

AXIS_LABELS = ((1, 4), (1, 2), (2, 3), (3, 4))

# axis relabelling by the half-turn about the symmetry line of a loop or quad
SWAP = {(1, 4): (2, 3), (2, 3): (1, 4), (1, 2): (3, 4), (3, 4): (1, 2)}


class ConventionError(ValueError):
    """Design parameters violate the positivity convention."""


class DegenerateDesignError(ValueError):
    """a1 == a2: the transmission relation degenerates."""


class PoleError(ValueError):
    """tau = 0 is a pole of the joint-angle substitution t_{1,2} = K/tau."""


# ---------------------------------------------------------------------------
# designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BennettDesign:
    """Intrinsic Bennett loop parameters via half-tangents a_i = tan(alpha_i/2).

    The scale k fixes the common normal lengths d_i = k sin(alpha_i); k = 0 is
    the spherical (pyramidal) limit.
    """

    a1: object
    a2: object
    k: object

    @property
    def d1(self):
        return div(self.k * 2 * self.a1, 1 + self.a1 * self.a1)

    @property
    def d2(self):
        return div(self.k * 2 * self.a2, 1 + self.a2 * self.a2)

    def links(self):
        """The links (cos, sin, offset) of twist alpha_i and offset d_i."""
        return _bennett_link(self.a1, self.k), _bennett_link(self.a2, self.k)

    def transmission(self):
        return transmission_K(self)


def validate(a1, a2, k) -> BennettDesign:
    """Build a design, rejecting convention and degeneracy violations."""
    if a1 <= 0 or a2 <= 0:
        raise ConventionError(
            "half-tangents must be positive (twist angles in (0, pi))")
    if a1 == a2:
        raise DegenerateDesignError(
            "a1 == a2 makes the transmission ratio infinite")
    if k < 0:
        raise ConventionError("scale k must be nonnegative")
    return BennettDesign(a1, a2, k)


def transmission_K(design: BennettDesign):
    """Constant product t_{1,2} t_{2,3} along the flex."""
    return div(design.a1 + design.a2, design.a1 - design.a2)


PLANAR_CASES = ("1a", "1b", "2a", "2b")

# cosines of the pinned twist angles: -1 for alpha = pi, 1 for alpha = 0
_PLANAR_COS = {"1a": (-1, -1), "1b": (-1, 1), "2a": (1, 1), "2b": (1, -1)}


@dataclass(frozen=True)
class PlanarDesign:
    """Planar 4R limit: free distances d1, d2 with twists pinned to 0 or pi."""

    d1: object
    d2: object
    case: str

    def __post_init__(self):
        if self.case not in PLANAR_CASES:
            raise ValueError(f"unknown planar case {self.case!r}")
        if self.d1 <= 0 or self.d2 <= 0:
            raise ConventionError("planar distances must be positive")

    def links(self):
        """The links (cos, sin, offset) of the pinned twists, offsets d_i."""
        cos1, cos2 = _PLANAR_COS[self.case]
        return (cos1, 0, self.d1), (cos2, 0, self.d2)

    def transmission(self):
        return planar_K(self)


def planar_K(pd: PlanarDesign):
    """Limit of the transmission ratio for each pinned-twist case."""
    if pd.case in ("1a", "2a"):
        if pd.d1 == pd.d2:
            raise PoleError(
                "d1 == d2 (rhombus) is a pole of the planar transmission ratio")
        num = pd.d1 + pd.d2
        return div(num, pd.d2 - pd.d1 if pd.case == "1a" else pd.d1 - pd.d2)
    return 1 if pd.case == "1b" else -1


# ---------------------------------------------------------------------------
# DH factors with half-angle substitution
# ---------------------------------------------------------------------------

def _rotation(t, exact):
    """(c, s, h): cos c/h and sin s/h of the angle with half-tangent t."""
    if exact:
        p, q = t.numerator, t.denominator
        return q * q - p * p, 2 * p * q, q * q + p * p
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den, 1


def _cos_sin(t):
    """Cosine and sine of the angle with half-tangent t."""
    exact = is_exact(t)
    c, s, h = _rotation(t, exact)
    return (Fraction(c, h), Fraction(s, h)) if exact else (c, s)


def _bennett_link(a, k):
    """(cos, sin, offset) of the link with half-tangent twist a and offset
    k sin(alpha)."""
    c, s = _cos_sin(a)
    return c, s, k * s


def _joint_half_tangents(design, tau):
    if tau == 0:
        raise PoleError(
            "tau = 0 is a pole of the substitution t_{1,2} = K / tau")
    return div(design.transmission(), tau), tau


def loop_closure_residual(design, tau):
    """Max-abs deviation of the 8-factor chain product link1 J(t12) link2
    J(t23) link1 J(-t12) link2 J(-t23) from the identity.

    The kernel applies the factors to the four basis rows left to right:
    the multiplied-out 4x4 product row by row, without its zero terms.
    Exact input gives a Fraction.
    """
    _, exact, (l1, j12, l2, j23) = _kernel_factors(design, tau)
    factors = (l1, j12, l2, j23, l1, _inverse_joint(j12), l2,
               _inverse_joint(j23))
    rows = []
    for row in _BASIS:
        for (_, apply), factor in factors:
            row = apply(factor, row)
        rows.append(row)
    # every factor scales w by its h, so e0 ends with w = their product
    den = rows[0][0]
    gap = max(abs(v - den * (i == j))
              for i, row in enumerate(rows) for j, v in enumerate(row))
    return Fraction(gap, den) if exact else gap


def planar_loop_closure_residual(pd: PlanarDesign, tau):
    """Closure residual of a planar loop."""
    return loop_closure_residual(pd, tau)


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Axis:
    label: tuple
    point: tuple
    direction: tuple


@dataclass(frozen=True)
class Pose:
    """A configured loop at motion parameter tau: all four axes as (F, r);
    ``design`` is the loop posed."""

    design: object  # BennettDesign or PlanarDesign
    tau: object
    axes: dict  # label -> Axis

    def points(self) -> dict:
        return {label: ax.point for label, ax in self.axes.items()}


# The kernel.  A pose needs only the point column M e0 and the direction
# column M e1 of M12, M23 and M34, so the sparse factors of the chain are
# applied right to left to e0 and e1 instead of being multiplied out as 4x4
# matrices.  Each factor carries its own denominator h; in the convention of
# column vectors (w, x, y, z) they are
#
#   link  (c, s, off, h):  [[h, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0],
#                           [off, 0, 0, h]], the twist with cos c/h and
#                          sin s/h, then the offset off/h along x
#   joint (c, s, h):       [[h, 0, 0, 0], [0, h, 0, 0], [0, 0, c, s],
#                           [0, 0, -s, c]], the rotation about x with cos c/h
#                          and sin s/h
#
# When every scalar is an int or a Fraction the entries are integers (a
# half-tangent p/q enters as q^2 - p^2, 2pq and q^2 + p^2), and each output
# is one Fraction over the w component of M e0, the product of all h: the
# fraction-free scheme of Bareiss (Math. Comp. 22, 1968).  Any other scalar
# type runs the same code with h = 1.  The closure residual applies the
# eight factors of the closed chain to the four basis rows, left to right,
# so its float sums are those of the multiplied-out 4x4 product.

def _link_factor(link, exact):
    """Kernel factor (c, s, off, h) of a link given as (cos, sin, offset)."""
    c, s, off = link
    if not exact:
        return c, s, off, 1
    h = math.lcm(c.denominator, s.denominator, off.denominator)
    return (c.numerator * (h // c.denominator),
            s.numerator * (h // s.denominator),
            off.numerator * (h // off.denominator), h)


def _link_column(factor, v):
    c, s, off, h = factor
    w, x, y, z = v
    return (h * w, c * x - s * y, s * x + c * y, off * w + h * z)


def _link_row(factor, v):
    c, s, off, h = factor
    w, x, y, z = v
    return (w * h + z * off, x * c + y * s, y * c - x * s, z * h)


def _joint_column(factor, v):
    c, s, h = factor
    w, x, y, z = v
    return (h * w, h * x, c * y + s * z, c * z - s * y)


def _joint_row(factor, v):
    c, s, h = factor
    w, x, y, z = v
    return (w * h, x * h, y * c - z * s, y * s + z * c)


# a factor is a (kind, values) pair; its kind applies it to a column vector
# (from the left) and to a row vector (from the right)
_LINK = (_link_column, _link_row)
_JOINT = (_joint_column, _joint_row)


def _inverse_joint(joint):
    """The joint factor of the opposite angle."""
    kind, (c, s, h) = joint
    return kind, (c, -s, h)


_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _apply_factors(factors, vectors):
    """Images of the column ``vectors`` under the product of ``factors``
    ((kind, values) pairs, leftmost first)."""
    images = []
    for v in vectors:
        for (apply, _), factor in reversed(factors):
            v = apply(factor, v)
        images.append(v)
    return images


def _kernel_factors(design, tau):
    """The first link (cos, sin, offset) of ``design``, whether its chain at
    tau is exact, and the kernel factors (link1, J(t12), link2, J(t23)) as
    (kind, values) pairs."""
    t12, t23 = _joint_half_tangents(design, tau)
    link1, link2 = design.links()
    exact = all(is_exact(v) for v in (*link1, *link2, t12, t23))
    return link1, exact, ((_LINK, _link_factor(link1, exact)),
                          (_JOINT, _rotation(t12, exact)),
                          (_LINK, _link_factor(link2, exact)),
                          (_JOINT, _rotation(t23, exact)))


def _kernel_axis(label, factors, exact) -> Axis:
    """Axis of the product of ``factors`` ((kind, values) pairs, leftmost
    first) from its columns on e0 and e1."""
    (den, *point), (_, *direction) = _apply_factors(factors, _BASIS[:2])
    if exact:
        return Axis(label, tuple(Fraction(n, den) for n in point),
                    tuple(Fraction(n, den) for n in direction))
    # the sums of a 4x4 matrix product start from int 0 and so never end on
    # -0.0; starting from 0 here as well keeps the float zeros of a pose
    # equal to those of the multiplied-out chain
    return Axis(label, tuple(0 + n for n in point),
                tuple(0 + n for n in direction))


def frame(design, tau) -> Pose:
    """Points F_ij and unit directions r_ij of all four axes at tau: the
    pose of the DH chain link1 J(t12) link2 J(t23) link1, for a
    BennettDesign or a PlanarDesign."""
    link1, exact, (l1, j12, l2, j23) = _kernel_factors(design, tau)
    cos1, sin1, off1 = link1
    axes = {
        (1, 4): Axis((1, 4), (0, 0, 0), (1, 0, 0)),
        (1, 2): Axis((1, 2), (0, 0, off1), (cos1, sin1, 0)),
        (2, 3): _kernel_axis((2, 3), (l1, j12, l2), exact),
        (3, 4): _kernel_axis((3, 4), (l1, j12, l2, j23, l1), exact),
    }
    return Pose(design, tau, axes)


def planar_frame(pd: PlanarDesign, tau) -> Pose:
    """Points and unit directions of all four axes of a planar loop at tau."""
    return frame(pd, tau)


# ---------------------------------------------------------------------------
# line geometry: intersections, regulus, symmetry line
# ---------------------------------------------------------------------------

def pluecker_product(axis_a: Axis, axis_b: Axis):
    """Reciprocal product of the two axis lines; zero iff they intersect
    (or are parallel)."""
    ma = v_cross(axis_a.point, axis_a.direction)
    mb = v_cross(axis_b.point, axis_b.direction)
    return v_dot(axis_a.direction, mb) + v_dot(axis_b.direction, ma)


class DegenerateQuadricError(ValueError):
    """The first three axes do not span a unique ruled quadric."""


def _quadric_row(point):
    w, x, y, z = 1, point[0], point[1], point[2]
    return [w * w, x * x, y * y, z * z,
            w * x, w * y, w * z, x * y, x * z, y * z]


def _quadric_value(q, point):
    return sum(c * v for c, v in zip(q, _quadric_row(point)))


def regulus_residual(pose: Pose):
    """Deviation of axis (3,4) from the quadric spanned by the other three axes.

    Zero for every Bennett pose.  Three pairwise skew lines lie on exactly
    one quadric; raises DegenerateQuadricError when two of the first three
    axes meet instead (their Pluecker product is 0, or below FLOAT_TOL in
    float arithmetic): at k = 0, where all axes pass through the origin, and
    on the a1 a2 = 1 subset, where opposite axes meet and the regulus splits
    into two pencils of lines.
    """
    first = [pose.axes[label] for label in AXIS_LABELS[:3]]
    for a, b in combinations(first, 2):
        side = pluecker_product(a, b)
        if side == 0 or not is_exact(side) and abs(side) < FLOAT_TOL:
            raise DegenerateQuadricError(
                f"axes {a.label} and {b.label} meet; the regulus through "
                "axes (1,4), (1,2), (2,3) is degenerate")
    spans = []
    for ax in first:
        p0 = ax.point
        p1 = v_add(p0, ax.direction)
        p2 = v_add(p0, v_scale(2, ax.direction))
        spans.extend([p0, p1, p2])
    q = nullspace_vector([_quadric_row(p) for p in spans], 10)
    ax4 = pose.axes[(3, 4)]
    vals = [_quadric_value(q, v_add(ax4.point, v_scale(s, ax4.direction)))
            for s in (0, 1, 2)]
    scale = max(abs(c) for c in q)
    return max(abs(v) for v in vals) / scale


def symmetry_line(pose: Pose):
    """Point and direction of the line through the two diagonal midpoints.

    Every Bennett pose admits a half-turn about this line swapping axes
    (1,4) <-> (2,3) and (1,2) <-> (3,4).  At k = 0 every anchor, and with
    it the line's point, sits at the origin; anchors scale with k and
    directions do not, so the direction is that of the k = 1 line.
    """
    if pose.design.k == 0:
        _, direction = symmetry_line(frame(replace(pose.design, k=1),
                                           pose.tau))
        return (0, 0, 0), direction
    half = Fraction(1, 2)
    p = pose.points()
    m1 = v_scale(half, v_add(p[(1, 4)], p[(2, 3)]))
    m2 = v_scale(half, v_add(p[(1, 2)], p[(3, 4)]))
    return m1, v_sub(m2, m1)


def half_turn_point(point, line_point, line_dir, dir_norm_sq):
    """Image of a point under the half-turn about the given line, of squared
    direction norm ``dir_norm_sq`` (exact when called with Fractions)."""
    rel = v_sub(point, line_point)
    coef = v_dot(rel, line_dir) / dir_norm_sq
    return v_sub(v_add(v_scale(2, line_point), v_scale(2 * coef, line_dir)), point)


def half_turn_direction(direction, line_dir, dir_norm_sq):
    coef = v_dot(direction, line_dir) / dir_norm_sq
    return v_sub(v_scale(2 * coef, line_dir), direction)


def symmetry_residual(pose: Pose):
    """Largest coordinate by which the half-turn about the symmetry line
    misses the axis swap (1,4)<->(2,3), (1,2)<->(3,4); exactly zero for
    Bennett poses.  No square root is taken, so exact input gives an exact
    0."""
    lp, ld = symmetry_line(pose)
    ld_sq = v_norm_sq(ld)
    worst = 0
    for label, target in SWAP.items():
        src = pose.axes[label]
        dst = pose.axes[target]
        img_p = half_turn_point(src.point, lp, ld, ld_sq)
        img_d = half_turn_direction(src.direction, ld, ld_sq)
        # the image must lie on the target line with the same or opposite
        # direction: compare via cross products to stay orientation-free
        gaps = (v_cross(v_sub(img_p, dst.point), dst.direction)
                + v_cross(img_d, dst.direction))
        worst = max(worst, *(abs(g) for g in gaps))
    return worst
