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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import (
    TOL,
    clear_denominators,
    det3,
    div,
    is_exact,
    v_add,
    v_cross,
    v_dot,
    v_norm_sq,
    v_scale,
    v_sub,
)

AXIS_LABELS = ((1, 4), (1, 2), (2, 3), (3, 4))

# position of each label in the cyclic order of the quad
AXIS_INDEX = {label: i for i, label in enumerate(AXIS_LABELS)}

# (center, opposite, previous, next) labels of each quad vertex
VERTEX_ROLES = tuple((AXIS_LABELS[i], AXIS_LABELS[i - 2], AXIS_LABELS[i - 1],
                      AXIS_LABELS[i - 3]) for i in range(4))

class ConventionError(ValueError):
    """Design parameters violate the positivity convention."""


class DegenerateDesignError(ValueError):
    """a1 == a2, or a planar rhombus d1 == d2 in case 1a or 2a: the
    transmission ratio is infinite."""


class PoleError(ValueError):
    """tau = 0 is a pole of the joint-angle substitution t_{1,2} = K/tau."""


class DegenerateQuadError(ValueError):
    """A quad without a spatial frame (collinear edges) or a symmetry line."""


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

    def links(self):
        """The links (cos, sin, offset) of twist alpha_i and offset d_i."""
        return _bennett_link(self.a1, self.k), _bennett_link(self.a2, self.k)

    def transmission(self):
        """Constant product t_{1,2} t_{2,3} along the flex."""
        return div(self.a1 + self.a2, self.a1 - self.a2)


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
        if self.case in ("1a", "2a") and self.d1 == self.d2:
            raise DegenerateDesignError(
                "d1 == d2 (rhombus) makes the transmission ratio infinite")

    def links(self):
        """The links (cos, sin, offset) of the pinned twists, offsets d_i."""
        cos1, cos2 = _PLANAR_COS[self.case]
        return (cos1, 0, self.d1), (cos2, 0, self.d2)

    def transmission(self):
        """Limit of the transmission ratio for each pinned-twist case."""
        if self.case in ("1a", "2a"):
            num = self.d1 + self.d2
            return div(num, self.d2 - self.d1 if self.case == "1a"
                       else self.d1 - self.d2)
        return 1 if self.case == "1b" else -1


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
# line geometry: regulus, symmetry line
# ---------------------------------------------------------------------------

def regulus_residual(pose: Pose):
    """Zero iff the four axes lie on one regulus, degenerate or not.

    A regulus is the Klein quadric cut by a plane of P^5 (Pottmann and
    Wallner, Computational Line Geometry, 2001), so the axes lie on one iff
    their Pluecker vectors (r, F x r) have rank at most 3: every 4x4 minor
    of the 4x6 matrix vanishes.  The rows are cleared to integers over one
    denominator D and each minor is expanded along the first row; the
    largest |minor| over the 4th power of the largest coordinate does not
    depend on D, and exact input gives an exact value.
    """
    rows, _ = clear_denominators(
        [(*ax.direction, *v_cross(ax.point, ax.direction))
         for ax in (pose.axes[label] for label in AXIS_LABELS)])
    first, *rest = rows
    lower = {cols: det3(*([row[c] for c in cols] for row in rest))
             for cols in combinations(range(6), 3)}
    worst = max(abs(sum((-1) ** j * first[c] * lower[cols[:j] + cols[j + 1:]]
                        for j, c in enumerate(cols)))
                for cols in combinations(range(6), 4))
    return div(worst, max(abs(x) for row in rows for x in row) ** 4)


def symmetry_line(points):
    """Point and direction of the axis of the half-turn swapping opposite
    vertices of the skew isogram ``points`` (in AXIS_LABELS order): the line
    through the midpoints of the two diagonals or, where they coincide (as
    floats, within TOL times the largest diagonal coordinate), the
    normal of the parallelogram's plane through its centre.  A direction
    whose squared norm is not positive raises DegenerateQuadError."""
    p14, p12, p23, p34 = points
    m1 = v_scale(Fraction(1, 2), v_add(p14, p23))
    d = v_sub(v_scale(Fraction(1, 2), v_add(p12, p34)), m1)
    gap = max(map(abs, d))
    if gap == 0 or not is_exact(gap) and gap <= TOL * max(
            map(abs, v_sub(p23, p14) + v_sub(p34, p12))):
        d = v_cross(v_sub(p12, p14), v_sub(p23, p14))
    if not v_norm_sq(d) > 0:
        raise DegenerateQuadError(
            f"the squared norm of the symmetry direction {d} underflows"
            if any(d) else "the quad degenerates to a segment")
    return m1, d


def half_turn_images(points, directions, line_point, line_dir):
    """(point images, direction images) under the half-turn about the line
    through b = ``line_point`` along l = ``line_dir``: a point p goes to
    2 b + 2 ((p - b).l / |l|^2) l - p, a direction r to 2 (r.l / |l|^2) l - r.
    When every coordinate is an int or a Fraction, all vectors are first
    cleared to integers over one denominator D, so that each image
    coordinate is one integer over D |l|^2, normalised once (the
    fraction-free scheme of Bareiss, Math. Comp. 22, 1968)."""
    vectors = [line_point, line_dir, *points, *directions]
    if not all(is_exact(x) for v in vectors for x in v):
        ns = v_norm_sq(line_dir)
        return ([v_sub(v_add(v_scale(2, line_point), v_scale(
                    2 * (v_dot(v_sub(p, line_point), line_dir) / ns),
                    line_dir)), p) for p in points],
                [v_sub(v_scale(2 * (v_dot(r, line_dir) / ns), line_dir), r)
                 for r in directions])
    (b, l, *cleared), den = clear_denominators(vectors)
    n = v_norm_sq(l)
    images = []
    for i, v in enumerate(cleared):
        # a direction maps as a point would about the parallel line through 0
        base = b if i < len(points) else (0, 0, 0)
        c = v_dot(v_sub(v, base), l)
        images.append(tuple(Fraction(2 * (bi * n + c * li) - vi * n, den * n)
                            for bi, li, vi in zip(base, l, v)))
    return images[:len(points)], images[len(points):]


def half_turn_residual(point, line, pairs):
    """Zero iff the half-turn about the line through m = ``point`` along
    l = ``line`` maps x to y for each (x, y) of ``pairs``, that is iff
    (x - y).l = 0 and (x + y - 2m) x l = 0: on the points cleared to one
    denominator D, the largest term over the largest |l| coordinate times D."""
    (m, l, *points), den = clear_denominators(
        [point, line, *(p for pair in pairs for p in pair)])
    two_m, terms = v_scale(2, m), []
    for x, y in zip(points[::2], points[1::2]):
        terms.append(v_dot(v_sub(x, y), l))
        terms.extend(v_cross(v_sub(v_add(x, y), two_m), l))
    return div(max(map(abs, terms)), max(map(abs, l)) * den)


def symmetry_residual(pose: Pose):
    """Zero iff Bennett's half-turn maps F_a to F_b and F_a + r_a to
    F_b - r_b for (1,4) <-> (2,3) and (1,2) <-> (3,4), about the symmetry
    line of F14 + r14, F12 + r12, F23 - r23, F34 - r34: that quad stays a
    skew isogram at k = 0, where all anchors sit at the apex."""
    axes = [pose.axes[label] for label in AXIS_LABELS]
    tips = [v_add(ax.point, ax.direction) for ax in axes[:2]] + [
        v_sub(ax.point, ax.direction) for ax in axes[2:]]
    return half_turn_residual(*symmetry_line(tips), [
        (axes[0].point, axes[2].point), (axes[1].point, axes[3].point),
        (tips[0], tips[2]), (tips[1], tips[3])])
