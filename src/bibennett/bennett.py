"""Single Bennett loops and their planar limits: parameters, DH chain,
closure, symmetries.

All kinematic quantities are rational functions of the design parameters and
the motion parameter tau, so every operation here is exact when called with
Fractions or ints.  A planar loop is the Bennett loop with its twists pinned
to 0 or pi: the two kinds of design differ only in ``links()`` (the two links
as (cos, sin, offset)) and ``transmission()``, and ``frame`` and
``loop_closure_residual`` run either through one fraction-free kernel.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .algebra import (TOL, _Ratio, coordinates, det3, div, is_exact, v_add,
                      v_cross, v_dot, v_norm_sq, v_scale, v_sub)

AXIS_LABELS = ((1, 4), (1, 2), (2, 3), (3, 4))

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

class _BennettDesign(NamedTuple):
    a1: object
    a2: object
    k: object


class BennettDesign(_BennettDesign):
    """Intrinsic Bennett loop parameters via half-tangents a_i = tan(alpha_i/2).

    The scale k fixes the common normal lengths d_i = k sin(alpha_i); k = 0 is
    the spherical (pyramidal) limit.
    """

    # built once per design in the dict of this subclass (``_replace`` makes
    # a new one); functools.cached_property would lock before 3.12
    def links(self):
        """The links (cos, sin, offset) of twist alpha_i and offset d_i."""
        if "_links" not in self.__dict__:
            self.__dict__["_links"] = (_bennett_link(self.a1, self.k),
                                       _bennett_link(self.a2, self.k))
        return self.__dict__["_links"]

    def transmission(self):
        """Constant product t_{1,2} t_{2,3} along the flex."""
        if "_transmission" not in self.__dict__:
            self.__dict__["_transmission"] = div(self.a1 + self.a2,
                                                 self.a1 - self.a2)
        return self.__dict__["_transmission"]


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


class _PlanarDesign(NamedTuple):
    d1: object
    d2: object
    case: str


class PlanarDesign(_PlanarDesign):
    """Planar 4R limit: free distances d1, d2 with twists pinned to 0 or pi."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):  # ``_replace`` skips the checks
        self = super().__new__(cls, *args, **kwargs)
        if self.case not in PLANAR_CASES:
            raise ValueError(f"unknown planar case {self.case!r}")
        if self.d1 <= 0 or self.d2 <= 0:
            raise ConventionError("planar distances must be positive")
        if self.case in ("1a", "2a") and self.d1 == self.d2:
            raise DegenerateDesignError(
                "d1 == d2 (rhombus) makes the transmission ratio infinite")
        return self

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
        p, q = t.as_integer_ratio()
        return q * q - p * p, 2 * p * q, q * q + p * p
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den, 1


def _bennett_link(a, k):
    """(cos, sin, offset) of the link with half-tangent twist a and offset
    k sin(alpha)."""
    c, s, h = _rotation(a, is_exact(a))
    return div(c, h), div(s, h), k * div(s, h)


def loop_closure_residual(design, tau):
    """Max-abs deviation of the 8-factor chain product link1 J(t12) link2
    J(t23) link1 J(-t12) link2 J(-t23) from the identity.

    The kernel applies the factors to the four basis rows left to right:
    the multiplied-out 4x4 product row by row, without its zero terms.  A
    joint acts on a row as its column form at the opposite angle, J(t)^T =
    J(-t), with the same float operations.  Exact input gives a Fraction.
    """
    (_, l1), j12, (_, l2), j23 = _kernel_factors(design, tau)
    o12, o23 = [(_joint_column, (c, -s, h)) for _, (c, s, h) in (j12, j23)]
    l1, l2 = (_link_row, l1), (_link_row, l2)
    rows = _apply_factors([l1, o12, l2, o23, l1, j12, l2, j23][::-1], _BASIS)
    # every factor scales w by its h, so e0 ends with w = their product
    den = rows[0][0]
    gap = max(abs(v - den * (i == j))
              for i, row in enumerate(rows) for j, v in enumerate(row))
    return div(gap, den)


def planar_loop_closure_residual(pd: PlanarDesign, tau):
    """Closure residual of a planar loop."""
    return loop_closure_residual(pd, tau)


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

class Axis(NamedTuple):
    label: tuple
    point: tuple
    direction: tuple


class Pose(NamedTuple):
    """A configured loop at motion parameter tau: the ``points`` F and
    ``directions`` r of its axes in AXIS_LABELS order, integers over ``den``
    (other coordinates over 1), viewed by label in ``axes``."""

    design: object  # BennettDesign or PlanarDesign
    tau: object
    points: tuple
    directions: tuple
    den: object

    @property
    def axes(self) -> dict:
        return {lab: Axis(lab, coordinates(p, self.den),
                          coordinates(r, self.den)) for lab, p, r
                in zip(AXIS_LABELS, self.points, self.directions)}


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
# For ints and Fractions the entries are integers (a half-tangent p/q enters
# as q^2 - p^2, 2pq and q^2 + p^2), and each output is an integer over the
# w of M e0, the product of all h, which the w of a shorter chain divides:
# the fraction-free scheme of Bareiss (Math. Comp. 22, 1968).  Other scalars
# run with h = 1.  The closure residual applies the closed chain's eight
# factors to the basis rows, so its float sums are those of the 4x4 product.

def _link_factor(link, exact):
    """Kernel factor (c, s, off, h) of a link given as (cos, sin, offset)."""
    if not exact:
        return link + (1,)
    (c, cd), (s, sd), (off, od) = [x.as_integer_ratio() for x in link]
    h = math.lcm(cd, sd, od)
    return c * (h // cd), s * (h // sd), off * (h // od), h


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


_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _apply_factors(factors, vectors):
    """Images of the column ``vectors`` under the product of ``factors``
    ((application, values) pairs, leftmost first)."""
    images = []
    for v in vectors:
        for apply, factor in reversed(factors):
            v = apply(factor, v)
        images.append(v)
    return images


def _kernel_factors(design, tau):
    """The kernel factors (link1, J(t12), link2, J(t23)) of the chain of
    ``design`` at tau, as (column application, values) pairs."""
    if tau == 0:
        raise PoleError(
            "tau = 0 is a pole of the substitution t_{1,2} = K / tau")
    kk, (link1, link2) = design.transmission(), design.links()
    exact = all(map(is_exact, (*link1, *link2, kk, tau)))
    t12 = _Ratio(*kk.as_integer_ratio()) / tau if exact else div(kk, tau)
    return ((_link_column, _link_factor(link1, exact)),
            (_joint_column, _rotation(t12, exact)),
            (_link_column, _link_factor(link2, exact)),
            (_joint_column, _rotation(tau, exact)))


def frame(design, tau) -> Pose:
    """Points F_ij and unit directions r_ij of all four axes at tau, over
    the w of M34: the pose of the DH chain link1 J(t12) link2 J(t23) link1,
    for a BennettDesign or a PlanarDesign."""
    l1, j12, l2, j23 = _kernel_factors(design, tau)
    c, s, off, h = l1[1]
    chains = [_apply_factors(factors, _BASIS[:2])
              for factors in ((l1, j12, l2), (l1, j12, l2, j23, l1))]
    den = chains[-1][0][0]
    points = [(0, 0, 0), tuple(den // h * x for x in (0, 0, off))]
    directions = [(den, 0, 0), tuple(den // h * x for x in (c, s, 0))]
    for (w, *point), (_, *direction) in chains:
        # as the sums of a 4x4 matrix product, start from int 0: a float
        # zero of the pose is then never -0.0
        points.append(tuple(0 + den // w * n for n in point))
        directions.append(tuple(0 + den // w * n for n in direction))
    if any(isinstance(x, float) for x in l1[1] + l2[1]):  # every one a float
        points, directions = ([tuple(map(float, v)) for v in vectors]
                              for vectors in (points, directions))
    return Pose(design, tau, tuple(points), tuple(directions), den)


def planar_frame(pd: PlanarDesign, tau) -> Pose:
    """Points and unit directions of all four axes of a planar loop at tau."""
    return frame(pd, tau)


# ---------------------------------------------------------------------------
# line geometry: regulus, symmetry line
# ---------------------------------------------------------------------------

def regulus_residual(pose: Pose):
    """Zero iff the four axes lie on one regulus, degenerate or not: a
    regulus is the Klein quadric cut by a plane of P^5 (Pottmann and
    Wallner, Computational Line Geometry, 2001), so iff their Pluecker
    vectors (r, F x r) have rank at most 3, every 4x4 minor vanishing.  On
    the pose's integers over D the rows are (D r, F x r), over D^2; each
    minor is expanded along the first row, and the largest |minor| over the
    4th power of the largest coordinate is exact for exact input.
    """
    rows = [(*v_scale(pose.den, r), *v_cross(p, r))
            for p, r in zip(pose.points, pose.directions)]
    first, *rest = rows
    lower = {cols: det3(*([row[c] for c in cols] for row in rest))
             for cols in combinations(range(6), 3)}
    worst = max(abs(sum((-1) ** j * first[c] * lower[cols[:j] + cols[j + 1:]]
                        for j, c in enumerate(cols)))
                for cols in combinations(range(6), 4))
    return div(worst, max(abs(x) for row in rows for x in row) ** 4)


def symmetry_line(points):
    """(P14 + P23, l): twice a point and a direction l of the axis of the
    half-turn swapping opposite vertices of the skew isogram ``points``
    (AXIS_LABELS order, over one denominator): l is twice the gap of the
    diagonals' midpoints or, where that is 0 (a float within TOL of the
    largest diagonal coordinate), the parallelogram's normal.  An l of
    squared norm not above 0 raises DegenerateQuadError."""
    p14, p12, p23, p34 = points
    through = v_add(p14, p23)
    d = v_sub(v_add(p12, p34), through)
    gap = max(map(abs, d))
    if gap == 0 or not is_exact(gap) and gap <= 2 * TOL * max(
            map(abs, v_sub(p23, p14) + v_sub(p34, p12))):
        d = v_cross(v_sub(p12, p14), v_sub(p23, p14))
    if not v_norm_sq(d) > 0:
        raise DegenerateQuadError(
            f"the squared norm of the symmetry direction {d} underflows"
            if any(d) else "the quad degenerates to a segment")
    return through, d


def half_turn_residual(through, line, pairs, den):
    """Zero iff the half-turn about the line through m = ``through`` / 2
    along l = ``line`` maps x to y for each (x, y) of ``pairs``, iff
    (x - y).l = 0 and (x + y - 2m) x l = 0 (numerators over ``den``): the
    largest term over the largest |l| coordinate times den."""
    terms = []
    for x, y in pairs:
        terms.append(v_dot(v_sub(x, y), line))
        terms.extend(v_cross(v_sub(v_add(x, y), through), line))
    return div(max(map(abs, terms)), max(map(abs, line)) * den)


def bennett_pairs(points, directions):
    """The pairs Bennett's half-turn swaps, from the axes' ``points`` F and
    ``directions`` r: F14, F23; F12, F34; F14 + r14, F23 - r23; and so on."""
    (f14, f12, f23, f34), (r14, r12, r23, r34) = points, directions
    return [(f14, f23), (f12, f34), (v_add(f14, r14), v_sub(f23, r23)),
            (v_add(f12, r12), v_sub(f34, r34))]


def symmetry_residual(pose: Pose):
    """Zero iff Bennett's half-turn swaps the :func:`bennett_pairs`, about
    the symmetry line of F14 + r14, F12 + r12, F23 - r23, F34 - r34: that
    quad stays a skew isogram at k = 0, where all anchors sit at the apex."""
    pairs = bennett_pairs(pose.points, pose.directions)
    (t14, t23), (t12, t34) = pairs[2:]
    return half_turn_residual(*symmetry_line([t14, t12, t23, t34]), pairs,
                              pose.den)
