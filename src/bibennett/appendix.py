"""Exact non-existence suite for flexible plane-symmetric couplings.

A coupling whose two tubes are related by a reflection would force the four
moving anchor points to stay coplanar for every drive parameter.  Expanding
that coplanarity determinant in the drive half-tangent gives five coefficient
conditions whose case analysis rules every candidate out.  This module
recomputes the expansion and each step of the case analysis on integers,
labelling every entry of the report with its argument's strength: a
polynomial identity, exact evaluation at fixed twists, or a whole-curve
proof by exact root counts.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul, sub
from typing import NamedTuple

from .algebra import (TOL, DegreeBoundError, _Ratio, interpolate_integers,
                      one_denominator)
from .bennett import BennettDesign, frame
from .families import MuSet
from .properties import CertificateReport, ResidualEntry


class StructuralFactorError(ValueError):
    """A structural factor a1*a2*(a1-a2)*(a1+a2) vanishes, so the coefficient
    normalisation of the coplanarity expansion is undefined."""


class ZeroPolynomialError(ValueError):
    """A root count was asked of the zero polynomial, which vanishes at
    every point."""


# Nodes of the degree-4 drive polynomial, and checks of the degree bound.
_TAU_NODES = tuple(map(Fraction, ("1/2", "1/3", "2", "3", "5/7")))
_TAU_CHECKS = (Fraction(9, 10), Fraction(4, 5))

# Laplace by rows 0, 1: their 2x2 minor in each column pair of _TOP times
# that of rows 2, 3 in the complementary pair of _BOTTOM, which holds the sign.
_TOP = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_BOTTOM = ((2, 3), (3, 1), (1, 2), (0, 3), (2, 0), (0, 1))


class CoplanarityExpansion(NamedTuple):
    """Normalised coefficients of the quartic drive polynomial obtained from
    the coplanarity determinant of the four anchor points.

    The determinant, cleared of its denominator, equals

        c4*(a1-a2)^2*t^4 - c3*a1*a2*(a1-a2)*t^3 + c2*t^2
            - c1*a1*a2*(a1+a2)*t + c0*(a1+a2)^2

    up to the fixed normalisation -(1+a1^2)^2*(1+a2^2)^2*(a1-a2)^2.
    """

    a1: Fraction
    a2: Fraction
    mu: MuSet
    c0: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction


def _expansion_forms(a1, a2):
    """(forms, den): c0 ... c4 of the exact design (a1, a2) as multilinear
    forms in the offsets over one den: ``forms[k][mask]`` / den is the
    coefficient in c_k of the product of the offsets whose bits are set in
    ``mask``, bit i standing for offset i of (mu14, mu12, mu23, mu34).

    The anchors p_i = F_i + m_i*r_i are the rows (1, p_i) of the 4x4
    orientation determinant, so the coefficient of the offsets in ``mask``
    is that determinant with each row i in ``mask`` read as (0, r_i), on
    the drive frame's integers, times (tau^2 + K^2)(1 + tau^2) / D^3; the
    tau nodes' values meet over one integer and are interpolated at once."""
    (n1, d1), (n2, d2) = a1.as_integer_ratio(), a2.as_integer_ratio()
    u, r = d1 * d2, n1 * n2  # r = u*a1*a2, minus and plus u*(a1 -+ a2)
    minus, plus = n1 * d2 - n2 * d1, n1 * d2 + n2 * d1
    if r * minus * plus == 0:
        raise StructuralFactorError(
            "a1*a2*(a1-a2)*(a1+a2) must be nonzero to normalise the expansion")
    design = BennettDesign(a1, a2, Fraction(1))
    groups = []
    for tau in _TAU_NODES + _TAU_CHECKS:  # K = plus / minus
        pose, (p, q) = frame(design, tau), tau.as_integer_ratio()
        rows = [((1, *point), (0, *direction))
                for point, direction in zip(pose.points, pose.directions)]
        top, bottom = ([[x[c] * y[e] - x[e] * y[c] for c, e in pairs]
                        for y in rows[j + 1] for x in rows[j]]
                       for j, pairs in ((0, _TOP), (2, _BOTTOM)))
        weight = ((p * minus) ** 2 + (plus * q) ** 2) * (q * q + p * p)
        groups.append(([[weight * sum(map(
            mul, top[mask & 3], bottom[mask >> 2]))
            for mask in range(16)]], (q * q * minus) ** 2 * pose.den ** 3))
    values, den = one_denominator(groups)
    coeffs, scale = interpolate_integers(list(zip(*values)), 4, [
        tau.as_integer_ratio() for tau in _TAU_NODES + _TAU_CHECKS])
    # c_k is lam (CoplanarityExpansion), over u^6, / its factor, over u^2
    lam = -((d1 * d1 + n1 * n1) * (d2 * d2 + n2 * n2) * minus) ** 2
    printed = (plus * plus, -r * plus, u * u, -r * minus, minus * minus)
    big = lcm(*printed)
    forms = [[lam * (big // f) * n[k] for n in coeffs]
             for k, f in enumerate(printed)]
    den *= u ** 4 * big * scale
    g = gcd(den, *(x for f in forms for x in f))
    return tuple([x // g for x in f] for f in forms), den // g


def coplanarity_coeffs(a1, a2, mu: MuSet) -> CoplanarityExpansion:
    """Normalised quartic coefficients of the coplanarity determinant, with
    the scale pinned to one; the structural factor ``a1*a2*(a1-a2)*(a1+a2)``
    must be nonzero.  Floats are taken at the rationals they represent."""
    a1, a2 = Fraction(a1), Fraction(a2)
    mu = MuSet(*map(Fraction, mu))
    monomials = [prod(m for i, m in enumerate(mu) if mask >> i & 1)
                 for mask in range(16)]
    forms, den = _expansion_forms(a1, a2)
    return CoplanarityExpansion(a1, a2, mu, *(
        sum(map(mul, form, monomials)) / den for form in forms))


# ---------------------------------------------------------------------------
# splitting polynomials and contradiction quartics
# ---------------------------------------------------------------------------

def splitting_f1(a1, a2, mu_product):
    """First splitting factor of the odd expansion coefficients, a function of
    the product of the two outer anchor offsets."""
    return ((1 + a1 * a1) * (1 + a2 * a2) * mu_product
            + a1 * a1 * a2 * a2 + 3 * a1 * a1 - a2 * a2 + 1)


def splitting_f2(a1, a2, mu_product):
    """Second splitting factor; the mirror of :func:`splitting_f1`."""
    return ((1 + a1 * a1) * (1 + a2 * a2) * mu_product
            + a1 * a1 * a2 * a2 + 3 * a2 * a2 - a1 * a1 + 1)


def quartic_g1(a1, a2):
    """First factor of the constrained-case resultant; a sum of squares plus
    one, hence positive for all real designs."""
    return a1 * a1 * a2 * a2 + 2 * a2 * a2 + 1


def quartic_g2(a1, a2):
    """Second factor of the constrained-case resultant."""
    return a1 * a1 * a2 * a2 - a1 * a1 + 2 * a2 * a2


def quartic_g3(a1, a2):
    """Third factor of the constrained-case resultant."""
    return a1 * a1 * a2 * a2 - a1 * a1 + 3 * a2 * a2 + 1


def constrained_mu_product(a1, a2, swapped: bool):
    """Offset product forced by the vanishing of one splitting factor: the
    direct case kills :func:`splitting_f2`, the index-swapped case (the
    twist roles exchanged) :func:`splitting_f1`."""
    factor = splitting_f1 if swapped else splitting_f2
    return -factor(a1, a2, 0) / ((1 + a1 * a1) * (1 + a2 * a2))


def constrained_case_polynomials(a1, a2, swapped: bool):
    """The two even polynomials of degree 4 (in the one remaining free
    offset x) whose simultaneous vanishing the constrained case would
    require: ascending coefficients of x^2 times the constant and the
    quadratic expansion coefficients.  Float twists are taken at the
    rationals they represent."""
    a1, a2 = Fraction(a1), Fraction(a2)
    polys, den = _constrained_polynomials(_expansion_forms(a1, a2), a1, a2,
                                          swapped)
    return tuple([Fraction(c, den) for c in poly] for poly in polys)


def _constrained_polynomials(forms, a1, a2, swapped):
    """(polys, den): :func:`constrained_case_polynomials` off the forms of
    (a1, a2).  The offsets are x, x, P/x, P/x (direct) or P/x, x, x, P/x
    (swapped) for the forced P = n/d, so a monomial with i offsets x and j
    P/x adds n^j d^(2-j) times its coefficient to that of x^(2+i-j)."""
    (c0, _, c2, _, _), den = forms
    twist = (_Ratio(*a.as_integer_ratio()) for a in (a1, a2))
    n, d = constrained_mu_product(*twist, swapped).as_integer_ratio()
    powers = (d * d, n * d, n * n)
    over_x = 0b1001 if swapped else 0b1100  # the offsets P/x
    polys = ([0] * 5, [0] * 5)
    for mask in range(16):
        j = (mask & over_x).bit_count()
        power = 2 + mask.bit_count() - 2 * j
        polys[0][power] += c0[mask] * powers[j]
        polys[1][power] += c2[mask] * powers[j]
    return polys, den * d * d


def constrained_resultant_target(a1, a2, swapped: bool):
    """Printed factorisation of the constrained-case resultant, rescaled by
    the normalisation factor (1+a1^2)^16 (1+a2^2)^8 of this module's cleared
    polynomials (roles exchanged in the swapped case)."""
    if swapped:
        a1, a2 = a2, a1
    value = (2 ** 36 * a1 ** 16 * a2 ** 8 * (a1 * a1 + 1) ** 8
             * (a2 * a2 + 1) ** 4 * (a1 * a1 - a2 * a2) ** 4
             * quartic_g1(a1, a2) ** 4 * quartic_g2(a1, a2) ** 4
             * quartic_g3(a1, a2) ** 4)
    return value / ((1 + a1 * a1) ** 16 * (1 + a2 * a2) ** 8)


# ---------------------------------------------------------------------------
# exact real-root counting
# ---------------------------------------------------------------------------

def _poly_rem(num, den):
    """A positive multiple, without content, of the remainder of ``num`` by
    ``den`` (integer ascending coefficients): each step scales by lead^2."""
    lead = den[-1]
    while len(num) >= len(den):
        factor, shift = lead * num[-1], len(num) - len(den)
        num = [lead * lead * c for c in num]
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
        while num and num[-1] == 0:
            num.pop()
    content = gcd(*num)
    return [c // content for c in num]


def count_positive_roots(poly) -> int:
    """Number of distinct real roots of ``poly`` (ascending coefficients) in
    (0, oo), by a Sturm chain on integers: floats are taken at their exact
    values, so the count is exact for the polynomial they denote.  Raises
    ZeroPolynomialError on the zero polynomial, which vanishes everywhere."""
    ratios = [c.as_integer_ratio() for c in poly]
    den = lcm(*(d for _, d in ratios))
    p = [n * (den // d) for n, d in ratios]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ZeroPolynomialError("the zero polynomial has no finite root count")
    while p[0] == 0:
        p.pop(0)
    if len(p) < 2:
        return 0
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    at_zero, at_inf = (sum(a != b for a, b in zip(signs, signs[1:])) for signs
                       in ([next(c > 0 for c in q if c) for q in chain],
                           [q[-1] > 0 for q in chain]))
    return at_zero - at_inf


def count_real_roots(poly) -> int:
    """Number of distinct nonzero real roots of an even polynomial given by
    ascending coefficients: +/- pairs from positive roots of its even part."""
    if any(c != 0 for c in poly[1::2]):
        raise ValueError("expected an even polynomial")
    return 2 * count_positive_roots(list(poly[0::2]))


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

# The twists (a1, a2) at which every entry reads the expansion forms: a
# 5 x 5 grid, on which each identity entry's gaps vanish and each even part
# is interpolated in (A, B) = (a1^2, a2^2), then two off-grid twists, one
# with a negative a1 and one with a negative a2, that confirm the bounds.
_TWISTS = tuple((Fraction(n1), Fraction(1, n2))
                for n1 in range(1, 6) for n2 in range(2, 7)) + (
    (Fraction(-6), Fraction(1, 7)), (Fraction(7), Fraction(-1, 8)))
_TWIST_DEGREE = 4

# The resultant-factor curves as (numerator, denominator) of A and of B,
# linear in t, covered whole as t runs over (0, oo): the second factor
# vanishes on B = A/(A+2) (A = t), the third on B = (A-1)/(A+3) (A = 1 + t).
# Degree 4 in A and in B gives degree at most 8 in t: nine nodes fix it.
_CURVES = {"second": lambda t: ((t, 1), (t, t + 2)),
           "third": lambda t: ((1 + t, 1), (t, t + 4))}
_CURVE_NODES = tuple(range(1, 2 * _TWIST_DEGREE + 2))


def _gap_entry(label, table, gaps):
    """An entry whose value is the largest |gap| over ``table`` ({(a1, a2):
    the expansion forms or the constrained polynomials of that twist}):
    ``gaps(a1, a2, twist_table)`` lists the gaps at one twist over one den.

    An ``[identity]`` entry rests on a degree bound: c0 and c4 have degree
    at most 4 in a1 and in a2, c1 and c3 at most 3, so each gap of the
    forms, printed side included, has degree at most 4 in a1 and in a2 (the
    splitting difference and the first quartic at most 2); zeros on the
    5 x 5 grid of ``_TWISTS`` prove it zero, and the off-grid twists confirm
    the bound.  An ``[exact]`` entry claims only the 27 listed twists."""
    worst = 0, 1
    for twist, t in table.items():
        numerators, den = gaps(*(_Ratio(*a.as_integer_ratio())
                                 for a in twist), t)
        top = max(map(abs, numerators))
        if top * worst[1] > worst[0] * den:  # dens are positive
            worst = top, den
    return ResidualEntry(label, Fraction(*worst), TOL)


def _minus(values, den, targets):
    """(gaps, D): ``values`` / ``den`` minus ``targets``, over one lcm D."""
    ratios = [target.as_integer_ratio() for target in targets]
    big = lcm(den, *(d for _, d in ratios))
    return [v * (big // den) - n * (big // d)
            for v, (n, d) in zip(values, ratios)], big


def _offset_split_gaps(a1, a2, forms):
    """c0 - c4 = -16*a1*a2*(a1-a2)*(a1+a2)*(mu14*mu23 - mu12*mu34), by
    coefficient in the offsets."""
    (c0, _, _, _, c4), den = forms
    scale = 16 * a1 * a2 * (a1 - a2) * (a1 + a2)
    target = {0b0101: -scale, 0b1010: scale}
    return _minus(map(sub, c0, c4), den,
                 [target.get(mask, 0) for mask in range(16)])


def _odd_factor_gaps(a1, a2, forms):
    """The factorisations of the odd coefficients once mu34 is eliminated as
    mu14*mu23/mu12, by coefficient of mu14^i mu12^j mu23^k, keyed (i, j, k):

        mu12*(c1 - c3) = 16*a2*(mu12 + mu23)*(mu14 - mu12)*f1(mu14*mu23)
        mu12*(c1 + c3) = 16*a1*(mu12 - mu23)*(mu14 + mu12)*f2(mu14*mu23)
    """
    (_, c1, _, c3, _), den = forms
    poly, printed = defaultdict(int), defaultdict(int)
    for sign, a, factor in ((1, a2, splitting_f1), (-1, a1, splitting_f2)):
        for m, (x, y) in enumerate(zip(c1, c3)):  # m: the offsets' mask
            b14, b12, b23, b34 = m & 1, m >> 1 & 1, m >> 2 & 1, m >> 3
            poly[sign, b14 + b34, 1 + b12 - b34, b23 + b34] += x - sign * y
        # (mu12 + sign*mu23)*(mu14 - sign*mu12) times beta + alpha*mu14*mu23
        beta = 16 * a * factor(a1, a2, 0)
        alpha = 16 * a * factor(a1, a2, 1) - beta
        for (i, j, k), c in (((1, 1, 0), 1), ((0, 2, 0), -sign),
                             ((1, 0, 1), sign), ((0, 1, 1), -1)):
            printed[sign, i, j, k] += c * beta
            printed[sign, i + 1, j, k + 1] += c * alpha
    keys = poly.keys() | printed.keys()
    return _minus([poly[key] for key in keys], den,
                 [printed[key] for key in keys])


def _equal_offsets_gaps(a1, a2, forms):
    """With all offsets m, c4 is -4 * 4*a1^2*a2^2*m^2*(a1^2 - a2^2), nonzero
    for a valid design and offset; by coefficient of m^k, the sum of c4's
    coefficients over masks of k bits."""
    (*_, c4), den = forms
    sums = [0] * 5
    for mask, c in enumerate(c4):
        sums[mask.bit_count()] += c
    return _minus(sums, den, [0, 0, -16 * a1 * a1 * a2 * a2
                             * (a1 * a1 - a2 * a2), 0, 0])


def _splitting_difference_gaps(a1, a2, _):
    """f1 - f2 = 4*(a1^2 - a2^2) at the offset products m = 0 and m = 1; both
    sides are linear in m."""
    return _minus([0, 0], 1, [4 * (a1 * a1 - a2 * a2) - splitting_f1(a1, a2, m)
                              + splitting_f2(a1, a2, m) for m in (0, 1)])


def _first_quartic_gaps(a1, a2, _):
    """quartic_g1 - 1 = (a1*a2)^2 + 2*a2^2, a sum of squares: g1 >= 1."""
    return _minus([1], 1, [quartic_g1(a1, a2) - (a1 * a2) ** 2 - 2 * a2 * a2])


def _odd_offset_gaps(a1, a2, polys):
    """The odd coefficients of p0 in the offset x: zero when p0 is even."""
    (p0, _), den = polys
    return p0[1::2], den


def _resultant_gaps(a1, a2, polys, swapped):
    """Res(p0, p2) = Res(E, F)^2 over den^8 for p0 = E(x^2), p2 = F(x^2) less
    the target (Cohen, GTM 138, 3.3), the odd coefficients, 1 if degree < 4."""
    (p0, p2), den = polys
    (e0, e1, e2), (f0, f1, f2) = p0[0::2], p2[0::2]
    res = (e2 * f0 - e0 * f2) ** 2 - (e2 * f1 - e1 * f2) * (e1 * f0 - e0 * f1)
    (gap,), big = _minus([res * res], den ** 8,
                         [constrained_resultant_target(a1, a2, swapped)])
    return [gap, *(big // den * c for c in p0[1::2] + p2[1::2]),
            0 if p0[4] and p2[4] else big], big


def _evaluate_squares(poly, a, b):
    """d_a^I d_b^J times the polynomial with coefficients poly[i][j] of
    A^i B^j (i <= I, j <= J) at A = n_a/d_a and B = n_b/d_b, given as
    ``a`` = (n_a, d_a) and ``b`` = (n_b, d_b)."""
    (na, da), (nb, db), top_b = a, b, len(poly[0]) - 1
    powers = [nb ** j * db ** (top_b - j) for j in range(top_b + 1)]
    return sum(na ** i * da ** (len(poly) - 1 - i) * sum(map(mul, row, powers))
               for i, row in enumerate(poly))


def _fit_squares(values, degree):
    """(grids, den): coefficient grids poly[i][j] of A^i B^j (i, j <=
    ``degree``) over one den of the polynomials in (A, B) taking the values
    of ``values`` ({(A, B) as ratios ((n_a, d_a), (n_b, d_b)): (list, its
    den)}).  The first (degree+1)^2 keys form a tensor grid, interpolated in
    A, then in B; each further key confirms the fit (else DegreeBoundError)."""
    n, points = degree + 1, list(values)
    a_nodes, b_nodes = (tuple(dict.fromkeys(axis))
                        for axis in zip(*points[:n * n]))
    grid, den = one_denominator([([values[p][0]], values[p][1])
                                 for p in points[:n * n]])
    at = dict(zip(points, grid))
    rows, scale_a = interpolate_integers(
        [[at[a, b][k] for a in a_nodes] for k in range(len(grid[0]))
         for b in b_nodes], degree, a_nodes)
    cols, scale_b = interpolate_integers(
        [c for k in range(0, len(rows), n) for c in zip(*rows[k:k + n])],
        degree, b_nodes)
    fits, den = [cols[k:k + n] for k in range(0, len(cols), n)], (
        den * scale_a * scale_b)
    if any(_evaluate_squares(p, a, b) * values[a, b][1]
           != v * (a[1] * b[1]) ** degree * den
           for a, b in points[n * n:] for p, v in zip(fits, values[a, b][0])):
        raise DegreeBoundError(f"values are not of degree {degree} in A, B")
    return fits, den


def _even_part(polys, swapped):
    """(grids, den): coefficient grids of e0, e1 and e2 for the constrained
    polynomial p0 of one case, from ``polys`` ({(a1, a2): ((p0, p2), den)},
    in ``_TWISTS`` order).

    p0 is even in the offset x (``_odd_offset_gaps``), so p0 = (e0 + e1*y +
    e2*y^2) / W with y = x^2 and W = (1+A)^2 (1+B) (direct) or (1+A) (1+B)^2
    (swapped), (A, B) = (a1^2, a2^2).  p0 is unchanged under a1 -> -a1 and
    under a2 -> -a2, so each e_k is a polynomial in (A, B), of degree at
    most 4 in each: interpolated on the 5 x 5 grid of the twists, confirmed
    (bound and parity) at the off-grid twists, else DegreeBoundError."""
    values = {}
    for twist, ((p0, _), den) in polys.items():
        sq_a, sq_b = (_Ratio(*a.as_integer_ratio()) ** 2 for a in twist)
        weight = (1 + sq_a) * (1 + sq_b) * (1 + (sq_b if swapped else sq_a))
        values[(sq_a.n, sq_a.d), (sq_b.n, sq_b.d)] = (
            [weight.n * c for c in p0[0::2]], den * weight.d)
    return _fit_squares(values, _TWIST_DEGREE)


def _curve_entry(label, even, curve, swapped):
    """Proof that along a whole resultant-factor curve the constrained
    polynomial keeps no nonzero real offset root.

    On the curve, each coefficient of the even part ``even`` (grids over a
    positive den) times den and the curve's positive denominators is a
    polynomial q_k of degree at most 8 in its parameter t > 0 (swapped: A
    and B exchanged).  If some q_k is not identically zero, none that is
    has a root in (0, oo) (Sturm), and all share the sign of q_k(1), then
    e0 + e1*y + e2*y^2 has that sign for every y > 0 along the curve
    (Descartes' rule of signs): no real offset x = +-sqrt(y) is a root.  On
    the second curve all three keep one sign; on the third e0 and e1 vanish.
    """

    def on_curve(poly, t):
        a, b = curve(t)
        return _evaluate_squares(poly, *((b, a) if swapped else (a, b)))

    coeffs, _ = interpolate_integers(
        [[on_curve(poly, t) for t in _CURVE_NODES] for poly in even],
        2 * _TWIST_DEGREE, [(t, 1) for t in _CURVE_NODES])
    polys = [q for q in coeffs if any(q)]
    proved = (len({sum(q) > 0 for q in polys}) == 1
              and not any(map(count_positive_roots, polys)))
    return ResidualEntry(label, 0 if proved else 1, TOL)


def verify_nonexistence() -> CertificateReport:
    """Run the full case analysis ruling out plane-symmetric couplings.

    Each entry is tagged with its argument strength: ``identity`` for
    polynomial identities (on the degree bounds of ``_gap_entry`` and
    ``_even_part``), ``exact`` for exact evaluation at the 27 ``_TWISTS``
    only, and ``curve proof`` for exact root counts along a whole curve.
    Every other entry is the largest gap over the expansion forms or the
    constrained polynomials of each twist, built once per call on integers
    over one denominator.  Every value is exact; nothing is random.
    """
    forms = {twist: _expansion_forms(*twist) for twist in _TWISTS}
    polys = {s: {t: _constrained_polynomials(forms[t], *t, s) for t in _TWISTS}
             for s in (False, True)}
    tags = {False: "direct", True: "swapped"}
    entries = [
        *(_gap_entry(f"{name} [identity]", forms, gaps) for name, gaps in (
            ("offset product split", _offset_split_gaps),
            ("odd coefficient factors", _odd_factor_gaps),
            ("splitting difference", _splitting_difference_gaps),
            ("equal offsets coefficient", _equal_offsets_gaps),
            ("first quartic positive", _first_quartic_gaps))),
        *(_gap_entry(f"resultant factorisation {tag} [exact]", polys[s],
                     lambda a1, a2, p: _resultant_gaps(a1, a2, p, s))
          for s, tag in tags.items()),
        *(_gap_entry(f"constrained polynomial {tag} [identity]", polys[s],
                     _odd_offset_gaps) for s, tag in tags.items()),
    ]
    even = {s: _even_part(polys[s], s)[0] for s in tags}
    entries += [_curve_entry(f"{name} quartic roots {tag} [curve proof]",
                             even[s], curve, s)
                for name, curve in _CURVES.items() for s, tag in tags.items()]
    return CertificateReport("plane-symmetric non-existence", tuple(entries))
