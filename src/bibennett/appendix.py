"""Exact non-existence suite for flexible plane-symmetric couplings.

A coupling whose two tubes are related by a reflection would force the four
moving anchor points to stay coplanar for every drive parameter.  Expanding
that coplanarity determinant in the drive half-tangent gives five coefficient
conditions whose case analysis rules every candidate out.  This module
recomputes the expansion with rational arithmetic and re-derives each step of
the case analysis in exact arithmetic, labelling every entry of the
resulting report with its argument's strength: a polynomial identity, exact
evaluation at fixed twists, or a whole-curve proof by exact root counts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import mul

from .algebra import (
    TOL,
    DegreeBoundError,
    det3,
    interpolate_polynomial,
    sylvester_resultant,
)
from .bennett import BennettDesign, frame
from .families import MuSet
from .properties import CertificateReport, ResidualEntry


class StructuralFactorError(ValueError):
    """A structural factor a1*a2*(a1-a2)*(a1+a2) vanishes, so the coefficient
    normalisation of the coplanarity expansion is undefined."""


class ZeroPolynomialError(ValueError):
    """A root count was asked of the zero polynomial, which vanishes at
    every point."""


# Interpolation nodes for the degree-4 drive polynomial hidden inside the
# coplanarity determinant, plus extra points that confirm the degree bound.
_TAU_NODES = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2),
    Fraction(3),
    Fraction(5, 7),
)
_TAU_CHECKS = (Fraction(9, 10), Fraction(4, 5))


@dataclass(frozen=True)
class CoplanarityExpansion:
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


def _cleared_drive(design, big_k, tau):
    """(anchors, directions, weight) of the drive frame at ``tau``: the
    pose's integers over its D, and the weight (tau^2 + K^2)(1 + tau^2) /
    D^3, which clears the coplanarity determinant's denominator in tau."""
    pose = frame(design, tau)
    weight = (tau * tau + big_k * big_k) * (1 + tau * tau) / pose.den ** 3
    return pose.points, pose.directions, weight


def _expansion_forms(a1, a2):
    """The normalised coefficients c0 ... c4 of the exact design (a1, a2) as
    multilinear forms in the offsets: ``forms[k][mask]`` is the coefficient
    in c_k of the product of the offsets whose bits are set in ``mask``, bit
    i standing for offset i of (mu14, mu12, mu23, mu34).

    The anchors p_i = F_i + m_i*r_i are the rows (1, p_i) of the 4x4
    orientation determinant, so the coefficient of the offsets in ``mask``
    is that determinant with each row i in ``mask`` read as (0, r_i): the
    sum over i not in ``mask`` of (-1)^i times the 3x3 minor of the other
    rows, on the drive frame's integers, interpolated in tau (extra nodes
    confirm the degree bound)."""
    if a1 * a2 * (a1 - a2) * (a1 + a2) == 0:
        raise StructuralFactorError(
            "a1*a2*(a1-a2)*(a1+a2) must be nonzero to normalise the expansion")
    design = BennettDesign(a1, a2, Fraction(1))
    big_k = design.transmission()
    taus = _TAU_NODES + _TAU_CHECKS
    values = {}
    for tau in taus:
        anchors, directions, weight = _cleared_drive(design, big_k, tau)
        values[tau] = [weight * sum(
            (-1) ** i * det3(*((directions if mask >> j & 1 else anchors)[j]
                               for j in range(4) if j != i))
            for i in range(4) if not mask >> i & 1) for mask in range(16)]
    lam = -((1 + a1 * a1) ** 2) * (1 + a2 * a2) ** 2 * (a1 - a2) ** 2
    scales = (lam / (a1 + a2) ** 2, -lam / (a1 * a2 * (a1 + a2)), lam,
              -lam / (a1 * a2 * (a1 - a2)), lam / (a1 - a2) ** 2)
    n = [interpolate_polynomial(lambda tau: values[tau][mask], 4, taus)
         for mask in range(16)]
    return tuple([scale * coeffs[k] for coeffs in n]
                 for k, scale in enumerate(scales))


def coplanarity_coeffs(a1, a2, mu: MuSet) -> CoplanarityExpansion:
    """Normalised quartic coefficients of the coplanarity determinant.

    Works with the scale factor pinned to one; requires the structural factor
    ``a1*a2*(a1-a2)*(a1+a2)`` to be nonzero.  Float parameters are first
    converted to the rationals they represent.
    """
    a1, a2 = Fraction(a1), Fraction(a2)
    mu = MuSet(*map(Fraction, mu.as_tuple()))
    monomials = [prod(m for i, m in enumerate(mu.as_tuple()) if mask >> i & 1)
                 for mask in range(16)]
    return CoplanarityExpansion(a1, a2, mu, *(
        sum(map(mul, form, monomials)) for form in _expansion_forms(a1, a2)))


# ---------------------------------------------------------------------------
# splitting polynomials and contradiction quartics
# ---------------------------------------------------------------------------

def splitting_f1(a1, a2, mu_product):
    """First splitting factor of the odd expansion coefficients, a function of
    the product of the two outer anchor offsets."""
    return (1 + a1 * a1) * (1 + a2 * a2) * mu_product + (
        a1 * a1 * a2 * a2 + 3 * a1 * a1 - a2 * a2 + 1
    )


def splitting_f2(a1, a2, mu_product):
    """Second splitting factor; the mirror of :func:`splitting_f1`."""
    return (1 + a1 * a1) * (1 + a2 * a2) * mu_product + (
        a1 * a1 * a2 * a2 + 3 * a2 * a2 - a1 * a1 + 1
    )


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
    """Offset product forced by the vanishing of one splitting factor.

    The direct case kills :func:`splitting_f2`; the index-swapped case kills
    :func:`splitting_f1` and is obtained by exchanging the twist roles.
    """
    factor = splitting_f1 if swapped else splitting_f2
    return -factor(a1, a2, 0) / ((1 + a1 * a1) * (1 + a2 * a2))


def constrained_case_polynomials(a1, a2, swapped: bool):
    """The two even polynomials of degree 4 (in the one remaining free
    offset x) whose simultaneous vanishing the constrained case would
    require: ascending coefficients of x^2 times the constant and the
    quadratic expansion coefficients.  Float twists are first converted to
    the rationals they represent.
    """
    a1, a2 = Fraction(a1), Fraction(a2)
    return _constrained_polynomials(_expansion_forms(a1, a2), a1, a2, swapped)


def _constrained_polynomials(forms, a1, a2, swapped):
    """:func:`constrained_case_polynomials` read off the expansion forms of
    (a1, a2).  The offsets are x, x, P/x, P/x (direct) or P/x, x, x, P/x
    (swapped) for the forced product P, so a monomial of a form with i
    offsets x and j offsets P/x adds its coefficient times P^j to the
    coefficient of x^(2+i-j)."""
    forced = constrained_mu_product(a1, a2, swapped)
    over_x = 0b1001 if swapped else 0b1100  # the offsets P/x
    polys = ([0] * 5, [0] * 5)
    for mask in range(16):
        j = (mask & over_x).bit_count()
        power = 2 + mask.bit_count() - 2 * j
        for poly, form in zip(polys, (forms[0], forms[2])):
            poly[power] += form[mask] * forced ** j
    return polys


def constrained_resultant_target(a1, a2, swapped: bool):
    """Printed factorisation of the constrained-case resultant, rescaled by
    the normalisation factor (1+a1^2)^16 (1+a2^2)^8 of this module's cleared
    polynomials (roles exchanged in the swapped case)."""
    if swapped:
        a1, a2 = a2, a1
    value = (
        2 ** 36
        * a1 ** 16
        * a2 ** 8
        * (a1 * a1 + 1) ** 8
        * (a2 * a2 + 1) ** 4
        * (a1 * a1 - a2 * a2) ** 4
        * quartic_g1(a1, a2) ** 4
        * quartic_g2(a1, a2) ** 4
        * quartic_g3(a1, a2) ** 4
    )
    return value / ((1 + a1 * a1) ** 16 * (1 + a2 * a2) ** 8)


# ---------------------------------------------------------------------------
# exact real-root counting
# ---------------------------------------------------------------------------

def _poly_rem(num, den):
    num = list(num)
    while len(num) >= len(den):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
        while num and num[-1] == 0:
            num.pop()
    return num


def count_positive_roots(poly) -> int:
    """Number of distinct real roots of ``poly`` (ascending coefficients) in
    the open interval (0, oo), via a Sturm chain.

    Float coefficients are taken at their exact rational values, so the
    count is exact for the polynomial the floats denote.  Raises
    ZeroPolynomialError on the zero polynomial, every point of which is a
    root."""
    p = [Fraction(c) for c in poly]
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

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    at_zero = variations(
        [next((1 if c > 0 else -1) for c in q if c != 0) for q in chain]
    )
    at_inf = variations([1 if q[-1] > 0 else -1 for q in chain])
    return at_zero - at_inf


def count_real_roots(poly) -> int:
    """Number of distinct nonzero real roots of an even polynomial given by
    ascending coefficients."""
    if any(c != 0 for c in poly[1::2]):
        raise ValueError("expected an even polynomial")
    # Real offsets come in +/- pairs from positive roots of the even part.
    return 2 * count_positive_roots(list(poly[0::2]))


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

# The twists (a1, a2) at which every entry reads the expansion forms: a
# 5 x 5 grid, on which each identity entry's gaps vanish and the even part
# of each constrained polynomial is interpolated in (A, B) = (a1^2, a2^2),
# then off-grid twists, one with a negative a1 and one with a negative a2,
# that confirm the degree bounds.
_TWISTS = tuple((Fraction(n1), Fraction(1, n2))
                for n1 in range(1, 6) for n2 in range(2, 7)) + (
    (Fraction(-6), Fraction(1, 7)), (Fraction(7), Fraction(-1, 8)))
_TWIST_DEGREE = 4

# The resultant-factor curves as (numerator, denominator) of A and of B,
# linear in a parameter t that covers the whole curve as t runs over
# (0, oo): the second factor vanishes on B = A/(A+2) (A = t), the third on
# B = (A-1)/(A+3) (A = 1 + t, where B > 0).  On a curve, a polynomial of
# degree 4 in A and in B has degree at most 8 in t: nine nodes fix it.
_CURVES = {
    "second": lambda t: ((t, 1), (t, t + 2)),
    "third": lambda t: ((1 + t, 1), (t, t + 4)),
}
_CURVE_NODES = tuple(range(1, 2 * _TWIST_DEGREE + 2))


def _gap_entry(label, table, gaps):
    """An entry whose value is the largest |gap| over ``table`` ({(a1, a2):
    the expansion forms or the constrained polynomials of that twist}):
    ``gaps(a1, a2, twist_table)`` lists the gaps at one twist.

    An ``[identity]`` entry rests on a degree bound: the coefficients of c0
    and c4 have degree at most 4 in a1 and in a2, those of c1 and c3 at most
    3, so each gap of the forms, printed side included, is a polynomial of
    degree at most 4 in a1 and in a2 (the splitting difference and the first
    quartic have degree at most 2).  Zeros on the 5 x 5 grid of ``_TWISTS``
    then prove it zero, and the off-grid twists confirm the bound.  An
    ``[exact]`` entry claims only the 27 listed twists.
    """
    worst = max(abs(gap) for (a1, a2), twist_table in table.items()
                for gap in gaps(a1, a2, twist_table))
    return ResidualEntry(label, worst, TOL)


def _offset_split_gaps(a1, a2, forms):
    """c0 - c4 = -16*a1*a2*(a1-a2)*(a1+a2)*(mu14*mu23 - mu12*mu34), by
    coefficient in the offsets."""
    scale = 16 * a1 * a2 * (a1 - a2) * (a1 + a2)
    target = {0b0101: -scale, 0b1010: scale}
    return [c0 - c4 - target.get(mask, 0)
            for mask, (c0, c4) in enumerate(zip(forms[0], forms[4]))]


def _odd_factor_gaps(a1, a2, forms):
    """The factorisations of the odd coefficients once mu34 is eliminated as
    mu14*mu23/mu12, by coefficient of mu14^i mu12^j mu23^k, keyed (i, j, k):

        mu12*(c1 - c3) = 16*a2*(mu12 + mu23)*(mu14 - mu12)*f1(mu14*mu23)
        mu12*(c1 + c3) = 16*a1*(mu12 - mu23)*(mu14 + mu12)*f2(mu14*mu23)
    """
    gaps = []
    for sign, a, factor in ((1, a2, splitting_f1), (-1, a1, splitting_f2)):
        poly = defaultdict(int)
        for mask, (c1, c3) in enumerate(zip(forms[1], forms[3])):
            b14, b12, b23, b34 = (mask >> i & 1 for i in range(4))
            poly[b14 + b34, 1 + b12 - b34, b23 + b34] += c1 - sign * c3
        # (mu12 + sign*mu23)*(mu14 - sign*mu12) times beta + alpha*mu14*mu23
        beta = factor(a1, a2, 0)
        alpha = factor(a1, a2, 1) - beta
        for (i, j, k), c in (((1, 1, 0), 1), ((0, 2, 0), -sign),
                             ((1, 0, 1), sign), ((0, 1, 1), -1)):
            poly[i, j, k] -= 16 * a * c * beta
            poly[i + 1, j, k + 1] -= 16 * a * c * alpha
        gaps += poly.values()
    return gaps


def _equal_offsets_gaps(a1, a2, forms):
    """With all offsets equal to m, c4 is the factor
    4*a1^2*a2^2*m^2*(a1^2 - a2^2) up to this module's normalisation (-4),
    which cannot vanish for a valid design with a nonzero offset; by
    coefficient of m^k, the sum of c4's coefficients over masks of k bits."""
    sums = [0] * 5
    for mask, c4 in enumerate(forms[4]):
        sums[mask.bit_count()] += c4
    sums[2] += 16 * a1 * a1 * a2 * a2 * (a1 * a1 - a2 * a2)
    return sums


def _splitting_difference_gaps(a1, a2, _):
    """f1 - f2 = 4*(a1^2 - a2^2) at the offset products m = 0 and m = 1; both
    sides are linear in m."""
    return [splitting_f1(a1, a2, m) - splitting_f2(a1, a2, m)
            - 4 * (a1 * a1 - a2 * a2) for m in (0, 1)]


def _first_quartic_gaps(a1, a2, _):
    """quartic_g1 - 1 = (a1*a2)^2 + 2*a2^2, a sum of squares, so
    quartic_g1 >= 1."""
    return [quartic_g1(a1, a2) - 1 - (a1 * a2) ** 2 - 2 * a2 * a2]


def _odd_offset_gaps(a1, a2, polys):
    """The odd coefficients of the constrained polynomial p0 in the offset
    x, which vanish when p0 is even in x."""
    return polys[0][1::2]


def _evaluate_squares(poly, a, b):
    """d_a^I d_b^J times the polynomial with coefficients poly[i][j] of
    A^i B^j (i <= I, j <= J) at A = n_a/d_a and B = n_b/d_b, given as
    ``a`` = (n_a, d_a) and ``b`` = (n_b, d_b)."""
    (na, da), (nb, db) = a, b
    top_a, top_b = len(poly) - 1, len(poly[0]) - 1
    return sum(c * na ** i * da ** (top_a - i) * nb ** j * db ** (top_b - j)
               for i, row in enumerate(poly) for j, c in enumerate(row))


def _fit_squares(values, degree):
    """Coefficient grids poly[i][j] of A^i B^j (i, j <= ``degree``) of the
    polynomials in (A, B) taking the value lists of ``values`` ({(A, B):
    list}).  The first (degree+1)^2 keys form a tensor grid, on which the
    polynomials are interpolated exactly; each further key confirms them,
    and a disagreement raises DegreeBoundError."""
    points = list(values)
    size = (degree + 1) ** 2
    a_nodes, b_nodes = (tuple(dict.fromkeys(axis))
                        for axis in zip(*points[:size]))
    fits = []
    for k in range(len(values[points[0]])):
        rows = {b: interpolate_polynomial(lambda a: values[a, b][k], degree,
                                          a_nodes) for b in b_nodes}
        fits.append([interpolate_polynomial(lambda b: rows[b][i], degree,
                                            b_nodes)
                     for i in range(degree + 1)])
    if any([_evaluate_squares(p, (a, 1), (b, 1)) for p in fits] != values[a, b]
           for a, b in points[size:]):
        raise DegreeBoundError(f"values are not of degree {degree} in A, B")
    return fits


def _even_part(polys, swapped):
    """Coefficient grids of e0, e1 and e2 for the constrained polynomial p0
    of one case, from ``polys`` ({(a1, a2): (p0, p2)}, in ``_TWISTS``
    order).

    p0 is even in the offset x (``_odd_offset_gaps``), so
    p0 = (e0 + e1*y + e2*y^2) / W with y = x^2 and the weight
    W = (1+A)^2 (1+B) in the direct case and (1+A) (1+B)^2 in the swapped
    one, (A, B) = (a1^2, a2^2).  Parity: p0 is unchanged under a1 -> -a1
    and under a2 -> -a2, so each e_k is a function of (A, B).  Degree
    bound: each e_k is a polynomial of degree at most 4 in A and at most 4
    in B.  The e_k are interpolated once on the 5 x 5 grid of the twists,
    and the off-grid twists, one with a negative a1 and one with a negative
    a2, confirm the bound and the parity (else DegreeBoundError).
    """
    values = {}
    for (a1, a2), (p0, _) in polys.items():
        big_a, big_b = a1 * a1, a2 * a2
        weight = ((1 + big_a) * (1 + big_b)
                  * (1 + (big_b if swapped else big_a)))
        values[big_a, big_b] = [weight * c for c in p0[0::2]]
    return _fit_squares(values, _TWIST_DEGREE)


def _curve_entry(label, even, curve, swapped):
    """Proof that along a whole resultant-factor curve the constrained
    polynomial keeps no nonzero real offset root.

    On the curve, each coefficient of the even part ``even`` times the
    curve's positive denominators is a polynomial q_k of degree at most 8 in
    the curve parameter t > 0 (the swapped case exchanges A and B).  If at
    least one q_k is not identically zero, none that is has a root in
    (0, oo) (a Sturm count), and all these share the sign of q_k(1), the
    sum of the coefficients, then e0 + e1*y + e2*y^2 has that sign for
    every y > 0 at every point of the curve (Descartes' rule of signs), so
    no real offset x = +-sqrt(y) is a root.  On the second curve all three
    keep one sign; on the third e0 and e1 vanish identically.
    """

    def on_curve(poly, t):
        a, b = curve(t)
        return _evaluate_squares(poly, *((b, a) if swapped else (a, b)))

    polys = [q for q in (interpolate_polynomial(
        lambda t: on_curve(poly, t), 2 * _TWIST_DEGREE, _CURVE_NODES)
        for poly in even) if any(q)]
    proved = (len({sum(q) > 0 for q in polys}) == 1
              and not any(map(count_positive_roots, polys)))
    return ResidualEntry(label, 0 if proved else 1, TOL)


def verify_nonexistence() -> CertificateReport:
    """Run the full case analysis ruling out plane-symmetric couplings.

    Each report entry is tagged with its argument strength: ``identity`` for
    polynomial identities (resting on the degree bounds of ``_gap_entry``
    and ``_even_part``), ``exact`` for exact evaluation at the 27 twists of
    ``_TWISTS`` only, and ``curve proof`` for exact root counts along a
    whole constraint curve.  Every entry but a curve proof is the largest
    gap over the expansion forms or the constrained polynomials of each
    twist, which a call builds once.  Every value is exact, and nothing is
    drawn at random.
    """
    forms = {twist: _expansion_forms(*twist) for twist in _TWISTS}
    polys = {s: {t: _constrained_polynomials(forms[t], *t, s) for t in _TWISTS}
             for s in (False, True)}
    tags = {False: "direct", True: "swapped"}
    entries = [
        _gap_entry("offset product split [identity]", forms,
                   _offset_split_gaps),
        _gap_entry("odd coefficient factors [identity]", forms,
                   _odd_factor_gaps),
        _gap_entry("splitting difference [identity]", forms,
                   _splitting_difference_gaps),
        _gap_entry("equal offsets coefficient [identity]", forms,
                   _equal_offsets_gaps),
        _gap_entry("first quartic positive [identity]", forms,
                   _first_quartic_gaps),
        *(_gap_entry(
            f"resultant factorisation {tag} [exact]", polys[s],
            lambda a1, a2, p: [sylvester_resultant(*p)
                               - constrained_resultant_target(a1, a2, s)])
          for s, tag in tags.items()),
        *(_gap_entry(f"constrained polynomial {tag} [identity]", polys[s],
                     _odd_offset_gaps) for s, tag in tags.items()),
    ]
    even = {s: _even_part(polys[s], s) for s in tags}
    for name, curve in _CURVES.items():
        for s, tag in tags.items():
            entries.append(_curve_entry(
                f"{name} quartic roots {tag} [curve proof]", even[s], curve,
                s))
    return CertificateReport("plane-symmetric non-existence", tuple(entries))
