"""Exact non-existence suite for flexible plane-symmetric couplings.

A coupling whose two tubes are related by a reflection would force the four
moving anchor points to stay coplanar for every drive parameter.  Expanding
that coplanarity determinant in the drive half-tangent gives five coefficient
conditions whose case analysis rules every candidate out.  This module
recomputes the expansion with rational arithmetic and re-derives each step of
the case analysis, labelling every entry of the resulting report with the
strength of the argument used (polynomial identity, exact sampling, or grid).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Poly,
    interpolate_polynomial,
    is_exact,
    sylvester_resultant,
)
from .bennett import BennettDesign, frame, transmission_K
from .families import MuSet, points_on_axes
from .properties import CertificateReport, ResidualEntry


class StructuralFactorError(ValueError):
    """A structural factor a1*a2*(a1-a2)*(a1+a2) vanishes, so the coefficient
    normalisation of the coplanarity expansion is undefined."""


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

# Nodes in the free anchor offset used to interpolate the (even) degree-6
# polynomials of the two constrained cases, plus degree-confirming extras.
_OFFSET_NODES = tuple(Fraction(i + 1, 2) for i in range(7))
_OFFSET_CHECKS = (Fraction(9, 2), Fraction(11, 3))


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

    def coefficients(self):
        return (self.c0, self.c1, self.c2, self.c3, self.c4)


def coplanarity_determinant(design: BennettDesign, mu: MuSet, tau):
    """Determinant testing coplanarity of the four anchor points at ``tau``."""
    return points_on_axes(frame(design, tau), mu).orientation_det()


def _check_structural_factor(a1, a2):
    if a1 * a2 * (a1 - a2) * (a1 + a2) == 0:
        raise StructuralFactorError(
            "a1*a2*(a1-a2)*(a1+a2) must be nonzero to normalise the expansion"
        )


def _coeff_evaluator(a1, a2):
    """Closure computing normalised expansion coefficients for varying offsets
    with the drive frames computed only once."""
    _check_structural_factor(a1, a2)
    exact = is_exact(a1) and is_exact(a2)
    design = BennettDesign(a1, a2, Fraction(1) if exact else 1.0)
    big_k = transmission_K(design)
    # Degree checks need exact equality, so the float path interpolates on
    # the minimal node set only (the degree bound is established exactly).
    taus = _TAU_NODES + _TAU_CHECKS if exact else _TAU_NODES
    if not exact:
        taus = tuple(float(t) for t in taus)
    frames = {tau: frame(design, tau) for tau in taus}
    lam = -((1 + a1 * a1) ** 2) * (1 + a2 * a2) ** 2 * (a1 - a2) ** 2

    def coeffs(mu: MuSet):
        def cleared(tau):
            det = points_on_axes(frames[tau], mu).orientation_det()
            return det * (tau * tau + big_k * big_k) * (1 + tau * tau)

        n = interpolate_polynomial(cleared, 4, list(taus))
        return (
            lam * n[0] / (a1 + a2) ** 2,
            -lam * n[1] / (a1 * a2 * (a1 + a2)),
            lam * n[2],
            -lam * n[3] / (a1 * a2 * (a1 - a2)),
            lam * n[4] / (a1 - a2) ** 2,
        )

    return coeffs


def coplanarity_coeffs(a1, a2, mu: MuSet) -> CoplanarityExpansion:
    """Normalised quartic coefficients of the coplanarity determinant.

    Works with the scale factor pinned to one; requires the structural factor
    ``a1*a2*(a1-a2)*(a1+a2)`` to be nonzero.
    """
    c0, c1, c2, c3, c4 = _coeff_evaluator(a1, a2)(mu)
    return CoplanarityExpansion(a1=a1, a2=a2, mu=mu, c0=c0, c1=c1, c2=c2, c3=c3, c4=c4)


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


def constrained_mu_product(a1, a2, swapped: bool = False):
    """Offset product forced by the vanishing of one splitting factor.

    The direct case kills :func:`splitting_f2`; the index-swapped case kills
    :func:`splitting_f1` and is obtained by exchanging the twist roles.
    """
    factor = splitting_f1 if swapped else splitting_f2
    return -factor(a1, a2, 0) / ((1 + a1 * a1) * (1 + a2 * a2))


def _offset_polynomials(a1, a2, swapped, indices):
    """Ascending coefficients, in the free offset x, of x^2 times each
    expansion coefficient named in ``indices`` on the constrained case; only
    exact designs confirm the degree bound on extra nodes."""
    coeffs = _coeff_evaluator(a1, a2)
    product = constrained_mu_product(a1, a2, swapped)
    if is_exact(a1) and is_exact(a2):
        nodes = list(_OFFSET_NODES + _OFFSET_CHECKS)
    else:
        nodes = [float(v) for v in _OFFSET_NODES]

    def expansion(x):
        if swapped:
            return coeffs(MuSet(product / x, x, x, product / x))
        return coeffs(MuSet(x, x, product / x, product / x))

    values = {x: expansion(x) for x in nodes}
    return tuple(
        interpolate_polynomial(lambda x: x * x * values[x][index], 6, nodes)
        for index in indices
    )


def constrained_case_polynomials(a1, a2, swapped: bool = False):
    """The two even degree-6 polynomials (in the one remaining free offset)
    whose simultaneous vanishing the constrained case would require.

    Returns ascending coefficient lists of the cleared constant and quadratic
    expansion coefficients.
    """
    return _offset_polynomials(a1, a2, swapped, (0, 2))


def constrained_resultant_target(a1, a2, swapped: bool = False):
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
    count is exact for the polynomial the floats denote."""
    p = [Fraction(c) for c in poly]
    while p and p[-1] == 0:
        p.pop()
    while p and p[0] == 0:
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
    cubic = list(poly[0::2])
    # Real offsets come in +/- pairs from positive roots of the even part.
    return 2 * count_positive_roots(cubic)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _random_fraction(rng, lo=1, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def _random_design(rng):
    while True:
        a1 = _random_fraction(rng)
        a2 = _random_fraction(rng)
        if a1 != a2 and a1 * a2 != 0:
            return a1, a2


# Rational points on the curve a2^2*(a1^2+2) = a1^2, where the second
# resultant factor vanishes; solutions of p^2 + 2q^2 = r^2 give (p/q, p/r).
_SECOND_FACTOR_POINTS = (
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(7, 4), Fraction(7, 9)),
    (Fraction(17, 6), Fraction(17, 19)),
)

_MU_GRID = (Fraction(1, 3), Fraction(1))


def _offset_split_entry(rng, samples):
    """Exact check that the difference of the extreme expansion coefficients
    equals -16*a1*a2*(a1-a2)*(a1+a2)*(mu14*mu23 - mu12*mu34).

    The determinant is linear in each offset, so a full grid over two values
    per offset proves the identity in the offsets for each sampled design.
    """
    worst = 0.0
    for _ in range(samples):
        a1, a2 = _random_design(rng)
        coeffs = _coeff_evaluator(a1, a2)
        for m14 in _MU_GRID:
            for m12 in _MU_GRID:
                for m23 in _MU_GRID:
                    for m34 in _MU_GRID:
                        c = coeffs(MuSet(m14, m12, m23, m34))
                        rhs = (
                            -16 * a1 * a2 * (a1 - a2) * (a1 + a2)
                            * (m14 * m23 - m12 * m34)
                        )
                        worst = max(worst, abs(float(c[0] - c[4] - rhs)))
    return ResidualEntry("offset product split [exact grid]", worst, 0.0)


def _odd_factor_entry(rng, samples):
    """Exact check of the factorisations of the odd expansion coefficients
    after eliminating the fourth offset."""
    worst = 0.0
    for _ in range(samples):
        a1, a2 = _random_design(rng)
        coeffs = _coeff_evaluator(a1, a2)
        m14, m12, m23 = (_random_fraction(rng) for _ in range(3))
        c = coeffs(MuSet(m14, m12, m23, m14 * m23 / m12))
        product = m14 * m23
        lhs_minus = m12 * (c[1] - c[3])
        lhs_plus = m12 * (c[1] + c[3])
        rhs_minus = 16 * a2 * (m12 + m23) * (m14 - m12) * splitting_f1(a1, a2, product)
        rhs_plus = 16 * a1 * (m12 - m23) * (m14 + m12) * splitting_f2(a1, a2, product)
        worst = max(worst, abs(float(lhs_minus - rhs_minus)))
        worst = max(worst, abs(float(lhs_plus - rhs_plus)))
    return ResidualEntry("odd coefficient factors [exact]", worst, 0.0)


def _splitting_difference_entry(rng, samples=1000):
    """The two splitting factors differ by 4*(a1^2 - a2^2), verified both as a
    polynomial identity and over random rationals."""
    names = ("a1", "a2", "m")
    a1 = Poly.variable(names, "a1")
    a2 = Poly.variable(names, "a2")
    m = Poly.variable(names, "m")
    identity = (
        splitting_f1(a1, a2, m)
        - splitting_f2(a1, a2, m)
        - Poly.constant(names, 4) * (a1 * a1 - a2 * a2)
    )
    worst = 0.0 if identity.is_zero() else 1.0
    for _ in range(samples):
        x1, x2, xm = (_random_fraction(rng) for _ in range(3))
        diff = splitting_f1(x1, x2, xm) - splitting_f2(x1, x2, xm)
        worst = max(worst, abs(float(diff - 4 * (x1 * x1 - x2 * x2))))
    return ResidualEntry("splitting difference [identity]", worst, 0.0)


def _equal_offsets_entry(rng, samples):
    """With all offsets equal, the leading coefficient reduces to the factor
    4*a1^2*a2^2*mu^2*(a1^2 - a2^2) up to this module's normalisation (-4),
    which cannot vanish for a valid design with a nonzero offset."""
    worst = 0.0
    cases = [(Fraction(1, 2), Fraction(1, 3), Fraction(1))]
    for _ in range(samples):
        a1, a2 = _random_design(rng)
        cases.append((a1, a2, _random_fraction(rng)))
    for a1, a2, m in cases:
        c = _coeff_evaluator(a1, a2)(MuSet(m, m, m, m))
        factor = 4 * a1 * a1 * a2 * a2 * m * m * (a1 * a1 - a2 * a2)
        worst = max(worst, abs(float(c[4] + 4 * factor)))
        if a1 * a1 != a2 * a2 and c[4] == 0:
            worst = max(worst, 1.0)
    return ResidualEntry("equal offsets coefficient [exact]", worst, 0.0)


def _first_quartic_entry(grid):
    """The first resultant factor is a sum of squares plus one, hence at least
    one everywhere; a positivity grid cross-checks the closed form."""
    worst = 0.0
    for i in range(grid):
        for j in range(grid):
            a1 = Fraction(5 * (i + 1), grid)
            a2 = Fraction(5 * (j + 1), grid)
            if quartic_g1(a1, a2) < 1:
                worst = 1.0
    return ResidualEntry("first quartic positive [closed form + grid]", worst, 0.0)


def _resultant_entry(rng, samples, swapped):
    """Exact check of the printed factorisation of the constrained-case
    resultant at random rational designs."""
    worst = 0.0
    done = 0
    while done < samples:
        a1, a2 = _random_design(rng)
        if a1 * a1 == a2 * a2:
            continue
        p0, p2 = constrained_case_polynomials(a1, a2, swapped)
        res = sylvester_resultant(list(p0), list(p2))
        target = constrained_resultant_target(a1, a2, swapped)
        worst = max(worst, abs(float(res - target)))
        done += 1
    tag = "swapped" if swapped else "direct"
    return ResidualEntry(f"resultant factorisation {tag} [exact]", worst, 0.0)


def _second_factor_exact_entry(swapped):
    """At exact rational points of the second-factor curve the remaining even
    polynomial has no real root, proved by a Sturm count."""
    worst = 0.0
    for a1, a2 in _SECOND_FACTOR_POINTS:
        if swapped:
            a1, a2 = a2, a1
        p0, _ = constrained_case_polynomials(a1, a2, swapped)
        if count_real_roots(p0) != 0:
            worst = 1.0
    tag = "swapped" if swapped else "direct"
    return ResidualEntry(f"second quartic roots {tag} [exact points]", worst, 0.0)


def _grid_entry(label, curve, grid, swapped):
    """Grid verification that along a resultant-factor curve the remaining
    polynomial keeps no real offset root (argument strength: grid only).

    The swapped case exchanges the twist roles of each curve point, as
    :func:`_second_factor_exact_entry` does.
    """
    worst = 0.0
    for i in range(grid):
        a1, a2 = curve(i, grid)
        if swapped:
            a1, a2 = a2, a1
        (poly,) = _offset_polynomials(a1, a2, swapped, (0,))
        # The polynomial is even; a nonzero real offset exists exactly when
        # its even part has a positive real root in the squared offset.
        # Coefficients that are pure interpolation noise are stripped at both
        # ends: a vanishing low-order block only adds roots at offset zero,
        # which a valid coupling excludes.  The Sturm count then runs on the
        # exact rational values of the remaining float coefficients.
        even = [poly[k] for k in range(0, len(poly), 2)]
        scale = max(abs(c) for c in even)
        while even and abs(even[-1]) <= 1e-9 * scale:
            even.pop()
        while even and abs(even[0]) <= 1e-9 * scale:
            even.pop(0)
        if count_positive_roots(even):
            worst = 1.0
    return ResidualEntry(label, worst, 0.0)


def _second_curve(i, grid):
    a1 = 5.0 * (i + 1) / grid
    return a1, a1 / math.sqrt(a1 * a1 + 2.0)


def _third_curve(i, grid):
    a1 = 1.0 + 4.0 * (i + 1) / grid
    return a1, math.sqrt((a1 * a1 - 1.0) / (a1 * a1 + 3.0))


def verify_nonexistence(samples: int = 12, grid: int = 100
                        ) -> CertificateReport:
    """Run the full case analysis ruling out plane-symmetric couplings.

    Each report entry is tagged with its argument strength: ``identity`` for
    polynomial identities, ``exact``/``exact grid``/``exact points`` for exact
    rational evaluation, and ``grid`` for dense float sampling where no exact
    parametrisation of the constraint curve exists.  The random designs come
    from a fixed seed, so the report is reproducible.
    """
    rng = random.Random(0)
    entries = [
        _offset_split_entry(rng, samples),
        _odd_factor_entry(rng, samples),
        _splitting_difference_entry(rng),
        _equal_offsets_entry(rng, samples),
        _first_quartic_entry(grid),
        _resultant_entry(rng, 2, swapped=False),
        _resultant_entry(rng, 2, swapped=True),
        _second_factor_exact_entry(swapped=False),
        _second_factor_exact_entry(swapped=True),
        _grid_entry("second quartic roots direct [grid]",
                    _second_curve, grid, False),
        _grid_entry("second quartic roots swapped [grid]",
                    _second_curve, grid, True),
        _grid_entry("third quartic roots direct [grid]",
                    _third_curve, grid, False),
        _grid_entry("third quartic roots swapped [grid]",
                    _third_curve, grid, True),
    ]
    return CertificateReport("plane-symmetric non-existence", tuple(entries))
