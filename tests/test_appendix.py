"""Unit tests for the plane-symmetric non-existence suite."""

import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bibennett.appendix as appendix
from bibennett.appendix import (
    _CURVES,
    _TAU_CHECKS,
    _TAU_NODES,
    _TWISTS,
    CoplanarityExpansion,
    StructuralFactorError,
    ZeroPolynomialError,
    _Ratio,
    _curve_entry,
    _constrained_polynomials,
    _equal_offsets_gaps,
    _even_part,
    _first_quartic_gaps,
    _fit_squares,
    _gap_entry,
    _odd_factor_gaps,
    _odd_offset_gaps,
    _offset_split_gaps,
    _resultant_gaps,
    _splitting_difference_gaps,
    constrained_case_polynomials,
    constrained_mu_product,
    constrained_resultant_target,
    coplanarity_coeffs,
    count_positive_roots,
    count_real_roots,
    quartic_g1,
    quartic_g2,
    quartic_g3,
    splitting_f1,
    splitting_f2,
    verify_nonexistence,
)
from bibennett.algebra import (
    DegreeBoundError,
    clear_denominators,
    det3,
    interpolate_polynomial,
    sylvester_resultant,
    v_add,
    v_scale,
    v_sub,
)
from bibennett.bennett import BennettDesign, frame
from bibennett.families import MuSet, points_on_axes

F = Fraction


def test_structural_factor_preconditions():
    mu = MuSet(F(1), F(1), F(1), F(1))
    with pytest.raises(StructuralFactorError):
        coplanarity_coeffs(F(1, 2), F(-1, 2), mu)
    with pytest.raises(StructuralFactorError):
        coplanarity_coeffs(F(0), F(1, 3), mu)


def test_zero_offset_determinant_nonzero():
    # with all offsets zero the anchor quad is the skew frame isogram, which
    # is generically non-planar
    design = BennettDesign(F(1, 2), F(1, 3), F(1))
    det = points_on_axes(frame(design, F(9, 10)),
                         MuSet(F(0), F(0), F(0), F(0))).orientation_det()
    assert det != 0


def test_float_twists_take_their_exact_values():
    exact = coplanarity_coeffs(F(1, 2), F(1, 4),
                               MuSet(F(1, 2), F(3, 4), F(5, 4), F(-3, 2)))
    floats = coplanarity_coeffs(0.5, 0.25, MuSet(0.5, 0.75, 1.25, -1.5))
    assert floats == exact
    assert type(floats.c0) is Fraction


def test_equal_offsets_leading_coefficient():
    exp = coplanarity_coeffs(F(1, 2), F(1, 3), MuSet(F(1), F(1), F(1), F(1)))
    printed = 4 * F(1, 4) * F(1, 9) * (F(1, 4) - F(1, 9))
    assert exp.c4 == -4 * printed
    assert exp.c4 != 0


def test_extreme_coefficient_split():
    mu = MuSet(F(3, 7), F(2, 5), F(1, 3), F(5, 11))
    exp = coplanarity_coeffs(F(1, 2), F(1, 3), mu)
    a1, a2 = F(1, 2), F(1, 3)
    rhs = -16 * a1 * a2 * (a1 - a2) * (a1 + a2) * (
        mu.mu14 * mu.mu23 - mu.mu12 * mu.mu34
    )
    assert exp.c0 - exp.c4 == rhs


def test_odd_coefficient_factorisation():
    a1, a2 = F(2, 5), F(3, 4)
    m14, m12, m23 = F(1, 2), F(2, 3), F(3, 5)
    exp = coplanarity_coeffs(a1, a2, MuSet(m14, m12, m23, m14 * m23 / m12))
    product = m14 * m23
    assert m12 * (exp.c1 - exp.c3) == (
        16 * a2 * (m12 + m23) * (m14 - m12) * splitting_f1(a1, a2, product)
    )
    assert m12 * (exp.c1 + exp.c3) == (
        16 * a1 * (m12 - m23) * (m14 + m12) * splitting_f2(a1, a2, product)
    )


def test_splitting_difference_identity():
    a1, a2, m = F(5, 3), F(2, 7), F(9, 4)
    diff = splitting_f1(a1, a2, m) - splitting_f2(a1, a2, m)
    assert diff == 4 * (a1 * a1 - a2 * a2)


def test_first_quartic_positive():
    assert quartic_g1(F(1, 2), F(1, 3)) > 0
    assert quartic_g1(F(0), F(0)) == 1


def test_constrained_resultant_matches_target():
    a1, a2 = F(4, 7), F(5, 7)
    for swapped in (False, True):
        p0, p2 = constrained_case_polynomials(a1, a2, swapped)
        res = sylvester_resultant(list(p0), list(p2))
        assert res == constrained_resultant_target(a1, a2, swapped)


def test_second_quartic_exact_point_has_no_real_offset():
    # (1/2, 1/3) lies exactly on the curve where the second factor vanishes;
    # the swapped case exchanges the twists
    assert quartic_g2(F(1, 2), F(1, 3)) == 0
    for swapped, twists in ((False, (F(1, 2), F(1, 3))),
                            (True, (F(1, 3), F(1, 2)))):
        p0, _ = constrained_case_polynomials(*twists, swapped)
        assert count_real_roots(p0) == 0


def test_mu_product_kills_splitting_factor():
    a1, a2 = F(2, 5), F(3, 4)
    assert splitting_f2(a1, a2, constrained_mu_product(a1, a2, False)) == 0
    assert splitting_f1(a1, a2, constrained_mu_product(a1, a2, True)) == 0


def test_sturm_root_counts():
    # (x-1)(x-2) has two positive roots; x^2+1 none
    assert count_positive_roots([F(2), F(-3), F(1)]) == 2
    assert count_positive_roots([F(1), F(0), F(1)]) == 0
    # (x^2-1)(x^2-4): two positive, so four nonzero real roots of the even poly
    assert count_real_roots([F(4), F(0), F(-5), F(0), F(1)]) == 4


def test_sturm_root_counts_on_float_coefficients():
    # float coefficients are taken at their exact rational values;
    # x^2 + x/2 - 2 has one positive root
    assert count_positive_roots([-2.0, 0.5, 1.0]) == 1
    assert count_positive_roots([2.0, -3.0, 1.0]) == 2
    assert count_positive_roots([2.0, 0.5, 1.0]) == 0
    # a double root counts once: (x - 1/2)^2
    assert count_positive_roots([0.25, -1.0, 1.0]) == 1


def _times(poly, factor):
    """The product of two ascending coefficient lists."""
    out = [0] * (len(poly) + len(factor) - 1)
    for i, x in enumerate(poly):
        for j, y in enumerate(factor):
            out[i + j] += x * y
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.builds(F, st.integers(-30, 30), st.integers(1, 9)),
                max_size=6, unique=True),
       st.integers(-4, 4).filter(bool), st.booleans(), st.booleans())
def test_sturm_counts_each_positive_root_once(roots, lead, twice, complex_):
    # lead * prod(x - r) over distinct rationals r (zero among them), one of
    # them twice, times x^2 + 1: a negative lead flips every sign of the
    # chain, which the integer remainders must keep
    poly = [lead]
    for r in roots + roots[:int(twice)]:
        poly = _times(poly, [-r, 1])
    if complex_:
        poly = _times(poly, [1, 0, 1])
    assert count_positive_roots(poly) == sum(1 for r in roots if r > 0)


def test_zero_polynomial_has_no_root_count():
    with pytest.raises(ZeroPolynomialError):
        count_positive_roots([0, 0, 0])
    with pytest.raises(ZeroPolynomialError):
        count_positive_roots([])
    with pytest.raises(ZeroPolynomialError):
        count_real_roots([0] * 7)
    with pytest.raises(ZeroPolynomialError):
        count_real_roots([0.0] * 7)
    # a nonzero constant has no root, and a root at zero is not positive
    assert count_positive_roots([F(3)]) == 0
    assert count_positive_roots([0, 0, F(1)]) == 0


def _squares(terms):
    """5 x 5 integer coefficient grid in (A, B) = (a1^2, a2^2) with the
    terms {(i, j): coefficient of A^i B^j}."""
    return [[terms.get((i, j), 0) for j in range(5)] for i in range(5)]


def _grid_values(grids, den):
    """The Fraction values of integer coefficient grids over ``den``."""
    return [[[F(c, den) for c in row] for row in grid] for grid in grids]


def test_zero_constrained_polynomial_fails_the_curve_proofs():
    # a zero p0 is even, so the identity entry holds, but every offset is a
    # root: no curve entry may pass
    polys = dict.fromkeys(_TWISTS, (([0] * 5, [0] * 5), 1))
    assert _gap_entry("zero", polys, _odd_offset_gaps).passed
    for swapped in (False, True):
        even, _ = _even_part(polys, swapped)
        for curve in _CURVES.values():
            assert _curve_entry("zero", even, curve, swapped).value == 1.0


def test_zero_even_part_fails_the_curve_entry():
    zero = [_squares({})] * 3
    entry = _curve_entry("zero [curve proof]", zero, _CURVES["second"], False)
    assert entry.value == 1.0 and not entry.passed


@pytest.mark.parametrize("name", sorted(_CURVES))
@pytest.mark.parametrize("swapped", (False, True))
def test_curve_entry_fails_on_a_root_in_its_interval(name, swapped):
    curve = _CURVES[name]
    one = _squares({(0, 0): 1})
    a_axis, b_axis = _squares({(1, 0): 1}), _squares({(0, 1): 1})
    # control: 1 + A*y + B*y^2 is positive for y > 0 on every curve
    assert _curve_entry("ok", [one, a_axis, b_axis], curve, swapped).passed
    # (A - 2)(A - 3) + y^2 (or the same in B for the swapped case) changes
    # sign at A = 2, which both curves pass through
    quadratic = _squares({(0, 0): 6, (1, 0): -5, (2, 0): 1} if not swapped
                         else {(0, 0): 6, (0, 1): -5, (0, 2): 1})
    zero = _squares({})
    assert not _curve_entry("root", [quadratic, zero, one], curve,
                            swapped).passed
    # y^2 - 1 keeps each coefficient's sign but has the root y = 1
    minus_one = _squares({(0, 0): -1})
    assert not _curve_entry("root", [minus_one, zero, one], curve,
                            swapped).passed


def test_fit_squares_recovers_and_confirms_its_degree():
    grid = [(F(a), F(1, b)) for a in range(1, 6) for b in range(2, 7)]
    checks = [(F(7), F(1, 8)), (F(9), F(3))]

    def values(fun):
        # each value list over its own denominator, keyed by integer ratios
        return {(a.as_integer_ratio(), b.as_integer_ratio()):
                ([v.numerator, 3 * v.numerator], v.denominator)
                for a, b in grid + checks for v in [F(fun(a, b))]}

    fit = _grid_values(*_fit_squares(
        values(lambda a, b: a ** 4 * b - 2 * b ** 3 + 1), 4))
    assert fit[0] == _squares({(4, 1): 1, (0, 3): -2, (0, 0): 1})
    assert fit[1] == _squares({(4, 1): 3, (0, 3): -6, (0, 0): 3})
    with pytest.raises(DegreeBoundError):
        _fit_squares(values(lambda a, b: a ** 5 * b), 4)
    with pytest.raises(DegreeBoundError):
        _fit_squares(values(lambda a, b: a * b ** 5), 4)


def test_non_even_constrained_polynomial_fails_the_identity_entry():
    polys = dict.fromkeys(_TWISTS, (([1, 1, 1, 0, 0], [0] * 5), 1))
    entry = _gap_entry("odd", polys, _odd_offset_gaps)
    assert entry.value == 1.0 and not entry.passed
    # the gap is read over the twist's denominator
    polys = dict.fromkeys(_TWISTS, (([1, 3, 1, 0, 0], [0] * 5), 4))
    assert _gap_entry("odd", polys, _odd_offset_gaps).value == F(3, 4)


def test_constrained_polynomial_is_even_in_the_offset_and_the_twists():
    # the parity the identity entry rests on, at a design off its grid
    a1, a2 = F(3, 2), F(2, 7)
    for swapped in (False, True):
        polys = constrained_case_polynomials(a1, a2, swapped)
        assert not any(polys[0][1::2]) and not any(polys[1][1::2])
        for b1, b2 in ((-a1, a2), (a1, -a2), (-a1, -a2)):
            assert constrained_case_polynomials(b1, b2, swapped) == polys


_POSITIVE = st.builds(F, st.integers(1, 40), st.integers(1, 30))
_OFFSET = st.builds(F, st.integers(-40, 40), st.integers(1, 30))


_TWIST = st.builds(F, st.integers(-40, 40).filter(bool), st.integers(1, 30))
_OFFSET_OR_ZERO = st.one_of(st.just(F(0)), _OFFSET)


def _cleared_drive(design, big_k, tau):
    """Reference: (anchors, directions, weight) of the drive frame at
    ``tau``, the pose's integers over its D and the Fraction weight
    (tau^2 + K^2)(1 + tau^2) / D^3 that clears the coplanarity
    determinant's denominator in tau."""
    pose = frame(design, tau)
    weight = (tau * tau + big_k * big_k) * (1 + tau * tau) / pose.den ** 3
    return pose.points, pose.directions, weight


def _cleared_determinant(drive, offsets, den):
    """Reference: den^3 times the weighted coplanarity determinant of the
    quad at the offsets ``offsets`` / ``den`` on the cleared ``drive``, the
    orientation determinant of the points den*F + offset*r (integers on
    exact input) times the drive's weight."""
    anchors, directions, weight = drive
    p14, p12, p23, p34 = (v_add(v_scale(den, point), v_scale(m, direction))
                          for point, direction, m
                          in zip(anchors, directions, offsets))
    return det3(v_sub(p12, p14), v_sub(p23, p14), v_sub(p34, p14)) * weight


def _corner_forms(a1, a2):
    """Reference: the expansion forms of (a1, a2) from the determinant's
    values at the 16 offset corners {0, 1}^4, each interpolated in tau, and
    inclusion-exclusion over the corners; normalised as the
    CoplanarityExpansion docstring states."""
    design = BennettDesign(a1, a2, F(1))
    big_k = design.transmission()
    taus = _TAU_NODES + _TAU_CHECKS
    drives = {tau: _cleared_drive(design, big_k, tau) for tau in taus}
    n = [interpolate_polynomial(
        lambda tau: _cleared_determinant(
            drives[tau], [mask >> i & 1 for i in range(4)], 1), 4, taus)
        for mask in range(16)]
    for bit in (1, 2, 4, 8):
        for mask in range(16):
            if mask & bit:
                n[mask] = [x - y for x, y in zip(n[mask], n[mask ^ bit])]
    lam = -((1 + a1 * a1) ** 2) * (1 + a2 * a2) ** 2 * (a1 - a2) ** 2
    scales = (lam / (a1 + a2) ** 2, -lam / (a1 * a2 * (a1 + a2)), lam,
              -lam / (a1 * a2 * (a1 - a2)), lam / (a1 - a2) ** 2)
    return tuple([scale * coeffs[k] for coeffs in n]
                 for k, scale in enumerate(scales))


def _tau_interpolation(a1, a2, mu):
    """Reference: c0 ... c4 at the offsets ``mu``, by interpolating in tau
    the cleared determinant at those offsets and normalising as the
    CoplanarityExpansion docstring states."""
    design = BennettDesign(a1, a2, F(1))
    big_k = design.transmission()
    (offsets,), den = clear_denominators([mu.as_tuple()])
    n = interpolate_polynomial(
        lambda tau: _cleared_determinant(_cleared_drive(design, big_k, tau),
                                         offsets, den),
        4, _TAU_NODES + _TAU_CHECKS)
    scale = -((1 + a1 * a1) ** 2) * (1 + a2 * a2) ** 2 * (a1 - a2) ** 2
    scale /= den ** 3
    return (scale * n[0] / (a1 + a2) ** 2,
            -scale * n[1] / (a1 * a2 * (a1 + a2)),
            scale * n[2],
            -scale * n[3] / (a1 * a2 * (a1 - a2)),
            scale * n[4] / (a1 - a2) ** 2)


def _offset_interpolation(a1, a2, swapped):
    """Reference: the constrained polynomials by interpolating x^2 times c0
    and c2 in the free offset x, each from its own tau interpolation."""
    forced = constrained_mu_product(a1, a2, swapped)
    nodes = tuple(F(i + 1, 2) for i in range(5)) + (F(9, 2), F(11, 3))

    def offsets(x):
        if swapped:
            return MuSet(forced / x, x, x, forced / x)
        return MuSet(x, x, forced / x, forced / x)

    values = {x: _tau_interpolation(a1, a2, offsets(x)) for x in nodes}
    return tuple(
        interpolate_polynomial(lambda x: x * x * values[x][k], 4, nodes)
        for k in (0, 2))


def _typed(values):
    return [(type(v), v) for v in values]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_TWIST, _TWIST, st.lists(_OFFSET_OR_ZERO, min_size=4, max_size=4))
def test_expansion_forms_match_the_tau_interpolation(a1, a2, offsets):
    assume(a1 * a2 * (a1 - a2) * (a1 + a2) != 0)
    exp = coplanarity_coeffs(a1, a2, MuSet(*offsets))
    assert _typed((exp.c0, exp.c1, exp.c2, exp.c3, exp.c4)) == _typed(
        _tau_interpolation(a1, a2, MuSet(*offsets)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_TWIST, _TWIST)
def test_expansion_forms_match_the_corner_construction(a1, a2):
    # each coefficient read as minors of the drive frame equals the corner
    # values undone by inclusion-exclusion: integers over one den in lowest
    # terms
    assume(a1 * a2 * (a1 - a2) * (a1 + a2) != 0)
    forms, den = appendix._expansion_forms(a1, a2)
    assert type(forms) is tuple and all(type(form) is list for form in forms)
    assert {type(c) for form in forms for c in form} == {int}
    assert den > 0 and gcd(den, *(c for form in forms for c in form)) == 1
    assert [[F(c, den) for c in form] for form in forms] == [
        list(form) for form in _corner_forms(a1, a2)]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_TWIST, _TWIST, st.booleans())
def test_constrained_polynomials_match_the_offset_interpolation(a1, a2,
                                                                swapped):
    assume(a1 * a2 * (a1 - a2) * (a1 + a2) != 0)
    got = constrained_case_polynomials(a1, a2, swapped)
    reference = _offset_interpolation(a1, a2, swapped)
    assert type(got) is tuple and all(type(p) is list for p in got)
    assert [_typed(p) for p in got] == [_typed(p) for p in reference]


def _fraction_forms(a1, a2):
    """Reference: the expansion forms as Fractions, as the suite built them
    before it ran on integers: each tau node's signed 3x3 minors of the
    drive frame times its Fraction weight, interpolated in tau mask by mask,
    and scaled by lam over the printed factors."""
    design = BennettDesign(a1, a2, F(1))
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


def _fraction_coeffs(a1, a2, mu):
    """Reference: coplanarity_coeffs read off the Fraction forms."""
    a1, a2 = F(a1), F(a2)
    mu = MuSet(*map(F, mu.as_tuple()))
    monomials = [prod(m for i, m in enumerate(mu.as_tuple()) if mask >> i & 1)
                 for mask in range(16)]
    return CoplanarityExpansion(a1, a2, mu, *(
        sum(map(mul, form, monomials)) for form in _fraction_forms(a1, a2)))


def _fraction_polynomials(forms, a1, a2, swapped):
    """Reference: the constrained polynomials read off the Fraction forms,
    each monomial with j offsets P/x adding its coefficient times P^j."""
    forced = constrained_mu_product(a1, a2, swapped)
    over_x = 0b1001 if swapped else 0b1100
    polys = ([0] * 5, [0] * 5)
    for mask in range(16):
        j = (mask & over_x).bit_count()
        power = 2 + mask.bit_count() - 2 * j
        for poly, form in zip(polys, (forms[0], forms[2])):
            poly[power] += form[mask] * forced ** j
    return polys


def _fraction_even_part(polys, swapped):
    """Reference: the Fraction grids of e0, e1 and e2 from the Fraction
    constrained polynomials p0 of the 5 x 5 grid twists, interpolated in
    A = a1^2 at each B = a2^2, then in B."""
    values = {}
    for (a1, a2), (p0, _) in polys.items():
        big_a, big_b = a1 * a1, a2 * a2
        weight = ((1 + big_a) * (1 + big_b)
                  * (1 + (big_b if swapped else big_a)))
        values[big_a, big_b] = [weight * c for c in p0[0::2]]
    a_nodes, b_nodes = (tuple(dict.fromkeys(axis))
                        for axis in zip(*list(values)[:25]))
    grids = []
    for k in range(3):
        rows = {b: interpolate_polynomial(lambda a: values[a, b][k], 4,
                                          a_nodes) for b in b_nodes}
        grids.append([interpolate_polynomial(lambda b: rows[b][i], 4,
                                             b_nodes) for i in range(5)])
    return grids


# float twists and offsets of half precision, taken at their binary values
_HALF = st.floats(-8, 8, width=16)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(_TWIST, _HALF), st.one_of(_TWIST, _HALF),
       st.lists(st.one_of(_OFFSET_OR_ZERO, _HALF), min_size=4, max_size=4))
def test_public_values_equal_the_fraction_construction(a1, a2, offsets):
    b1, b2 = F(a1), F(a2)
    assume(b1 * b2 * (b1 - b2) * (b1 + b2) != 0)
    mu = MuSet(*offsets)
    got, reference = coplanarity_coeffs(a1, a2, mu), _fraction_coeffs(a1, a2,
                                                                       mu)
    assert got == reference
    assert _typed(got) == _typed(reference)
    forms = _fraction_forms(b1, b2)
    for swapped in (False, True):
        got = constrained_case_polynomials(a1, a2, swapped)
        reference = _fraction_polynomials(forms, b1, b2, swapped)
        assert type(got) is tuple and all(type(p) is list for p in got)
        assert [_typed(p) for p in got] == [_typed(p) for p in reference]


def test_even_parts_equal_the_fraction_construction(twist_forms):
    # the suite's integer grids over one den, by value, against the grids
    # interpolated on the Fraction forms of the same twists
    fraction_forms = {twist: _fraction_forms(*twist) for twist in _TWISTS}
    for swapped in (False, True):
        polys = {twist: _constrained_polynomials(twist_forms[twist], *twist,
                                                 swapped)
                 for twist in _TWISTS}
        grids, den = _even_part(polys, swapped)
        assert den > 0 and {type(c) for g in grids for r in g for c in r} == {
            int}
        assert _grid_values(grids, den) == _fraction_even_part(
            {twist: _fraction_polynomials(forms, *twist, swapped)
             for twist, forms in fraction_forms.items()}, swapped)


_GAP_ENTRIES = {"split": _offset_split_gaps, "odd": _odd_factor_gaps,
                "equal": _equal_offsets_gaps,
                "difference": _splitting_difference_gaps,
                "quartic": _first_quartic_gaps}


@pytest.fixture(scope="module")
def twist_forms():
    return {twist: appendix._expansion_forms(*twist) for twist in _TWISTS}


def _failing(forms):
    return {name for name, gaps in _GAP_ENTRIES.items()
            if not _gap_entry(name, forms, gaps).passed}


@pytest.mark.parametrize("twist", (_TWISTS[7], _TWISTS[-1]))
@pytest.mark.parametrize("k, failing", ((0, {"split"}), (1, {"odd"}),
                                        (3, {"odd"}),
                                        (4, {"split", "equal"})))
def test_a_perturbed_form_fails_the_entries_that_read_it(twist_forms, twist,
                                                         k, failing):
    # 1/1000 added to one coefficient of one form, over 1000 times its
    # denominator: each entry that reads it fails by 1/1000, the largest gap
    # the Fraction forms give
    assert _failing(twist_forms) == set()
    forms = dict(twist_forms)
    ints, den = forms[twist]
    perturbed = [[1000 * c for c in form] for form in ints]
    perturbed[k][0b0110] += den
    forms[twist] = tuple(perturbed), 1000 * den
    assert _failing(forms) == failing
    for name in failing:
        entry = _gap_entry(name, forms, _GAP_ENTRIES[name])
        assert type(entry.value) is F and entry.value == F(1, 1000)


def _largest_targets():
    return {f"resultant factorisation {tag} [exact]":
            max(abs(constrained_resultant_target(*twist, swapped))
                for twist in _TWISTS)
            for swapped, tag in ((False, "direct"), (True, "swapped"))}


# each mutant, and the largest gap of each entry it fails over the twists;
# the two last are pinned at the gaps the suite computes on Fraction twists
_MUTANTS = {
    "splitting_f2": (
        lambda a1, a2, m: splitting_f2(a1, a2, m) + a1 * a2 * m,
        lambda: {"splitting difference [identity]": F(5, 2)}),
    "quartic_g1": (
        lambda a1, a2: quartic_g1(a1, a2) + a1 * a1 * a2,
        lambda: {"first quartic positive [identity]": F(25, 2)}),
    "constrained_resultant_target": (
        lambda a1, a2, swapped: 2 * constrained_resultant_target(a1, a2,
                                                                 swapped),
        _largest_targets),
    "splitting_f1": (
        lambda a1, a2, m: splitting_f1(a1, a2, m) + a1 * a2 * m,
        lambda: {"odd coefficient factors [identity]": F(20),
                 "splitting difference [identity]": F(5, 2)}),
    "quartic_g2": (
        lambda a1, a2: quartic_g2(a1, a2) + a1 * a2,
        lambda: {"resultant factorisation direct [exact]": F(
                     365992110928873862070845625000000000, 815730721),
                 "resultant factorisation swapped [exact]": F(
                     1469438827507579319966127266148188160, 28561)}),
}


@pytest.mark.parametrize("name", _MUTANTS)
def test_a_mutant_fails_its_entry_by_its_largest_gap(monkeypatch, name):
    # the value of a failing entry is the largest gap over the twists (for
    # the first two, |a1*a2| and a1^2*a2 at a1 = 5, a2 = 1/2), not a flag
    mutant, worst = _MUTANTS[name]
    expected = worst()
    monkeypatch.setattr(appendix, name, mutant)
    entries = {entry.label: entry for entry in verify_nonexistence().residuals}
    for label, value in expected.items():
        assert not entries[label].passed
        assert type(entries[label].value) is F
        assert entries[label].value == value


def _suite_resultant(p0, p2, den=1):
    """The resultant the suite's entry computes for ``p0``, ``p2`` (integer
    numerators over ``den``): its gap plus the printed target it subtracts,
    at a twist where that target is known."""
    twist = (F(2), F(1, 3))
    (gap, *guards), big = _resultant_gaps(*twist, ((p0, p2), den), False)
    return F(gap, big) + constrained_resultant_target(*twist, False), guards


@pytest.mark.parametrize("swapped", (False, True))
def test_suite_resultant_is_sylvester_at_every_twist(twist_forms, swapped):
    # the closed form in y = x^2, squared, against the Sylvester determinant
    # of the two quartics themselves, at each of the 27 twists
    for twist in _TWISTS:
        (p0, p2), den = _constrained_polynomials(twist_forms[twist], *twist,
                                                 swapped)
        value, guards = _suite_resultant(p0, p2, den)
        assert not any(guards)
        assert value == sylvester_resultant([F(c, den) for c in p0],
                                            [F(c, den) for c in p2])


_COEFFICIENT = st.integers(-50, 50)
_LEAD = _COEFFICIENT.filter(bool)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.tuples(_COEFFICIENT, _COEFFICIENT, _LEAD),
       st.tuples(_COEFFICIENT, _COEFFICIENT, _LEAD))
def test_suite_resultant_is_sylvester_on_even_quartics(e, f):
    # any even integer quartics with nonzero leading coefficients, common
    # roots and repeated roots included
    p0, p2 = ([c for k in part for c in (k, 0)][:5] for part in (e, f))
    value, guards = _suite_resultant(p0, p2)
    assert not any(guards)
    assert value == sylvester_resultant(p0, p2)


def _resultant_entry(polys, swapped=False):
    return _gap_entry("resultant", polys,
                      lambda a1, a2, p: _resultant_gaps(a1, a2, p, swapped))


def test_resultant_entry_fails_an_odd_coefficient(twist_forms):
    polys = {twist: _constrained_polynomials(forms, *twist, False)
             for twist, forms in twist_forms.items()}
    assert _resultant_entry(polys).passed
    twist = _TWISTS[11]
    (p0, p2), den = polys[twist]
    # the even parts, and so the resultant's gap, are unchanged: the entry
    # fails by the odd coefficient alone, read over the twist's denominator
    polys[twist] = (p0, [*p2[:3], 1, p2[4]]), den
    entry = _resultant_entry(polys)
    assert not entry.passed and entry.value == F(1, den)


def test_resultant_entry_fails_where_a_degree_drops(monkeypatch):
    # p0 = 2y + 1 and p2 = 2y^2 + y + 3 in y = x^2: the closed form of two
    # quadratics reads 24^2, which the target is made to equal, while the
    # Sylvester resultant of the quadratic and the quartic in x is 144; the
    # entry fails on the degree alone instead of changing its formula
    p0, p2 = [1, 0, 2, 0, 0], [3, 0, 1, 0, 2]
    assert sylvester_resultant(p0, p2) == 144
    monkeypatch.setattr(appendix, "constrained_resultant_target",
                        lambda a1, a2, swapped: 576)
    for swapped in (False, True):
        for pair in ((p0, p2), (p2, p0)):
            entry = _resultant_entry(dict.fromkeys(_TWISTS, (pair, 1)),
                                     swapped)
            assert not entry.passed and entry.value == 1
    # the control: both of degree 4, the same closed form, no gap
    p0 = [1, 0, 2, 0, 5]
    (e0, e1, e2), (f0, f1, f2) = p0[0::2], p2[0::2]
    target = ((e2 * f0 - e0 * f2) ** 2
              - (e2 * f1 - e1 * f2) * (e1 * f0 - e0 * f1)) ** 2
    monkeypatch.setattr(appendix, "constrained_resultant_target",
                        lambda a1, a2, swapped: target)
    assert _resultant_entry(dict.fromkeys(_TWISTS, ((p0, p2), 1))).passed
    assert target == sylvester_resultant(p0, p2)


# a twist as an int, or as (n, d) with d of either sign, such as 7 and
# (-1, 8) or (1, -8); a splitting factor's offset product as an int or a
# Fraction
_RATIO_TWIST = st.one_of(st.integers(-12, 12), st.tuples(
    st.integers(-40, 40), st.integers(-30, 30).filter(bool)))
_PRODUCT = st.one_of(st.integers(-5, 5), _OFFSET)


def _both(twist):
    """(the scalar the printed polynomials take, its Fraction value)."""
    if isinstance(twist, int):
        return twist, F(twist)
    return _Ratio(*twist), F(*twist)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_RATIO_TWIST, _RATIO_TWIST, _PRODUCT, st.booleans())
def test_printed_polynomials_on_ratios_reduce_to_their_fraction_values(
        t1, t2, product, swapped):
    # each printed function, the two that divide included, gives on
    # unreduced ratios, or on one ratio and one int, exactly the lowest
    # terms of its Fraction value (two ints would divide as floats)
    assume(not (isinstance(t1, int) and isinstance(t2, int)))
    (r1, f1), (r2, f2) = _both(t1), _both(t2)
    for name, ratio, fraction in (
            ("f1", splitting_f1(r1, r2, product),
             splitting_f1(f1, f2, product)),
            ("f2", splitting_f2(r1, r2, product),
             splitting_f2(f1, f2, product)),
            ("g1", quartic_g1(r1, r2), quartic_g1(f1, f2)),
            ("g2", quartic_g2(r1, r2), quartic_g2(f1, f2)),
            ("g3", quartic_g3(r1, r2), quartic_g3(f1, f2)),
            ("mu", constrained_mu_product(r1, r2, swapped),
             constrained_mu_product(f1, f2, swapped)),
            ("target", constrained_resultant_target(r1, r2, swapped),
             constrained_resultant_target(f1, f2, swapped)),
            # odd in each twist, so a negative denominator shows
            ("odd", r1 * r2 / (1 + r1 * r1), f1 * f2 / (1 + f1 * f1))):
        assert ratio.as_integer_ratio() == fraction.as_integer_ratio(), name


def test_ratio_operators_follow_fraction():
    x, y = _Ratio(3, -4), _Ratio(-2, -6)
    for ratio, fraction in ((x + y, F(-5, 12)), (x - y, F(-13, 12)),
                            (2 - x, F(11, 4)), (x * y, F(-1, 4)),
                            (x / y, F(-9, 4)), (1 / x, F(-4, 3)),
                            (-x, F(3, 4)), (x ** 3, F(-27, 64)),
                            (y ** -2, F(9)), (x + F(1, 2), F(-1, 4)),
                            (x ** 0, F(1)), (_Ratio(0, -5), F(0))):
        assert ratio.as_integer_ratio() == fraction.as_integer_ratio()
    for divide in (lambda: x / 0, lambda: 1 / _Ratio(0, 3),
                   lambda: _Ratio(0, 1) ** -1, lambda: x / _Ratio(0, 2)):
        with pytest.raises(ZeroDivisionError):
            divide()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_POSITIVE, _POSITIVE, st.lists(_OFFSET, min_size=4, max_size=4),
       _OFFSET.filter(bool))
def test_cleared_determinant_matches_orientation_det(a1, a2, offsets, tau):
    assume(a1 != a2)
    design = BennettDesign(a1, a2, F(1))
    big_k = design.transmission()
    mu = MuSet(*offsets)
    (ints,), den = clear_denominators([mu.as_tuple()])
    value = _cleared_determinant(_cleared_drive(design, big_k, tau), ints,
                                 den)
    reference = (points_on_axes(frame(design, tau), mu).orientation_det()
                 * (tau * tau + big_k * big_k) * (1 + tau * tau))
    assert type(value) is Fraction
    assert value == reference * den ** 3


def test_nonexistence_suite_passes():
    report = verify_nonexistence()
    assert report.verdict, report.lines()
    assert len(report.residuals) == 13
    tags = {entry.label[entry.label.index("["):]
            for entry in report.residuals}
    assert tags == {"[exact]", "[identity]", "[curve proof]"}
    assert all(type(entry.value) in (int, F) for entry in report.residuals)


def test_a_call_builds_the_forms_once_per_twist(monkeypatch):
    built = []
    build = appendix._expansion_forms

    def counted(a1, a2):
        built.append((a1, a2))
        return build(a1, a2)

    monkeypatch.setattr(appendix, "_expansion_forms", counted)
    assert verify_nonexistence().verdict
    assert len(built) == 27 and set(built) == set(_TWISTS)


def test_a_call_builds_the_constrained_polynomials_once_per_case(
        monkeypatch):
    built = []
    build = appendix._constrained_polynomials

    def counted(forms, a1, a2, swapped):
        built.append((a1, a2, swapped))
        return build(forms, a1, a2, swapped)

    monkeypatch.setattr(appendix, "_constrained_polynomials", counted)
    assert verify_nonexistence().verdict
    assert sorted(built) == sorted((*twist, swapped) for twist in _TWISTS
                                   for swapped in (False, True))


def test_import_and_appendix_load_no_numpy():
    src = Path(__import__("bibennett").__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import bibennett\n"
        "assert 'numpy' not in sys.modules, 'import bibennett loads numpy'\n"
        "bibennett.verify_nonexistence()\n"
        "assert 'numpy' not in sys.modules, 'the appendix loads numpy'\n"
    )
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
