"""Unit tests for the plane-symmetric non-existence suite."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bibennett.appendix as appendix
from bibennett.appendix import (
    StructuralFactorError,
    ZeroPolynomialError,
    _cleared_determinant,
    _cleared_drive,
    _grid_entry,
    _offset_polynomials,
    _second_curve,
    _second_factor_exact_entry,
    _third_curve,
    constrained_case_polynomials,
    constrained_mu_product,
    constrained_resultant_target,
    coplanarity_coeffs,
    count_positive_roots,
    count_real_roots,
    quartic_g1,
    quartic_g2,
    splitting_f1,
    splitting_f2,
    verify_nonexistence,
)
from bibennett.algebra import clear_denominators, sylvester_resultant
from bibennett.bennett import BennettDesign, frame, transmission_K
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
    p0, p2 = constrained_case_polynomials(a1, a2)
    res = sylvester_resultant(list(p0), list(p2))
    assert res == constrained_resultant_target(a1, a2)


def test_second_quartic_exact_point_has_no_real_offset():
    # (1/2, 1/3) lies exactly on the curve where the second factor vanishes
    assert quartic_g2(F(1, 2), F(1, 3)) == 0
    p0, _ = constrained_case_polynomials(F(1, 2), F(1, 3))
    assert count_real_roots(p0) == 0


def test_mu_product_kills_splitting_factor():
    a1, a2 = F(2, 5), F(3, 4)
    assert splitting_f2(a1, a2, constrained_mu_product(a1, a2)) == 0
    assert splitting_f1(a1, a2, constrained_mu_product(a1, a2, True)) == 0


def test_sturm_root_counts():
    # (x-1)(x-2) has two positive roots; x^2+1 none
    assert count_positive_roots([F(2), F(-3), F(1)]) == 2
    assert count_positive_roots([F(1), F(0), F(1)]) == 0
    # (x^2-1)(x^2-4): two positive, so four nonzero real roots of the even poly
    assert count_real_roots([F(4), F(0), F(-5), F(0), F(1)]) == 4


def test_sturm_root_counts_on_float_coefficients():
    # the [grid] entries count on float coefficients, taken at their exact
    # rational values; x^2 + x/2 - 2 has one positive root, so a count of
    # zero there is not vacuous
    assert count_positive_roots([-2.0, 0.5, 1.0]) == 1
    assert count_positive_roots([2.0, -3.0, 1.0]) == 2
    assert count_positive_roots([2.0, 0.5, 1.0]) == 0
    # a double root counts once: (x - 1/2)^2
    assert count_positive_roots([0.25, -1.0, 1.0]) == 1


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


def test_zero_constrained_polynomial_fails_the_exact_entry(monkeypatch):
    monkeypatch.setattr(appendix, "constrained_case_polynomials",
                        lambda a1, a2, swapped: ([F(0)] * 7, [F(0)] * 7))
    for swapped in (False, True):
        assert _second_factor_exact_entry(swapped).value == 1.0


def test_zero_grid_polynomial_fails_the_grid_entry(monkeypatch):
    # a zero scale strips every coefficient: the zero polynomial again
    monkeypatch.setattr(appendix, "_offset_polynomials",
                        lambda a1, a2, swapped, indices: ([0.0] * 7,))
    entry = _grid_entry("zero [grid]", _second_curve, 3, False)
    assert entry.value == 1.0 and not entry.passed


_POSITIVE = st.builds(F, st.integers(1, 40), st.integers(1, 30))
_OFFSET = st.builds(F, st.integers(-40, 40), st.integers(1, 30))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_POSITIVE, _POSITIVE, st.lists(_OFFSET, min_size=4, max_size=4),
       _OFFSET.filter(bool))
def test_cleared_determinant_matches_orientation_det(a1, a2, offsets, tau):
    assume(a1 != a2)
    design = BennettDesign(a1, a2, F(1))
    big_k = transmission_K(design)
    mu = MuSet(*offsets)
    (ints,), den = clear_denominators([mu.as_tuple()])
    value = _cleared_determinant(_cleared_drive(design, big_k, tau), ints,
                                 den)
    reference = (points_on_axes(frame(design, tau), mu).orientation_det()
                 * (tau * tau + big_k * big_k) * (1 + tau * tau))
    assert type(value) is Fraction
    assert value == reference * den ** 3


def test_grid_strip_removes_only_noise():
    # the strip of each [grid] polynomial cuts at 1e-9 * scale; what it
    # removes must be interpolation noise, well below that cut
    worst = 0.0
    for curve in (_second_curve, _third_curve):
        for swapped in (False, True):
            for i in range(100):
                a1, a2 = curve(i, 100)
                if swapped:
                    a1, a2 = a2, a1
                (poly,) = _offset_polynomials(a1, a2, swapped, (0,))
                even = list(poly[0::2])
                scale = max(map(abs, even))
                while even and abs(even[-1]) <= 1e-9 * scale:
                    worst = max(worst, abs(even.pop()) / scale)
                while even and abs(even[0]) <= 1e-9 * scale:
                    worst = max(worst, abs(even.pop(0)) / scale)
    assert worst < 2e-10


def test_nonexistence_suite_passes():
    report = verify_nonexistence(samples=4, grid=20)
    assert report.verdict, report.lines()
    assert len(report.residuals) == 13


def test_import_and_appendix_load_no_numpy():
    src = Path(__import__("bibennett").__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import bibennett\n"
        "assert 'numpy' not in sys.modules, 'import bibennett loads numpy'\n"
        "bibennett.verify_nonexistence(samples=1, grid=5)\n"
        "assert 'numpy' not in sys.modules, 'the appendix loads numpy'\n"
    )
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
