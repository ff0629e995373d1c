"""Unit tests for the plane-symmetric non-existence suite."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bibennett.appendix import (
    StructuralFactorError,
    constrained_case_polynomials,
    constrained_mu_product,
    constrained_resultant_target,
    coplanarity_coeffs,
    coplanarity_determinant,
    count_positive_roots,
    count_real_roots,
    quartic_g1,
    quartic_g2,
    quartic_g3,
    splitting_f1,
    splitting_f2,
    verify_nonexistence,
)
from bibennett.algebra import sylvester_resultant
from bibennett.bennett import BennettDesign
from bibennett.families import MuSet

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
    det = coplanarity_determinant(design, MuSet(F(0), F(0), F(0), F(0)),
                                  F(9, 10))
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
