"""Unit tests for the exact/float scalar and polynomial toolbox."""

import random
from fractions import Fraction

import pytest

from bibennett.algebra import (
    DegenerateResultantError,
    DegreeBoundError,
    clear_denominators,
    fit_rational,
    function_identity_zero,
    interpolate_polynomial,
    is_exact,
    mat_mul,
    nullspace_vector,
    parse_scalar,
    resultant_tau_bar,
    solve_linear,
    sqrt_scalar,
    sylvester_resultant,
    v_cross,
    v_dot,
    v_norm_sq,
)

F = Fraction


def test_parse_scalar_exact_and_float():
    assert parse_scalar("2/3", True) == F(2, 3)
    assert is_exact(parse_scalar("2/3", True))
    assert parse_scalar("2/3", False) == pytest.approx(2 / 3)
    assert parse_scalar(5, True) == F(5)
    assert parse_scalar(0.5, True) == F(1, 2)
    # a float is the binary rational it holds; a decimal string its decimal
    assert parse_scalar(0.1, True) == F(0.1) != F(1, 10)
    assert parse_scalar("0.1", True) == F(1, 10)


def test_sqrt_scalar_exact_square():
    assert sqrt_scalar(F(4, 9)) == F(2, 3)
    assert is_exact(sqrt_scalar(F(4, 9)))
    assert sqrt_scalar(F(2)) == pytest.approx(2 ** 0.5)
    with pytest.raises(ValueError):
        sqrt_scalar(F(-1))


def test_vector_helpers_exact():
    a = (F(1), F(2), F(3))
    b = (F(4), F(5), F(6))
    assert v_dot(a, b) == 32
    assert v_cross(a, b) == (F(-3), F(6), F(-3))
    assert v_norm_sq(a) == 14


def test_clear_denominators():
    # one denominator for every coordinate; a float among exact coordinates
    # converts without rounding, vectors of floats and ints stay as they are
    ints, den = clear_denominators([(F(1, 2), 0, 3), (F(-2, 3), 0.25, 1)])
    assert (ints, den) == ([(6, 0, 36), (-8, 3, 12)], 12)
    ints, den = clear_denominators([(F(1, 3), 0.1, 0)])
    assert F(ints[0][1], den) == F(0.1) and F(ints[0][0], den) == F(1, 3)
    floats = [(0.5, 0, 1.0)]
    assert clear_denominators(floats) == (floats, 1.0)


def test_mat_mul_identity():
    m = ((1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 1, 5), (0, 0, 0, 1))
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert mat_mul(m, identity) == m
    assert mat_mul(identity, m) == m


def test_solve_linear_exact():
    rows = [[F(2), F(1)], [F(1), F(3)]]
    rhs = [F(5), F(10)]
    x = solve_linear(rows, rhs)
    assert x == [F(1), F(3)]


def test_solve_linear_int_rows_stay_exact():
    # an int pivot divides as a Fraction: int / int would give a float
    x = solve_linear([[2, 1], [1, 3]], [1, 2])
    assert x == [F(1, 5), F(3, 5)]
    assert all(type(v) is Fraction for v in x)


def test_solve_linear_float_pivots_on_the_largest_entry():
    # a first-nonzero pivot would divide by 1e-17 and return [0, 1]
    x = solve_linear([[1e-17, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert x == pytest.approx([1.0, 1.0], rel=1e-12)


def test_nullspace():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    vec = nullspace_vector(rows, 3)
    assert any(v != 0 for v in vec)
    assert sum(r * v for r, v in zip(rows[0], vec)) == 0


def test_interpolate_polynomial_exact():
    def fun(x):
        return 3 * x * x - x + F(1, 2)

    coeffs = interpolate_polynomial(fun, 2, [F(0), F(1), F(2), F(3), F(5)])
    assert coeffs == [F(1, 2), F(-1), F(3)]


def test_interpolate_degree_violation():
    # extra points beyond degree+1 act as verification points
    with pytest.raises(DegreeBoundError):
        interpolate_polynomial(lambda x: x ** 3, 2,
                               [F(0), F(1), F(2), F(3)])


def test_fit_rational_recovers_ratio():
    def fun(x):
        return (1 + x * x) / (2 - x)

    num, den = fit_rational(fun, 2, 1,
                            [F(1), F(3), F(4), F(5), F(6), F(7), F(9)])
    # normalized representative of the same ratio
    for x in (F(10), F(1, 3)):
        lhs = sum(c * x ** i for i, c in enumerate(num))
        rhs = fun(x) * sum(c * x ** i for i, c in enumerate(den))
        assert lhs == rhs


def test_fit_rational_degree_violation():
    with pytest.raises(DegreeBoundError):
        fit_rational(lambda x: x ** 4, 2, 0,
                     [F(1), F(2), F(3), F(5), F(7), F(9)])


def test_function_identity_zero():
    assert function_identity_zero(
        lambda x, y: (x + y) ** 2 - x * x - 2 * x * y - y * y,
        ("x", "y"), {"x": 2, "y": 2},
    )
    assert not function_identity_zero(
        lambda x, y: x - y, ("x", "y"), {"x": 1, "y": 1}
    )


def test_sylvester_resultant_common_root():
    # (x-2)(x-3) and (x-2)(x+1) share x=2
    p = [6, -5, 1]
    q = [-2, -1, 1]
    assert sylvester_resultant([F(c) for c in p], [F(c) for c in q]) == 0
    # disjoint roots give nonzero
    r = [2, -3, 1]  # (x-1)(x-2)
    s = [12, -7, 1]  # (x-3)(x-4)
    assert sylvester_resultant([F(c) for c in r], [F(c) for c in s]) != 0


def test_resultant_tau_bar_degenerate():
    # both forms lacking the leading companion-degree term is degenerate
    q = [[F(1), F(0), F(0)], [F(0), F(2), F(0)], [F(1), F(0), F(0)]]
    with pytest.raises(DegenerateResultantError):
        resultant_tau_bar(q, q)


def test_resultant_tau_bar_generic():
    a = [[F(1), F(0), F(1)], [F(0), F(1), F(0)], [F(2), F(0), F(1)]]
    b = [[F(2), F(1), F(1)], [F(1), F(0), F(0)], [F(1), F(0), F(2)]]
    res = resultant_tau_bar(a, b)
    assert len(res) == 9  # degree at most 8 in tau
    assert any(res)


def test_resultant_tau_bar_matches_sylvester_at_samples():
    rng = random.Random(5)

    def form():
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(3)] for _ in range(3)]

    for _ in range(20):
        a, b = form(), form()
        res = resultant_tau_bar(a, b)
        for tau in (Fraction(-3, 2), Fraction(1, 3), Fraction(2)):
            # the tau_bar coefficients of each form at this tau, ascending
            pa, pb = ([sum(f[i][j] * tau ** i for i in range(3))
                       for j in range(3)] for f in (a, b))
            if pa[2] == 0 or pb[2] == 0:
                continue  # a dropped degree changes the Sylvester matrix
            value = sum(c * tau ** i for i, c in enumerate(res))
            assert value == sylvester_resultant(pa, pb)
