"""Unit tests for the exact/float scalar and polynomial toolbox."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibennett.algebra import (
    DegenerateResultantError,
    DegreeBoundError,
    InterpolationNodeError,
    _inverse_vandermonde,
    clear_denominators,
    fit_rational,
    interpolate_integers,
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
from bibennett.appendix import (
    _CURVE_NODES,
    _TAU_CHECKS,
    _TAU_NODES,
    _TWIST_DEGREE,
    _TWISTS,
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
    # one denominator for every coordinate of exact vectors; a float anywhere
    # makes every coordinate a float, with D = 1.0, and is never read exactly
    ints, den = clear_denominators([(F(1, 2), 0, 3), (F(-2, 3), F(1, 4), 1)])
    assert (ints, den) == ([(6, 0, 36), (-8, 3, 12)], 12)
    assert all(type(x) is int for v in ints for x in v)
    mixed, den = clear_denominators([(F(1, 3), 0.1, 0), (2,)])
    assert (mixed, den) == ([(1 / 3, 0.1, 0.0), (2.0,)], 1.0)
    assert all(type(x) is float for v in mixed for x in v)
    assert type(den) is float
    floats = [(0.5, 0, 1.0)]
    assert clear_denominators(floats) == ([(0.5, 0.0, 1.0)], 1.0)
    # vectors keep their lengths
    assert clear_denominators([(F(1, 2), 1, F(1, 3), 0), (F(1, 4),)]) == (
        [(6, 12, 4, 0), (3,)], 12)


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


def _gauss_jordan_interpolation(fun, degree, points):
    """Reference: the Vandermonde system of the first degree+1 points solved
    by Gauss-Jordan elimination with first-nonzero pivots."""
    n = degree + 1
    m = [[F(x) ** j for j in range(n)] + [fun(x)] for x in points[:n]]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c:
                m[r] = [v - m[r][c] * w for v, w in zip(m[r], m[c])]
    return [row[n] for row in m]


def _fraction_inverse(nodes):
    """Reference: the inverse Vandermonde matrix of ``nodes`` as Fraction
    rows; column k interpolates the values that are 1 at node k only."""
    return list(zip(*(
        _gauss_jordan_interpolation(lambda x, node=node: F(x == node),
                                    len(nodes) - 1, nodes)
        for node in nodes)))


_RATIONAL = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
# int nodes (negative ones included) or Fraction nodes, and int or Fraction
# coefficients, so that the values are ints where every term is one
_SCALAR = st.one_of(st.integers(-20, 20), _RATIONAL)
# the squared twists along each axis: the appendix's grid, then its checks
_SQUARED_TWISTS = [tuple(dict.fromkeys(twist[i] ** 2 for twist in _TWISTS))
                   for i in (0, 1)]
# the tau nodes, and the squared twists on and off the appendix's grid
_APPENDIX_NODES = st.sampled_from([_TAU_NODES + _TAU_CHECKS]
                                  + _SQUARED_TWISTS)
# the four node tuples whose inverse Vandermonde the non-existence suite
# builds: the tau nodes, each axis of the twist grid squared, the curve nodes
_SUITE_NODES = [_TAU_NODES, _CURVE_NODES,
                *(nodes[:_TWIST_DEGREE + 1] for nodes in _SQUARED_TWISTS)]
# int, Fraction and float nodes, negative ones included
_NODE = st.one_of(st.integers(-30, 30), _RATIONAL,
                  st.floats(-50, 50))
_INTERPOLATION_SETTINGS = settings(max_examples=120, deadline=None,
                                   derandomize=True)


@st.composite
def _poly_and_nodes(draw):
    """(ascending coefficients of degree at most ``degree``, degree, nodes):
    random distinct nodes with two checks, or an appendix tuple."""
    if draw(st.booleans()):
        nodes = draw(_APPENDIX_NODES)
        degree = len(nodes) - 3
    else:
        degree = draw(st.integers(0, 6))
        nodes = tuple(draw(st.lists(_SCALAR, min_size=degree + 3,
                                    max_size=degree + 3, unique_by=F)))
    coeffs = draw(st.lists(_SCALAR, min_size=degree + 1,
                           max_size=degree + 1))
    return coeffs, degree, nodes


def _evaluate(coeffs):
    return lambda x: sum(c * x ** i for i, c in enumerate(coeffs))


@_INTERPOLATION_SETTINGS
@given(_poly_and_nodes(), st.integers(-9, 9).filter(bool))
def test_interpolation_matches_gauss_jordan(case, lead):
    coeffs, degree, nodes = case
    got = interpolate_polynomial(_evaluate(coeffs), degree, nodes)
    reference = _gauss_jordan_interpolation(_evaluate(coeffs), degree, nodes)
    assert [(type(c), c) for c in got] == [(type(c), c) for c in reference]
    assert got == coeffs and all(type(c) is Fraction for c in got)
    # the Fraction inverse times the values, as the integer rows over one
    # denominator must give
    inverse = _fraction_inverse(nodes[:degree + 1])
    ys = [_evaluate(coeffs)(x) for x in nodes[:degree + 1]]
    assert got == [sum(w * y for w, y in zip(row, ys)) for row in inverse]
    # float values meet the exact inverse, and each product rounds its
    # weight once: the same bits as a table of the inverse rounded once
    floats = interpolate_polynomial(
        lambda x: float(_evaluate(coeffs)(x)), degree, nodes[:degree + 1])
    ys = [float(y) for y in ys]
    rounded = [sum(float(w) * y for w, y in zip(row, ys)) for row in inverse]
    assert [c.hex() for c in floats] == [c.hex() for c in rounded]
    scale = max(1, *map(abs, coeffs))
    assert all(abs(c - e) <= 1e-6 * scale for c, e in zip(floats, coeffs))
    # a polynomial of degree + 1 fails at the check nodes, and passes
    # without them
    higher = _evaluate(coeffs + [F(lead)])
    interpolate_polynomial(higher, degree, nodes[:degree + 1])
    with pytest.raises(DegreeBoundError):
        interpolate_polynomial(higher, degree, nodes)


@_INTERPOLATION_SETTINGS
@given(st.lists(st.floats(-100, 100), min_size=3, max_size=3),
       st.integers(-9, 9).filter(bool))
def test_float_values_pass_their_check_nodes(coeffs, lead):
    # a float quadratic sampled at the tau nodes: the two check nodes pass
    # within TOL of the largest value, where an exact != failed almost
    # every draw; a cubic still fails them
    def quadratic(x):
        return sum(c * float(x) ** i for i, c in enumerate(coeffs))

    nodes = _TAU_NODES
    got = interpolate_polynomial(quadratic, 2, nodes)
    assert got == interpolate_polynomial(quadratic, 2, nodes[:3])
    scale = max(1, *map(abs, coeffs))
    assert all(abs(c - e) <= 1e-9 * scale for c, e in zip(got, coeffs))
    with pytest.raises(DegreeBoundError):
        interpolate_polynomial(lambda x: quadratic(x) + lead * float(x) ** 3,
                               2, nodes)


def test_interpolate_integers_shares_one_denominator():
    nodes = (F(1, 2), F(1, 3), F(2), F(5, 7))
    polys = ([F(1, 3), F(-2), F(7, 5)], [4, 0, F(-1, 6)], [0, 0, 0])
    den = 2 ** 3 * 3 ** 3 * 5 * 7 ** 3  # clears every value at the nodes

    def column(poly):
        return [int(den * sum(c * x ** i for i, c in enumerate(poly)))
                for x in nodes]

    ratios = [x.as_integer_ratio() for x in nodes]
    coeffs, scale = interpolate_integers(list(map(column, polys)), 2, ratios)
    assert scale > 0 and all(type(c) is int for q in coeffs for c in q)
    assert [[F(c, scale * den) for c in q] for q in coeffs] == [
        list(poly) for poly in polys]
    cubic = [v + int(den * x ** 3) for v, x in zip(column(polys[0]), nodes)]
    with pytest.raises(DegreeBoundError):
        interpolate_integers([column(polys[1]), cubic], 2, ratios)
    with pytest.raises(InterpolationNodeError):
        interpolate_integers([[1, 2, 3]], 2, ((1, 1), (2, 1), (1, 1)))


def test_interpolate_integers_checks_every_column_at_every_check_node():
    # the check weights are built once per call and serve every column: a
    # later column that holds its degree at the first check node and breaks
    # it at the second still raises, and with one check node it passes
    nodes = (F(1, 2), F(2), F(-3), F(5, 7), F(7, 3))
    quadratic = [3 * x * x - x + 2 for x in nodes]
    # plus a multiple of (x - 1/2)(x - 2)(x + 3)(x - 5/7), zero at the first
    # four nodes
    bump = [quadratic[i] + (x - nodes[0]) * (x - nodes[1]) * (x - nodes[2])
            * (x - nodes[3]) for i, x in enumerate(nodes)]
    den = 3 ** 4 * 7 ** 4 * 2 ** 4

    def column(values):
        return [int(den * v) for v in values]

    assert all(den * v == int(den * v) for v in quadratic + bump)
    ratios = [x.as_integer_ratio() for x in nodes]
    coeffs, scale = interpolate_integers([column(quadratic), column(bump)], 2,
                                         ratios[:4])
    assert coeffs[0] == coeffs[1]
    assert [F(c, scale * den) for c in coeffs[0]] == [2, -1, 3]
    with pytest.raises(DegreeBoundError):
        interpolate_integers([column(quadratic), column(bump)], 2, ratios)
    interpolate_integers([column(quadratic)] * 3, 2, ratios)


def test_exact_values_at_float_nodes_use_the_nodes_exact_values():
    # a degree-2 polynomial in the exact binary values of the float nodes,
    # confirmed at the exact value of the check node 0.7
    got = interpolate_polynomial(lambda x: F(x) ** 2 + F(1, 3), 2,
                                 [0.1, 0.2, 0.3, 0.7])
    assert got == [F(1, 3), 0, 1] and all(type(c) is F for c in got)
    with pytest.raises(DegreeBoundError):
        interpolate_polynomial(lambda x: F(x) ** 3, 2, [0.1, 0.2, 0.3, 0.7])


@_INTERPOLATION_SETTINGS
@given(st.one_of(st.sampled_from(_SUITE_NODES),
                 st.lists(_NODE, min_size=1, max_size=9, unique_by=F)))
def test_inverse_vandermonde_matches_the_fraction_inverse(nodes):
    # the Lagrange basis on integers gives the unique reduced inverse: the
    # Fraction inverse over the lcm of its denominators, all of it ints
    rows, scale = _inverse_vandermonde(
        tuple(x.as_integer_ratio() for x in nodes))
    inverse = _fraction_inverse(nodes)
    assert scale == math.lcm(*(w.denominator for row in inverse
                               for w in row))
    assert rows == tuple(tuple(w * scale for w in row) for row in inverse)
    assert type(scale) is int and all(type(w) is int
                                      for row in rows for w in row)


def test_interpolation_node_errors_come_before_the_inverse():
    built = _inverse_vandermonde.cache_info().misses
    with pytest.raises(InterpolationNodeError):
        interpolate_polynomial(lambda x: x, 2, [F(0), F(1)])
    with pytest.raises(InterpolationNodeError):
        interpolate_polynomial(lambda x: x, 2, [F(0), F(1), F(1), F(2)])
    with pytest.raises(InterpolationNodeError):
        interpolate_polynomial(lambda x: x, 1, [0.5, F(1, 2)])
    assert _inverse_vandermonde.cache_info().misses == built


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


def test_sylvester_resultant_common_root():
    # (x-2)(x-3) and (x-2)(x+1) share x=2
    p = [6, -5, 1]
    q = [-2, -1, 1]
    assert sylvester_resultant([F(c) for c in p], [F(c) for c in q]) == 0
    # disjoint roots give nonzero
    r = [2, -3, 1]  # (x-1)(x-2)
    s = [12, -7, 1]  # (x-3)(x-4)
    assert sylvester_resultant([F(c) for c in r], [F(c) for c in s]) != 0


def _gaussian_resultant(p, q):
    """Reference: the Sylvester determinant of trimmed p and q by fraction
    Gaussian elimination with first-nonzero pivots."""
    p, q = list(p), list(q)
    while p and p[-1] == 0:
        p.pop()
    while q and q[-1] == 0:
        q.pop()
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    a = []
    for coeffs, count in ((p, n), (q, m)):
        for i in range(count):
            row = [0] * size
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            a.append(row)
    det = Fraction(1) if all(is_exact(c) for c in p + q) else 1.0
    for c in range(size):
        piv = next((r for r in range(c, size) if a[r][c] != 0), None)
        if piv is None:
            return det * 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, size):
            if a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def test_sylvester_resultant_matches_gaussian_determinant():
    rng = random.Random(11)

    def rational():
        return F(rng.randint(-9, 9), rng.randint(1, 7))

    def poly(degree):
        return [rational() for _ in range(degree)] + [
            F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))]

    pairs = []
    for _ in range(60):
        pairs.append((poly(rng.randint(0, 5)), poly(rng.randint(1, 5))))
    # a shared factor x - r gives a zero resultant; so does a zero pivot
    root = [-F(2, 3), F(1)]
    pairs.append(([c * 2 for c in _poly_mul(root, poly(2))],
                  _poly_mul(root, poly(3))))
    pairs.append(([F(1), F(0), F(1)], [F(0), F(1)]))
    for p, q in pairs:
        got = sylvester_resultant(p, q)
        reference = _gaussian_resultant(p, q)
        assert (type(got), got) == (type(reference), reference)
    assert sylvester_resultant(pairs[60][0], pairs[60][1]) == 0
    # int coefficients stay exact (the reference's int / int is a float)
    assert _gaussian_resultant([1, 2, 3], [4, 5]) == 33.0
    got = sylvester_resultant([1, 2, 3], [4, 5])
    assert (type(got), got) == (Fraction, 33)
    # floats run the same elimination and stay floats
    fp, fq = ([float(c) for c in x] for x in pairs[0])
    got = sylvester_resultant(fp, fq)
    assert type(got) is float
    assert got == pytest.approx(float(_gaussian_resultant(*pairs[0])),
                                rel=1e-9)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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


def _forms(entry):
    """Two 3x3 forms with entries drawn from ``entry``."""
    form = st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3,
                    max_size=3)
    return st.tuples(form, form)


_NONZERO_INT = st.integers(-6, 6).filter(bool)
_INT_FORMS = _forms(st.integers(-9, 9))
_FRACTION_FORMS = _forms(st.builds(F, st.integers(-9, 9), st.integers(1, 6)))
_FACTOR = st.one_of(_NONZERO_INT, st.builds(F, _NONZERO_INT,
                                            st.integers(1, 6)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(_INT_FORMS, _FRACTION_FORMS), _FACTOR, _FACTOR,
       st.booleans())
def test_resultant_tau_bar_scales_by_the_squares_of_the_factors(forms, x, y,
                                                                 flat):
    # Res(x p, y q) = x^2 y^2 Res(p, q), so the oracle may divide each form
    # by its content and scale the eliminant once; forms without a tau_bar^2
    # term degenerate, scaled or not
    p, q = ([row[:2] + [0] if flat else row for row in form] for form in forms)
    scaled = [[[f * c for c in row] for row in form]
              for f, form in ((x, p), (y, q))]
    if not any(row[2] for row in p + q):
        for pair in ((p, q), scaled):
            with pytest.raises(DegenerateResultantError):
                resultant_tau_bar(*pair)
        return
    res = resultant_tau_bar(p, q)
    if all(type(c) is int for row in p + q for c in row):
        assert all(type(c) is int for c in res), res
    assert resultant_tau_bar(*scaled) == [x * x * y * y * c for c in res]
