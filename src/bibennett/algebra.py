"""Exact-capable linear algebra, polynomials and resultants.

Every routine in this module is generic over the scalar type: feed it
``fractions.Fraction`` everywhere and all results are exact rationals, feed it
floats and you get ordinary double precision.  Square roots are never taken
here, so the exact path stays radical-free.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import islice


TOL = 1e-9  # the float tolerance of tolerance_of; a config's tol overrides it


class DegenerateResultantError(ValueError):
    """Both polynomials have identically vanishing leading coefficients."""


class DegreeBoundError(ValueError):
    """A sampled value contradicts the supplied degree bounds."""


class InterpolationNodeError(ValueError):
    """Fewer interpolation points than the degree needs, or a repeated node."""


def is_exact(x) -> bool:  # a float fails before Fraction's slow ABC check
    return not isinstance(x, float) and isinstance(x, (Fraction, int))


def tolerance_of(value, tol):
    """The one pass rule: ``value`` passes when its magnitude is at most
    this, ``tol`` for a float, 0 for an exact value (an int or a Fraction)."""
    return tol if isinstance(value, float) else 0


def div(n, d):
    """n / d, kept exact for two ints (which ``/`` would turn into a float)."""
    if isinstance(n, int) and isinstance(d, int):
        return Fraction(n, d)
    return n / d


def _operators(combine):
    """Forward and reflected :class:`_Ratio` operators from ``combine(n, d,
    m, e)``, the unreduced pair of n/d op m/e, m/e an int or a Fraction."""

    def forward(x, y):
        m, e = (y.n, y.d) if type(y) is _Ratio else y.as_integer_ratio()
        return _Ratio(*combine(x.n, x.d, m, e))

    def reflected(x, y):  # y is not a _Ratio, else forward would have run
        return _Ratio(*combine(*y.as_integer_ratio(), x.n, x.d))

    return forward, reflected


class _Ratio:
    """An exact rational n/d (d nonzero, of either sign) kept unreduced: the
    operators cross-multiply, and only ``as_integer_ratio`` runs a gcd, the
    delayed reduction of Knuth (TAOCP Vol. 2, 4.5.1)."""

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        if not d:
            raise ZeroDivisionError(f"{n}/0")
        self.n, self.d = n, d

    def as_integer_ratio(self):
        g = math.gcd(self.n, self.d) * (1 if self.d > 0 else -1)
        return self.n // g, self.d // g

    __add__, __radd__ = _operators(lambda n, d, m, e: (n * e + m * d, d * e))
    __sub__, __rsub__ = _operators(lambda n, d, m, e: (n * e - m * d, d * e))
    __mul__, __rmul__ = _operators(lambda n, d, m, e: (n * m, d * e))
    __truediv__, __rtruediv__ = _operators(lambda n, d, m, e: (n * e, d * m))

    def __pow__(self, k):
        n, d = (self.n, self.d) if k >= 0 else (self.d, self.n)
        return _Ratio(n ** abs(k), d ** abs(k))

    def __neg__(self):
        return _Ratio(-self.n, self.d)


def parse_scalar(value, exact: bool):
    """Parse a config number: int, float, or a "p/q" or decimal string.

    In exact mode everything becomes the Fraction it denotes, without
    rounding: a float gives its binary value (0.1 is not 1/10), and a
    decimal string its decimal value.  In float mode, a float.
    """
    if isinstance(value, float):
        return Fraction(value) if exact else value
    if not isinstance(value, (str, int, Fraction)):
        raise TypeError(f"cannot parse scalar from {value!r}")
    frac = Fraction(value)
    return frac if exact else float(frac)


def sqrt_scalar(x):
    """Square root that stays exact when the radicand is a rational square."""
    if x < 0:
        raise ValueError("negative radicand")
    if is_exact(x):
        n, d = x.as_integer_ratio()
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
    return math.sqrt(float(x))


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def v_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def v_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def v_scale(s, a):
    return (s * a[0], s * a[1], s * a[2])


def v_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def v_cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def v_norm_sq(a):
    return v_dot(a, a)


def v_dist_sq(a, b):
    return v_norm_sq(v_sub(a, b))


def clear_denominators(vectors):
    """(integer vectors, D): ``vectors`` (of any lengths) over one positive
    denominator D.  A float anywhere makes every coordinate a float, with
    D = 1.0, so an int or Fraction result means no float entered it."""
    coords = [x for v in vectors for x in v]
    if float in set(map(type, coords)):
        return [tuple(map(float, v)) for v in vectors], 1.0
    ratios = [x.as_integer_ratio() for x in coords]
    den = math.lcm(*(d for _, d in ratios))
    ints = iter([n * (den // d) for n, d in ratios])
    return [tuple(islice(ints, len(v))) for v in vectors], den


def one_denominator(groups):
    """(vectors, D): the vectors of ``groups``, pairs (numerators, den), as
    numerators over the lcm D of the dens, or as they are (over 1) where each
    group holds a float; a float in some groups only makes every coordinate
    a float, over D = 1.0."""
    floats = [float in {type(x) for v in vs for x in v} for vs, _ in groups]
    if any(floats):
        return ([v for vs, _ in groups for v in vs], 1) if all(floats) else (
            [to_floats(v, den) for vs, den in groups for v in vs], 1.0)
    den = math.lcm(*{d for _, d in groups})
    return [v if d == den else tuple(den // d * x for x in v)
            for vs, d in groups for v in vs], den


def coordinates(v, den):
    """The numerators ``v`` over ``den`` as Fractions, or ``v`` over 1."""
    return v if den == 1 else tuple(Fraction(n, den) for n in v)


def to_floats(v, den):
    """Each n / den of ``v``, rounded once like float(Fraction(n, den))."""
    return tuple(map(float, v) if den == 1 else (float(n / den) for n in v))


def det3(r0, r1, r2):
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


# ---------------------------------------------------------------------------
# 4x4 homogeneous transforms
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    """Product of two 4x4 matrices given as row tuples."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


# ---------------------------------------------------------------------------
# dense exact linear solves
# ---------------------------------------------------------------------------

def _row_reduce(m, ncols):
    """Gauss-Jordan elimination of the first ``ncols`` columns of the row
    list ``m``, in place; returns the pivot columns, one per pivot row.

    Each column pivots on its largest entry (partial pivoting), so rounding
    noise on an exact zero is never a pivot; exact results do not depend on
    the pivot, since the reduced row echelon form is unique.  An int pivot
    divides as a Fraction, so int rows stay exact."""
    nrows = len(m)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = max(range(r, nrows), key=lambda rr: abs(m[rr][c]))
        if m[piv][c] == 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        if isinstance(pv, int):
            pv = Fraction(pv)
        m[r] = [x / pv for x in m[r]]
        for rr in range(nrows):
            if rr != r and m[rr][c] != 0:
                f = m[rr][c]
                m[rr] = [x - f * y for x, y in zip(m[rr], m[r])]
        pivots.append(c)
    return pivots


def solve_linear(a, b):
    """Solve a square system by Gaussian elimination; exact for Fraction input.

    Raises ValueError on a singular matrix.
    """
    n = len(a)
    m = [list(row) + [bv] for row, bv in zip(a, b)]
    if len(_row_reduce(m, n)) < n:
        raise ValueError("singular linear system")
    return [m[r][n] for r in range(n)]


def nullspace_vector(rows, ncols):
    """One nullspace vector of a (possibly rectangular) system, or None.

    Returns the vector obtained by setting the first free column to 1; exact
    with Fraction entries.
    """
    m = [list(r) for r in rows]
    pivots = _row_reduce(m, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    fc = free[0]
    vec = [Fraction(0)] * ncols
    vec[fc] = Fraction(1)
    for i, c in enumerate(pivots):
        vec[c] = -m[i][fc]
    return vec


# ---------------------------------------------------------------------------
# univariate interpolation and rational-function fitting
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)  # the appendix uses four node tuples
def _inverse_vandermonde(ratios):
    """(rows, L): the inverse Vandermonde matrix of the nodes p_i/q_i of
    ``ratios``, integer rows over one L (row j: L times coefficient j from
    the values).  Column i is the Lagrange basis q_i^(n-1) prod_k (q_k x -
    p_k) / (q_k p_i - p_k q_i), k != i, in lowest terms; built on first use."""
    columns = []
    for i, (p, q) in enumerate(ratios):
        num, den = [q ** (len(ratios) - 1)], 1
        for pk, qk in ratios[:i] + ratios[i + 1:]:
            num, den = _poly_mul(num, (-pk, qk)), den * (qk * p - pk * q)
        columns.append((num, den, den // math.gcd(den, *num)))
    scale = math.lcm(*(reduced for *_, reduced in columns))
    return tuple(zip(*([a * scale // den for a in num]
                       for num, den, _ in columns))), scale


def _inverse(ratios, degree):
    """``_inverse_vandermonde`` of the first degree+1 ratios, if distinct."""
    nodes = tuple(ratios[:degree + 1])
    if len(set(nodes)) <= degree:  # too few points, or a repeated node
        raise InterpolationNodeError(
            f"degree {degree} needs {degree + 1} distinct points, got {nodes}")
    return _inverse_vandermonde(nodes)


def interpolate_integers(columns, degree: int, ratios):
    """(coefficients, L): for each list in ``columns`` of int values at the
    points p/q of ``ratios`` ((p, q) in lowest terms, q > 0), the ascending
    coefficients of the degree-``degree`` polynomial through the first
    degree+1 of them, integers over one L > 0 (the inverse Vandermonde rows
    times the values), checked at each further point, else DegreeBoundError."""
    rows, scale = _inverse(ratios, degree)
    checks = [([a ** j * b ** (degree - j) for j in range(degree + 1)],
               scale * b ** degree) for a, b in ratios[degree + 1:]]
    coeffs = [[sum(map(operator.mul, row, values)) for row in rows]
              for values in columns]
    if any(sum(map(operator.mul, weights, sums)) != top * v
           for sums, values in zip(coeffs, columns)
           for (weights, top), v in zip(checks, values[degree + 1:])):
        raise DegreeBoundError(f"values are not of degree {degree}")
    return coeffs, scale


def interpolate_polynomial(fun, degree: int, points):
    """Coefficients (ascending) of the degree-``degree`` polynomial matching
    ``fun`` on the first ``degree+1`` of ``points``, verified on the rest.

    Exact values meet over one denominator Y and go through
    ``interpolate_integers``, each coefficient one Fraction over L*Y.  A
    float value makes every coefficient a float, each weight n/L rounded as
    float(Fraction(n, L)) is, then by its product with the value, and a
    further point's gap passes by ``tolerance_of`` times the largest
    |value|.  Too few points or a repeated node raise InterpolationNodeError.
    """
    xs = list(points)
    ratios = [x.as_integer_ratio() for x in xs]
    rows, scale = _inverse(ratios, degree)
    ys = [fun(x) for x in xs]
    if not any(isinstance(y, float) for y in ys):
        den = math.lcm(*(y.denominator for y in ys))
        (sums,), scale = interpolate_integers([[
            y.numerator * (den // y.denominator) for y in ys]], degree, ratios)
        return [Fraction(s, scale * den) for s in sums]
    coeffs = [sum(w / scale * y for w, y in zip(row, ys)) for row in rows]
    gaps = [sum(c * x ** j for j, c in enumerate(coeffs)) - y
            for x, y in zip(xs[degree + 1:], ys[degree + 1:])]
    if any(abs(g) > tolerance_of(g, TOL) * max(map(abs, ys)) for g in gaps):
        raise DegreeBoundError(f"function is not a degree-{degree} polynomial")
    return coeffs


def fit_rational(fun, num_deg: int, den_deg: int, points):
    """Fit fun(x) = N(x)/M(x) with the given degrees by exact interpolation
    on the first num_deg + den_deg + 2 of ``points``.

    Returns (num_coeffs, den_coeffs) ascending, with the trailing nonzero
    denominator coefficient normalized to 1.  Raises DegreeBoundError when the
    remaining (verification) points disagree with the fit.
    """
    need = num_deg + den_deg + 2
    xs = list(points)
    ys = [fun(x) for x in xs]
    sol = nullspace_vector([[x ** i for i in range(num_deg + 1)]
                            + [-y * x ** i for i in range(den_deg + 1)]
                            for x, y in zip(xs[:need], ys[:need])], need)
    if sol is None:
        raise DegreeBoundError("no rational fit at the given degrees")
    lead = next((c for c in reversed(sol[num_deg + 1:]) if c != 0), None)
    if lead is None:
        raise DegreeBoundError("vanishing denominator in rational fit")
    num, den = ([c / lead for c in part]
                for part in (sol[:num_deg + 1], sol[num_deg + 1:]))
    for x, y in zip(xs[need:], ys[need:]):
        if (sum(c * x ** i for i, c in enumerate(num))
                != y * sum(c * x ** i for i, c in enumerate(den))):
            raise DegreeBoundError(
                f"function is not rational of degree ({num_deg},{den_deg})")
    return num, den


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def sylvester_resultant(p, q):
    """Resultant of two univariate polynomials given as ascending coefficient
    lists of scalars; exact for Fraction input.  The Sylvester determinant
    is taken by Bareiss fraction-free elimination (Math. Comp. 22, 1968) on
    p and q cleared to integers over one denominator D, and divided once by
    D^(m+n), m and n their degrees; floats run the same elimination with
    D = 1.0 and true division."""
    p, q = list(p), list(q)
    for r in (p, q):
        while r and r[-1] == 0:
            r.pop()
    if len(p) < 2 and len(q) < 2:
        raise DegenerateResultantError("both polynomials are constant")
    (p, q), den = clear_denominators([p, q])
    m, n = len(p) - 1, len(q) - 1
    if m < 0 or n < 0:  # the zero polynomial shares every root
        return div(0, den)
    size = m + n
    a = []
    for coeffs, count in ((p, n), (q, m)):
        for i in range(count):
            row = [0] * size
            row[i:i + len(coeffs)] = reversed(coeffs)
            a.append(row)
    # integer rows divide exactly; a float row makes every quotient a float
    divide = operator.floordiv if isinstance(den, int) else operator.truediv
    sign, prev = 1, 1
    for c in range(size):
        piv = next((r for r in range(c, size) if a[r][c] != 0), None)
        if piv is None:
            return div(0 * prev, den ** size)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        pv = a[c][c]
        for r in range(c + 1, size):
            f = a[r][c]
            a[r] = [0] * (c + 1) + [
                divide(pv * x - f * y, prev)
                for x, y in zip(a[r][c + 1:], a[c][c + 1:])]
        prev = pv
    return div(sign * prev, den ** size)


def _poly_mul(a, b):
    """Product of two ascending coefficient lists, skipping zero terms."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    """Difference of two ascending coefficient lists of equal length."""
    return [x - y for x, y in zip(a, b)]


def resultant_tau_bar(p, q):
    """Sylvester resultant w.r.t. tau_bar of two bidegree-(2,2) polynomials
    given as 3x3 nested lists, ``coeff[i][j]`` of tau^i tau_bar^j.

    Returns the nine coefficients (tau^0 .. tau^8) of the closed form
    (p2 q0 - p0 q2)^2 - (p2 q1 - p1 q2)(p1 q0 - p0 q1) of the resultant of
    two quadratics p2 x^2 + p1 x + p0 and q2 x^2 + q1 x + q0, where each pj
    is the coefficient list in tau of tau_bar^j: integers for integer forms,
    as the oracle passes them.  Raises DegenerateResultantError when both
    leading tau_bar^2 coefficients vanish identically."""
    p0, p1, p2 = ([row[j] for row in p] for j in range(3))
    q0, q1, q2 = ([row[j] for row in q] for j in range(3))
    if not any(p2) and not any(q2):
        raise DegenerateResultantError(
            "both inputs have identically zero tau_bar^2 coefficient")
    outer = _poly_sub(_poly_mul(p2, q0), _poly_mul(p0, q2))
    return _poly_sub(
        _poly_mul(outer, outer),
        _poly_mul(_poly_sub(_poly_mul(p2, q1), _poly_mul(p1, q2)),
                  _poly_sub(_poly_mul(p1, q0), _poly_mul(p0, q1))),
    )
