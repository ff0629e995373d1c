"""Exact-capable linear algebra, polynomials and resultants.

Every routine in this module is generic over the scalar type: feed it
``fractions.Fraction`` everywhere and all results are exact rationals, feed it
floats and you get ordinary double precision.  Square roots are never taken
here, so the exact path stays radical-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


class DegenerateResultantError(ValueError):
    """Both polynomials have identically vanishing leading coefficients."""


class DegreeBoundError(ValueError):
    """A sampled value contradicts the supplied degree bounds."""


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def div(n, d):
    """n / d, kept exact for two ints (which ``/`` would turn into a float)."""
    if isinstance(n, int) and isinstance(d, int):
        return Fraction(n, d)
    return n / d


def parse_scalar(value, exact: bool):
    """Parse a config number: int, float, or a "p/q" string.

    In exact mode everything becomes a Fraction (decimal strings included,
    via their exact binary-free decimal value); in float mode, a float.
    """
    if isinstance(value, str):
        frac = Fraction(value)
    elif isinstance(value, (int, Fraction)):
        frac = Fraction(value)
    elif isinstance(value, float):
        return Fraction(value).limit_denominator(10**12) if exact else value
    else:
        raise TypeError(f"cannot parse scalar from {value!r}")
    return frac if exact else float(frac)


def sqrt_scalar(x):
    """Square root that stays exact when the radicand is a rational square."""
    if x < 0:
        raise ValueError("negative radicand")
    if is_exact(x):
        f = Fraction(x)
        rn = math.isqrt(f.numerator)
        rd = math.isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
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


def v_norm(a) -> float:
    return math.sqrt(float(v_norm_sq(a)))


def v_dist_sq(a, b):
    return v_norm_sq(v_sub(a, b))


def det3(r0, r1, r2):
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


# ---------------------------------------------------------------------------
# 4x4 homogeneous transforms, convention: column vectors (w, x, y, z)^T
# ---------------------------------------------------------------------------

Mat4 = tuple


def mat_identity() -> Mat4:
    return tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))


def mat_mul(a: Mat4, b: Mat4) -> Mat4:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


def mat_max_abs_diff(a: Mat4, b: Mat4):
    return max(abs(a[i][j] - b[i][j]) for i in range(4) for j in range(4))


def mat_point(m: Mat4):
    """Image of the reference point: the (x, y, z) part of M (1,0,0,0)^T."""
    return (m[1][0], m[2][0], m[3][0])


def mat_direction(m: Mat4):
    """Image of the reference direction: the (x, y, z) part of M (0,1,0,0)^T."""
    return (m[1][1], m[2][1], m[3][1])


# ---------------------------------------------------------------------------
# dense exact linear solves
# ---------------------------------------------------------------------------

def _row_reduce(m, ncols):
    """Gauss-Jordan elimination of the first ``ncols`` columns of the row
    list ``m``, in place; returns the pivot columns, one per pivot row."""
    nrows = len(m)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((rr for rr in range(r, nrows) if m[rr][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
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


def nullspace_dimension(rows, ncols) -> int:
    return ncols - len(_row_reduce([list(r) for r in rows], ncols))


# ---------------------------------------------------------------------------
# univariate interpolation and rational-function fitting
# ---------------------------------------------------------------------------

def interpolate_polynomial(fun, degree: int, points=None, checks: int = 2):
    """Coefficients (ascending) of the degree-``degree`` polynomial matching
    ``fun`` on ``degree+1`` sample points, verified on ``checks`` extra points.

    Exact when ``fun`` returns exact scalars at exact points.
    """
    if points is None:
        points = [Fraction(i + 1, 2) for i in range(degree + 1 + checks)]
    xs = list(points)
    ys = [fun(x) for x in xs]
    n = degree + 1
    vander = [[xs[i] ** j for j in range(n)] for i in range(n)]
    coeffs = solve_linear(vander, ys[:n])
    for x, y in zip(xs[n:], ys[n:]):
        if sum(coeffs[j] * x ** j for j in range(n)) != y:
            raise DegreeBoundError(f"function is not a degree-{degree} polynomial")
    return coeffs


def fit_rational(fun, num_deg: int, den_deg: int, points=None, checks: int = 3):
    """Fit fun(x) = N(x)/M(x) with the given degrees by exact interpolation.

    Returns (num_coeffs, den_coeffs) ascending, with the trailing nonzero
    denominator coefficient normalized to 1.  Raises DegreeBoundError when the
    verification points disagree with the fit.
    """
    need = num_deg + den_deg + 2
    if points is None:
        points = [Fraction(2 * i + 1, 3) for i in range(need + checks)]
    xs = list(points)
    ys = [fun(x) for x in xs]
    rows = []
    for x, y in zip(xs[:need], ys[:need]):
        rows.append([x ** i for i in range(num_deg + 1)]
                    + [-y * x ** i for i in range(den_deg + 1)])
    sol = nullspace_vector(rows, num_deg + den_deg + 2)
    if sol is None:
        raise DegreeBoundError("no rational fit at the given degrees")
    num = sol[:num_deg + 1]
    den = sol[num_deg + 1:]
    lead = next((c for c in reversed(den) if c != 0), None)
    if lead is None:
        raise DegreeBoundError("vanishing denominator in rational fit")
    num = [c / lead for c in num]
    den = [c / lead for c in den]
    for x, y in zip(xs[need:], ys[need:]):
        nv = sum(num[i] * x ** i for i in range(num_deg + 1))
        dv = sum(den[i] * x ** i for i in range(den_deg + 1))
        if nv != y * dv:
            raise DegreeBoundError(
                f"function is not rational of degree ({num_deg},{den_deg})")
    return num, den


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Sparse multivariate polynomial over exact scalars.

    Terms map exponent tuples to coefficients; zero coefficients are never
    stored.  Only the operations needed here are provided (no factorization,
    no Groebner machinery).
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                if c != 0:
                    self.terms[tuple(exp)] = c

    @classmethod
    def constant(cls, variables, value):
        p = cls(variables)
        if value != 0:
            p.terms[(0,) * len(p.variables)] = value
        return p

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls(variables, {tuple(exp): Fraction(1)})

    def _check(self, other):
        if self.variables != other.variables:
            raise ValueError("polynomials over different variable lists")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return Poly(self.variables, terms)

    def __neg__(self):
        return Poly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.variables, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.variables, other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return Poly(self.variables, terms)

    __rmul__ = __mul__
    __radd__ = __add__

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, name: str) -> int:
        idx = self.variables.index(name)
        return max((e[idx] for e in self.terms), default=0)

    def __call__(self, **values):
        total = 0
        for exp, c in self.terms.items():
            term = c
            for name, e in zip(self.variables, exp):
                if e:
                    term *= values[name] ** e
            total += term
        return total

    def coefficients(self, name: str):
        """Ascending coefficient list w.r.t. one variable; entries are Polys
        in the remaining variables."""
        idx = self.variables.index(name)
        rest = tuple(v for v in self.variables if v != name)
        out = [Poly(rest) for _ in range(self.degree(name) + 1)]
        for exp, c in self.terms.items():
            rexp = tuple(e for i, e in enumerate(exp) if i != idx)
            out[exp[idx]].terms[rexp] = out[exp[idx]].terms.get(rexp, 0) + c
        for p in out:
            p.terms = {e: c for e, c in p.terms.items() if c != 0}
        return out

    def __repr__(self):
        return f"Poly({self.variables}, {self.terms})"


def poly_identity_zero(p: Poly, degree_bounds) -> bool:
    """Decide whether p is the zero polynomial by exact evaluation on an
    interpolation-complete grid.

    ``degree_bounds`` maps each variable to an upper bound of its degree in p;
    a grid of (bound+1) distinct rationals per variable is then a proof, not a
    probabilistic test.  Raises DegreeBoundError when a stored exponent
    exceeds its bound.
    """
    for name in p.variables:
        if p.degree(name) > degree_bounds[name]:
            raise DegreeBoundError(
                f"degree bound for {name} below actual degree {p.degree(name)}")
    grids = [
        [Fraction(i + 1, 2) for i in range(degree_bounds[name] + 1)]
        for name in p.variables
    ]
    for point in product(*grids):
        if p(**dict(zip(p.variables, point))) != 0:
            return False
    return True


def function_identity_zero(fun, var_names, degree_bounds) -> bool:
    """Grid-based zero test for a black-box polynomial function.

    Same contract as :func:`poly_identity_zero` but for a callable taking
    keyword scalar arguments; correctness of the verdict rests on the caller's
    degree bounds.
    """
    grids = [
        [Fraction(2 * i + 1, 3) for i in range(degree_bounds[name] + 1)]
        for name in var_names
    ]
    for point in product(*grids):
        if fun(**dict(zip(var_names, point))) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def sylvester_resultant(p, q):
    """Resultant of two univariate polynomials given as ascending coefficient
    lists of scalars; exact for Fraction input."""
    p = list(p)
    q = list(q)
    while p and p[-1] == 0:
        p.pop()
    while q and q[-1] == 0:
        q.pop()
    if len(p) < 2 and len(q) < 2:
        raise DegenerateResultantError("both polynomials are constant")
    m = len(p) - 1
    n = len(q) - 1
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(p)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(q)):
            row[i + j] = c
        rows.append(row)
    # bareiss-free: plain fraction Gaussian determinant
    det = Fraction(1) if all(is_exact(c) for c in p + q) else 1.0
    a = [r[:] for r in rows]
    for c in range(size):
        piv = next((r for r in range(c, size) if a[r][c] != 0), None)
        if piv is None:
            return det * 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = a[c][c]
        for r in range(c + 1, size):
            if a[r][c] != 0:
                f = a[r][c] / inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@dataclass(frozen=True)
class Quadratic2:
    """Bidegree-(2,2) polynomial in (tau, tau_bar): coeff[i][j] tau^i tau_bar^j."""

    coeff: tuple  # 3x3 nested tuple

    def __post_init__(self):
        if len(self.coeff) != 3 or any(len(r) != 3 for r in self.coeff):
            raise ValueError("Quadratic2 needs a 3x3 coefficient array")

    def __call__(self, tau, tau_bar):
        return sum(
            self.coeff[i][j] * tau ** i * tau_bar ** j
            for i in range(3) for j in range(3)
        )

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.coeff for c in row)

    def tau_bar_coefficients(self):
        """Three Polys in tau: coefficients of tau_bar^0, tau_bar^1, tau_bar^2."""
        out = []
        for j in range(3):
            out.append(Poly(("tau",), {(i,): self.coeff[i][j]
                                       for i in range(3) if self.coeff[i][j] != 0}))
        return out


def resultant_tau_bar(p: Quadratic2, q: Quadratic2) -> Poly:
    """Sylvester resultant of two bidegree-(2,2) polynomials w.r.t. tau_bar.

    Returns a Poly in tau of degree at most 8.  Raises
    DegenerateResultantError when both leading tau_bar^2 coefficients vanish
    identically.
    """
    pc = p.tau_bar_coefficients()
    qc = q.tau_bar_coefficients()
    if pc[2].is_zero() and qc[2].is_zero():
        raise DegenerateResultantError(
            "both inputs have identically zero tau_bar^2 coefficient")
    zero = Poly(("tau",))
    m = [
        [pc[2], pc[1], pc[0], zero],
        [zero, pc[2], pc[1], pc[0]],
        [qc[2], qc[1], qc[0], zero],
        [zero, qc[2], qc[1], qc[0]],
    ]
    return _det4_poly(m)


def _det4_poly(m):
    def det2(a, b, c, d):
        return a * d - b * c

    total = Poly(("tau",))
    for j in range(4):
        cols = [jj for jj in range(4) if jj != j]
        minor = [[m[i][jj] for jj in cols] for i in range(1, 4)]
        d3 = (
            minor[0][0] * det2(minor[1][1], minor[1][2], minor[2][1], minor[2][2])
            - minor[0][1] * det2(minor[1][0], minor[1][2], minor[2][0], minor[2][2])
            + minor[0][2] * det2(minor[1][0], minor[1][1], minor[2][0], minor[2][1])
        )
        term = m[0][j] * d3
        total = total + term if j % 2 == 0 else total - term
    return total
