"""Reference formulas the output checks compare against.

Nothing here imports ``bibennett``: every expected value is derived from the
closed forms of the construction, so a check never trusts the code it checks.
All functions are generic over the scalar type (Fraction or float).
"""

from __future__ import annotations

from fractions import Fraction

LABELS = ((1, 4), (1, 2), (2, 3), (3, 4))

# Relative tolerance for comparing a float output with its reference value.
REL_TOL = 1e-9


def is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def close(value, expected, rel: float = REL_TOL) -> bool:
    """Exact equality when both sides are exact, else a relative tolerance."""
    if is_exact(value) and is_exact(expected):
        return value == expected
    return abs(float(value) - float(expected)) <= rel * (1.0 + abs(float(expected)))


# ---------------------------------------------------------------------------
# links and the tau-free side lengths of the shared quad
# ---------------------------------------------------------------------------

def bennett_link(a_sq, k):
    """(cos alpha, d^2) of a Bennett link from its squared half-tangent."""
    return (1 - a_sq) / (1 + a_sq), 4 * k * k * a_sq / ((1 + a_sq) ** 2)


def planar_link(twist_is_pi: bool, d):
    """(cos alpha, d^2) of a pinned-twist link of the prismatic limit."""
    return (-1 if twist_is_pi else 1), d * d


# prismatic case -> (first link twist is pi, second link twist is pi)
PRISMATIC_TWISTS = {"anti": (False, False), "para": (False, True)}
PLANAR_TWISTS = {"1a": (True, True), "1b": (True, False),
                 "2a": (False, False), "2b": (False, True)}


def side_sq(links, mu):
    """Squared quad sides 14-12, 12-23, 23-34, 34-14 of a loop.

    Consecutive anchors sit on consecutive axes, which meet their common
    normal (length d, twist alpha) at the feet F; so each side is
    mu_a^2 + mu_b^2 - 2 mu_a mu_b cos(alpha) + d^2, whatever tau is.
    Opposite links of a Bennett loop are equal: links = (link_1, link_2).
    """
    m14, m12, m23, m34 = mu
    (c1, dd1), (c2, dd2) = links
    return (
        m14 * m14 + m12 * m12 - 2 * m14 * m12 * c1 + dd1,
        m12 * m12 + m23 * m23 - 2 * m12 * m23 * c2 + dd2,
        m23 * m23 + m34 * m34 - 2 * m23 * m34 * c1 + dd1,
        m34 * m34 + m14 * m14 - 2 * m34 * m14 * c2 + dd2,
    )


def dist_sq(p, q):
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def six_dist_sq(points):
    """Four sides then two diagonals of a quad given as four points in the
    label order 14, 12, 23, 34 (criterion 4's congruence test)."""
    p14, p12, p23, p34 = points
    return (dist_sq(p14, p12), dist_sq(p12, p23), dist_sq(p23, p34),
            dist_sq(p34, p14), dist_sq(p14, p23), dist_sq(p12, p34))


# ---------------------------------------------------------------------------
# family A half-tangents and family C companion parameters
# ---------------------------------------------------------------------------

def family_a_squares(mu):
    """(a1^2, a2^2) solving the family-A isogram conditions, or None when the
    mu-set is on an excluded branch or has no real half-tangents."""
    m14, m12, m23, m34 = mu
    s1 = m14 - m12 + m23 - m34
    s2 = m14 - m12 - m23 + m34
    s3 = m14 + m12 + m23 + m34
    s4 = m14 + m12 - m23 - m34
    if s3 * s4 == 0 or s3 * s2 == 0:
        return None
    a1_sq = -(s1 * s2) / (s3 * s4)
    a2_sq = -(s4 * s1) / (s3 * s2)
    if a1_sq <= 0 or a2_sq <= 0 or a1_sq == a2_sq:
        return None
    return a1_sq, a2_sq


def relation_bennett(a1, a2, k, mu14, mu12):
    """Coefficients (A, B, C, D) of the family-C relation
    A t^2 b^2 + B t^2 + C b^2 + D = 0 between tau = t and tau_bar = b."""
    dm = mu14 * mu14 - mu12 * mu12
    sm = mu14 * mu14 + mu12 * mu12 + 2 * k * k
    return (dm * (a1 - a2) ** 2,
            dm * (a1 * a1 + a2 * a2) + 2 * sm * a1 * a2,
            dm * (a1 * a1 + a2 * a2) - 2 * sm * a1 * a2,
            dm * (a1 + a2) ** 2)


def relation_prismatic(case, d1, d2, mu14, mu12):
    """The same relation in the prismatic limit: the limit of the family-C
    relation for a_i -> 0 (zero twist) or a_i -> inf (twist pi) with
    k -> inf and d_i fixed.  Anti: b^2 = t^2.  Para:
    dm t^2 b^2 + (dm + d1 d2) t^2 + (dm - d1 d2) b^2 + dm = 0."""
    if case == "anti":
        return (0, 1, -1, 0)
    dm = mu14 * mu14 - mu12 * mu12
    return (dm, dm + d1 * d2, dm - d1 * d2, dm)


def bar_tau_sq(relation, tau):
    """tau_bar^2 at tau from a relation (A, B, C, D), or None at a pole."""
    qa, qb, qc, qd = relation
    t2 = tau * tau
    den = qa * t2 + qc
    if den == 0:
        return None
    return -(qb * t2 + qd) / den


# ---------------------------------------------------------------------------
# the shared quad itself (for the known defects)
# ---------------------------------------------------------------------------

def _link(a, k):
    """Rotation about the common normal (z) through the twist with
    half-tangent a, and the offset d = k sin(alpha) along it."""
    den = 1 + a * a
    c, s = (1 - a * a) / den, 2 * a / den
    return ((c, -s, 0), (s, c, 0), (0, 0, 1)), (0, 0, k * s)


def _joint(t):
    """Rotation about the joint axis (x), in the package's sign convention."""
    den = 1 + t * t
    c, s = (1 - t * t) / den, 2 * t / den
    return ((1, 0, 0), (0, c, s), (0, -s, c)), (0, 0, 0)


def _compose(first, second):
    (ra, ta), (rb, tb) = first, second
    rot = tuple(tuple(sum(ra[i][k] * rb[k][j] for k in range(3))
                      for j in range(3)) for i in range(3))
    return rot, tuple(ta[i] + sum(ra[i][k] * tb[k] for k in range(3))
                      for i in range(3))


def axes(a1, a2, k, tau):
    """(foot F, unit direction r) of the axes 14, 12, 23, 34 of a Bennett
    loop at tau.  The first joint has half-tangent K / tau with
    K = (a1 + a2) / (a1 - a2), the second tau."""
    big_k = (a1 + a2) / (a1 - a2)
    m12 = _link(a1, k)
    m23 = _compose(_compose(m12, _joint(big_k / tau)), _link(a2, k))
    m34 = _compose(_compose(m23, _joint(tau)), _link(a1, k))
    out = [((0, 0, 0), (1, 0, 0))]
    for rot, foot in (m12, m23, m34):
        out.append((foot, tuple(rot[i][0] for i in range(3))))
    return out


def quad(a1, a2, k, mu, tau):
    """Anchors F + mu r of the quad with offsets mu = (mu14, mu12, mu23,
    mu34) at tau."""
    return [tuple(f + m * x for f, x in zip(foot, direction))
            for (foot, direction), m in zip(axes(a1, a2, k, tau), mu)]


def det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def is_planar(points) -> bool:
    """Exactly coplanar four points (exact input)."""
    edges = [tuple(p - q for p, q in zip(points[i], points[0])) for i in (1, 2, 3)]
    return det3(*edges) == 0


def diagonal_gap(points) -> float:
    """|length of diagonal 14-23 - length of diagonal 12-34|."""
    p14, p12, p23, p34 = points
    return abs(float(dist_sq(p14, p23)) ** 0.5 - float(dist_sq(p12, p34)) ** 0.5)
