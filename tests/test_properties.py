"""Unit tests for the vertex and coupling certificates."""

import random
from fractions import Fraction

import pytest

from bibennett.bennett import validate
from bibennett.families import (
    MuSet,
    NotIsometricError,
    family_c,
    make_family_a,
    make_family_b,
)
from bibennett.properties import (
    deltoidal_certificate,
    deltoidal_numerators,
    halfturn_certificate,
    indicatrix_relation,
    isogonal_certificate,
    star_invariant_gap,
)

F = Fraction
DESIGN = validate(F(1, 2), F(1, 3), F(1))
FAMILY_A = make_family_a(MuSet(F(37, 40), F(7, 8), F(1), F(1, 2)))
FAMILY_B = make_family_b(F(2, 3), F(1, 2), DESIGN)
FAMILY_C = family_c(DESIGN, F(2, 3), F(1, 4), 1)


def test_family_a_vertices_isogonal():
    report = isogonal_certificate(FAMILY_A, F(9, 10))
    assert report.verdict, report.lines()


def test_family_a_vertices_not_deltoidal():
    report = deltoidal_certificate(FAMILY_A, F(9, 10))
    assert not report.verdict


def test_family_b_vertices_deltoidal():
    report = deltoidal_certificate(FAMILY_B, F(9, 10))
    assert report.verdict, report.lines()


def test_family_b_vertices_not_isogonal():
    report = isogonal_certificate(FAMILY_B, F(9, 10))
    assert not report.verdict


def test_deltoidal_numerators_vanish_for_b():
    mu = FAMILY_B.mu
    values = deltoidal_numerators(F(1, 2), F(1, 3), mu.mu14, mu.mu12,
                                  mu.mu23, mu.mu34)
    assert all(v == 0 for v in values)


def test_halfturn_certificate_all_branches():
    for s in (1, -1):
        for branch in (1, -1):
            bib = family_c(DESIGN, F(2, 3), F(1, 4), s, branch=branch)
            report = halfturn_certificate(bib, F(9, 10))
            assert report.verdict, (s, branch, report.lines())


def test_halfturn_certificate_rejects_wrong_companion():
    with pytest.raises(NotIsometricError):
        halfturn_certificate(FAMILY_C, F(9, 10), tau_bar=0.5)


def test_indicatrix_relation_family_c():
    report = indicatrix_relation(FAMILY_C, F(9, 10))
    assert report.verdict, report.lines()


# four lines in general position (not unit: the invariants need no norms)
_STAR = ((F(1), F(0), F(0)), (F(1), F(2), F(0)),
         (F(0), F(1), F(3)), (F(2), F(-1), F(1)))


def _rotation(w, x, y, z):
    """Rotation matrix of the (unnormalised) rational quaternion w+xi+yj+zk."""
    n = w * w + x * x + y * y + z * z
    return (
        ((w * w + x * x - y * y - z * z) / n, 2 * (x * y - w * z) / n,
         2 * (x * z + w * y) / n),
        (2 * (x * y + w * z) / n, (w * w - x * x + y * y - z * z) / n,
         2 * (y * z - w * x) / n),
        (2 * (x * z - w * y) / n, 2 * (y * z + w * x) / n,
         (w * w - x * x - y * y + z * z) / n),
    )


def _apply(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def test_star_invariants_accept_rotated_sign_flipped_star():
    rot = _rotation(F(1), F(2), F(-1), F(3))
    signs = (1, -1, -1, 1)
    image = tuple(tuple(s * c for c in _apply(rot, d))
                  for s, d in zip(signs, _STAR))
    assert star_invariant_gap(_STAR, image) == 0
    floats = tuple(tuple(float(c) for c in d) for d in image)
    assert star_invariant_gap(_STAR, floats) < 1e-12


def test_star_invariants_cannot_tell_a_line_star_from_its_mirror():
    # the directions are lines, so negating all four turns the reflection
    # z -> -z into the half-turn about the z axis: a mirror image of a line
    # star is a rotated, sign-flipped copy of it
    mirror = tuple((x, y, -z) for x, y, z in _STAR)
    assert star_invariant_gap(_STAR, mirror) == 0


def test_star_invariants_reject_a_different_star():
    rot = _rotation(F(3), F(0), F(1), F(-2))
    bent = _STAR[:3] + ((F(2), F(-1), F(2)),)
    assert star_invariant_gap(_STAR, tuple(_apply(rot, d) for d in bent)) > 1


def test_certificates_on_random_instances():
    rng = random.Random(5)
    count = 0
    while count < 5:
        a1 = F(rng.randint(1, 9), rng.randint(1, 9))
        a2 = F(rng.randint(1, 9), rng.randint(1, 9))
        if a1 == a2:
            continue
        design = validate(a1, a2, F(1))
        mu23 = F(rng.randint(1, 9), rng.randint(1, 9))
        mu34 = F(rng.randint(1, 9), rng.randint(1, 9))
        bib = make_family_b(mu23, mu34, design)
        assert deltoidal_certificate(bib, F(9, 10)).verdict
        count += 1
