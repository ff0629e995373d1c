"""Unit tests for the vertex and coupling certificates."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bibennett.bennett import PoleError, validate
from bibennett.families import (
    MuSet,
    NoRealBranchError,
    NotIsometricError,
    align_isometry,
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
    # the bar quad posed at a tau_bar off the coupling relation is not
    # congruent to the shared quad, so no partner isometry exists
    quad = FAMILY_C.loop().quad(F(9, 10))
    with pytest.raises(NotIsometricError):
        align_isometry(FAMILY_C.bar_loop().quad(0.5), quad)


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


# ---------------------------------------------------------------------------
# the half-turn certificate on random family-C couplings
# ---------------------------------------------------------------------------

_POSITIVE = st.builds(F, st.integers(1, 30), st.integers(1, 20))
_OFFSET = st.builds(F, st.integers(-30, 30).filter(bool), st.integers(1, 20))
_TAU = st.builds(F, st.integers(-40, 40).filter(bool), st.integers(1, 12))


def _family_c_certificates(a1, a2, k, mu14, mu12, s, branch, tau, scalar):
    design = validate(scalar(a1), scalar(a2), scalar(k))
    bib = family_c(design, scalar(mu14), scalar(mu12), s, branch)
    return halfturn_certificate(bib, scalar(tau))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_POSITIVE, _POSITIVE, st.one_of(st.just(F(0)), _POSITIVE), _OFFSET,
       _OFFSET, st.sampled_from((1, -1)), st.sampled_from((1, -1)), _TAU)
def test_halfturn_certificate_passes_on_family_c(a1, a2, k, mu14, mu12, s,
                                                 branch, tau):
    # mu14 = -mu12 zeroes dm = mu14^2 - mu12^2, the family-B pattern, where
    # the coupling relation degenerates to tau_bar = +-tau
    assume(a1 != a2 and mu14 * mu14 != mu12 * mu12)
    for scalar in (F, float):
        try:
            report = _family_c_certificates(a1, a2, k, mu14, mu12, s,
                                            branch, tau, scalar)
        except (NoRealBranchError, PoleError):
            assume(False)
        assert report.verdict, (scalar, report.lines())


def test_halfturn_certificate_on_spherical_planar_quad():
    # k = 0: the shared quad is planar, where the barycentric transfer of
    # the bar anchors was singular
    args = (F(1), F(9), F(0), F(5, 8), F(2, 3), 1, -1, F(16, 7))
    for scalar in (F, float):
        assert _family_c_certificates(*args, scalar).verdict


def test_halfturn_certificate_on_near_equal_diagonals():
    # the two diagonals differ by 8.2e-7, below the absolute 1e-6 that the
    # negative check "rho(P..) != P.." once asked for
    args = (F(2), F(7, 3), F(4, 9), F(-1, 7), F(-8, 11), -1, -1, F(36, 7))
    for scalar in (F, float):
        assert _family_c_certificates(*args, scalar).verdict


def test_halfturn_frame_transfer_with_a_rounding_zero():
    # in float mode the first frame vector of the bar quad has the x
    # component -5.6e-17 where the exact value is 0; an elimination that
    # takes it as the pivot moved Fhat23 by 6.3
    args = (F(1, 2), F(1), F(11, 9), F(-2, 3), F(-2, 5), -1, -1, F(-9, 5))
    for scalar in (F, float):
        assert _family_c_certificates(*args, scalar).verdict
