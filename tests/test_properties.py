"""Unit tests for the vertex and coupling certificates."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bibennett.algebra import v_add
from bibennett.bennett import (
    PLANAR_CASES,
    Axis,
    PlanarDesign,
    PoleError,
    frame,
    validate,
)
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
    ISO_TOL,
    bennett_loop_check,
    deltoidal_certificate,
    halfturn_certificate,
    isogonal_certificate,
    planar_loop_check,
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
# single-loop certificates
# ---------------------------------------------------------------------------

def test_bennett_loop_check_rejects_a_moved_axis():
    pose = frame(DESIGN, F(9, 10))
    axis = pose.axes[(3, 4)]
    moved = Axis(axis.label, v_add(axis.point, (0, 0, F(1, 10))),
                 axis.direction)
    report = bennett_loop_check(
        replace(pose, axes={**pose.axes, (3, 4): moved}), ISO_TOL)
    assert [r.label for r in report.failed()] == ["symmetry half-turn",
                                                  "regulus"]


@pytest.mark.parametrize("case", PLANAR_CASES)
def test_planar_loop_check_is_exact(case):
    for tau in (F(3, 5), F(-7, 3)):
        pose = frame(PlanarDesign(F(1, 2), F(1), case), tau)
        report = planar_loop_check(pose, ISO_TOL)
        assert report.verdict, report.lines()
        assert all(type(r.value) in (int, Fraction) and r.value == 0
                   for r in report.residuals), report.lines()


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
