"""Unit tests for single-loop construction, closure, and classification."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bibennett.algebra import mat_direction, mat_identity, mat_point
from bibennett.bennett import (
    AXIS_LABELS,
    BennettDesign,
    DegenerateDesignError,
    PLANAR_CASES,
    PlanarDesign,
    PoleError,
    dh_chain,
    frame,
    indicatrix,
    loop_closure_residual,
    opposite_axes_intersect,
    planar_frame,
    planar_K,
    planar_chain,
    planar_loop_closure_residual,
    regulus_residual,
    symmetry_line,
    symmetry_residual,
    transmission_K,
    transmission_K_alt,
    validate,
)

F = Fraction
DESIGN = BennettDesign(F(1, 2), F(1, 3), F(1))


def test_validate_rejects_equal_twists():
    with pytest.raises(DegenerateDesignError):
        validate(F(1, 2), F(1, 2), F(1))


def test_angles_and_offsets():
    # alpha = 2*atan(a), d = 2*k*a/(1+a^2)
    assert DESIGN.d1 == F(4, 5)
    assert DESIGN.d2 == F(3, 5)


def test_transmission_values():
    assert transmission_K(DESIGN) == F(5)
    assert transmission_K_alt(DESIGN) == F(5, 7)


def test_loop_closure_exact_zero():
    for tau in (F(1, 2), F(9, 10), F(-3), F(7, 5)):
        assert loop_closure_residual(DESIGN, tau) == 0


def test_loop_closure_float_small():
    design = BennettDesign(0.5, 1.0 / 3.0, 1.0)
    assert loop_closure_residual(design, 0.9) < 1e-12


def test_loop_closure_zero_offset():
    design = validate(F(1, 2), F(1, 3), F(0))
    assert loop_closure_residual(design, F(9, 10)) == 0


def test_planar_transmission_values():
    d1, d2 = F(1, 2), F(1)
    assert planar_K(PlanarDesign(d1, d2, "1a")) == F(3)
    assert planar_K(PlanarDesign(d1, d2, "1b")) == 1
    assert planar_K(PlanarDesign(d1, d2, "2a")) == F(-3)
    assert planar_K(PlanarDesign(d1, d2, "2b")) == -1


def test_planar_pole():
    with pytest.raises(PoleError):
        planar_K(PlanarDesign(F(1), F(1), "1a"))
    with pytest.raises(PoleError):
        planar_K(PlanarDesign(F(1), F(1), "2a"))


def test_planar_closure_exact():
    for case in PLANAR_CASES:
        design = PlanarDesign(F(1, 2), F(1), case)
        for tau in (F(3, 5), F(2), F(-1, 3)):
            assert planar_loop_closure_residual(design, tau) == 0


def test_frame_quad_is_isogram():
    pose = frame(DESIGN, F(9, 10))
    pts = pose.points()

    def d2(p, q):
        return sum((a - b) ** 2 for a, b in zip(p, q))

    assert d2(pts[(1, 4)], pts[(1, 2)]) == d2(pts[(2, 3)], pts[(3, 4)])
    assert d2(pts[(1, 4)], pts[(3, 4)]) == d2(pts[(2, 3)], pts[(1, 2)])


def test_planar_frame_directions():
    pose = planar_frame(PlanarDesign(F(1, 2), F(1), "2a"), F(3, 5))
    # prismatic-limit loops keep all joint directions parallel
    dirs = [pose.axes[l].direction for l in AXIS_LABELS]
    for d in dirs[1:]:
        cross = (
            dirs[0][1] * d[2] - dirs[0][2] * d[1],
            dirs[0][2] * d[0] - dirs[0][0] * d[2],
            dirs[0][0] * d[1] - dirs[0][1] * d[0],
        )
        assert all(c == 0 for c in cross)


def test_indicatrix_classification():
    report = indicatrix(DESIGN)
    # opposite arcs equal: the spherical image is a spherical anti-
    # parallelogram, i.e. a V-hedral vertex pattern
    assert report.classification == "V-hedral"
    assert report.arcs[0] == pytest.approx(report.arcs[2], abs=1e-12)
    assert report.arcs[1] == pytest.approx(report.arcs[3], abs=1e-12)
    # a1*a2 = 1 is the ambiguous case, reported as "other" by default
    amb = indicatrix(BennettDesign(F(1, 2), F(2), F(1)))
    assert amb.classification == "other"


def test_opposite_axes_skew():
    pose = frame(DESIGN, F(9, 10))
    meets = opposite_axes_intersect(pose)
    assert meets == {((1, 4), (2, 3)): False, ((1, 2), (3, 4)): False}


def test_regulus_unique():
    pose = frame(DESIGN, F(9, 10))
    assert regulus_residual(pose) < 1e-9


def test_symmetry_line_halfturn():
    pose = frame(DESIGN, F(9, 10))
    point, direction = symmetry_line(pose)
    assert any(abs(float(c)) > 0 for c in direction)
    assert symmetry_residual(pose) < 1e-12


# ---------------------------------------------------------------------------
# the two-column pose kernel against the full matrix chain
# ---------------------------------------------------------------------------

_NONZERO = st.builds(F, st.integers(-40, 40).filter(bool), st.integers(1, 30))
_POSITIVE = st.builds(F, st.integers(1, 40), st.integers(1, 30))
_SCALE = st.one_of(st.just(F(0)), st.just(0), _POSITIVE)
_KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _chain_values(mats):
    """Point and direction entries of (identity, M12, M23, M34), flattened."""
    return [x for m in (mat_identity(),) + tuple(mats)
            for x in mat_point(m) + mat_direction(m)]


def _pose_values(pose):
    return [x for label in AXIS_LABELS
            for x in pose.axes[label].point + pose.axes[label].direction]


def _typed(values):
    return [(type(x), x) for x in values]


def _close(values, reference):
    return all(abs(x - y) <= 1e-12 for x, y in zip(values, reference))


@_KERNEL_SETTINGS
@given(_POSITIVE, _POSITIVE, _SCALE, _NONZERO)
def test_frame_matches_dh_chain(a1, a2, k, tau):
    assume(a1 != a2)
    design = BennettDesign(a1, a2, k)
    assert _typed(_pose_values(frame(design, tau))) == _typed(
        _chain_values(dh_chain(design, tau)))
    fdesign = BennettDesign(float(a1), float(a2), float(k))
    assert _close(_pose_values(frame(fdesign, float(tau))),
                  _chain_values(dh_chain(fdesign, float(tau))))


@_KERNEL_SETTINGS
@given(_POSITIVE, _POSITIVE, st.sampled_from(PLANAR_CASES), _NONZERO)
def test_planar_frame_matches_planar_chain(d1, d2, case, tau):
    assume(d1 != d2)
    pd = PlanarDesign(d1, d2, case)
    assert _typed(_pose_values(planar_frame(pd, tau))) == _typed(
        _chain_values(planar_chain(pd, tau)))
    fpd = PlanarDesign(float(d1), float(d2), case)
    assert _close(_pose_values(planar_frame(fpd, float(tau))),
                  _chain_values(planar_chain(fpd, float(tau))))


@_KERNEL_SETTINGS
@given(_POSITIVE, _POSITIVE, _SCALE, st.sampled_from(PLANAR_CASES))
def test_kernel_tau_zero_is_pole(a, d, k, case):
    with pytest.raises(PoleError):
        frame(BennettDesign(a, a + 1, k), F(0))
    with pytest.raises(PoleError):
        planar_frame(PlanarDesign(d, d + 1, case), 0)


# ---------------------------------------------------------------------------
# one chain for Bennett and planar loops, exact for ints as well
# ---------------------------------------------------------------------------

_EXACT_POSITIVE = st.one_of(_POSITIVE, st.integers(1, 40))
_EXACT_NONZERO = st.one_of(_NONZERO, st.integers(-40, 40).filter(bool))


@_KERNEL_SETTINGS
@given(_EXACT_POSITIVE, _EXACT_POSITIVE, _SCALE, _EXACT_NONZERO,
       st.sampled_from(PLANAR_CASES))
def test_one_chain_closes_exactly(a1, a2, k, tau, case):
    assume(a1 != a2)
    assert loop_closure_residual(BennettDesign(a1, a2, k), tau) == 0
    assert loop_closure_residual(PlanarDesign(a1, a2, case), tau) == 0


def test_int_designs_stay_exact():
    bennett = validate(2, 1, 1)
    assert transmission_K(bennett) == 3
    assert transmission_K_alt(bennett) == F(-1, 3)
    assert (bennett.d1, bennett.d2) == (F(4, 5), 1)
    assert planar_K(PlanarDesign(2, 1, "1a")) == -3
    for value in (transmission_K(bennett), transmission_K_alt(bennett),
                  bennett.d1, bennett.d2, planar_K(PlanarDesign(2, 1, "2a"))):
        assert isinstance(value, Fraction)
    designs = [bennett, validate(3, 1, 0)]
    designs += [PlanarDesign(2, 1, case) for case in PLANAR_CASES]
    for design in designs:
        for tau in (F(1, 2), 3):
            pose = frame(design, tau)
            for label in ((2, 3), (3, 4)):
                axis = pose.axes[label]
                assert all(isinstance(x, Fraction)
                           for x in axis.point + axis.direction)
            residual = loop_closure_residual(design, tau)
            assert residual == 0 and not isinstance(residual, float)
