"""Unit tests for single-loop construction, closure, and classification."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bibennett.bennett as bennett
from bibennett.algebra import (
    TOL,
    clear_denominators,
    det3,
    div,
    is_exact,
    mat_mul,
    v_add,
    v_cross,
    v_scale,
    v_sub,
)
from bibennett.bennett import (
    AXIS_LABELS,
    Axis,
    BennettDesign,
    ConventionError,
    DegenerateDesignError,
    DegenerateQuadError,
    PLANAR_CASES,
    PlanarDesign,
    PoleError,
    _bennett_link,
    _kernel_factors,
    _rotation,
    frame,
    half_turn_residual,
    loop_closure_residual,
    planar_frame,
    planar_loop_closure_residual,
    regulus_residual,
    symmetry_line,
    symmetry_residual,
    validate,
)
from bibennett.families import HalfTurn

F = Fraction
DESIGN = BennettDesign(F(1, 2), F(1, 3), F(1))

_NONZERO = st.builds(F, st.integers(-40, 40).filter(bool), st.integers(1, 30))
_POSITIVE = st.builds(F, st.integers(1, 40), st.integers(1, 30))
_SCALE = st.one_of(st.just(F(0)), st.just(0), _POSITIVE)
_KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def test_validate_rejects_equal_twists():
    with pytest.raises(DegenerateDesignError):
        validate(F(1, 2), F(1, 2), F(1))


def test_angles_and_offsets():
    # alpha = 2*atan(a), d = 2*k*a/(1+a^2)
    (_, _, d1), (_, _, d2) = DESIGN.links()
    assert (d1, d2) == (F(4, 5), F(3, 5))


def test_transmission_values():
    assert DESIGN.transmission() == F(5)


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
    assert PlanarDesign(d1, d2, "1a").transmission() == F(3)
    assert PlanarDesign(d1, d2, "1b").transmission() == 1
    assert PlanarDesign(d1, d2, "2a").transmission() == F(-3)
    assert PlanarDesign(d1, d2, "2b").transmission() == -1


def test_planar_pole():
    # the rhombus d1 = d2 is a pole of the transmission ratio in 1a and 2a
    for case in ("1a", "2a"):
        with pytest.raises(DegenerateDesignError):
            PlanarDesign(F(1), F(1), case)
    for case in ("1b", "2b"):  # a finite ratio there
        assert PlanarDesign(F(1), F(1), case).transmission() in (1, -1)


def test_planar_design_rejects_an_unknown_case_and_a_nonpositive_distance():
    with pytest.raises(ValueError, match="unknown planar case"):
        PlanarDesign(F(1, 2), F(1), "3a")
    for d1, d2 in ((F(0), F(1)), (F(1), F(-1, 2)), (-0.5, 1.0)):
        with pytest.raises(ConventionError):
            PlanarDesign(d1, d2, "2b")


def test_planar_closure_exact():
    for case in PLANAR_CASES:
        design = PlanarDesign(F(1, 2), F(1), case)
        for tau in (F(3, 5), F(2), F(-1, 3)):
            assert planar_loop_closure_residual(design, tau) == 0


def test_frame_quad_is_isogram():
    pose = frame(DESIGN, F(9, 10))
    pts = {label: ax.point for label, ax in pose.axes.items()}

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


def test_opposite_axes_skew():
    # two lines are skew iff the segment between their points is not
    # coplanar with their directions
    pose = frame(DESIGN, F(9, 10))
    for a, b in (((1, 4), (2, 3)), ((1, 2), (3, 4))):
        ax, bx = pose.axes[a], pose.axes[b]
        assert det3(v_sub(bx.point, ax.point), ax.direction,
                    bx.direction) != 0


def test_regulus_unique():
    pose = frame(DESIGN, F(9, 10))
    assert regulus_residual(pose) < 1e-9


def _tips(pose):
    """F14 + r14, F12 + r12, F23 - r23, F34 - r34: the quad whose symmetry
    line is the loop's, a skew isogram at k = 0 too."""
    axes = [pose.axes[label] for label in AXIS_LABELS]
    return ([v_add(ax.point, ax.direction) for ax in axes[:2]]
            + [v_sub(ax.point, ax.direction) for ax in axes[2:]])


def test_symmetry_line_halfturn():
    pose = frame(DESIGN, F(9, 10))
    point, direction = symmetry_line(
        [pose.axes[label].point for label in AXIS_LABELS])
    assert any(abs(float(c)) > 0 for c in direction)
    assert symmetry_residual(pose) < 1e-12


def test_regulus_residual_is_exact():
    residual = regulus_residual(frame(DESIGN, F(9, 10)))
    assert residual == 0 and type(residual) is Fraction


@pytest.mark.parametrize("conv", [F, float])
@pytest.mark.parametrize("a2, k", [(F(2), F(1)), (F(1, 3), F(0))])
def test_regulus_degenerates_where_axes_meet(conv, a2, k):
    # opposite axes meet when a1 a2 = 1, and all axes meet at k = 0; the
    # regulus degenerates there but the axes still lie on it
    pose = frame(BennettDesign(conv(F(1, 2)), conv(a2), conv(k)),
                 conv(F(9, 10)))
    residual = regulus_residual(pose)
    if conv is F:
        assert residual == 0 and type(residual) is Fraction
    else:
        assert isinstance(residual, float) and residual <= TOL


@_KERNEL_SETTINGS
@given(_POSITIVE, _POSITIVE, st.booleans(), _SCALE, _NONZERO)
def test_regulus_is_exact_zero(a1, a2, reciprocal, k, tau):
    # including k = 0, where all axes meet at the apex, and a1 a2 = 1,
    # where opposite axes meet
    a2 = 1 / a1 if reciprocal else a2
    assume(a1 != a2)
    residual = regulus_residual(frame(BennettDesign(a1, a2, k), tau))
    assert residual == 0 and type(residual) is Fraction


@_KERNEL_SETTINGS
@given(_POSITIVE, st.floats(-1e-3, 1e-3), st.floats(0, 10), _NONZERO)
def test_regulus_float_near_meeting_axes(a1, eps, k, tau):
    # within 1e-3 of a1 a2 = 1 the opposite axes nearly meet
    a1 = float(a1)
    a2 = (1 + eps) / a1
    assume(a1 != a2)
    assert regulus_residual(
        frame(BennettDesign(a1, a2, k), float(tau))) <= TOL


def test_symmetry_line_at_zero_scale():
    # every anchor sits at the origin; the line runs through it, parallel to
    # the k = 1 line
    pose = frame(BennettDesign(F(1, 2), F(1, 3), F(0)), F(9, 10))
    point, direction = symmetry_line(_tips(pose))
    assert v_cross(point, direction) == (0, 0, 0)
    _, unit_scale = symmetry_line(_tips(frame(DESIGN, F(9, 10))))
    assert v_cross(direction, unit_scale) == (0, 0, 0)
    residual = symmetry_residual(pose)
    assert residual == 0 and not isinstance(residual, float)


@_KERNEL_SETTINGS
@given(_POSITIVE, _POSITIVE, st.booleans(), _SCALE, _NONZERO)
def test_symmetry_residual_is_exact_zero(a1, a2, reciprocal, k, tau):
    # including k = 0, where all anchors sit at the apex, and a1 a2 = 1,
    # where opposite axes meet; the float copy stays within TOL
    a2 = 1 / a1 if reciprocal else a2
    assume(a1 != a2)
    residual = symmetry_residual(frame(BennettDesign(a1, a2, k), tau))
    assert residual == 0 and type(residual) is Fraction
    residual = symmetry_residual(frame(
        BennettDesign(float(a1), float(a2), float(k)), float(tau)))
    assert isinstance(residual, float) and residual <= TOL


def _with_axes(pose, axes):
    """``pose`` with ``axes`` (label -> Axis) in place of its own: a pose
    built from the Fraction coordinates of its axes, over 1."""
    axes = [{**pose.axes, **axes}[label] for label in AXIS_LABELS]
    return pose._replace(points=tuple(ax.point for ax in axes),
                         directions=tuple(ax.direction for ax in axes), den=1)


@pytest.mark.parametrize("a2", [F(1, 3), F(2)])
def test_symmetry_residual_is_oriented(a2):
    # reversing r23 and r34 keeps every axis as a line, which the half-turn
    # still swaps, but it must send F_a + r_a to F_b - r_b; a moved anchor
    # fails as well
    pose = frame(validate(F(1, 2), a2, F(1)), F(9, 10))
    assert symmetry_residual(_with_axes(pose, {})) == 0
    flipped = {label: Axis(label, pose.axes[label].point,
                           v_scale(-1, pose.axes[label].direction))
               for label in ((2, 3), (3, 4))}
    axis = pose.axes[(3, 4)]
    moved = Axis(axis.label, v_add(axis.point, (0, 0, F(1, 10))),
                 axis.direction)
    for axes in (flipped, {(3, 4): moved}):
        assert symmetry_residual(_with_axes(pose, axes)) > 0


_POINT = st.tuples(_NONZERO, _NONZERO, _NONZERO)


@_KERNEL_SETTINGS
@given(_POINT, _POINT, st.lists(_POINT, min_size=1, max_size=4),
       st.integers(0, 3))
def test_half_turn_residual_reads_half_turn_images(point, line, points, i):
    # the images are over n; the points and the line go over n as well
    ints, den = clear_denominators([v_scale(2, point), line])
    images, _, n = HalfTurn(tuple(ints), den).images(points, [], 1)
    points = [v_scale(n, p) for p in points]
    through = v_scale(2 * n, point)
    residual = half_turn_residual(through, line, list(zip(points, images)), n)
    assert residual == 0 and type(residual) is Fraction
    # a move along the line leaves the cross products at 0, a move across
    # it may leave the dot product at 0
    i %= len(points)
    for step in (line, (0, 0, F(1, 7))):
        moved = images[:i] + [v_add(images[i], step)] + images[i + 1:]
        assert half_turn_residual(through, line, list(zip(points, moved)),
                                  n) > 0


def test_symmetry_line_rejects_a_segment_and_an_underflow():
    with pytest.raises(DegenerateQuadError, match="segment"):
        symmetry_line([(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 0, 0)])
    # the direction's coordinates are about 1e-200, their squares underflow
    tiny = [tuple(float(c) * 1e-200 for c in p)
            for p in _tips(frame(DESIGN, F(9, 10)))]
    with pytest.raises(DegenerateQuadError, match="underflows"):
        symmetry_line(tiny)


# ---------------------------------------------------------------------------
# the reference: the DH chain multiplied out as 4x4 matrices, in the
# convention of column vectors (w, x, y, z)
# ---------------------------------------------------------------------------

IDENTITY = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def _cos_sin(t):
    """Cosine and sine of the angle with half-tangent t, exact for ints."""
    den = 1 + t * t
    return div(1 - t * t, den), div(2 * t, den)


def rot_about_x(t):
    """Joint rotation through the angle with half-tangent t."""
    c, s = _cos_sin(t)
    return ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, c, s), (0, 0, -s, c))


def _link_matrix(link):
    """Link transform: the twist with cosine c and sine s, then the offset."""
    c, s, off = link
    return ((1, 0, 0, 0), (0, c, -s, 0), (0, s, c, 0), (off, 0, 0, 1))


def dh_chain(design, tau):
    """Axis transforms (M12, M23, M34) relative to the frame fixed on axis
    (1,4), for a BennettDesign or a PlanarDesign."""
    t12 = div(design.transmission(), tau)
    link1, link2 = (_link_matrix(link) for link in design.links())
    m23 = mat_mul(mat_mul(link1, rot_about_x(t12)), link2)
    m34 = mat_mul(mat_mul(m23, rot_about_x(tau)), link1)
    return link1, m23, m34


planar_chain = dh_chain


def _max_abs_diff(a, b):
    return max(abs(a[i][j] - b[i][j]) for i in range(4) for j in range(4))


# ---------------------------------------------------------------------------
# the two-column pose kernel against the full matrix chain
# ---------------------------------------------------------------------------

def _chain_values(mats):
    """Point and direction entries of (identity, M12, M23, M34), flattened."""
    return [x for m in (IDENTITY,) + tuple(mats)
            for x in (m[1][0], m[2][0], m[3][0], m[1][1], m[2][1], m[3][1])]


def _pose_values(pose):
    return [x for label in AXIS_LABELS
            for x in pose.axes[label].point + pose.axes[label].direction]


def _typed(values):
    return [(type(x), x) for x in values]


def _exact_views(values, chain):
    """Whether the pose ``values`` are the ``chain`` values as Fractions."""
    return values == chain and all(type(x) is Fraction for x in values)


def _close(values, reference):
    return all(abs(x - y) <= 1e-12 for x, y in zip(values, reference))


@_KERNEL_SETTINGS
@given(_POSITIVE, _POSITIVE, _SCALE, _NONZERO)
def test_frame_matches_dh_chain(a1, a2, k, tau):
    assume(a1 != a2)
    design = BennettDesign(a1, a2, k)
    assert _exact_views(_pose_values(frame(design, tau)),
                        _chain_values(dh_chain(design, tau)))
    fdesign = BennettDesign(float(a1), float(a2), float(k))
    assert _close(_pose_values(frame(fdesign, float(tau))),
                  _chain_values(dh_chain(fdesign, float(tau))))


@_KERNEL_SETTINGS
@given(_POSITIVE, _POSITIVE, st.sampled_from(PLANAR_CASES), _NONZERO)
def test_planar_frame_matches_planar_chain(d1, d2, case, tau):
    assume(d1 != d2)
    pd = PlanarDesign(d1, d2, case)
    assert _exact_views(_pose_values(planar_frame(pd, tau)),
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
    (_, _, d1), (_, _, d2) = bennett.links()
    assert bennett.transmission() == 3
    assert (d1, d2) == (F(4, 5), 1)
    assert PlanarDesign(2, 1, "1a").transmission() == -3
    for value in (bennett.transmission(), d1, d2,
                  PlanarDesign(2, 1, "2a").transmission()):
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


# ---------------------------------------------------------------------------
# the closure residual against the full matrix chain
# ---------------------------------------------------------------------------

def _chain_closure_residual(design, tau):
    """Residual of link1 J(t12) link2 J(t23) link1 J(-t12) link2 J(-t23),
    the eight 4x4 matrices multiplied out."""
    t12 = div(design.transmission(), tau)
    c, s, off = design.links()[1]
    link2 = ((1, 0, 0, 0), (0, c, -s, 0), (0, s, c, 0), (off, 0, 0, 1))
    _, _, m34 = dh_chain(design, tau)
    closed = mat_mul(mat_mul(mat_mul(m34, rot_about_x(-t12)), link2),
                     rot_about_x(-tau))
    return _max_abs_diff(closed, IDENTITY)


@_KERNEL_SETTINGS
@given(_EXACT_POSITIVE, _EXACT_POSITIVE, _SCALE, _EXACT_NONZERO,
       st.sampled_from(PLANAR_CASES))
def test_closure_residual_matches_chain(a1, a2, k, tau, case):
    assume(a1 != a2)
    for design in (BennettDesign(a1, a2, k), PlanarDesign(a1, a2, case)):
        residual = loop_closure_residual(design, tau)
        assert _typed([residual]) == _typed(
            [_chain_closure_residual(design, tau)])
        assert type(residual) is Fraction
        # float tau, with an exact and with a float design, keeps the chain
        fdesign = type(design)(*(float(v) if is_exact(v) else v
                                 for v in design))
        for d in (design, fdesign):
            assert repr(loop_closure_residual(d, float(tau))) == repr(
                _chain_closure_residual(d, float(tau)))


def _fresh(design):
    """Links and transmission recomputed from the fields of ``design``."""
    return ((_bennett_link(design.a1, design.k),
             _bennett_link(design.a2, design.k)),
            div(design.a1 + design.a2, design.a1 - design.a2))


def _typed_links(links):
    return [_typed(link) for link in links]


@_KERNEL_SETTINGS
@given(_EXACT_POSITIVE, _EXACT_POSITIVE, _SCALE, st.booleans(),
       _EXACT_POSITIVE)
def test_links_are_built_once_per_design(a1, a2, k, floats, moved_a1):
    # exact or float, a design's links and transmission are those of its
    # fields, built on the first read and returned as they are after it; a
    # design made by replace builds its own from its own fields
    assume(a1 != a2 and moved_a1 != a2)
    conv = float if floats else (lambda v: v)
    design = BennettDesign(conv(a1), conv(a2), conv(k))
    links, transmission = _fresh(design)
    assert _typed_links(design.links()) == _typed_links(links)
    assert _typed([design.transmission()]) == _typed([transmission])
    assert design.links() is design.links()
    moved = design._replace(a1=conv(moved_a1))
    links, transmission = _fresh(moved)
    assert _typed_links(moved.links()) == _typed_links(links)
    assert _typed([moved.transmission()]) == _typed([transmission])
    assert moved.links() is not design.links()


def _kernel_values(design, tau):
    """The pose and closure residual of ``design`` at tau, each value with
    its type by repr (a float overflow's nan then equals itself)."""
    pose = frame(design, tau)
    return [(type(x), repr(x))
            for x in [x for v in pose.points + pose.directions for x in v]
            + [pose.den, loop_closure_residual(design, tau)]]


@_KERNEL_SETTINGS
@given(_EXACT_POSITIVE, _EXACT_POSITIVE, _SCALE, st.sampled_from(PLANAR_CASES),
       st.tuples(_EXACT_NONZERO, st.floats(-8, 8).filter(bool),
                 _EXACT_NONZERO), _EXACT_POSITIVE)
def test_kernel_reads_of_one_design_match_a_fresh_design(a1, a2, k, case,
                                                        taus, moved_a1):
    # exact tau, float tau (on an exact design, the mixed bar pose), then
    # exact tau again, and float tau first on a second design: one
    # design's poses and residuals are those of a fresh design, by value and
    # type, for Bennett and planar designs, exact and float, K and tau of
    # either sign (a1 < a2 makes K negative), and for a design made by
    # replace after the first was posed
    assume(a1 != a2 and moved_a1 != a2)
    designs = [BennettDesign(a1, a2, k), PlanarDesign(a1, a2, case)]
    designs += [type(d)(*(float(v) if is_exact(v) else v for v in d))
                for d in designs]
    for design, start in ((d, i) for d in designs for i in (0, 1)):
        design = design._replace()
        for tau in taus[start:] + taus[:start]:
            assert _kernel_values(design, tau) == _kernel_values(
                design._replace(), tau)
        # a float tau makes the chain inexact, each factor over h = 1
        assert frame(design, taus[1]).den == 1
    _kernel_values(designs[0], taus[0])
    moved = designs[0]._replace(a1=moved_a1)
    for tau in taus:
        assert _kernel_values(moved, tau) == _kernel_values(moved._replace(),
                                                            tau)


@pytest.mark.parametrize("design", (
    BennettDesign(F(1, 3), F(1, 2), F(1)), BennettDesign(3, 1, 2),
    PlanarDesign(F(2), F(3, 2), "2b"), PlanarDesign(2, 5, "1a")))
@pytest.mark.parametrize("tau", (F(-6, 35), F(10, 21), -4, 3, F(-2, 9)))
def test_exact_t12_is_the_reduced_fraction(monkeypatch, design, tau):
    # K / tau from the integer ratios, reduced by one gcd, is the (p, q) of
    # the Fraction K / tau, its sign in p, and gives that joint factor; K is
    # -5, 2, -1 and 7/3 here, tau cancels against it or not
    design.links()  # built before the spy, once per design
    half_tangents = []

    def rotation(t, exact):
        half_tangents.append(t.as_integer_ratio())
        return _rotation(t, exact)

    monkeypatch.setattr(bennett, "_rotation", rotation)
    (_, j12), _, (_, j23) = _kernel_factors(design, tau)[1:]
    t12 = div(design.transmission(), tau)
    assert half_tangents == [t12.as_integer_ratio(), tau.as_integer_ratio()]
    p, q = t12.as_integer_ratio()
    assert j12 == (q * q - p * p, 2 * p * q, q * q + p * p)
    assert all(type(x) is int for x in j12 + j23)
