"""Unit tests for the coupling families and the necessary-condition oracle."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bibennett.algebra import (
    TOL,
    clear_denominators,
    coordinates,
    div,
    is_exact,
    to_floats,
    v_add,
    v_dot,
    v_norm_sq,
    v_scale,
    v_sub,
)
from bibennett.bennett import (
    AXIS_LABELS,
    PLANAR_CASES,
    Axis,
    BennettDesign,
    DegenerateQuadError,
    PlanarDesign,
    validate,
)
from bibennett.families import (
    BiBennett,
    DegenerateCouplingError,
    ExcludedBranchError,
    HalfTurn,
    Loop,
    MuSet,
    NoRealBranchError,
    NoRealFamilyError,
    SkewQuad,
    ZeroOffsetError,
    _dot,
    _fma,
    _side_sq,
    align_isometry,
    bar_tau_squared,
    coupled_pose,
    coupling_quartic,
    detect_trivial,
    diagonal_rational,
    family_a,
    family_b,
    family_c,
    make_family_a,
    make_family_b,
    make_trivial,
    necessary_conditions,
    planar_bar_tau,
    solve_bar_tau,
)
from bibennett.limits import (
    label_check,
    prismatic_limit_AB,
    prismatic_limit_C,
    pyramidal_limit,
)

F = Fraction
DESIGN = validate(F(1, 2), F(1, 3), F(1))


def test_family_a_reference_design():
    mu = MuSet(F(37, 40), F(7, 8), F(1), F(1, 2))
    assert family_a(mu) == (F(1, 2), F(1, 3))


def test_family_a_no_real_solution():
    with pytest.raises(NoRealFamilyError):
        family_a(MuSet(F(1), F(1, 2), F(1, 3), F(1, 4)))
    # a vanishing sum combination lands on an excluded solved branch
    with pytest.raises(ExcludedBranchError):
        family_a(MuSet(F(1), F(2), F(3), F(4)))


def test_family_b_offsets():
    mu = family_b(F(2, 3), F(1, 2))
    assert mu.mu23 == F(2, 3) and mu.mu34 == F(1, 2)
    bib = make_family_b(F(2, 3), F(1, 2), DESIGN)
    # the two isogram side conditions hold exactly along the motion
    for tau in (F(1, 2), F(9, 10), F(3)):
        quad = bib.loop().quad(tau)
        s = quad.side_sq()
        assert s[0] == s[2] and s[1] == s[3]


def test_trivial_detection():
    assert detect_trivial(MuSet(F(-2, 3), F(-1, 2), F(2, 3), F(1, 2)))
    assert not detect_trivial(MuSet(F(2, 3), F(1, 2), F(2, 3), F(1, 2)))
    bib = make_trivial(F(2, 3), F(1, 2), DESIGN)
    assert bib.family == "TrivialLineSym"


def test_family_quad_sides_rigid_exactly():
    # The four anchor side lengths are motion invariants; the diagonals of
    # the anchor quad change with the drive, and the coupling instead keeps
    # the two tubes' quads congruent (checked in test_cross_quad_congruence).
    instances = [
        make_family_a(MuSet(F(37, 40), F(7, 8), F(1), F(1, 2))),
        make_family_b(F(2, 3), F(1, 2), DESIGN),
        family_c(DESIGN, F(2, 3), F(1, 4), 1, -1),
    ]
    taus = [F(1, 3), F(1, 2), F(9, 10), F(2), F(-5, 4)]
    for bib in instances:
        base = None
        for tau in taus:
            sides = bib.loop().quad(tau).side_sq()
            if base is None:
                base = sides
            assert sides == base


def test_cross_quad_congruence():
    bib = family_c(DESIGN, F(2, 3), F(1, 4), 1, -1)
    for tau in (F(1, 2), F(9, 10), F(2)):
        cp = coupled_pose(bib, tau)
        own = cp.quad.side_sq() + cp.quad.diag_sq()
        bar = cp.bar_quad.side_sq() + cp.bar_quad.diag_sq()
        for a, b in zip(own, bar):
            assert abs(float(a) - float(b)) < 1e-10 * (1 + abs(float(a)))


def test_family_c_companion_squared_reference():
    q = coupling_quartic(DESIGN, F(2, 3), F(1, 4))
    assert bar_tau_squared(q, F(9, 10)) == F(546307, 357245)
    value = -math.sqrt(195165444215) / 357245
    roots = solve_bar_tau(q, F(9, 10))
    assert min(abs(r - value) for r in roots) < 1e-12


def test_family_c_zero_offset_companion():
    design = validate(F(1, 2), F(1, 3), F(0))
    q = coupling_quartic(design, F(2, 3), F(1, 2))
    assert bar_tau_squared(q, F(3, 4)) == F(6319, 3281)


def test_coupled_pose_branch_sign():
    bib = family_c(DESIGN, F(2, 3), F(1, 4), 1, branch=-1)
    cp = coupled_pose(bib, F(9, 10))
    assert cp.tau_bar < 0
    assert abs(cp.tau_bar + 1.23662) < 1e-4
    plus = coupled_pose(family_c(DESIGN, F(2, 3), F(1, 4), 1, branch=1),
                        F(9, 10))
    assert plus.tau_bar > 0


def test_planar_companion_reference():
    anti = prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1, 1)
    roots = planar_bar_tau(anti, F(3, 4))
    assert F(3, 4) in roots
    para = prismatic_limit_C("para", F(2, 3), F(3, 4), F(1, 3), F(1, 2), 1,
                             branch=-1)
    value = -math.sqrt(15281) / 413
    roots = planar_bar_tau(para, F(3, 4))
    assert min(abs(float(r) - value) for r in roots) < 1e-10


def test_align_isometry_roundtrip():
    bib = family_c(DESIGN, F(2, 3), F(1, 4), 1, -1)
    cp = coupled_pose(bib, F(9, 10))
    delta = cp.delta
    for label in ((1, 4), (1, 2), (2, 3), (3, 4)):
        (image,), _, _ = delta.images([cp.bar_quad[label]], [], 1)
        assert max(abs(float(a) - float(b))
                   for a, b in zip(image, cp.quad[label])) < 1e-12


def _mirror(quad):
    return SkewQuad(tuple((x, y, -z) for x, y, z in quad.vertices()), 1)


def test_align_isometry_reverses_onto_a_mirror_image():
    bib = family_c(DESIGN, F(2, 3), F(1, 4), 1, -1)
    bar_quad = coupled_pose(bib, F(9, 10)).bar_quad
    mirror = _mirror(bar_quad)
    motion = align_isometry(bar_quad, mirror)
    assert motion.orientation == -1
    for label in AXIS_LABELS:
        image = motion.apply_point(tuple(map(float, bar_quad[label])))
        assert math.dist(image, mirror[label]) <= 10 * TOL
    # a pair below the flatness gate aligns directly, though mirrored
    flat = SkewQuad(((0, 0, 0), (1, 0, 0), (1, 1, 1e-12), (0, 1, 0)), 1)
    assert flat.orientation_det() * _mirror(flat).orientation_det() < 0
    assert align_isometry(flat, _mirror(flat)).orientation == 1


def _rounded_once(a, b, c):
    """a * b + c of finite floats, exact through Fractions and rounded once
    to the nearest float (ties to even), +-inf past the largest float; with
    a zero factor the product is an exact signed zero."""
    if a == 0 or b == 0:
        return a * b + c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if abs(exact) >= 2 ** 1024 - 2 ** 970:
        return math.inf if exact > 0 else -math.inf
    return float(exact)


_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)


@given(_DOUBLES, _DOUBLES, _DOUBLES)
@example(1 + 2.0 ** -30, 1 - 2.0 ** -30, -1.0)  # split halves: -2**-60
@example(2.0 ** 1000, 2.0 ** 23, -(2.0 ** 1023))  # exact path: +0.0
@example(2.0 ** 512, 2.0 ** 512, -1.7976931348623157e308)  # 2**971
@example(-(2.0 ** 1000), 2.0 ** 30, 0.0)  # overflows: -inf
@example(2.0 ** -1074, 1.5, 0.0)  # a subnormal tie, to even: 2**-1073
# a product near 2**-1031, whose split would lose a product of halves
@example(4.779289230309717e-163, 6.604517221849312e-151, 0.0)
@example(2.0 ** -1074, -0.5, 0.0)  # underflows to -0.0
@example(-0.0, 1.0, -0.0)  # -0.0
@example(0.0, -1.0, 0.0)  # +0.0
def test_fma_rounds_once(a, b, c):
    assert (struct.pack("<d", _fma(a, b, c))
            == struct.pack("<d", _rounded_once(a, b, c)))


def test_fma_keeps_a_non_finite_addend():
    # 2**600 * 2**600 overflows as a float product but is finite exactly,
    # so the fused result is the addend itself
    assert _fma(2.0 ** 600, 2.0 ** 600, -math.inf) == -math.inf
    assert math.isnan(_fma(2.0 ** 600, 2.0 ** 600, math.nan))
    assert math.isnan(_fma(math.inf, 0.0, 1.0))


# Bits of numpy 2.4.6 on OpenBLAS 0.3.31's FMA (Haswell) kernel, where the
# plain products and left-to-right sums round otherwise.
def test_dot_is_the_fused_chain():
    a, b = (0.3, 0.2, -0.3), (0.2, -0.9, -0.9)
    assert a[0] * b[0] + a[1] * b[1] + a[2] * b[2] == 0.15
    assert _dot(a, b) == 0.14999999999999997


def test_alignment_maps_with_the_fused_rotation_product():
    # dst = R src + t for the rotation of the quaternion (1, 1, -1, 2),
    # over 7; the plain R p would give -3.0000000000000013 in t
    src = SkewQuad(((-5, -1, -5), (-4, -4, 4), (3, -5, -2), (1, -1, 4)), 1)
    dst = SkewQuad(((-24, 22, -54), (21, 7, -7), (-38, -20, -5),
                    (12, -32, -15)), 7)
    motion = align_isometry(src, dst)
    assert motion.rotation == (
        (-0.42857142857142855, 0.2857142857142858, 0.8571428571428573),
        (-0.8571428571428572, -0.4285714285714286, -0.2857142857142857),
        (0.28571428571428564, -0.8571428571428572, 0.42857142857142866))
    assert motion.translation == (-0.9999999999999987, -3.0000000000000004,
                                  -5.0)


def test_alignment_of_a_quad_without_a_first_edge_raises():
    # P12 = P14, or a first edge whose squared length underflows to 0, once
    # gave a RigidMotion of NaNs
    for p12 in ((0, 0, 0), (1e-170, 0, 0)):
        src = SkewQuad(((0, 0, 0), p12, (1, 2, 0.5), (0.3, 1, 2)), 1)
        dst = SkewQuad(tuple((x + 1, y, z) for x, y, z in src.points), 1)
        with pytest.raises(DegenerateQuadError, match="collinear"):
            align_isometry(src, dst)


def test_necessary_conditions_vanish_for_families():
    couplings = [
        make_family_a(MuSet(F(37, 40), F(7, 8), F(1), F(1, 2))),
        make_family_b(F(2, 3), F(1, 2), DESIGN),
        family_c(DESIGN, F(2, 3), F(1, 4), 1, -1),
    ]
    for bib in couplings:
        report = necessary_conditions(bib.loop(), bib.bar_loop())
        assert not any(report.side_residuals + report.resultant_coeffs)
        assert report.degenerate_resultant


def test_necessary_conditions_reject_perturbation():
    mu = MuSet(F(2, 3), F(1, 4), F(2, 3), F(1, 4))
    bad_bar = MuSet(F(1, 4), F(2, 3) + F(1, 100), F(1, 4), F(2, 3))
    loop = Loop(DESIGN, mu)
    bar = Loop(DESIGN, bad_bar)
    report = necessary_conditions(loop, bar)
    assert any(report.side_residuals + report.resultant_coeffs)


@pytest.mark.parametrize("fields", [(0.5, 0.25, 1.0), (0.5, 0.75, "2a")])
def test_a_float_design_read_before_goes_through_the_oracle(fields):
    # the oracle rationalises a design by its record fields: the links
    # and transmission a design keeps once read are not parameters
    kind = PlanarDesign if "2a" in fields else BennettDesign
    mu, bar_mu = MuSet(0.5, 0.25, 0.75, -1.5), MuSet(0.25, 0.5, -1.5, 0.75)
    read, fresh = kind(*fields), kind(*fields)
    read.links(), read.transmission()
    report = necessary_conditions(Loop(read, mu), Loop(read, bar_mu))
    assert report == necessary_conditions(Loop(fresh, mu), Loop(fresh, bar_mu))
    exact = kind(*(v if isinstance(v, str) else F(v) for v in fields))
    assert report == necessary_conditions(
        Loop(exact, MuSet(*map(F, mu.as_tuple()))),
        Loop(exact, MuSet(*map(F, bar_mu.as_tuple()))))


@pytest.mark.parametrize("conv", [F, float])
@pytest.mark.parametrize("k", [F(1), F(0)])
def test_family_c_rejects_zero_offsets_on_bennett_designs(k, conv):
    # a zero offset puts two quad vertices on their anchors: mu12 = 0 made
    # the half-turn certificate divide by zero, mu14 = 0 left its alignment
    # without a frame
    design = validate(F(1, 2), F(1, 3), conv(k))
    for mu14, mu12 in ((F(0), F(1, 4)), (F(2, 3), F(0))):
        with pytest.raises(ZeroOffsetError):
            family_c(design, conv(mu14), conv(mu12), 1, -1)
    # the prismatic limit certifies its labels with a zero offset
    bib = family_c(PlanarDesign(F(1, 2), F(1), "2a"), F(0), F(1, 4), 1, -1)
    assert bib.mu.mu14 == 0


@pytest.mark.parametrize("conv", [F, float])
@pytest.mark.parametrize("mu12", [F(2, 3), F(-2, 3)])
@pytest.mark.parametrize("design", [DESIGN, validate(F(1, 2), F(1, 3), F(0)),
                                    PlanarDesign(F(1, 2), F(1, 3), "2a")])
def test_family_c_rejects_equal_offset_squares(design, mu12, conv):
    # dm = mu14^2 - mu12^2 = 0 degenerates the coupling relation to
    # tau_bar = +-tau, with offsets in the family-B pattern
    for s in (1, -1):
        with pytest.raises(DegenerateCouplingError):
            family_c(design, conv(F(2, 3)), conv(mu12), s, -1)

# ---------------------------------------------------------------------------
# the companion solvers return root sets closed under negation
# ---------------------------------------------------------------------------

_POSITIVE = st.builds(F, st.integers(1, 30), st.integers(1, 20))
_NONZERO = st.builds(F, st.integers(-30, 30).filter(bool), st.integers(1, 20))
_SIGN = st.sampled_from((-1, 1))
_ROOT_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _closed_under_negation(roots):
    return sorted(roots) == sorted(-r for r in roots)


@_ROOT_SETTINGS
@given(_POSITIVE, _POSITIVE, st.one_of(st.just(F(0)), _POSITIVE),
       _POSITIVE, _POSITIVE, _NONZERO)
def test_bennett_companion_roots_closed_under_negation(a1, a2, k, mu14, mu12,
                                                       tau):
    assume(a1 != a2)
    q = coupling_quartic(validate(a1, a2, k), mu14, mu12)
    assume(q.a * tau * tau + q.c != 0)
    assert _closed_under_negation(solve_bar_tau(q, tau))


@_ROOT_SETTINGS
@given(st.sampled_from(("anti", "para")), _POSITIVE, _POSITIVE, _POSITIVE,
       _POSITIVE, _SIGN, _SIGN, _NONZERO)
def test_prismatic_companion_roots_closed_under_negation(case, d1, d2, mu14,
                                                         mu12, s, branch, tau):
    assume(d1 != d2)
    if mu14 * mu14 == mu12 * mu12:
        with pytest.raises(DegenerateCouplingError):
            prismatic_limit_C(case, d1, d2, mu14, mu12, s, branch)
        return
    bib = prismatic_limit_C(case, d1, d2, mu14, mu12, s, branch)
    # the squared diagonals of a planar quad are even in the drive value,
    # which is why the roots pair up
    for which in (0, 1):
        num, den = diagonal_rational(bib.bar_loop(), which)
        assert num[1] == den[1] == 0
    assert _closed_under_negation(planar_bar_tau(bib, tau))


@_ROOT_SETTINGS
@given(st.sampled_from(PLANAR_CASES), _POSITIVE, _POSITIVE, _NONZERO,
       _NONZERO, _SIGN, _SIGN, _NONZERO, st.booleans())
def test_planar_companion_satisfies_link_quartic(case, d1, d2, mu14, mu12, s,
                                                 branch, tau, floating):
    # (dm e) t^2 b^2 + (dm e + 2 d1 d2) t^2 + (dm e - 2 d1 d2) b^2 + dm e = 0
    # with e = 1 - c1 c2 from the pinned twists and dm = mu14^2 - mu12^2
    assume(d1 != d2 or case in ("1b", "2b"))  # a rhombus is a pole of 1a, 2a
    conv = float if floating else F
    design = PlanarDesign(conv(d1), conv(d2), case)
    if mu14 * mu14 == mu12 * mu12:
        with pytest.raises(DegenerateCouplingError):
            family_c(design, conv(mu14), conv(mu12), s, branch)
        return
    bib = family_c(design, conv(mu14), conv(mu12), s, branch)
    try:
        b = coupled_pose(bib, conv(tau)).tau_bar
    except NoRealBranchError:
        assume(False)
    (c1, _, _), (c2, _, _) = design.links()
    e = 1 - c1 * c2
    dm = bib.mu.mu14 ** 2 - bib.mu.mu12 ** 2
    dd = 2 * design.d1 * design.d2
    t = conv(tau)
    terms = (dm * e * t * t * b * b, (dm * e + dd) * t * t,
             (dm * e - dd) * b * b, dm * e)
    if is_exact(b):
        assert sum(terms) == 0
    else:
        assert abs(sum(terms)) <= 1e-12 * sum(abs(x) for x in terms)


def _bennett_design(a1, a2, k):
    assume(a1 != a2)
    return validate(a1, a2, k)


def _planar_design(case, d1, d2):
    assume(d1 != d2 or case in ("1b", "2b"))  # a rhombus is a pole of 1a, 2a
    return PlanarDesign(d1, d2, case)


_DESIGNS = st.one_of(
    st.builds(_bennett_design, _POSITIVE, _POSITIVE,
              st.one_of(st.just(F(0)), _POSITIVE)),
    st.builds(_planar_design, st.sampled_from(PLANAR_CASES), _POSITIVE,
              _POSITIVE),
)
_OFFSETS = st.builds(MuSet, *[st.builds(F, st.integers(-30, 30),
                                        st.integers(1, 20))] * 4)


def _converted(loop, conv):
    """The loop with every scalar parameter passed through conv."""
    scalars = {name: conv(v) for name, v in loop.design._asdict().items()
               if not isinstance(v, str)}  # PlanarDesign.case is a label
    return Loop(loop.design._replace(**scalars),
                MuSet(*map(conv, loop.mu.as_tuple())))


def _value(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_DESIGNS, _OFFSETS, _NONZERO, st.sampled_from((0, 1)))
def test_diagonal_rational_is_the_squared_diagonal(design, mu, tau, which):
    loop = Loop(design, mu)
    num, den = diagonal_rational(loop, which)
    assert all(type(c) is F for c in num + den)
    kk = design.transmission()
    assert den == ([kk * kk, 0, 1] if which == 0 else [1, 0, 1])
    assert _value(num, tau) / _value(den, tau) == \
        loop.quad(tau).diag_sq()[which]
    # the oracle's sides, one link each, are the posed ones at every tau
    posed = loop.quad(tau).side_sq()
    assert [(type(x), x) for x in _side_sq(loop)] == \
        [(type(x), x) for x in posed]
    # float parameters give the coefficients of the rationals they hold
    floating = _converted(loop, float)
    coeffs = diagonal_rational(floating, which)
    assert all(type(c) is F for c in coeffs[0] + coeffs[1])
    assert coeffs == diagonal_rational(_converted(floating, F), which)


def _couplings(conv):
    """A coupling of each family, the trivial branch and each kind of limit,
    its scalars converted by ``conv``."""
    design = validate(conv(F(1, 2)), conv(F(1, 3)), conv(F(1)))
    apex = validate(conv(F(1, 2)), conv(F(1, 3)), conv(F(0)))
    return [
        make_family_a(MuSet(*map(conv, (F(37, 40), F(7, 8), F(1), F(1, 2))))),
        make_family_b(conv(F(2, 3)), conv(F(1, 2)), design),
        family_c(design, conv(F(2, 3)), conv(F(1, 4)), 1, -1),
        make_trivial(conv(F(2, 3)), conv(F(1, 2)), design),
        prismatic_limit_AB("A", "anti", conv(F(1, 2)), conv(F(1, 3)),
                           mu12=conv(F(1)), mu23=conv(F(3, 5)),
                           mu34=conv(F(0))),
        prismatic_limit_C("para", conv(F(2, 3)), conv(F(3, 4)), conv(F(1, 3)),
                          conv(F(1, 2)), 1, -1),
        pyramidal_limit(make_family_b(conv(F(2, 3)), conv(F(1, 2)), apex)),
        pyramidal_limit(family_c(apex, conv(F(2, 3)), conv(F(1, 2)), 1, -1)),
    ]


def _typed_axes(axes):
    return {label: [(type(x), x) for x in (*ax.point, *ax.direction)]
            for label, ax in axes.items()}


@pytest.mark.parametrize("conv", (F, float))
def test_hat_axes_on_first_read_equal_the_eager_map(conv):
    for bib in _couplings(conv):
        cp = coupled_pose(bib, conv(F(3, 4)))
        eager = {}
        for label, ax in cp.bar_pose.axes.items():
            (point,), (direction,), den = cp.delta.images(
                [ax.point], [ax.direction], 1)
            eager[label] = Axis(label, coordinates(point, den),
                                coordinates(direction, den))
        assert "hat_pose" not in vars(cp)
        assert _typed_axes(cp.hat_axes) == _typed_axes(eager), bib.family
        assert cp.hat_axes is cp.hat_axes


# ---------------------------------------------------------------------------
# the half-turn against its spelled-out formulas
# ---------------------------------------------------------------------------

def _reference_half_turn(points, directions, b, l):
    """The half-turn about the line through b along l, spelled out: a point
    p goes to 2 b + 2 c l - p with c = (p - b).l / |l|^2, a direction r to
    2 c l - r with c = r.l / |l|^2.  Input without a float is read as
    Fractions; float input runs as it is."""
    groups = [points, directions, [b], [l]]
    if all(is_exact(x) for vs in groups for v in vs for x in v):
        groups = [[tuple(map(F, v)) for v in vs] for vs in groups]
    points, directions, (b,), (l,) = groups
    ns = v_norm_sq(l)
    images = []
    for p in points:
        coef = v_dot(v_sub(p, b), l) / ns
        images.append(v_sub(v_add(v_scale(2, b), v_scale(2 * coef, l)), p))
    for r in directions:
        coef = v_dot(r, l) / ns
        images.append(v_sub(v_scale(2 * coef, l), r))
    return images


def _typed_bits(vectors):
    """Each coordinate as its bits (a float) or its type and value."""
    return [[x.hex() if isinstance(x, float) else (type(x), x) for x in v]
            for v in vectors]


_COORD = st.one_of(st.integers(-9, 9),
                   st.builds(F, st.integers(-30, 30), st.integers(1, 12)))
_VECTOR = st.tuples(_COORD, _COORD, _COORD)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_VECTOR, max_size=4), st.lists(_VECTOR, max_size=4), _VECTOR,
       _VECTOR.filter(any))
def test_half_turn_images_follow_the_formulas(points, directions, b, l):
    # ints and Fractions give the formulas' Fractions; their floats give the
    # formulas' floats, bit for bit; the line goes over one denominator
    for conv in (lambda x: x, float):
        args = [[tuple(map(conv, v)) for v in vs]
                for vs in (points, directions, [b], [l])]
        line, den = clear_denominators([v_scale(2, args[2][0]), args[3][0]])
        *images, n = HalfTurn(tuple(line), den).images(args[0], args[1], 1)
        got = [tuple(div(x, n) for x in v) for v in images[0] + images[1]]
        assert _typed_bits(got) == _typed_bits(
            _reference_half_turn(args[0], args[1], args[2][0], args[3][0]))


def test_bibennett_rejects_an_unknown_family_and_branch():
    mu = MuSet(F(2, 3), F(1, 4), F(2, 3), F(1, 4))
    assert BiBennett("C", DESIGN, mu, mu, frozenset(), 1).branch == 1
    with pytest.raises(ValueError, match="unknown family"):
        BiBennett("D", DESIGN, mu, mu, frozenset())
    for branch in (0, 2, -2):
        with pytest.raises(ValueError, match="branch"):
            BiBennett("C", DESIGN, mu, mu, frozenset(), branch)


def test_family_c_rejects_a_sign_other_than_plus_or_minus_one():
    for s in (0, 2, -2):
        with pytest.raises(ValueError, match="s must be"):
            family_c(DESIGN, F(2, 3), F(1, 4), s, -1)


def test_half_turn_line_mixing_ints_and_floats_is_rejected():
    HalfTurn(((2, 0, 0), (1, 2, 0)), 3)
    HalfTurn(((2.0, 0.0, 0.0), (0.5, 1.0, 0.0)), 1)
    for line in (((2, 0, 0), (0.5, 1.0, 0.0)),
                 ((2.0, 0, 0.0), (0.5, 1.0, 0.0))):
        with pytest.raises(ValueError, match="line"):
            HalfTurn(line, 1)


def test_half_turn_line_is_ints_over_an_int_den_or_floats():
    # a Fraction line gave images a Fraction denominator, on which
    # label_check's one_denominator raised TypeError in math.lcm
    bib = pyramidal_limit(make_family_b(F(2, 3), F(1, 2),
                                        validate(F(1, 2), F(1, 3), 0)))
    cp = coupled_pose(bib, F(3, 4))
    assert label_check(cp, TOL).verdict
    line, den = cp.delta.line, cp.delta.den
    with pytest.raises(ValueError, match="line"):
        label_check(cp._replace(delta=HalfTurn(
            tuple(coordinates(v, den) for v in line), 1)), TOL)
    for bad_den in (F(den), float(den)):
        with pytest.raises(ValueError, match="line"):
            HalfTurn(line, bad_den)
    floats = HalfTurn(tuple(to_floats(v, den) for v in line), 1)
    assert label_check(cp._replace(delta=floats), TOL).verdict


@pytest.mark.parametrize("conv", (F, float))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(_POSITIVE, _POSITIVE, st.sampled_from((F(0), 0, F(1, 2), F(3))),
       _POSITIVE, _POSITIVE, st.builds(F, st.integers(1, 40),
                                       st.integers(1, 12)), st.booleans())
def test_hat_axes_follow_the_half_turn_formulas(conv, a1, a2, k, mu1, mu2,
                                                tau, parallelogram):
    # family B at scale k, k = 0 included, or a prismatic family-A limit
    # whose quad is a parallelogram, turning about the normal of its plane
    if parallelogram:
        bib = prismatic_limit_AB("A", "para", conv(a1), conv(a2),
                                 mu12=conv(mu1), mu23=conv(mu2),
                                 mu34=conv(k))
    else:
        assume(a1 != a2)
        bib = make_family_b(conv(mu1), conv(mu2),
                            validate(conv(a1), conv(a2), conv(k)))
    cp = coupled_pose(bib, conv(tau))
    axes = list(cp.bar_pose.axes.values())
    through, direction = cp.delta.line
    point = tuple(div(x, 2 * cp.delta.den) for x in through)
    want = _reference_half_turn([ax.point for ax in axes],
                                [ax.direction for ax in axes],
                                point, direction)
    got = [*(ax.point for ax in cp.hat_axes.values()),
           *(ax.direction for ax in cp.hat_axes.values())]
    assert _typed_bits(got) == _typed_bits(want)
