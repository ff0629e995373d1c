"""Unit tests for the vertex and coupling certificates."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bibennett.algebra import (
    TOL,
    DegenerateResultantError,
    resultant_tau_bar,
    v_add,
    v_dot,
    v_norm_sq,
    v_sub,
)
from bibennett.bennett import (
    AXIS_LABELS,
    PLANAR_CASES,
    Axis,
    BennettDesign,
    DegenerateDesignError,
    PlanarDesign,
    PoleError,
    frame,
    validate,
)
from bibennett.families import (
    BiBennett,
    CoupledPose,
    ExcludedBranchError,
    Loop,
    MuSet,
    NoRealBranchError,
    NoRealFamilyError,
    NotIsometricError,
    SkewQuad,
    TrivialQuadError,
    align_isometry,
    bar_tau_squared,
    coupled_pose,
    coupling_quartic,
    diagonal_rational,
    family_c,
    make_family_a,
    make_family_b,
    make_trivial,
    necessary_conditions,
)
from bibennett.limits import (
    label_check,
    prismatic_limit_AB,
    prismatic_limit_C,
    pyramidal_limit,
    verify_labels,
)
from bibennett.properties import (
    bennett_loop_check,
    deltoidal_certificate,
    deltoidal_check,
    halfturn_certificate,
    halfturn_check,
    isogonal_certificate,
    isogonal_check,
    planar_loop_check,
    trivial_check,
)
from test_bennett import _chain_values, _pose_values, dh_chain

F = Fraction
DESIGN = validate(F(1, 2), F(1, 3), F(1))
FAMILY_A = make_family_a(MuSet(F(37, 40), F(7, 8), F(1), F(1, 2)), k=1)
FAMILY_B = make_family_b(F(2, 3), F(1, 2), DESIGN)
FAMILY_C = family_c(DESIGN, F(2, 3), F(1, 4), 1, -1)


def test_family_a_vertices_isogonal():
    report = isogonal_certificate(FAMILY_A, F(9, 10))
    assert report.verdict, report.lines()


def test_family_a_vertices_not_deltoidal():
    report = deltoidal_certificate(FAMILY_A, F(9, 10))
    assert not report.verdict


def test_family_b_vertices_deltoidal():
    report = deltoidal_certificate(FAMILY_B, F(9, 10))
    assert report.verdict, report.lines()


@pytest.mark.parametrize("scalar", (F, float))
def test_trivial_check_holds_for_the_trivial_pattern_only(scalar):
    # the same parameters with the family-B offsets pose a partner tube that
    # is not the first: the check fails there
    design = validate(scalar(F(1, 3)), scalar(F(1, 2)), scalar(1))
    tau = scalar(F(3, 5))
    trivial = trivial_check(coupled_pose(make_trivial(
        scalar(F(2, 3)), scalar(F(1, 4)), design), tau), TOL)
    family_b = trivial_check(coupled_pose(make_family_b(
        scalar(F(2, 3)), scalar(F(1, 4)), design), tau), TOL)
    assert trivial.verdict, trivial.lines()
    assert not family_b.verdict, family_b.lines()
    if scalar is F:
        assert [r.value for r in trivial.residuals] == [0]
        assert type(trivial.residuals[0].value) is Fraction
        # the largest term is that of F14 + r14 <-> F23 - r23
        assert [r.value for r in family_b.residuals] == [F(33166, 20183)]


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

def _with_axis(pose, axis):
    """``pose`` with ``axis`` in place of its own: a pose built from the
    Fraction coordinates of its axes, over 1."""
    axes = [{**pose.axes, axis.label: axis}[label] for label in AXIS_LABELS]
    return pose._replace(points=tuple(ax.point for ax in axes),
                         directions=tuple(ax.direction for ax in axes), den=1)


def test_bennett_loop_check_rejects_a_moved_axis():
    # a2 = 2 puts the design on a1 a2 = 1, where opposite axes meet
    nudge = (0, 0, F(1, 10))
    for a2, k in itertools.product((F(1, 3), F(2)), (F(1, 3), F(1), F(5))):
        pose = frame(validate(F(1, 2), a2, k), F(9, 10))
        axis = pose.axes[(3, 4)]
        for moved in (Axis(axis.label, v_add(axis.point, nudge),
                           axis.direction),
                      Axis(axis.label, axis.point,
                           v_add(axis.direction, nudge))):
            assert bennett_loop_check(_with_axis(pose, axis), TOL).verdict
            report = bennett_loop_check(_with_axis(pose, moved), TOL)
            assert [r.label for r in report.failed()] == [
                "symmetry half-turn", "regulus"], (a2, k, moved)


def test_bennett_loop_regulus_cannot_fail_at_zero_scale():
    # at k = 0 every axis runs through the apex, and four lines through one
    # point have Pluecker rank at most 3: tilting an axis about the apex
    # keeps the regulus entry at an exact 0, and the half-turn entry fails
    pose = frame(validate(F(1, 2), F(1, 3), F(0)), F(9, 10))
    axis = pose.axes[(3, 4)]
    assert axis.point == (0, 0, 0)
    tilted = Axis(axis.label, axis.point,
                  v_add(axis.direction, (0, 0, F(1, 10))))
    report = bennett_loop_check(_with_axis(pose, tilted), TOL)
    regulus = report.residuals[-1]
    assert regulus.label == "regulus"
    assert regulus.value == 0 and type(regulus.value) is Fraction
    assert [r.label for r in report.failed()] == ["symmetry half-turn"]


@pytest.mark.parametrize("case", PLANAR_CASES)
def test_planar_loop_check_is_exact(case):
    for tau in (F(3, 5), F(-7, 3)):
        pose = frame(PlanarDesign(F(1, 2), F(1), case), tau)
        report = planar_loop_check(pose, TOL)
        assert report.verdict, report.lines()
        assert all(type(r.value) in (int, Fraction) and r.value == 0
                   for r in report.residuals), report.lines()
        # the float loop's int axis coordinates do not make an entry exact
        fpose = frame(PlanarDesign(0.5, 1.0, case), float(tau))
        report = planar_loop_check(fpose, TOL)
        assert report.verdict, report.lines()
        assert all(type(r.value) is float for r in report.residuals)


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
    # component -5.6e-17 where the exact value is 0, a rounding zero that
    # an elimination taking it as the pivot would divide by
    args = (F(1, 2), F(1), F(11, 9), F(-2, 3), F(-2, 5), -1, -1, F(-9, 5))
    for scalar in (F, float):
        assert _family_c_certificates(*args, scalar).verdict


def _fig6_pose(scalar):
    """The coupling of the bundled fig6 config, posed at its tau."""
    design = validate(scalar(F(1, 2)), scalar(F(1, 3)), scalar(F(1)))
    return coupled_pose(family_c(design, scalar(F(2, 3)), scalar(F(1, 4)), 1,
                                 -1), scalar(F(9, 10)))


@pytest.mark.parametrize("scalar", (F, float))
def test_partner_direct_catches_a_reversing_partner_map(scalar):
    cp = _fig6_pose(scalar)
    mirrored = cp._replace(delta=cp.delta._replace(orientation=-1))
    report = halfturn_check(mirrored, TOL)
    assert [r.label for r in report.failed()] == ["partner direct"]


@pytest.mark.parametrize("scalar", (F, float))
def test_partner_catches_a_moved_partner_map(scalar):
    cp = _fig6_pose(scalar)
    assert halfturn_check(cp, 1e-13).verdict
    x, y, z = cp.delta.translation
    moved = cp._replace(delta=cp.delta._replace(translation=(x + 1e-11, y, z)))
    entries = {r.label: r for r in halfturn_check(moved, 1e-13).residuals}
    assert not entries["partner"].passed
    assert entries["partner direct"].passed


def _scalar_types(cp, report):
    """Types of every residual value, partner-map rotation and translation
    entry and hat axis coordinate of a family-C pose and its half-turn
    report."""
    values = [r.value for r in report.residuals]
    values += [x for row in cp.delta.rotation for x in row]
    values += cp.delta.translation
    for ax in cp.hat_axes.values():
        values += [*ax.point, *ax.direction]
    return {type(x) for x in values}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_POSITIVE, _POSITIVE, st.one_of(st.just(F(0)), _POSITIVE), _OFFSET,
       _OFFSET, st.sampled_from((1, -1)), st.sampled_from((1, -1)), _TAU)
def test_no_numpy_scalar_reaches_a_family_c_report(a1, a2, k, mu14, mu12, s,
                                                   branch, tau):
    assume(a1 != a2 and mu14 * mu14 != mu12 * mu12)
    for scalar in (F, float):
        design = validate(scalar(a1), scalar(a2), scalar(k))
        bib = family_c(design, scalar(mu14), scalar(mu12), s, branch)
        try:
            cp = coupled_pose(bib, scalar(tau))
        except (NoRealBranchError, PoleError):
            assume(False)
        types = _scalar_types(cp, halfturn_check(cp, TOL))
        assert types <= {int, Fraction, float}, (scalar, types)


# ---------------------------------------------------------------------------
# the vertex certificates against their spelled-out formulas
# ---------------------------------------------------------------------------

def _reference_vertex_residuals(cp, center, opposite, prev_n, next_n):
    """iso1, iso2, iso3, delto1, delto2 at one vertex, each written out in
    full as in the certificate's docstrings."""
    quad = cp.quad
    c, o, u, w = map(quad.vertex, (center, opposite, prev_n, next_n))
    r_c = cp.pose.axes[center].direction
    r_o = cp.pose.axes[opposite].direction
    uc, uo = v_sub(u, c), v_sub(u, o)
    wc, wo = v_sub(w, c), v_sub(w, o)
    return {
        "iso1": (v_dot(uc, r_c) ** 2 * v_norm_sq(uo)
                 - v_dot(uo, r_o) ** 2 * v_norm_sq(uc)),
        "iso2": (v_dot(wc, r_c) ** 2 * v_norm_sq(wo)
                 - v_dot(wo, r_o) ** 2 * v_norm_sq(wc)),
        "iso3": (v_dot(uc, r_c) * v_dot(wo, r_o) * v_norm_sq(uo)
                 - v_dot(uo, r_o) * v_dot(wc, r_c) * v_norm_sq(uc)),
        "delto1": v_dot(uc, r_c) - v_dot(wo, r_o),
        "delto2": v_dot(wc, r_c) - v_dot(uo, r_o),
    }


def _reference_vertex_entries(cp):
    """Label -> reference value over the four vertices, in cyclic order."""
    entries = {}
    for i, center in enumerate(AXIS_LABELS):
        roles = [AXIS_LABELS[(i + shift) % 4] for shift in (0, 2, -1, 1)]
        for label, value in _reference_vertex_residuals(cp, *roles).items():
            entries[f"{label} @ P{center[0]}{center[1]}"] = value
    return entries


def _line_symmetric_coupling(family, a1, a2, k, mu, scalar):
    if family == "A":
        return make_family_a(MuSet(*map(scalar, mu)), k=scalar(k))
    design = validate(scalar(a1), scalar(a2), scalar(k))
    return make_family_b(scalar(mu[0]), scalar(mu[1]), design)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from("AB"), _POSITIVE, _POSITIVE,
       st.one_of(st.just(F(0)), _POSITIVE), st.lists(_OFFSET, min_size=4,
                                                      max_size=4), _TAU)
# a family-A mu-set whose twists are irrational: floats in exact mode, so
# the exact vertex P14 sits among float ones
@example("A", F(1), F(1), F(1), [F(3, 2), F(1, 2), F(1), F(-1, 3)], F(7, 5))
def test_vertex_checks_equal_their_formulas(family, a1, a2, k, mu, tau):
    assume(family == "A" or a1 != a2)
    for scalar in (F, float):
        try:
            bib = _line_symmetric_coupling(family, a1, a2, k, mu, scalar)
            cp = coupled_pose(bib, scalar(tau))
        except (NoRealFamilyError, ExcludedBranchError, TrivialQuadError,
                DegenerateDesignError, PoleError):
            assume(False)
        reference = _reference_vertex_entries(cp)
        for check in (isogonal_check, deltoidal_check):
            for entry in check(cp, TOL).residuals:
                expected = reference[entry.label]
                assert type(entry.value) is type(expected), entry.label
                assert entry.value == expected, (scalar, entry.label)
        # a tube holding a float is not cleared: its residuals stay floats
        assert (isinstance(bib.design.a1, float)
                == (type(reference["iso1 @ P14"]) is float))


def test_vertex_certificates_build_no_hat_axis(monkeypatch):
    built = []
    hat_pose = vars(CoupledPose)["hat_pose"]  # a functools.cached_property
    build = hat_pose.func

    def counted(cp):
        pose = build(cp)
        built.extend(pose.axes)
        return pose

    monkeypatch.setattr(hat_pose, "func", counted)
    for scalar in (F, float):
        for family, mu, check in (
                ("A", (F(37, 40), F(7, 8), F(1), F(1, 2)), isogonal_check),
                ("B", (F(2, 3), F(1, 2)), deltoidal_check)):
            bib = _line_symmetric_coupling(family, F(1, 2), F(1, 3), F(1),
                                           mu, scalar)
            cp = coupled_pose(bib, scalar(F(7, 5)))
            assert check(cp, TOL).verdict
        assert built == []
    # the half-turn certificate reads the hat axes: each is built once
    assert halfturn_certificate(FAMILY_C, F(7, 5)).verdict
    assert sorted(built) == sorted(AXIS_LABELS)


# ---------------------------------------------------------------------------
# the half-turn angle entries against their spelled-out formulas
# ---------------------------------------------------------------------------

def _reference_angle_entries(cp):
    """angle1..angle4 at each adjacent vertex pair (v, w), each written out
    in full on the points of both tubes."""
    quad, bar_quad = cp.quad, cp.bar_quad
    entries = {}
    for i, v in enumerate(AXIS_LABELS):
        w, prev_v, opp_v = (AXIS_LABELS[(i + shift) % 4] for shift in (1, 3, 2))
        pv, pw, pu, po = map(quad.vertex, (v, w, prev_v, opp_v))
        bv, bw, bu, bo = map(bar_quad.vertex, (v, w, prev_v, opp_v))
        fv, fw = cp.pose.axes[v].point, cp.pose.axes[w].point
        bfv, bfw = cp.bar_pose.axes[v].point, cp.bar_pose.axes[w].point
        values = (v_dot(v_sub(pw, pv), v_sub(fv, pv))
                  - v_dot(v_sub(bv, bw), v_sub(bfw, bw)),
                  v_dot(v_sub(pu, pv), v_sub(fv, pv))
                  - v_dot(v_sub(bo, bw), v_sub(bfw, bw)),
                  v_dot(v_sub(pv, pw), v_sub(fw, pw))
                  - v_dot(v_sub(bw, bv), v_sub(bfv, bv)),
                  v_dot(v_sub(po, pw), v_sub(fw, pw))
                  - v_dot(v_sub(bu, bv), v_sub(bfv, bv)))
        for n, value in enumerate(values, start=1):
            entries[f"angle{n} @ P{v[0]}{v[1]}-P{w[0]}{w[1]}"] = value
    return entries


# (a1, a2, k, mu14, mu12, tau) with a rational tau_bar.  The coupling
# relation is homogeneous in (k, mu14, mu12) and even in each, so tau_bar
# stays rational when they are scaled together or their signs flip.
_RATIONAL_BAR = (
    (F(1, 3), F(2, 3), F(0), F(5, 6), F(1, 2), F(1)),
    (F(1, 3), F(1), F(0), F(13, 40), F(1, 2), F(3)),
    (F(1, 2), F(3, 2), F(0), F(5, 8), F(1, 2), F(1)),
    (F(1, 3), F(1, 2), F(1, 2), F(2, 3), F(1, 3), F(3)),
    (F(2, 3), F(2), F(1), F(1, 2), F(1), F(3)),
    (F(1, 3), F(1), F(2), F(-2), F(-1), F(2, 3)),
)


@pytest.mark.parametrize("params", _RATIONAL_BAR[:3])
def test_halfturn_certificate_at_equal_diagonals(params):
    # on the k = 0 rows the shared quad's two diagonals are equal at the
    # row's tau: the quad has a further half-turn, so the negative entries
    # are reported by reason instead of failing
    a1, a2, k, mu14, mu12, tau = params
    for s, branch, scalar in itertools.product((1, -1), (1, -1), (F, float)):
        report = _family_c_certificates(a1, a2, k, mu14, mu12, s, branch, tau,
                                        scalar)
        assert report.verdict, (s, branch, scalar, report.lines())
        negative = [r for r in report.residuals if r.label.startswith("rho(")]
        assert len(negative) == 4
        assert all(r.label.endswith(" (equal diagonals)") and r.value == 0
                   for r in negative), report.lines()


def _conic_chord(params, direction):
    """A family-C coupling (a1, a2, k, mu14, mu12, tau) with a rational
    tau_bar, or None.  At fixed (a1, a2, tau, tau_bar) the coupling
    relation is the conic (P+Q) X^2 + (Q-P) Y^2 + 2Q Z^2 = 0 in
    (X, Y, Z) = (mu14, mu12, k), with
    P = (a1-a2)^2 tau^2 tau_bar^2 + (a1^2+a2^2)(tau^2+tau_bar^2) + (a1+a2)^2
    and Q = 2 a1 a2 (tau^2 - tau_bar^2): the rational line through the
    ``_RATIONAL_BAR`` row ``params`` along ``direction`` meets it again in
    a rational point (the chord method), taken with k >= 0.  None where the
    line does not cut the conic twice."""
    a1, a2, k, mu14, mu12, tau = params
    bar_sq = bar_tau_squared(
        coupling_quartic(validate(a1, a2, k), mu14, mu12), tau)
    p = ((a1 - a2) ** 2 * tau ** 2 * bar_sq
         + (a1 * a1 + a2 * a2) * (tau ** 2 + bar_sq) + (a1 + a2) ** 2)
    q = 2 * a1 * a2 * (tau ** 2 - bar_sq)
    form, point = (p + q, q - p, 2 * q), (mu14, mu12, k)
    square = sum(c * d * d for c, d in zip(form, direction))
    if square == 0:
        return None
    t = -2 * sum(c * x * d for c, x, d in zip(form, point, direction)) / square
    x, y, z = (x + t * d for x, d in zip(point, direction))
    return a1, a2, abs(z), x, y, tau


_CHORDS = st.builds(_conic_chord, st.sampled_from(_RATIONAL_BAR),
                    st.tuples(_OFFSET, _OFFSET, _OFFSET)).filter(bool)
_SIGN = st.sampled_from((1, -1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_CHORDS, _SIGN, _SIGN)
def test_conic_chords_have_a_rational_tau_bar(params, s, branch):
    a1, a2, k, mu14, mu12, tau = params
    assume(mu14 * mu14 != mu12 * mu12 and mu14 * mu12 != 0)
    for scalar in (F, float):
        bib = family_c(validate(scalar(a1), scalar(a2), scalar(k)),
                       scalar(mu14), scalar(mu12), s, branch)
        cp = coupled_pose(bib, scalar(tau))
        assert halfturn_check(cp, TOL).verdict, (scalar, params)
        if scalar is F:
            assert type(cp.tau_bar) is Fraction, params
            report = necessary_conditions(bib.loop(), bib.bar_loop())
            values = report.side_residuals + report.resultant_coeffs
            assert len(values) == 13 and not any(values)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(
    _CHORDS,
    st.tuples(_POSITIVE, _POSITIVE, st.one_of(st.just(F(0)), _POSITIVE),
              _OFFSET, _OFFSET, _TAU)), _SIGN, _SIGN)
@example(_RATIONAL_BAR[0], 1, 1)
@example(_RATIONAL_BAR[3], -1, -1)
@example((F(1, 2), F(1, 3), F(1), F(2, 3), F(1, 4), F(7, 5)), 1, 1)
def test_halfturn_angle_entries_equal_their_formulas(params, s, branch):
    a1, a2, k, mu14, mu12, tau = params
    assume(a1 != a2 and mu14 * mu14 != mu12 * mu12 and mu14 * mu12 != 0)
    for scalar in (F, float):
        design = validate(scalar(a1), scalar(a2), scalar(k))
        bib = family_c(design, scalar(mu14), scalar(mu12), s, branch)
        try:
            cp = coupled_pose(bib, scalar(tau))
        except (NoRealBranchError, PoleError):
            assume(False)
        reference = _reference_angle_entries(cp)
        entries = {entry.label: entry.value
                   for entry in halfturn_check(cp, TOL).residuals
                   if entry.label.startswith("angle")}
        assert entries.keys() == reference.keys()
        for label, value in entries.items():
            assert type(value) is type(reference[label]), (scalar, label)
            assert value == reference[label], (scalar, label)
        if scalar is F:
            # an irrational tau_bar leaves float anchors on axes 23 and 34
            # of the bar tube among its exact ones: the entries reading
            # them keep the float value of the formulas
            types = {type(value) for value in entries.values()}
            assert types == ({F, float} if isinstance(cp.tau_bar, float)
                             else {F}), types


# ---------------------------------------------------------------------------
# the 13-condition oracle, by value, against its eliminant over Fractions
# ---------------------------------------------------------------------------

def _loop_as(loop, conv):
    """``loop`` with ``conv`` applied to its design's scalars and offsets."""
    design = loop.design._replace(**{name: conv(v) for name, v
                                     in loop.design._asdict().items()})
    return Loop(design, MuSet(*map(conv, loop.mu.as_tuple())))


def _reference_oracle(loop, bar_loop):
    """The oracle's thirteen values on exact loops, all over Fractions: the
    differences of their quads' sides, then resultant_tau_bar of the two
    coupling forms N(tau) Mbar(tau_bar) - Nbar(tau_bar) M(tau) built from
    the Fraction coefficients of diagonal_rational."""
    sides = [part.quad(F(1, 3)).side_sq() for part in (loop, bar_loop)]
    forms = []
    for which in (0, 1):
        (num, den), (bar_num, bar_den) = (diagonal_rational(part, which)
                                          for part in (loop, bar_loop))
        forms.append([[num[i] * bar_den[j] - bar_num[j] * den[i]
                       for j in range(3)] for i in range(3)])
    try:
        coeffs = resultant_tau_bar(*forms)
    except DegenerateResultantError:
        coeffs = [0] * 9
    return [s - b for s, b in zip(*sides)] + coeffs


@st.composite
def _oracle_inputs(draw):
    """(build, eps, conv): ``build()`` gives an exact coupling of family A,
    B or C (C on a conic chord), k = 0 or not, or raises ValueError on an
    excluded draw; the companion's first offset moves by ``eps`` (0 or
    not), and ``conv`` (Fraction or float) makes both loops' scalars."""
    a1, a2, mu1, mu2 = draw(_POSITIVE), draw(_POSITIVE), draw(_OFFSET), draw(
        _OFFSET)
    k = draw(st.one_of(st.just(F(0)), _POSITIVE))
    chord, s = draw(_CHORDS), draw(_SIGN)
    build = draw(st.sampled_from((
        lambda: _exact_family_a(a1, a2, mu1, k),
        lambda: make_family_b(mu1, mu2, validate(a1, a2, k)),
        lambda: family_c(validate(*chord[:3]), *chord[3:5], s, -1))))
    eps = draw(st.one_of(st.just(0), _OFFSET))
    return build, eps, draw(st.sampled_from((F, float)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_oracle_inputs())
def test_oracle_values_equal_the_fraction_eliminant(inputs):
    build, eps, conv = inputs
    try:
        bib = build()
    except ValueError:
        assume(False)
    mu = bib.bar_mu
    bar = Loop(bib.design, MuSet(mu.mu14 + eps, mu.mu12, mu.mu23, mu.mu34))
    loop, bar = _loop_as(bib.loop(), conv), _loop_as(bar, conv)
    report = necessary_conditions(loop, bar)
    values = report.side_residuals + report.resultant_coeffs
    assert all(type(v) in (int, Fraction) for v in values), values
    # a float loop is read as the rationals its floats represent
    assert list(values) == _reference_oracle(_loop_as(loop, F),
                                             _loop_as(bar, F))
    if eps:  # a moved offset leaves a nonzero eliminant to scale
        assert any(report.resultant_coeffs), values


# ---------------------------------------------------------------------------
# the pass rule: an exact entry passes only at 0
# ---------------------------------------------------------------------------

_EXACT_REPORTS = {
    "isogonal": (lambda: isogonal_certificate(FAMILY_A, F(9, 10)), "iso"),
    # a rational tau_bar: every angle entry is exact
    "halfturn": (lambda: halfturn_certificate(family_c(
        validate(*_RATIONAL_BAR[3][:3]), *_RATIONAL_BAR[3][3:5], 1, 1),
        _RATIONAL_BAR[3][5]), "angle"),
    "labels": (lambda: verify_labels(prismatic_limit_C(
        "para", F(2, 3), F(3, 4), F(1, 3), F(1, 2), 1, -1), F(3, 4)),
        "III4ii"),
    "bennett-loop": (lambda: bennett_loop_check(frame(DESIGN, F(9, 10)), TOL),
                     "closure"),
}


@pytest.mark.parametrize("name", sorted(_EXACT_REPORTS))
def test_an_exact_entry_off_zero_fails(name):
    # however far below the float tolerance, an exact nonzero value fails
    make, prefix = _EXACT_REPORTS[name]
    report = make()
    assert report.verdict, report.lines()
    entry = next(r for r in report.residuals if r.label.startswith(prefix)
                 and isinstance(r.value, (int, Fraction)))
    assert entry.value == 0 and entry.tolerance == 0
    nudged = entry._replace(value=entry.value + Fraction(1, 10**30))
    mutant = report._replace(residuals=tuple(
        nudged if r is entry else r for r in report.residuals))
    assert not mutant.verdict
    assert mutant.failed() == [nudged]


# ---------------------------------------------------------------------------
# integer poses: their views are the chain's, and they certify as their views
# ---------------------------------------------------------------------------

def _exact_family_a(a1, a2, t, k):
    """Family A with the rational twists (a1, a2): the sums s1 .. s4 of its
    offsets are (-a1 a2, t a1, 1, t a2), which make family_a's squared
    half-tangents the squares a1^2 and a2^2."""
    s1, s2, s3, s4 = -a1 * a2, t * a1, 1, t * a2
    return make_family_a(MuSet((s1 + s2 + s3 + s4) / 4,
                               (s3 + s4 - s1 - s2) / 4,
                               (s1 - s2 + s3 - s4) / 4,
                               (s2 + s3 - s1 - s4) / 4), k=k)


@st.composite
def _exact_structures(draw, kind):
    """(build, tau): ``build()`` gives, by ``kind``, an exact single or
    planar design, or an exact coupling of family A, B or C (C on a conic
    chord), or a limit of one; it raises ValueError on an excluded draw."""
    a1, a2, d1, d2 = (draw(_POSITIVE) for _ in range(4))
    k, mu1, mu2, mu3 = draw(_POSITIVE), draw(_OFFSET), draw(_OFFSET), draw(
        _OFFSET)
    tau, s, branch = draw(_TAU), draw(_SIGN), draw(_SIGN)
    case = draw(st.sampled_from(("anti", "para")))
    chord = draw(_CHORDS)
    family = draw(st.sampled_from("AB"))
    row = draw(st.sampled_from(_RATIONAL_BAR[:3]))  # the k = 0 rows
    if kind in (6, 7):
        tau = chord[5] if kind == 6 else row[5]
    builders = (
        lambda: validate(a1, a2, draw(st.sampled_from((0, k)))),
        lambda: PlanarDesign(d1, d2, draw(st.sampled_from(PLANAR_CASES))),
        lambda: _exact_family_a(a1, a2, mu1, k),
        lambda: pyramidal_limit(_exact_family_a(a1, a2, mu1, 0)),
        lambda: make_family_b(mu1, mu2, validate(a1, a2, k)),
        lambda: pyramidal_limit(make_family_b(mu1, mu2, validate(a1, a2, 0))),
        lambda: family_c(validate(*chord[:3]), *chord[3:5], s, branch),
        lambda: pyramidal_limit(family_c(validate(*row[:3]), *row[3:5], s,
                                         branch)),
        lambda: prismatic_limit_AB(family, case, d1, d2, mu12=mu1, mu23=mu2,
                                   mu34=mu3),
        lambda: prismatic_limit_C(case, d1, d2, mu1, mu2, s, branch))
    return builders[kind], tau


def _from_views(pose):
    """``pose`` built from the Fraction views of its axes, over 1."""
    axes = [pose.axes[label] for label in AXIS_LABELS]
    return pose._replace(points=tuple(ax.point for ax in axes),
                         directions=tuple(ax.direction for ax in axes), den=1)


def _typed_entries(report):
    return [(r.label, type(r.value), r.value) for r in report.residuals]


@pytest.mark.parametrize("kind", range(10))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_poses_view_the_chain_and_certify_as_their_views(kind, data):
    build, tau = data.draw(_exact_structures(kind))
    try:
        structure = build()
        if isinstance(structure, BiBennett):
            cp = coupled_pose(structure, tau)
            poses = [cp.pose, cp.bar_pose]
            rebuilt = cp._replace(
                pose=_from_views(cp.pose),
                quad=SkewQuad(cp.quad.vertices(), 1),
                bar_pose=_from_views(cp.bar_pose),
                bar_quad=SkewQuad(cp.bar_quad.vertices(), 1))
            checks = ([halfturn_check] if structure.family == "C" else
                      [isogonal_check, deltoidal_check, trivial_check])
            checks += [label_check] if structure.labels else []
        else:
            cp = frame(structure, tau)
            poses, rebuilt = [cp], _from_views(cp)
            checks = [bennett_loop_check if isinstance(
                structure, BennettDesign) else planar_loop_check]
        reports = [(check(cp, TOL), check(rebuilt, TOL)) for check in checks]
    except ValueError:  # a pole, no real branch, an excluded pattern
        assume(False)
    for pose in poses:
        if pose.den != 1:  # a family-C bar tube at an irrational tau_bar
            assert all(type(c) is Fraction for c in _pose_values(pose))
            assert _pose_values(pose) == _chain_values(
                dh_chain(pose.design, pose.tau))
    for own, views in reports:
        assert _typed_entries(own) == _typed_entries(views), own.name
