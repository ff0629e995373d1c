"""Unit tests for the prismatic and pyramidal limit structures."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bibennett.algebra import TOL, v_add, v_sub
from bibennett.bennett import (
    AXIS_LABELS,
    DegenerateDesignError,
    PoleError,
    validate,
)
from bibennett.families import (
    MuSet,
    NoRealBranchError,
    SkewQuad,
    TrivialQuadError,
    coupled_pose,
    family_c,
    make_family_a,
    make_family_b,
)
from bibennett.limits import (
    _LABEL_ENTRIES,
    _mirror_residual,
    label_check,
    limit_kind,
    prism_parallel_residual,
    prismatic_limit_AB,
    prismatic_limit_C,
    pyramidal_limit,
    verify_labels,
)

F = Fraction
TAU = F(3, 4)


def test_prismatic_c_anti_labels():
    st = prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1, 1)
    assert st.labels == {"III2ii"}
    report = verify_labels(st, TAU)
    assert report.verdict, report.lines()


def test_prismatic_c_para_labels():
    st = prismatic_limit_C("para", F(2, 3), F(3, 4), F(1, 3), F(1, 2), 1,
                           branch=-1)
    assert st.labels == {"III4ii"}
    assert verify_labels(st, TAU).verdict


def test_prismatic_a_anti_labels():
    st = prismatic_limit_AB("A", "anti", F(1, 2), F(1, 3),
                            mu12=F(1, 4), mu23=F(2, 3), mu34=F(1, 2))
    assert "III1" in st.labels
    assert verify_labels(st, TAU).verdict


def test_prismatic_a_anti_isogonal_compatible_branch():
    # mu chosen so the extra factor condition holds: III3 joins the labels
    st = prismatic_limit_AB("A", "anti", F(1, 2), F(1, 3),
                            mu12=F(1), mu23=F(3, 5), mu34=F(0))
    assert "III3" in st.labels
    assert verify_labels(st, TAU).verdict


def test_prismatic_a_para_labels():
    st = prismatic_limit_AB("A", "para", F(1, 2), F(1, 3),
                            mu12=F(1, 4), mu23=F(2, 3), mu34=F(1, 2))
    assert st.labels == {"III1", "III4ii"}
    assert verify_labels(st, TAU).verdict


def test_prismatic_b_anti_labels():
    st = prismatic_limit_AB("B", "anti", F(1, 2), F(1, 3),
                            mu23=F(2, 3), mu34=F(1, 2))
    assert st.labels == {"III1", "III2ii"}
    assert verify_labels(st, TAU).verdict


def test_prismatic_b_para_is_trivial():
    with pytest.raises(TrivialQuadError):
        prismatic_limit_AB("B", "para", F(1, 2), F(1, 3),
                           mu23=F(2, 3), mu34=F(1, 2))


def test_prism_directions_parallel_per_tube():
    st = prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1, 1)
    cp = coupled_pose(st, TAU)
    assert prism_parallel_residual(cp) < 1e-12


def test_pyramidal_labels():
    a = pyramidal_limit(make_family_a(MuSet(F(37, 40), F(7, 8), F(1),
                                            F(1, 2)), k=0))
    assert a.labels == {"I1", "I3"}
    assert verify_labels(a, TAU).verdict
    b = pyramidal_limit(make_family_b(F(2, 3), F(1, 2),
                                      validate(F(1, 2), F(1, 3), 0)))
    assert b.labels == {"I1", "I2"}
    assert verify_labels(b, TAU).verdict
    c = pyramidal_limit(family_c(validate(F(1, 2), F(1, 3), 0), F(2, 3),
                                 F(1, 2), 1, -1))
    assert c.labels == {"I2"}
    assert verify_labels(c, TAU).verdict


def test_labels_are_known():
    st = prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1, 1)
    assert st.labels <= set(_LABEL_ENTRIES)


def test_unlabelled_coupling_is_rejected():
    plain = make_family_a(MuSet(F(37, 40), F(7, 8), F(1), F(1, 2)), k=0)
    with pytest.raises(ValueError, match="no class labels"):
        verify_labels(plain, TAU)


def test_limit_quad_sides_rigid():
    structures = [
        prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1, 1),
        prismatic_limit_AB("A", "para", F(1, 2), F(1, 3),
                           mu12=F(1, 4), mu23=F(2, 3), mu34=F(1, 2)),
        pyramidal_limit(family_c(validate(F(1, 2), F(1, 3), 0), F(2, 3),
                                 F(1, 2), 1, -1)),
    ]
    for st in structures:
        base = None
        for tau in (F(1, 4), F(1, 2), F(9, 10), F(2)):
            sides = st.loop().quad(tau).side_sq()
            if base is None:
                base = sides
            assert sides == base


# ---------------------------------------------------------------------------
# the label table on random limits, drawn as the limits_sweep benchmark
# draws its configs
# ---------------------------------------------------------------------------

_Q = st.builds(F, st.integers(1, 12), st.integers(1, 12))
_SIGN = st.sampled_from((1, -1))
_SIGNED = st.builds(lambda q, sign: sign * q, _Q, _SIGN)
_PAIR = st.tuples(_Q, _Q).filter(lambda pair: pair[0] != pair[1])
_TAU_POOL = tuple(F(n, 7) for n in range(1, 45)) + tuple(
    F(-n, 5) for n in range(1, 20))
_KINDS = {"anti": "PrismaticAnti", "para": "PrismaticPara",
          None: "Pyramidal"}


@st.composite
def _limit(draw, family, case):
    """A labelled coupling of config ``family`` (prismatic ``case``)."""
    d1, d2 = draw(_PAIR)
    if family == "A-prismatic":
        m12, m23, m34 = draw(_SIGNED), draw(_SIGNED), draw(_SIGNED)
        try:
            bib = prismatic_limit_AB("A", case, d1, d2, mu12=m12, mu23=m23,
                                     mu34=m34)
        except TrivialQuadError:
            assume(False)
    elif family == "B-prismatic":
        bib = prismatic_limit_AB("B", case, d1, d2, mu23=draw(_SIGNED),
                                 mu34=draw(_SIGNED))
    elif family == "C-prismatic":
        m14, m12 = draw(_PAIR)
        bib = prismatic_limit_C(case, d1, d2, m14, m12, draw(_SIGN),
                                draw(_SIGN))
    elif family == "A-pyramidal":
        mu = MuSet(*(draw(_SIGNED) for _ in range(4)))
        try:
            bib = pyramidal_limit(make_family_a(mu, k=0))
        except ValueError:  # no real half-tangents, or an excluded branch
            assume(False)
    elif family == "B-pyramidal":
        bib = pyramidal_limit(make_family_b(draw(_SIGNED), draw(_SIGNED),
                                            validate(d1, d2, 0)))
    else:
        m14, m12 = draw(_PAIR)
        s = draw(_SIGN)
        bib = pyramidal_limit(family_c(validate(d1, d2, 0), s * m14, s * m12,
                                       s, draw(_SIGN)))
    return bib


@pytest.mark.parametrize("family, case", [
    ("A-prismatic", "anti"), ("A-prismatic", "para"), ("B-prismatic", "anti"),
    ("C-prismatic", "anti"), ("C-prismatic", "para"), ("A-pyramidal", None),
    ("B-pyramidal", None), ("C-pyramidal", None)])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_limits_verify_their_labels(family, case, data):
    bib = data.draw(_limit(family, case))
    assert limit_kind(bib) == _KINDS[case]
    assert bib.family == family[0]
    for tau in data.draw(st.permutations(_TAU_POOL)):
        try:
            report = verify_labels(bib, tau)
        except (NoRealBranchError, PoleError):
            continue
        assert report.verdict, (tau, report.lines())
        return
    assume(False)


# ---------------------------------------------------------------------------
# exact labels: every entry an exact 0 on exact input, the float verdict the
# same, and each entry refuted by a move of a point it reads
# ---------------------------------------------------------------------------

def _family_a_offsets(a1, a2, sign, s2, s3):
    """Offsets whose family-A half-tangents are the rationals (a1, a2): the
    sums s1 = mu14 - mu12 + mu23 - mu34, s2 = mu14 - mu12 - mu23 + mu34,
    s3 = mu14 + mu12 + mu23 + mu34 and s4 = mu14 + mu12 - mu23 - mu34 give
    a1^2 = -s1 s2 / (s3 s4) and a2^2 = -s4 s1 / (s3 s2), which hold for
    s1 = -sign a1 a2 s3 and s4 = sign s2 a2 / a1."""
    s1, s4 = -sign * a1 * a2 * s3, sign * s2 * a2 / a1
    return MuSet((s1 + s2 + s3 + s4) / 4, (-s1 - s2 + s3 + s4) / 4,
                 (s1 - s2 + s3 - s4) / 4, (-s1 + s2 + s3 - s4) / 4)


@st.composite
def _exact_limit(draw, family, case):
    """A builder of a labelled A or B limit with rational design, taking the
    scalar conversion (identity for exact, float) as its argument."""
    d1, d2 = draw(_PAIR)
    if family == "A-prismatic":
        mus = draw(st.tuples(_SIGNED, _SIGNED, _SIGNED))
        return lambda cv: prismatic_limit_AB(
            "A", case, cv(d1), cv(d2), *(cv(m) for m in mus))
    if family == "B-prismatic":
        mus = draw(st.tuples(_SIGNED, _SIGNED))
        return lambda cv: prismatic_limit_AB(
            "B", case, cv(d1), cv(d2), None, *(cv(m) for m in mus))
    if family == "A-pyramidal":
        mu = _family_a_offsets(d1, d2, draw(_SIGN), draw(_SIGNED),
                               draw(_SIGNED))
        return lambda cv: pyramidal_limit(make_family_a(
            MuSet(*map(cv, mu.as_tuple())), k=0))
    m23, m34 = draw(_SIGNED), draw(_SIGNED)
    return lambda cv: pyramidal_limit(make_family_b(
        cv(m23), cv(m34), validate(cv(d1), cv(d2), 0)))


@pytest.mark.parametrize("family, case", [
    ("A-prismatic", "anti"), ("A-prismatic", "para"), ("B-prismatic", "anti"),
    ("A-pyramidal", None), ("B-pyramidal", None)])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_limits_read_exact_zeros(family, case, data):
    build = data.draw(_exact_limit(family, case))
    try:
        bib = build(lambda x: x)
    except ValueError:  # the trivial pattern, or a zero pyramid offset
        assume(False)
    tau = data.draw(st.sampled_from(_TAU_POOL))
    report = verify_labels(bib, tau)
    for entry in report.residuals:
        assert type(entry.value) in (int, F) and entry.value == 0, entry
    assert verify_labels(build(float), float(tau)).verdict == report.verdict


# The points each entry reads, by the entry name after its "label: "
# prefix: "quad" the quad vertices, "hats" every hat anchor, "hat apex" the
# hat anchor (1,4) only.
_READS = {
    "axes parallel": set(), "anchors copunctal": set(),
    "line symmetry": {"quad", "hats", "hat apex"},
    "plane symmetry": {"quad", "hat apex"},
    "two V-hedral pairs + one anti-V-hedral": {"quad", "hat apex"},
    "vertices coplanar": {"quad"}, "anti-parallelogram sides": {"quad"},
    "not a parallelogram": {"parallelogram move"},
    "symmetry plane parallel to edges": {"quad"}, "parallelogram": {"quad"},
    "congruent cross-sections": {"hats", "hat apex"},
}
_MOVE = (F(1, 3), F(-1, 5), F(1, 7))
_LABELLED = [
    prismatic_limit_AB("A", "anti", F(1, 2), F(1, 3), mu12=F(1), mu23=F(3, 5),
                       mu34=F(0)),
    prismatic_limit_AB("A", "para", F(1, 2), F(1, 3), mu12=F(1, 4),
                       mu23=F(2, 3), mu34=F(1, 2)),
    prismatic_limit_AB("B", "anti", F(1, 2), F(1, 3), mu23=F(2, 3),
                       mu34=F(1, 2)),
    prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1, 1),
    prismatic_limit_C("para", F(2, 3), F(3, 4), F(1, 3), F(1, 2), 1, -1),
    pyramidal_limit(make_family_a(MuSet(F(37, 40), F(7, 8), F(1), F(1, 2)),
                                  k=0)),
    pyramidal_limit(make_family_b(F(2, 3), F(1, 2),
                                  validate(F(1, 2), F(1, 3), 0))),
    pyramidal_limit(family_c(validate(F(1, 2), F(1, 3), 0), F(2, 3),
                             F(1, 2), 1, -1)),
]


def _failed(cp, reads):
    """The entries of the label check of ``cp`` that fail, and those of its
    labels that read one of ``reads``."""
    report = label_check(cp, TOL)
    expected = {r.label for r in report.residuals
                if _READS[r.label.partition(": ")[2] or r.label] & reads}
    return {r.label for r in report.failed()}, expected


@pytest.mark.parametrize("bib", _LABELLED, ids=lambda b: "-".join(
    [b.family, limit_kind(b), *sorted(b.labels)]))
def test_moved_points_refute_the_labels_that_read_them(bib):
    cp = coupled_pose(bib, TAU)
    assert label_check(cp, TOL).verdict
    # the moved records are built from the Fraction coordinates, over 1
    hat = [cp.hat_axes[label] for label in AXIS_LABELS]
    for i, label in enumerate(AXIS_LABELS):
        vertices = list(cp.quad.vertices())
        vertices[i] = v_add(vertices[i], _MOVE)
        failed, expected = _failed(
            cp._replace(quad=SkewQuad(tuple(vertices), 1)), {"quad"})
        assert failed == expected, ("quad", label)
        points = [ax.point for ax in hat]
        points[i] = v_add(points[i], _MOVE)
        moved = cp._replace()  # hat_pose is computed on first read; preset it
        vars(moved)["hat_pose"] = cp.hat_pose._replace(
            points=tuple(points),
            directions=tuple(ax.direction for ax in hat), den=1)
        failed, expected = _failed(moved, {
            "hats", "hat apex"} if label == (1, 4) else {"hats"})
        assert failed == expected, ("hat", label)
    # a quad that is not a parallelogram is made one by moving P12 onto
    # P14 + P23 - P34
    p14, _, p23, p34 = cp.quad.vertices()
    p12 = v_add(p14, v_sub(p23, p34))
    failed, expected = _failed(
        cp._replace(quad=SkewQuad((p14, p12, p23, p34), 1)),
        {"parallelogram move"})
    assert expected <= failed


def test_mirror_needs_one_plane_for_both_swapped_pairs():
    # the x = 0 plane swaps u1, u2 and the y = 0 plane swaps w1, w2; both
    # contain the fixed points and both midpoints, so only the parallelism
    # of the two differences tells that no one mirror swaps both pairs
    u, fixed = ((1, 0, 0), (-1, 0, 0)), ((0, 0, 1), (0, 0, -1))
    assert _mirror_residual((u, ((0, 1, 0), (0, -1, 0))), fixed, 1) == 2
    assert _mirror_residual((u, ((1, 1, 0), (-1, 1, 0))), fixed, 1) == 0


_DISTANCE = st.builds(F, st.integers(1, 9), st.integers(1, 9))
_PRISM_OFFSET = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.tuples(_DISTANCE, _DISTANCE, _PRISM_OFFSET, _PRISM_OFFSET,
                 _PRISM_OFFSET), st.booleans(),
       st.sampled_from((F(1, 10**7), F(1, 10**4), F(10**4), F(10**7))))
@example((F(1e-7 / 3), F(2e-7 / 7), F(1, 2), F(1), F(2)), False, F(1))
def test_prismatic_anti_labels_agree_in_both_modes_at_every_scale(
        values, isogonal, scale):
    # III3 asks that a factor of the isogonal condition vanish; a float
    # factor is held to TOL times the size of its own terms, so the float
    # labels follow the exact ones at every scale of lengths and offsets
    d1, d2, mu12, mu23, mu34 = values
    if isogonal:  # d1 (mu12 - mu23) = d2 (mu23 - mu34)
        mu34 = mu23 - d1 * (mu12 - mu23) / d2
    exact = [scale * v for v in (d1, d2, mu12, mu23, mu34)]
    try:
        labels = prismatic_limit_AB("A", "anti", *exact).labels
    except (DegenerateDesignError, TrivialQuadError):
        assume(False)
    assert ("III3" in labels) >= isogonal
    floats = prismatic_limit_AB("A", "anti", *map(float, exact)).labels
    assert floats == labels, (values, isogonal, scale)
