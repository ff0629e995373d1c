"""Acceptance suite.

Each test pins one headline claim of the package against an independent
oracle.  Oracle provenance is tagged in comments:

* [TRIVIAL]  the value follows from the definition being tested;
* [DERIVED]  frozen from an independent hand or computer-algebra derivation;
* [PAPER]    a published reference value for a specific figure design.
"""

import random
import time
from fractions import Fraction

import pytest

from bibennett.bennett import (
    BennettDesign,
    DegenerateDesignError,
    PlanarDesign,
    PoleError,
    loop_closure_residual,
    planar_loop_closure_residual,
    validate,
)
from bibennett.families import (
    ExcludedBranchError,
    Loop,
    MuSet,
    NoRealBranchError,
    NoRealFamilyError,
    bar_tau_squared,
    coupled_pose,
    coupling_quartic,
    family_a,
    family_c,
    isogram_residuals,
    make_family_a,
    make_family_b,
    necessary_conditions,
    planar_bar_tau,
)
from bibennett.appendix import verify_nonexistence
from bibennett.cli import fixture_path
from bibennett.io_export import (
    build_structure,
    export_obj_text,
    parse_config,
    sweep_report,
)
from bibennett.limits import (
    prismatic_limit_AB,
    prismatic_limit_C,
    pyramidal_limit,
)
from bibennett.properties import (
    deltoidal_check,
    halfturn_check,
    isogonal_check,
)

F = Fraction

TAUS = tuple(F(n, 7) for n in (2, 3, 5, 9, 11, 13, 16, 19, 23, 26))

TAU_POOL = tuple(F(n, 7) for n in range(1, 45)) + tuple(
    F(-n, 5) for n in range(1, 20))


def _valid_taus(bib, need=10):
    """The first ``need`` pool values where the coupling has a real branch."""
    out = []
    for tau in TAU_POOL:
        try:
            coupled_pose(bib, tau)
        except (NoRealBranchError, PoleError):
            continue
        out.append(tau)
        if len(out) == need:
            return out
    return None


def _rand_fraction(rng, signed=False):
    value = F(rng.randint(1, 12), rng.randint(1, 12))
    if signed and rng.random() < 0.5:
        value = -value
    return value


def _rand_design(rng, k=None):
    while True:
        a1 = _rand_fraction(rng)
        a2 = _rand_fraction(rng)
        if a1 == a2:
            continue
        return validate(a1, a2, _rand_fraction(rng) if k is None else k)


def _rand_family_a_mu(rng):
    while True:
        mu = MuSet(*(_rand_fraction(rng, signed=True) for _ in range(4)))
        try:
            a1, a2 = family_a(mu)
            validate(a1, a2, 1)
        except (NoRealFamilyError, ExcludedBranchError, ValueError):
            continue
        return mu


def _rand_family_c(rng, k=None):
    """A random family-C coupling plus ten drive values with a real branch."""
    while True:
        design = _rand_design(rng, k=k)
        mu14 = _rand_fraction(rng)
        mu12 = _rand_fraction(rng)
        if mu14 == mu12:
            continue
        taus = _valid_taus(family_c(design, mu14, mu12, 1, -1))
        if taus is not None:
            return design, mu14, mu12, taus


# ---------------------------------------------------------------------------
# criterion 1: exact loop closure for random designs and all planar cases
# ---------------------------------------------------------------------------

def test_criterion_1_loop_closure():
    start = time.monotonic()
    rng = random.Random(101)
    taus = (F(1, 2), F(2, 3), F(3, 2), F(-5, 7), F(4))
    for i in range(200):
        # every 10th design sits at the spherical limit k = 0
        design = _rand_design(rng, k=F(0) if i % 10 == 0 else None)
        fdesign = BennettDesign(float(design.a1), float(design.a2),
                                float(design.k))
        for tau in taus:
            # [TRIVIAL] the closed chain product must be the identity exactly
            assert loop_closure_residual(design, tau) == 0
            assert loop_closure_residual(fdesign, float(tau)) < 1e-12
    # [DERIVED] planar transmission constants for d1 = 1/2, d2 = 1
    expected_K = {"1a": F(3), "1b": F(1), "2a": F(-3), "2b": F(-1)}
    for case, value in expected_K.items():
        pd = PlanarDesign(F(1, 2), F(1), case)
        assert pd.transmission() == value
        for tau in taus:
            assert planar_loop_closure_residual(pd, tau) == 0
    # [TRIVIAL] the rhombus d1 = d2 is a transmission pole in cases 1a, 2a
    for case in ("1a", "2a"):
        with pytest.raises(DegenerateDesignError):
            PlanarDesign(F(1, 2), F(1, 2), case)
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# criterion 2: family A reference design regression
# ---------------------------------------------------------------------------

def test_criterion_2_family_a_reference():
    # [PAPER] the offsets (37/40, 7/8, 1, 1/2) force half-tangents (1/2, 1/3)
    mu = MuSet(F(37, 40), F(7, 8), F(1), F(1, 2))
    assert family_a(mu) == (F(1, 2), F(1, 3))
    bib = make_family_a(mu, k=1)
    # [TRIVIAL] the defining isogram conditions hold exactly along the motion
    for tau in TAUS:
        assert isogram_residuals(bib.loop().quad(tau)) == (0, 0)


# ---------------------------------------------------------------------------
# criterion 3: family C figure regressions
# ---------------------------------------------------------------------------

def test_criterion_3_family_c_regressions():
    start = time.monotonic()
    design = validate(F(1, 2), F(1, 3), F(1))
    # [PAPER] the figure design (1/2, 1/3, 1) with mu14 = 2/3, mu12 = 1/4 at
    # tau = 9/10 has tau_bar ~ -1.23662 on the negative branch;
    # [DERIVED] the exact square is 546307/357245
    q = coupling_quartic(design, F(2, 3), F(1, 4))
    assert bar_tau_squared(q, F(9, 10)) == F(546307, 357245)
    bib = family_c(design, F(2, 3), F(1, 4), 1, branch=-1)
    cp = coupled_pose(bib, F(9, 10))
    assert abs(float(cp.tau_bar) + 1.23662) < 1e-5
    # [DERIVED] the spherical (k = 0) variant with mu14 = 2/3, mu12 = 1/2
    sph = validate(F(1, 2), F(1, 3), F(0))
    q0 = coupling_quartic(sph, F(2, 3), F(1, 2))
    assert bar_tau_squared(q0, F(3, 4)) == F(6319, 3281)
    # [DERIVED] prismatic anti case (1/2, 1/3) with mu14 = 2/3, mu12 = 1/2:
    # tau = 3/4 maps to tau_bar = 3/4 exactly
    anti = prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1, 1)
    assert F(3, 4) in planar_bar_tau(anti, F(3, 4))
    # [DERIVED] prismatic para case (2/3, 3/4) with mu14 = 1/3, mu12 = 1/2:
    # tau = 3/4 maps to tau_bar = -sqrt(15281)/413
    para = prismatic_limit_C("para", F(2, 3), F(3, 4), F(1, 3), F(1, 2), 1,
                             branch=-1)
    roots = planar_bar_tau(para, F(3, 4))
    target = -(15281 ** 0.5) / 413
    assert any(abs(float(r) - target) < 1e-10 for r in roots)
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# criterion 4: flexibility of the shared quad for all three families
# ---------------------------------------------------------------------------

def _flex_instances_a(rng):
    out = []
    for _ in range(24):
        out.append(make_family_a(_rand_family_a_mu(rng), k=1))
    for _ in range(3):
        out.append(pyramidal_limit(make_family_a(_rand_family_a_mu(rng), k=0)))
    out.append(prismatic_limit_AB("A", "anti", F(1, 2), F(1, 3),
                                  mu12=F(1, 4), mu23=F(2, 3),
                                  mu34=F(1, 2)))
    out.append(prismatic_limit_AB("A", "para", F(1, 2), F(1, 3),
                                  mu12=F(1, 4), mu23=F(2, 3),
                                  mu34=F(1, 2)))
    out.append(prismatic_limit_AB("A", "anti", F(1, 2), F(1, 3),
                                  mu12=F(1), mu23=F(3, 5),
                                  mu34=F(0)))
    return out


def _flex_instances_b(rng):
    out = []
    for _ in range(25):
        out.append(make_family_b(_rand_fraction(rng, signed=True),
                                 _rand_fraction(rng, signed=True),
                                 _rand_design(rng)))
    for _ in range(3):
        out.append(pyramidal_limit(make_family_b(
            _rand_fraction(rng), _rand_fraction(rng),
            validate(F(2, 5), F(3, 7), 0))))
    out.append(prismatic_limit_AB("B", "anti", F(1, 2), F(1, 3),
                                  mu23=F(2, 3), mu34=F(1, 2)))
    out.append(prismatic_limit_AB("B", "anti", F(3, 5), F(1, 4),
                                  mu23=F(1, 3), mu34=F(5, 4)))
    return out


def _flex_instances_c(rng):
    out = []
    for _ in range(26):
        design, mu14, mu12, taus = _rand_family_c(rng)
        out.append((family_c(design, mu14, mu12, 1, -1), taus))
    for _ in range(2):
        design, mu14, mu12, taus = _rand_family_c(rng, k=F(0))
        out.append((family_c(design, mu14, mu12, 1, -1), taus))
    for bib in (
        prismatic_limit_C("anti", F(1, 2), F(1, 3), F(2, 3),
                          F(1, 2), 1, 1),
        prismatic_limit_C("para", F(2, 3), F(3, 4), F(1, 3),
                          F(1, 2), 1, branch=-1),
    ):
        taus = _valid_taus(bib)
        assert taus is not None
        out.append((bib, taus))
    return out


def _six_distances(quad):
    return quad.side_sq() + quad.diag_sq()


def _check_flexible(bib, taus):
    """Sides of the shared quad are tau-invariant and the companion quad is
    congruent label-by-label at every matched parameter pair."""
    reference_sides = None
    checked = 0
    for tau in taus:
        try:
            cp = coupled_pose(bib, tau)
        except NoRealBranchError:
            continue
        sides = cp.quad.side_sq()
        if reference_sides is None:
            reference_sides = sides
        else:
            for s, r in zip(sides, reference_sides):
                if isinstance(s, F) and isinstance(r, F):
                    assert s == r
                else:
                    assert abs(float(s) - float(r)) <= 1e-10 * (
                        1.0 + abs(float(r)))
        for d, b in zip(_six_distances(cp.quad), _six_distances(cp.bar_quad)):
            if isinstance(d, F) and isinstance(b, F):
                assert d == b
            else:
                assert abs(float(d) - float(b)) <= 1e-10 * (
                    1.0 + abs(float(d)))
        checked += 1
    assert checked == len(taus)


def test_criterion_4_flexibility():
    start = time.monotonic()
    rng = random.Random(404)
    for bib in _flex_instances_a(rng):
        _check_flexible(bib, TAUS)
    for bib in _flex_instances_b(rng):
        _check_flexible(bib, TAUS)
    for bib, taus in _flex_instances_c(rng):
        _check_flexible(bib, taus if taus is not None else TAUS)
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# criterion 5: line-symmetric angle certificates separate families A and B
# ---------------------------------------------------------------------------

def test_criterion_5_isogonal_vs_deltoidal():
    rng = random.Random(505)
    tau = F(9, 10)
    for _ in range(20):
        cp = coupled_pose(make_family_a(_rand_family_a_mu(rng), k=1), tau)
        assert isogonal_check(cp, 1e-10).verdict
        assert not deltoidal_check(cp, 1e-10).verdict
    for _ in range(20):
        bib = make_family_b(_rand_fraction(rng), _rand_fraction(rng),
                            _rand_design(rng))
        cp = coupled_pose(bib, tau)
        assert deltoidal_check(cp, 1e-10).verdict
        assert not isogonal_check(cp, 1e-10).verdict


# ---------------------------------------------------------------------------
# criterion 6: half-turn certificate for family C on every sign choice
# ---------------------------------------------------------------------------

def test_criterion_6_halfturn():
    rng = random.Random(606)
    for _ in range(20):
        design, mu14, mu12, taus = _rand_family_c(rng)
        for s in (1, -1):
            for branch in (1, -1):
                bib = family_c(design, s * mu14, s * mu12, s, branch=branch)
                report = halfturn_check(coupled_pose(bib, taus[0]), 1e-9)
                assert report.verdict, report.lines()


# ---------------------------------------------------------------------------
# criterion 7: the 13-condition necessary oracle
# ---------------------------------------------------------------------------

def test_criterion_7_necessary_oracle():
    rng = random.Random(707)
    design = validate(F(1, 2), F(1, 3), F(1))
    members = [
        make_family_a(MuSet(F(37, 40), F(7, 8), F(1), F(1, 2)), k=1),
        make_family_b(F(2, 3), F(1, 2), design),
        family_c(design, F(2, 3), F(1, 4), 1, -1),
    ]
    for bib in members:
        report = necessary_conditions(bib.loop(), bib.bar_loop())
        # [TRIVIAL] all 13 residuals vanish identically for a real coupling,
        # and the eliminant degenerates (the two conditions are proportional)
        assert not any(report.side_residuals + report.resultant_coeffs)
        assert report.degenerate_resultant
    rejected = 0
    attempts = 0
    while rejected < 50:
        attempts += 1
        assert attempts < 400
        base = rng.choice(members)
        eps = F(rng.randint(1, 9), 100)
        mu = base.bar_mu
        bad_bar = MuSet(mu.mu14 + eps, mu.mu12, mu.mu23, mu.mu34)
        report = necessary_conditions(base.loop(),
                                      Loop(base.bar_design, bad_bar))
        if any(report.side_residuals + report.resultant_coeffs):
            rejected += 1
    assert rejected == 50


# ---------------------------------------------------------------------------
# criterion 8: plane-symmetric non-existence suite
# ---------------------------------------------------------------------------

def test_criterion_8_nonexistence():
    start = time.monotonic()
    report = verify_nonexistence()
    assert report.verdict, report.lines()
    assert len(report.residuals) == 13
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 9: deterministic export
# ---------------------------------------------------------------------------

def test_criterion_9_export_determinism():
    raw = fixture_path("fig6").read_bytes()
    config = parse_config(raw)
    obj_a = export_obj_text(build_structure(config), config.tau, patch_n=4)
    obj_b = export_obj_text(build_structure(parse_config(raw)), config.tau,
                            patch_n=4)
    assert obj_a == obj_b
    csv_a, _ = sweep_report(config)
    csv_b, _ = sweep_report(parse_config(raw))
    assert csv_a == csv_b
