"""Unit tests for configuration parsing, OBJ export, and sweep reports."""

import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bibennett import families
from bibennett.algebra import (
    TOL,
    coordinates,
    div,
    v_add,
    v_dot,
    v_norm_sq,
    v_scale,
    v_sub,
)
from bibennett.bennett import AXIS_LABELS, PLANAR_CASES, Axis, Pose, frame
from bibennett.cli import _MATH_ERRORS, fixture_path
from bibennett.io_export import (
    FAMILIES,
    RIBBON_WIDTH,
    Config,
    ConfigError,
    build_structure,
    certify,
    config_object,
    coupling_ribbons,
    export_obj_text,
    hp_patch,
    parse_config,
    pose_at,
    serialize_config,
    sweep_report,
    SWEEP_HEADER,
)
from bibennett.families import CoupledPose, HalfTurn, coupled_pose
from bibennett.limits import verify_labels
from bibennett.properties import (
    deltoidal_certificate,
    halfturn_certificate,
    isogonal_certificate,
)

F = Fraction


def _fixture(name):
    return parse_config(fixture_path(name).read_bytes())


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_round_trip_all_fixtures():
    for name in ("fig3", "fig4", "fig5", "fig6", "fig8a", "fig8b", "fig9a"):
        config = _fixture(name)
        assert parse_config(serialize_config(config)) == config


_RATIONAL = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9))
_POSITIVE = st.builds("{}/{}".format, st.integers(1, 9), st.integers(1, 9))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_round_trip_generated_configs(family, data):
    required, optional, *_ = FAMILIES[family]
    raw = {"schema": 1, "family": family,
           "mode": data.draw(st.sampled_from(["exact", "float"]))}
    for key in sorted(required | optional):
        if key == "case":
            cases = PLANAR_CASES if family == "planar" else ("anti", "para")
            raw[key] = data.draw(st.sampled_from(cases))
        elif key in ("s", "branch"):
            if data.draw(st.booleans()):
                raw[key] = data.draw(st.sampled_from([-1, 1]))
        elif key in ("a1", "a2", "k", "d1", "d2"):
            raw[key] = data.draw(_POSITIVE)
        else:
            raw[key] = data.draw(_RATIONAL)
    if data.draw(st.booleans()):
        raw["tau"] = data.draw(_RATIONAL)
    if data.draw(st.booleans()):
        raw["tau_samples"] = data.draw(st.lists(_RATIONAL, min_size=1,
                                                max_size=3))
    if data.draw(st.booleans()):
        raw["tol"] = data.draw(st.sampled_from([1e-9, 1e-6]))
    try:
        config = parse_config(json.dumps(raw))
    except ConfigError:
        assume(False)
    assert parse_config(serialize_config(config)) == config


def test_parse_rejects_bad_schema():
    with pytest.raises(ConfigError, match="schema"):
        parse_config('{"schema": 2, "family": "B"}')


def test_parse_rejects_unknown_family():
    with pytest.raises(ConfigError, match="family"):
        parse_config('{"schema": 1, "family": "D"}')


def test_parse_rejects_unknown_key():
    text = json.dumps({"schema": 1, "family": "planar", "case": "1a",
                       "d1": "1/2", "d2": "1", "mu14": "1"})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(text)


def test_parse_rejects_missing_required_key():
    with pytest.raises(ConfigError, match="requires"):
        parse_config('{"schema": 1, "family": "B", "a1": "1/2", "a2": "1/3"}')


def test_parse_rejects_degenerate_design():
    # the schema holds; the builder rejects the design
    config = parse_config(json.dumps({
        "schema": 1, "family": "B", "a1": "1/2", "a2": "1/2", "k": "1",
        "mu23": "1/2", "mu34": "1/3"}))
    with pytest.raises(ConfigError, match="a1 == a2"):
        build_structure(config)


def test_parse_rejects_equal_planar_offsets():
    config = parse_config(json.dumps({
        "schema": 1, "family": "planar", "case": "1a", "d1": "1/2",
        "d2": "1/2"}))
    with pytest.raises(ConfigError, match="rhombus"):
        build_structure(config)


@pytest.mark.parametrize("family, case", [
    ("planar", "1b"), ("planar", "2b"), ("C-prismatic", "para")])
def test_parse_accepts_a_rhombus_off_the_pole(family, case):
    # only cases 1a, 2a and anti have a transmission pole at d1 = d2
    data = {"schema": 1, "family": family, "case": case, "d1": "1/2",
            "d2": "1/2"}
    if family != "planar":
        data.update(mu14="1/3", mu12="1/2")
    config = parse_config(json.dumps(data))
    assert config.d1 == config.d2 == Fraction(1, 2)
    assert build_structure(config)


def test_parse_config_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"schema": 1}')
    with pytest.raises(ConfigError, match="not UTF-8"):
        parse_config(path.read_bytes())


def test_a_config_that_is_not_an_object_is_rejected():
    with pytest.raises(ConfigError, match="must be an object"):
        config_object("[1]")


def test_build_structure_rejects_an_unsupported_family():
    with pytest.raises(ConfigError, match="unsupported family 'X'"):
        build_structure(Config("X"))


def test_float_mode_scalars():
    text = json.dumps({"schema": 1, "family": "single", "a1": "1/2",
                       "a2": "1/3", "k": "1", "mode": "float"})
    config = parse_config(text)
    assert isinstance(config.a1, float)
    assert config.a1 == 0.5


# ---------------------------------------------------------------------------
# patches and meshes
# ---------------------------------------------------------------------------

def test_hp_patch_n1_is_quad():
    quad = ((0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 0))
    vertices, faces = hp_patch(quad, 1)
    assert vertices == tuple(
        tuple(float(x) for x in p) for p in (quad[0], quad[1], quad[3], quad[2])
    ) or len(vertices) == 4
    assert faces == [(0, 1, 3, 2)]


def test_hp_patch_needs_a_positive_density():
    with pytest.raises(ValueError, match="at least 1"):
        hp_patch(((0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 0)), 0)


def test_export_rejects_a_structure_it_cannot_mesh():
    with pytest.raises(TypeError, match="cannot pose object"):
        export_obj_text(object(), F(1, 2), 4)
    # only a coupling or a loop design has a pose
    pose = coupled_pose(build_structure(_fixture("fig6")), F(9, 10))
    for other in (None, F(1, 2), pose, pose.pose, pose.quad):
        with pytest.raises(TypeError,
                           match=f"cannot pose {type(other).__name__}"):
            pose_at(other, F(9, 10))


def test_hp_patch_center_is_bilinear_midpoint():
    quad = ((0, 0, 0), (2, 0, 0), (2, 2, 4), (0, 2, 0))
    vertices, _ = hp_patch(quad, 2)
    assert len(vertices) == 9
    center = vertices[4]
    expected = tuple(sum(p[c] for p in quad) / 4 for c in range(3))
    assert all(math.isclose(c, e) for c, e in zip(center, expected))


def test_hp_patch_vertices_on_hyperbolic_paraboloid():
    # every grid point must equal the bilinear blend of the corners exactly
    quad = ((0, 0, 0), (3, 0, 1), (3, 3, -2), (0, 3, 5))
    vertices, faces = hp_patch(quad, 4)
    assert len(vertices) == 25 and len(faces) == 16
    for j in range(5):
        for i in range(5):
            u, v = i / 4, j / 4
            blend = tuple(
                (1 - u) * (1 - v) * quad[0][c] + u * (1 - v) * quad[1][c]
                + u * v * quad[2][c] + (1 - u) * v * quad[3][c]
                for c in range(3)
            )
            got = vertices[j * 5 + i]
            assert max(abs(a - b) for a, b in zip(got, blend)) < 1e-12


def test_coupling_ribbons_structure():
    bib = build_structure(_fixture("fig6"))
    ribbons = coupling_ribbons(coupled_pose(bib, F(9, 10)))
    assert len(ribbons) == 8
    names = [name for name, _ in ribbons]
    assert len(set(names)) == 8
    assert sum(1 for n in names if n.startswith("tube1")) == 4
    assert sum(1 for n in names if n.startswith("tube2")) == 4
    for _, corners in ribbons:
        assert len(corners) == 4
        for p in corners:
            assert all(math.isfinite(float(x)) for x in p)


def test_export_obj_lint_and_determinism():
    config = _fixture("fig6")
    structure = build_structure(config)
    text = export_obj_text(structure, config.tau, patch_n=3)
    assert text == export_obj_text(build_structure(config), config.tau,
                                   patch_n=3)
    n_vertices = n_faces = n_groups = 0
    for line in text.strip().splitlines():
        tag = line.split()[0]
        if tag == "g":
            n_groups += 1
        elif tag == "v":
            n_vertices += 1
            assert all(math.isfinite(float(x)) for x in line.split()[1:])
        elif tag == "f":
            n_faces += 1
            indices = [int(x) for x in line.split()[1:]]
            assert all(1 <= i <= n_vertices for i in indices)
    assert n_groups == 8
    assert n_vertices == 8 * 16
    assert n_faces == 8 * 9


def test_export_single_loop():
    text = export_obj_text(build_structure(_fixture("fig3")), F(3, 5),
                           patch_n=4)
    assert text.count("\ng ") + text.startswith("g ") == 4


def _reference_obj_text(structure, tau, patch_n):
    """The OBJ text as the earlier writer made it: each coordinate converted
    to float where it is read, the half-turn partner by its formulas one
    vector at a time, each token formatted on its own."""
    def dist(p, q):
        return sum((float(p[c]) - float(q[c])) ** 2 for c in range(3)) ** 0.5

    def unit(v):
        norm = sum(float(x) * float(x) for x in v) ** 0.5
        return tuple(float(x) / norm for x in v)

    def image(delta, v, point):
        if not isinstance(delta, HalfTurn):
            return (delta.apply_point if point else delta.apply_direction)(v)
        through, l = delta.line
        b = tuple(div(x, 2 * delta.den) for x in through)
        coef = v_dot(v_sub(v, b) if point else v, l) / v_norm_sq(l)
        if point:
            return v_sub(v_add(v_scale(2, b), v_scale(2 * coef, l)), v)
        return v_sub(v_scale(2 * coef, l), v)

    def ribbons(prefix, anchors, directions):
        labels = list(AXIS_LABELS)
        width = RIBBON_WIDTH * (sum(
            dist(anchors[labels[i]], anchors[labels[(i + 1) % 4]])
            for i in range(4)) / 4.0)
        out = []
        for i in range(4):
            la, lb = labels[i], labels[(i + 1) % 4]
            corners = []
            for label, sign in ((la, -1), (la, 1), (lb, 1), (lb, -1)):
                p, r = anchors[label], unit(directions[label])
                corners.append(tuple(float(p[c]) + sign * width * r[c]
                                     for c in range(3)))
            out.append((f"{prefix}_link_{la[0]}{la[1]}_{lb[0]}{lb[1]}",
                        corners))
        return out

    def patch(quad, n):
        q0, q1, q2, q3 = [tuple(float(x) for x in p) for p in quad]
        vertices = []
        for j in range(n + 1):
            v = j / n
            for i in range(n + 1):
                u = i / n
                vertices.append(tuple(
                    (1 - u) * (1 - v) * q0[c] + u * (1 - v) * q1[c]
                    + u * v * q2[c] + (1 - u) * v * q3[c] for c in range(3)))
        faces = [(a, a + 1, a + n + 2, a + n + 1)
                 for a in (j * (n + 1) + i for j in range(n)
                           for i in range(n))]
        return vertices, faces

    if isinstance(structure, families.BiBennett):
        cp = coupled_pose(structure, tau)
        tubes = ribbons("tube1", {l: cp.quad.vertex(l) for l in AXIS_LABELS},
                        {l: cp.pose.axes[l].direction for l in AXIS_LABELS})
        tubes += ribbons(
            "tube2",
            {l: image(cp.delta, cp.bar_quad.vertex(l), True)
             for l in AXIS_LABELS},
            {l: image(cp.delta, cp.bar_pose.axes[l].direction, False)
             for l in AXIS_LABELS})
    else:
        pose = frame(structure, tau)
        tubes = ribbons("tube1",
                        {l: pose.axes[l].point for l in AXIS_LABELS},
                        {l: pose.axes[l].direction for l in AXIS_LABELS})
    lines = []
    offset = 0
    for name, corners in tubes:
        vertices, faces = patch(corners, patch_n)
        lines.append(f"g {name}")
        for v in vertices:
            lines.append("v " + " ".join(f"{x:.12g}" for x in v))
        for f in faces:
            lines.append("f " + " ".join(str(offset + i + 1) for i in f))
        offset += len(vertices)
    return "\n".join(lines) + "\n"


def _assert_obj_matches_the_reference(structure, tau, patch_n):
    try:
        want = _reference_obj_text(structure, tau, patch_n)
    except ValueError as exc:  # a pole, no real branch, a degenerate quad
        with pytest.raises(type(exc)):
            export_obj_text(structure, tau, patch_n)
        return
    assert export_obj_text(structure, tau, patch_n) == want


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6", "fig7",
                                  "fig8a", "fig8b", "fig9a"])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_obj_writer_matches_the_reference_on_fixtures(name, mode):
    config = parse_config({**json.loads(serialize_config(_fixture(name))),
                           "mode": mode})
    structure = build_structure(config)
    for patch_n in range(1, 6):
        _assert_obj_matches_the_reference(structure, config.tau, patch_n)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_obj_writer_matches_the_reference_on_generated_configs(data):
    family = data.draw(st.sampled_from(sorted(set(FAMILIES) - {"single",
                                                               "planar"})))
    required, optional, *_ = FAMILIES[family]
    raw = {"schema": 1, "family": family,
           "mode": data.draw(st.sampled_from(["exact", "float"]))}
    for key in sorted(required | optional):
        if key == "case":
            raw[key] = data.draw(st.sampled_from(["anti", "para"]))
        elif key in ("s", "branch"):
            raw[key] = data.draw(st.sampled_from([-1, 1]))
        elif key in ("a1", "a2", "k", "d1", "d2"):
            raw[key] = data.draw(_POSITIVE)
        else:
            raw[key] = data.draw(_RATIONAL)
    try:
        structure = build_structure(parse_config(raw))
    except ConfigError:
        assume(False)
    tau = parse_config({**raw, "tau": data.draw(_RATIONAL)}).tau
    _assert_obj_matches_the_reference(structure, tau,
                                      data.draw(st.integers(1, 5)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_entries_of_exact_configs_are_zero(data):
    # an int or Fraction entry is exact and passes only at 0; on an exact
    # config of a family whose claim holds, each one is 0
    family = data.draw(st.sampled_from(sorted(FAMILIES)))
    required, optional, *_ = FAMILIES[family]
    raw = {"schema": 1, "family": family, "mode": "exact",
           "tau": data.draw(_RATIONAL)}
    for key in sorted(required | optional):
        if key == "case":
            raw[key] = data.draw(st.sampled_from(
                PLANAR_CASES if family == "planar" else ("anti", "para")))
        elif key in ("s", "branch"):
            raw[key] = data.draw(st.sampled_from([-1, 1]))
        elif key in ("a1", "a2", "k", "d1", "d2"):
            raw[key] = data.draw(_POSITIVE)
        else:
            raw[key] = data.draw(_RATIONAL)
    try:
        config = parse_config(raw)
        _, report = certify(config,
                            pose_at(build_structure(config), config.tau))
    except (ConfigError, *_MATH_ERRORS):
        assume(False)
    exact = [r for r in report.residuals
             if isinstance(r.value, (int, Fraction))]
    assert all(r.passed == (r.value == 0) for r in exact), report.lines()
    assert all(r.value == 0 for r in exact), report.lines()


# ---------------------------------------------------------------------------
# sweep reports
# ---------------------------------------------------------------------------

def test_sweep_family_b_rows_pass():
    csv_text, report = sweep_report(_fixture("fig5"))
    lines = csv_text.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(report["rows"]) == 4
    for row in report["rows"]:
        assert row["status"] == "ok"
        assert row["verdict"] == "pass"
        assert row["certificate"] == "deltoidal"
        # exact-mode family B closes exactly, so the residual strings are 0
        assert Fraction(row["closure_residual"]) == 0
        assert float(row["side_residual"]) == 0


def test_sweep_pole_marker():
    csv_text, report = sweep_report(_fixture("fig5")._replace(
        tau_samples=(F(0), F(1, 2))))
    rows = report["rows"]
    assert rows[0]["status"] == "pole"
    assert rows[0]["tau_bar"] == ""
    assert rows[1]["status"] == "ok"
    assert csv_text.count("pole") == 1


def test_sweep_no_real_branch_marker():
    # this design's companion parameter is complex at tau = -2/5; the sweep
    # marks the row instead of crashing
    text = json.dumps({"schema": 1, "family": "C", "a1": "1/2", "a2": "1/3",
                       "k": "1", "mu14": "1/2", "mu12": "2/3",
                       "s": 1, "branch": -1})
    config = parse_config(text)._replace(tau_samples=(F(-2, 5), F(9, 10)))
    _, report = sweep_report(config)
    assert report["rows"][0]["status"] == "no-real-branch"
    assert report["rows"][0]["tau_bar"] == ""
    assert report["rows"][1]["status"] == "ok"


def test_sweep_requires_samples():
    config = _fixture("fig8a")._replace(tau_samples=None)
    _, report = sweep_report(config)
    assert [row["tau"] for row in report["rows"]] == [str(config.tau)]
    assert report["rows"][0]["verdict"] == "pass"
    with pytest.raises(ConfigError, match="tau samples"):
        sweep_report(config._replace(tau=None))


def test_sweep_rejects_single_loop():
    with pytest.raises(ConfigError):
        sweep_report(_fixture("fig3")._replace(tau_samples=(F(3, 5),)))


def test_certify_poses_loops_exactly():
    # a loop is posed by frame and checked by its family's loop check; in
    # exact mode every residual is an exact 0
    singles = [{"a1": "1/2", "a2": a2, "k": k, "tau": "9/10"}
               for a2, k in (("1/3", "1"), ("2", "1"), ("1/3", "0"))]
    configs = [_fixture("fig3")] + [
        parse_config(json.dumps({"schema": 1, "family": "single", **keys}))
        for keys in singles]
    for config in configs:
        structure = build_structure(config)
        pose = pose_at(structure, config.tau)
        assert isinstance(pose, Pose)
        assert pose == frame(structure, config.tau)
        name, report = certify(config, pose)
        assert name == FAMILIES[config.family].certificate[0]
        assert report.verdict, report.lines()
        assert all(type(r.value) in (int, Fraction) and r.value == 0
                   for r in report.residuals), report.lines()


@pytest.mark.parametrize("name", ["fig4", "fig5"])
def test_half_turn_partner_of_line_symmetric_fixtures(name):
    config = _fixture(name)
    bib = build_structure(config)
    cp = coupled_pose(bib, config.tau)
    assert isinstance(cp.delta, HalfTurn)
    # the half-turn swaps opposite vertices of the quad
    swap = {(1, 4): (2, 3), (2, 3): (1, 4), (1, 2): (3, 4), (3, 4): (1, 2)}
    images, _, den = cp.delta.images(
        [cp.quad.vertex(label) for label in swap], [], 1)
    for partner, image in zip(swap.values(), images):
        assert coordinates(image, den) == cp.quad.vertex(partner)
    for label, axis in cp.pose.axes.items():
        (point,), (direction,), den = cp.delta.images([axis.point],
                                                      [axis.direction], 1)
        assert cp.hat_axes[label] == Axis(label, coordinates(point, den),
                                          coordinates(direction, den))
    text = export_obj_text(bib, config.tau, patch_n=4)
    assert sum(1 for line in text.splitlines() if line.startswith("g ")) == 8


# ---------------------------------------------------------------------------
# one coupled pose per sweep row, certificates as functions of the pose
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, name):
    """Arguments of every call of ``families.<name>``, through whichever
    package module makes it."""
    original = getattr(families, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if (module_name.startswith("bibennett")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_poses_each_row_once(monkeypatch):
    poses = _count_calls(monkeypatch, "coupled_pose")
    _, report = sweep_report(_fixture("fig6"))
    assert len(report["rows"]) == 3
    assert len(poses) == 3
    # no fig8b row sits on the pole, so each is posed once, the row
    # without a real branch included
    poses.clear()
    _, report = sweep_report(_fixture("fig8b"))
    assert [row["status"] for row in report["rows"]] == [
        "no-real-branch", "ok", "ok"]
    assert len(poses) == 3


_PUBLIC_CERTIFICATES = {
    "isogonal": isogonal_certificate,
    "deltoidal": deltoidal_certificate,
    "halfturn": halfturn_certificate,
    "limit-labels": verify_labels,
}


def _typed_report(report):
    return report.name, [(r.label, type(r.value), r.value, r.tolerance)
                         for r in report.residuals]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "name", ["fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9a"])
def test_pose_checks_match_public_certificates(name, mode):
    data = json.loads(fixture_path(name).read_text())
    config = parse_config(json.dumps(dict(data, mode=mode)))
    structure = build_structure(config)
    report_name, check = FAMILIES[config.family].certificate
    public = _PUBLIC_CERTIFICATES[report_name]
    cp = pose_at(structure, config.tau)
    assert isinstance(cp, CoupledPose)
    assert cp == coupled_pose(structure, config.tau)
    assert _typed_report(check(cp, TOL)) == _typed_report(
        public(structure, config.tau))
    name_, report = certify(config, cp)
    assert (name_, _typed_report(report)) == (
        report_name, _typed_report(public(structure, config.tau)))
    # a config's tol reaches the check of the pose
    _, report = certify(config._replace(tol=1e-3), cp)
    assert _typed_report(report) == _typed_report(check(cp, 1e-3))
