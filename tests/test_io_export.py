"""Unit tests for configuration parsing, OBJ export, and sweep reports."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bibennett.bennett import PLANAR_CASES
from bibennett.cli import fixture_path
from bibennett.io_export import (
    FAMILIES,
    ConfigError,
    build_structure,
    coupling_ribbons,
    export_obj_text,
    hp_patch,
    load_config,
    parse_config,
    serialize_config,
    sweep_report,
    SWEEP_HEADER,
)
from bibennett.families import BiBennett, coupled_pose

F = Fraction


def _fixture(name):
    return load_config(fixture_path(name))


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
    required, optional, _ = FAMILIES[family]
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
    text = json.dumps({"schema": 1, "family": "B", "a1": "1/2", "a2": "1/2",
                       "k": "1", "mu23": "1/2", "mu34": "1/3"})
    with pytest.raises(ConfigError, match="invalid design"):
        parse_config(text)


def test_parse_rejects_equal_planar_offsets():
    text = json.dumps({"schema": 1, "family": "planar", "case": "1a",
                       "d1": "1/2", "d2": "1/2"})
    with pytest.raises(ConfigError, match="equal offsets"):
        parse_config(text)


def test_load_config_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"schema": 1}')
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)


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
    ribbons = coupling_ribbons(bib, F(9, 10))
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
    text = export_obj_text(build_structure(_fixture("fig3")), F(3, 5))
    assert text.count("\ng ") + text.startswith("g ") == 4


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
    csv_text, report = sweep_report(_fixture("fig5"), tau_samples=(F(0), F(1, 2)))
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
    config = parse_config(text)
    _, report = sweep_report(config, tau_samples=(F(-2, 5), F(9, 10)))
    assert report["rows"][0]["status"] == "no-real-branch"
    assert report["rows"][0]["tau_bar"] == ""
    assert report["rows"][1]["status"] == "ok"


def test_sweep_requires_samples():
    config = _fixture("fig8a")
    if config.tau_samples is None:
        with pytest.raises(ConfigError, match="tau samples"):
            sweep_report(config)
    csv_text, report = sweep_report(config, tau_samples=(config.tau,))
    assert report["rows"][0]["verdict"] == "pass"


def test_sweep_rejects_single_loop():
    with pytest.raises(ConfigError):
        sweep_report(_fixture("fig3"), tau_samples=(F(3, 5),))
