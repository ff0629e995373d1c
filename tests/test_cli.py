"""Command-line interface tests driven through main(argv)."""

import argparse
import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bibennett.cli import (
    EXIT_CERTIFICATE,
    EXIT_INPUT,
    EXIT_OK,
    fixture_path,
    main,
)
from bibennett.algebra import TOL, v_cross, v_sub
from bibennett.bennett import frame
from bibennett.families import points_on_axes
from bibennett.io_export import FAMILIES, build_structure, parse_config
from bibennett.properties import bennett_loop_check


def test_fixture_path_variants():
    assert fixture_path("fig6").is_file()
    assert fixture_path("fig8a.json").is_file()
    assert not fixture_path("nonesuch").is_file()


def test_validate_fixture(capsys):
    assert main(["validate", "-c", "fig6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "family C" in out


def test_validate_missing_config(capsys):
    assert main(["validate"]) == EXIT_INPUT
    assert "config is required" in capsys.readouterr().err


def test_validate_unknown_fixture(capsys):
    assert main(["validate", "-c", "nonesuch"]) == EXIT_INPUT
    assert "neither a file" in capsys.readouterr().err


def test_validate_bad_config_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1, "family": "X"}')
    assert main(["validate", "-c", str(path)]) == EXIT_INPUT
    assert "family" in capsys.readouterr().err


def test_validate_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"family": "C",')
    assert main(["validate", "-c", str(path)]) == EXIT_INPUT
    assert "invalid JSON" in capsys.readouterr().err


def test_validate_non_utf8_config_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"schema": 1}')
    assert main(["validate", "-c", str(path)]) == EXIT_INPUT
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"family": "planar", "case": "anti", "d1": "1/2", "d2": "1"},
    {"family": "planar", "case": "1a", "d1": "-1", "d2": "1"},
    {"family": "C-prismatic", "case": "1a", "d1": "1/2", "d2": "1",
     "mu14": "1", "mu12": "1/2"},
    {"family": ["A"]},
    {"family": "single", "a1": "1/2", "a2": "1/3", "k": "1", "tol": "x"},
    {"family": "single", "a1": "1/2", "a2": "1/3", "k": "1",
     "tau_samples": [[1]]},
])
def test_bad_inputs_are_input_errors(tmp_path, capsys, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, **config}))
    assert main(["validate", "-c", str(path)]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err



@pytest.mark.parametrize("family, keys", [
    ("C", {"a1": "1/2", "a2": "1/3", "k": "1"}),
    ("C-pyramidal", {"a1": "1/2", "a2": "1/3"}),
    ("C-prismatic", {"case": "anti", "d1": "1/2", "d2": "1/3"}),
])
@pytest.mark.parametrize("mu12", ["2/3", "-2/3"])
def test_family_c_with_equal_offset_squares_is_input_error(
        tmp_path, capsys, family, keys, mu12):
    path = tmp_path / "dm0.json"
    path.write_text(json.dumps({"schema": 1, "family": family, **keys,
                                "mu14": "2/3", "mu12": mu12}))
    assert main(["validate", "-c", str(path)]) == EXIT_INPUT
    assert "mu14^2 = mu12^2" in capsys.readouterr().err

_NUMBER = st.one_of(
    st.builds("{}/{}".format, st.integers(-4, 4), st.integers(1, 4)),
    st.integers(-2, 3),
)
_VALUES = {
    "case": st.sampled_from(["anti", "para", "1a", "1b", "2a", "2b"]),
    "s": st.sampled_from([-1, 1]),
    "branch": st.sampled_from([-1, 1]),
    "mode": st.sampled_from(["exact", "float"]),
    "tau_samples": st.lists(_NUMBER, min_size=1, max_size=2),
    "tol": st.sampled_from([1e-9, 1e-6]),
}
_JUNK = st.sampled_from(["x", "1/0", None, [], [[1]], {"a": 1}, 2.5])
_ALL_KEYS = sorted({key for required, optional, *_ in FAMILIES.values()
                    for key in required | optional}
                   | set(_VALUES) | {"tau", "unknown"})


@st.composite
def _fuzzed_config(draw, family):
    """A config of ``family`` with values of the right kind for each key
    (mismatched cases, zeros and negatives included), then at most one key
    dropped, added or set to a value of the wrong kind."""
    required, optional, *_ = FAMILIES.get(family, (set(), set(), None))
    extra = optional | {"tau", "tau_samples", "tol", "mode"}
    keys = required | draw(st.sets(st.sampled_from(sorted(extra))))
    data = {"schema": 1, "family": family}
    for key in sorted(keys):
        data[key] = draw(_VALUES.get(key, _NUMBER))
    mutation = draw(st.sampled_from(["none", "drop", "add", "junk"]))
    key = draw(st.sampled_from(_ALL_KEYS))
    if mutation == "drop":
        data.pop(key, None)
    elif mutation == "add":
        data[key] = draw(_VALUES.get(key, _NUMBER))
    elif mutation == "junk":
        data[key] = draw(_JUNK)
    return data


@pytest.mark.parametrize("family", sorted(FAMILIES) + ["D"])
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_configs_keep_the_exit_code_contract(tmp_path, family, data):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data.draw(_fuzzed_config(family))))
    assert main(["validate", "-c", str(path)]) in (
        EXIT_OK, EXIT_CERTIFICATE, EXIT_INPUT)


@st.composite
def _family_config(draw):
    """A config of a random FAMILIES row with a value of the right kind for
    every key (zeros, +-1 and equal pairs included) and a random mode; a
    planar or prismatic config is a rhombus, d1 = d2, in one draw of two."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    required, optional, *_ = FAMILIES[family]
    cases = (["1a", "1b", "2a", "2b"] if family == "planar"
             else ["anti", "para"])
    data = {"schema": 1, "family": family, "tau": draw(_NUMBER),
            "mode": draw(_VALUES["mode"])}
    for key in sorted(required | optional):
        data[key] = draw(st.sampled_from(cases) if key == "case"
                         else _VALUES.get(key, _NUMBER))
    if "d1" in data and draw(st.booleans()):
        data["d2"] = data["d1"]
    return data


# fig7 with a tiny offset: its rho alignments meet collinear quad edges
_TINY_OFFSET = {"schema": 1, "family": "C", "a1": "1/2", "a2": "1/3",
                "k": "1", "mu14": "1e-300", "mu12": "1/4", "s": 1,
                "branch": -1, "tau": "9/10", "mode": "exact"}

# tiny half-tangents: in float mode the squared norm of the symmetry
# direction underflows
_TINY_SINGLE = {"schema": 1, "family": "single", "mode": "float",
                "tau": "-1/1", "a1": "1e-300", "a2": "11/11", "k": "90/2"}
_TINY_TRIVIAL = {"schema": 1, "family": "trivial", "mode": "float",
                 "tau": "5/8", "a1": "2e-300", "a2": "5e-300", "k": "2000/4",
                 "mu23": "-6/10", "mu34": "20/8"}

# a tiny tau and offset: a reflection plane of the half-turn certificate
# has a zero normal
_FLAT_REFLECTION = {"schema": 1, "family": "C", "mode": "exact",
                    "tau": "-4e-89", "k": "1", "a1": "63/24", "a2": "82/8",
                    "mu14": "14/69", "mu12": "1e-204", "s": -1, "branch": 1}
# P14 about 1e-200 from the apex: the hat apex lands on P23, and a ray of a
# vertex figure has zero length
_ZERO_RAY = {"schema": 1, "family": "A-pyramidal", "mode": "exact",
             "tau": "3e-83", "mu14": "2e-200", "mu12": "9/2", "mu23": "14/3",
             "mu34": "1"}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_family_config(),
       command=st.sampled_from(["validate", "construct", "sweep", "certify",
                                "limits", "export"]))
@example(config=_TINY_OFFSET, command="certify")
@example(config=_TINY_OFFSET, command="sweep")
@example(config=_TINY_SINGLE, command="certify")
@example(config=_TINY_TRIVIAL, command="export")
@example(config=_FLAT_REFLECTION, command="certify")
@example(config=_ZERO_RAY, command="certify")
def test_subcommands_keep_the_exit_code_contract(tmp_path, capsys, config,
                                                 command):
    # an exception other than the named math errors escapes main and fails
    # the test
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "-c", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) in (EXIT_OK, EXIT_CERTIFICATE, EXIT_INPUT)


@pytest.mark.parametrize("config, message", [
    (_FLAT_REFLECTION, "the plane P12 F12 Fhat12 has a zero normal"),
    (_ZERO_RAY, "a limit predicate has a zero denominator"),
])
def test_degenerate_certificate_geometry_is_a_math_failure(tmp_path, capsys,
                                                           config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["certify", "-c", str(path)]) == EXIT_CERTIFICATE
    assert capsys.readouterr().err == f"failure: {message}\n"


_TRIVIAL = {"schema": 1, "family": "trivial", "a1": "1/3", "a2": "1/2",
            "k": "1", "mu23": "2/3", "mu34": "1/4", "tau": "3/5"}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("command", ["certify", "sweep"])
def test_trivial_pattern_certifies(tmp_path, capsys, mode, command):
    # the trivial pattern's one claim, that the partner tube is the first
    # tube, holds: the config exits 0
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(dict(_TRIVIAL, mode=mode)))
    assert main([command, "-c", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert ("trivial: PASS" in out if command == "certify"
            else out.splitlines()[1].endswith(",trivial,pass"))


def test_construct_prints_pose(capsys):
    assert main(["construct", "-c", "fig6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "tau_bar" in out
    for label in ("P14", "P12", "P23", "P34"):
        assert label in out


def test_construct_report_json(tmp_path):
    out = tmp_path / "pose.json"
    assert main(["construct", "-c", "fig4", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert set(data["axes"]) == {"14", "12", "23", "34"}
    assert set(data["hat_axes"]) == {"14", "12", "23", "34"}


def test_construct_tau_override_pole(capsys):
    # tau = 0 sits at the transmission pole: math failure, exit 1
    assert main(["construct", "-c", "fig6", "--tau", "0"]) == EXIT_CERTIFICATE


def test_negative_tau_override_is_one_token(capsys):
    # "--tau -1/5" reads -1/5 as an option; "--tau=-1/5" is a value
    assert main(["certify", "-c", "fig6", "--tau=-1/5"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("halfturn: PASS")


def test_collinear_rho_alignment_is_a_math_failure(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_TINY_OFFSET))
    for command in ("certify", "sweep"):
        assert main([command, "-c", str(path)]) == EXIT_CERTIFICATE
        assert capsys.readouterr().err.startswith("failure: collinear")


@pytest.mark.parametrize("config, command, obj_digest", [
    (_TINY_SINGLE, "certify", None),
    (_TINY_TRIVIAL, "export",
     "7b6474ae6f1c9680d96103cd404f16f6a7ec125a33ad9fd09aedf0801f382ae9"),
])
def test_underflowing_symmetry_line_is_a_math_failure(tmp_path, capsys,
                                                      config, command,
                                                      obj_digest):
    # float mode fails by name; exact mode passes, or writes this mesh
    path, out = tmp_path / "tiny.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    assert main([command, "-c", str(path)]) == EXIT_CERTIFICATE
    assert capsys.readouterr().err.startswith(
        "failure: the squared norm of the symmetry direction")
    path.write_text(json.dumps({**config, "mode": "exact"}))
    assert main([command, "-c", str(path), "--out", str(out)]) == EXIT_OK
    if obj_digest:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == obj_digest
    else:
        assert "symmetry half-turn           0.000e+00" in (
            capsys.readouterr().out)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name, label", [("fig8a", "III2ii"),
                                         ("fig8b", "III4ii")])
def test_large_scale_prismatic_couplings_align(tmp_path, capsys, mode, name,
                                               label):
    # d1 = 100000: the alignment residual gate scales with the quad, as its
    # distance gates do
    data = json.loads(fixture_path(name).read_text())
    path = tmp_path / "large.json"
    path.write_text(json.dumps({**data, "d1": "100000", "mode": mode}))
    for command in ("validate", "construct", "sweep", "certify", "limits",
                    "export"):
        argv = [command, "-c", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK, command
    assert f"labels[{label}]: PASS" in capsys.readouterr().out


def test_sweep_csv_and_report(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "-c", "fig5", "--out", str(out)]) == EXIT_OK
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0].startswith("tau,")
    data = json.loads(out.read_text())
    assert data["family"] == "B"
    assert all(row["verdict"] == "pass" for row in data["rows"])


def test_sweep_tau_replaces_the_config_samples(capsys):
    def taus(argv):
        assert main(["sweep", "-c", "fig6", *argv]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        return [row.split(",")[0] for row in rows]

    assert taus(["--tau", "1/3"]) == ["1/3"]
    assert taus([]) == ["1/2", "3/4", "9/10"]


_POLE_SWEEP = {"schema": 1, "family": "C", "a1": "1", "a2": "1/2", "k": "1",
               "mu14": "1", "mu12": "1/3", "s": 1, "branch": -1,
               "tau_samples": ["1/2", "3", "-3", "2"]}


@pytest.mark.parametrize("offsets, poles", [
    # tau = +-3 is the pole of the tau_bar relation
    ({}, ["3/1", "-3/1"]),
    # tau = 1 gives tau_bar = 0, the pole of the bar loop's substitution
    ({"mu14": "1/3", "mu12": "1", "tau_samples": ["1/2", "1", "2"]},
     ["1/1"]),
])
def test_sweep_marks_every_pole_row(tmp_path, capsys, offsets, poles):
    path = tmp_path / "poles.json"
    path.write_text(json.dumps({**_POLE_SWEEP, **offsets}))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "-c", str(path), "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    assert [row["tau"] for row in rows if row["status"] == "pole"] == poles
    assert any(row["status"] == "ok" for row in rows)


_DESIGNS = {"single": {"a2": "1/3", "k": "1"},
            "planar": {"d1": "1/2"},
            "C-prismatic": {"d1": "1/2", "mu14": "1", "mu12": "1/3"}}


@pytest.mark.parametrize("family, keys", [
    ("single", {"a1": "1/3"}),  # a1 = a2
    ("single", {"a1": "0"}),
    ("single", {"a1": "-1/2"}),
    ("single", {"a1": "1/2", "k": "-1"}),
    *(("planar", {"case": case, "d2": "1/2"}) for case in ("1a", "2a")),
    ("C-prismatic", {"case": "anti", "d2": "1/2"}),
])
@pytest.mark.parametrize("command", ["validate", "construct", "sweep",
                                     "certify", "limits", "export"])
def test_every_subcommand_rejects_an_excluded_design(tmp_path, capsys, family,
                                                     keys, command):
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"schema": 1, "family": family, "tau": "1/2",
                                **_DESIGNS[family], **keys}))
    parse_config(path.read_text())  # the schema holds; the builder rejects
    argv = [command, "-c", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_certify_pass_and_report(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "-c", "fig6", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["name"] == "halfturn"
    assert data["verdict"] is True
    assert all(r["passed"] for r in data["residuals"])


def test_certify_float_mode(capsys):
    assert main(["certify", "-c", "fig6", "--mode", "float"]) == EXIT_OK


def test_certify_decides_equal_diagonals(tmp_path, capsys):
    # a genuine family-C coupling whose shared quad has equal diagonals at
    # tau = 1 (tau_bar = 3): the negative half-turn entries name the reason
    path = tmp_path / "equal.json"
    path.write_text(json.dumps({
        "schema": 1, "family": "C", "a1": "1/3", "a2": "2/3", "k": "0",
        "mu14": "5/6", "mu12": "1/2", "s": 1, "branch": 1, "tau": "1"}))
    assert main(["certify", "-c", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "halfturn: PASS"
    negative = [line for line in lines if "rho(P" in line]
    assert len(negative) == 4
    assert all("(equal diagonals)" in line for line in negative)
    # the fixture couplings have unequal diagonals: their check stays
    for name in ("fig6", "fig7"):
        for mode in ("exact", "float"):
            assert main(["certify", "-c", name, "--mode", mode]) == EXIT_OK
            assert "(equal diagonals)" not in capsys.readouterr().out


def test_certify_branch_override(capsys):
    assert main(["certify", "-c", "fig6", "--branch", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out


def test_certify_single_and_planar_loops(tmp_path, capsys):
    # a generic design, a1 a2 = 1 (opposite axes meet), k = 0 (all axes
    # meet at the apex), and a float loop near a1 a2 = 1
    singles = [("1/2", "1/3", "1"), ("1/2", "2", "1"), ("1/2", "1/3", "0"),
               ("1/2", "2.000001", "1")]
    for mode in ("exact", "float"):
        assert main(["certify", "-c", "fig3", "--mode", mode]) == EXIT_OK
        assert capsys.readouterr().out.startswith("planar-loop: PASS")
        for a1, a2, k in singles:
            path = tmp_path / "single.json"
            path.write_text(json.dumps({
                "schema": 1, "family": "single", "a1": a1, "a2": a2, "k": k,
                "tau": "9/10", "mode": mode}))
            out = tmp_path / "cert.json"
            assert main(["certify", "-c", str(path), "--out", str(out)]
                        ) == EXIT_OK
            assert capsys.readouterr().out.startswith("bennett-loop: PASS")
            data = json.loads(out.read_text())
            assert data["name"] == "bennett-loop" and data["verdict"]
            labels = [r["label"] for r in data["residuals"]]
            assert labels == ["closure", "symmetry half-turn", "regulus"]
            if mode == "exact":
                assert data["residuals"][2]["value"] == 0


@pytest.mark.parametrize("command", ["certify", "limits", "sweep"])
def test_pyramidal_zero_offset_is_input_error(tmp_path, capsys, command):
    # the quad vertex of a zero offset sits on the apex, where the label
    # predicates divide by its distance to the apex
    path = tmp_path / "apex.json"
    path.write_text(json.dumps({
        "schema": 1, "family": "A-pyramidal", "mu14": "1/2", "mu12": "1/2",
        "mu23": "0", "mu34": "-1/3", "tau": "-3"}))
    assert main([command, "-c", str(path)]) == EXIT_INPUT
    assert "apex" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "certify", "export"])
def test_prismatic_b_zero_offsets_are_input_error(tmp_path, capsys, command):
    # the prismatic limit of family B rejects the offsets family B rejects
    path = tmp_path / "prism.json"
    path.write_text(json.dumps({
        "schema": 1, "family": "B-prismatic", "case": "anti", "d1": "1",
        "d2": "2", "mu23": "0", "mu34": "0", "tau": "1/2"}))
    argv = [command, "-c", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INPUT
    assert "mu23 = mu34 = 0 collapses the quad onto F" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", ["construct", "certify", "export"])
def test_a_subcommand_at_one_tau_needs_a_tau(tmp_path, capsys, command):
    path = tmp_path / "no_tau.json"
    path.write_text(json.dumps({"schema": 1, "family": "single",
                                "a1": "1/2", **_DESIGNS["single"]}))
    argv = [command, "-c", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INPUT
    assert "needs a tau" in capsys.readouterr().err


def test_limits_fixture(capsys):
    assert main(["limits", "-c", "fig8a"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Prismatic" in out


def test_limits_rejects_non_limit(capsys):
    assert main(["limits", "-c", "fig6"]) == EXIT_INPUT


@pytest.mark.parametrize("config, message", [
    # a config that is no limit is rejected as such, before its missing tau
    ({"family": "B", "a1": "1/2", "a2": "1/3", "k": "1", "mu23": "1",
      "mu34": "2"}, "family 'B' is not a prismatic or pyramidal limit"),
    ({"family": "B-pyramidal", "a1": "1/2", "a2": "1/3", "mu23": "1",
      "mu34": "2"}, "needs a tau"),
])
def test_limits_rejects_a_non_limit_before_a_missing_tau(tmp_path, capsys,
                                                        config, message):
    path = tmp_path / "no_tau.json"
    path.write_text(json.dumps({"schema": 1, **config}))
    assert main(["limits", "-c", str(path)]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_appendix_report(tmp_path, capsys):
    out = tmp_path / "appendix.json"
    assert main(["appendix", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["verdict"] is True
    assert len(data["residuals"]) == 13


def test_export_obj(tmp_path, capsys):
    # --patch-n 2 and then the default 4: no option carries into the next call
    out = tmp_path / "mesh.obj"
    for argv, n in ((["--patch-n", "2"], 2), ([], 4)):
        assert main(["export", "-c", "fig6", "--out", str(out),
                     *argv]) == EXIT_OK
        text = out.read_text()
        assert text.count("g ") == 8
        assert sum(1 for l in text.splitlines()
                   if l.startswith("v ")) == 8 * (n + 1) ** 2


def test_main_builds_its_parser_once(monkeypatch, capsys):
    assert main(["validate", "-c", "fig6"]) == EXIT_OK
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["validate", "-c", "fig6"], ["certify", "-c", "fig6"],
                 ["sweep", "-c", "fig5"]):
        assert main(argv) == EXIT_OK
    assert built == []


def test_certify_options_do_not_leak_into_the_next_call(capsys):
    assert main(["certify", "-c", "fig6"]) == EXIT_OK
    first = capsys.readouterr()
    assert main(["certify", "-c", "fig6", "--mode", "float", "--tol", "1e-3",
                 "--branch", "1"]) == EXIT_OK
    overridden = capsys.readouterr()
    assert main(["certify", "-c", "fig6"]) == EXIT_OK
    assert overridden != first
    assert capsys.readouterr() == first


def test_a_rejected_option_is_rejected_again(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "-c", "fig6", "--branch", "3"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_export_patch_density_is_input_error(tmp_path, capsys):
    out = tmp_path / "mesh.obj"
    assert main(["export", "-c", "fig6", "--out", str(out),
                 "--patch-n", "0"]) == EXIT_INPUT
    assert "--patch-n" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "--tol"])
def test_negative_tol_is_input_error(tmp_path, capsys, source):
    argv = ["certify", "-c", "fig4"]
    if source == "config":
        config = json.loads(fixture_path("fig4").read_text())
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({**config, "tol": -1}))
        argv = ["certify", "-c", str(path)]
    else:
        argv += ["--tol", "-1"]
    assert main(argv) == EXIT_INPUT
    assert "'tol' must be nonnegative" in capsys.readouterr().err
    # a zero tolerance stays valid: fig4's exact residuals are exact zeros
    assert main(["certify", "-c", "fig4", "--tol", "0"]) == EXIT_OK


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", ["a1", "tau", "tol"])
def test_non_finite_float_scalars_are_input_errors(tmp_path, capsys, key,
                                                   value):
    config = {"schema": 1, "family": "single", "mode": "float",
              "a1": 0.5, "a2": 1 / 3, "k": 1.0, "tau": 0.5}
    config[key] = value
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(config))
    assert main(["construct", "-c", str(path)]) == EXIT_INPUT
    assert "not a finite number" in capsys.readouterr().err


_BOOLEAN_BASES = {
    "C": {"a1": "1/2", "a2": "1/3", "k": "1", "mu14": "2/3", "mu12": "1/4",
          "s": 1, "branch": -1},
    "C-prismatic": {"case": "anti", "d1": "1/2", "d2": "1", "mu14": "2/3",
                    "mu12": "1/4"},
    "B": {"a1": "1/2", "a2": "1/3", "k": "1", "mu23": "2/3", "mu34": "1/4"},
}


_KEYS_BY_FAMILY = (
    [("C", key) for key in ("a1", "a2", "k", "mu14", "mu12", "tau",
                            "tau_samples", "s", "branch", "tol")]
    + [("C-prismatic", "d1"), ("C-prismatic", "d2"), ("B", "mu23"),
       ("B", "mu34")])


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("family, key, value", [
    *((family, key, value) for family, key in _KEYS_BY_FAMILY
      for value in (True, False)),
    # s and branch take only the integers -1 and 1: a float sign would
    # turn the exact bar offsets into floats
    *(("C", key, value) for key in ("s", "branch") for value in (1.0, -1.0)),
])
def test_booleans_and_float_signs_are_input_errors(tmp_path, capsys, family,
                                                     key, value, mode):
    config = {"schema": 1, "family": family, "mode": mode,
              **_BOOLEAN_BASES[family], "tau": "3/5",
              "tau_samples": ["1/2", "3/4"], "tol": 1e-9}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["validate", "-c", str(path)]) == EXIT_OK
    capsys.readouterr()
    config[key] = ["1/2", value] if key == "tau_samples" else value
    path.write_text(json.dumps(config))
    assert main(["validate", "-c", str(path)]) == EXIT_INPUT
    assert repr(key) in capsys.readouterr().err


def test_exact_and_float_agree_on_fixtures():
    for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b",
                 "fig9a"):
        exact = main(["certify", "-c", name])
        floaty = main(["certify", "-c", name, "--mode", "float"])
        assert exact == floaty == EXIT_OK, name


def test_construct_single_loop_report(tmp_path, capsys):
    out = tmp_path / "construct.json"
    assert main(["construct", "-c", "fig3", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["closure_residual"] == "0"
    assert sorted(data["axes"]) == ["12", "14", "23", "34"]


@pytest.mark.parametrize("command", ["limits", "certify"])
def test_tol_reaches_limit_predicates(tmp_path, capsys, command):
    out = tmp_path / "labels.json"

    def tolerances(mode):
        assert main([command, "-c", "fig8a", "--mode", mode, "--tol", "1e-3",
                     "--out", str(out)]) == EXIT_OK
        return {r["label"]: r["tolerance"]
                for r in json.loads(out.read_text())["residuals"]}

    # in float mode every entry is a float held to --tol, except the int
    # yes/no entry, which is exact and so must be 0
    floats = tolerances("float")
    assert floats.pop("III2ii: not a parallelogram") == 0
    assert floats and set(floats.values()) == {1e-3}
    # in exact mode every entry is exact but the prism-edge check, which
    # reads the hat directions of the float family-C alignment
    exact = tolerances("exact")
    assert exact.pop("axes parallel") == 1e-3
    assert set(exact.values()) == {0}


# SHA-256 of the sweep standard output and of the exported OBJ file of every
# bundled fixture; any byte drift in either fails here.
FIXTURE_DIGESTS = {
    ("fig3", "export"):
        "2eef2ff93d15220a875c5deeec10ca6705216c9ffee92e0bc97e32e5c549b554",
    ("fig4", "export"):
        "6963a3c353cdc940e10d1959b202b1b19d0fa8c8ad8eaf0942db9c7dc4e0fd43",
    ("fig4", "sweep"):
        "8623dfd1cd32a97fd3a7e8da676a09807557f4bf14372633060093ff2bf83d19",
    ("fig5", "export"):
        "f78a03f2da73bbaefec4c18f0c5b98c04d707b904fad5cc3f6ddca2503d38af6",
    ("fig5", "sweep"):
        "3f25d5dd4733f6a91d39e0686edb1506ebf450a6041dc91fabcaea5872ebfbb4",
    ("fig6", "export"):
        "c91ec1c4f82ea66cb51cc608cc75e5128e315fd3b110d5ab4d15ac7511925361",
    ("fig6", "sweep"):
        "98b7702a57b540c6294102479e69a85d6731f7fbb8031989623ecfd9ae44674c",
    ("fig7", "export"):
        "c91ec1c4f82ea66cb51cc608cc75e5128e315fd3b110d5ab4d15ac7511925361",
    ("fig7", "sweep"):
        "98b7702a57b540c6294102479e69a85d6731f7fbb8031989623ecfd9ae44674c",
    ("fig8a", "export"):
        "0c84d66347c868da458e46a6d490626febdc117fd4d2f452a8ba38bd7630d800",
    ("fig8a", "sweep"):
        "58f9462836ce784c75b5283fb1ac58ff42025b9abcd6873211ed9abe43fd5c58",
    ("fig8b", "export"):
        "6e8ec40a85b88436261b26da7e724ecce444e1a6ea89519d2cbc76be2d39845b",
    ("fig8b", "sweep"):
        "8c019fd66ea3b1a892f37cdfd7e17a6ff0ae8d6e6fb569e42394127895ac1511",
    ("fig9a", "export"):
        "6feca759535950a468fa8e0cc82937098d69fa0a0de5b079e832c49e300f4435",
    ("fig9a", "sweep"):
        "41f0ee0ac7d8bb788e7f394fe4f91f88acdeb82535008a77d86620e490a99058",
}


@pytest.mark.parametrize("name, command", sorted(FIXTURE_DIGESTS))
def test_fixture_output_digests(tmp_path, capsys, name, command):
    argv = [command, "-c", name]
    if command == "export":
        path = tmp_path / f"{name}.obj"
        argv += ["--out", str(path)]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    data = path.read_bytes() if command == "export" else stdout.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == FIXTURE_DIGESTS[name, command]


# SHA-256 over the exit code, standard output and standard error of
# validate, construct, certify and limits on every bundled fixture in each
# mode, and of the appendix's standard output; any byte drift in a report,
# a message or an exit code fails here.
GOLDEN_DIGESTS = {
    ("fig3", "exact"):
        "b85f9750946dd6b86166f29d7a90a8038fbe83409b2e0c5d471f093f7292210c",
    ("fig3", "float"):
        "70b6e4fc90f10641ab3167d0f281a88721028a1b55996bde127d87a1d78ee984",
    ("fig4", "exact"):
        "4dd13c06d125b350e373d6589b105d3a4593e03ab9c1c8a9c2e62ee431374662",
    ("fig4", "float"):
        "47407e92fc96d9bf27e9c6e686a358d032f73a7a23e4d6cfec204271dac07ff7",
    ("fig5", "exact"):
        "435923da0e7843acfc2e87c4ea224821bf92af36be2f58cbb9d7e55ad8e50c7e",
    ("fig5", "float"):
        "854f53bf424edeb6a101799519e0f95d872a22df1dcdfe495084b88dadb737db",
    ("fig6", "exact"):
        "a746761f796affcb33e4fb8b756f53256976dd8fee7201b1ed24708e1e553848",
    ("fig6", "float"):
        "b1f95ab7363ea6cf1a636717f8ccf72bdff53672534b9bc1bc9d1a2031a7ea1f",
    ("fig7", "exact"):
        "a746761f796affcb33e4fb8b756f53256976dd8fee7201b1ed24708e1e553848",
    ("fig7", "float"):
        "b1f95ab7363ea6cf1a636717f8ccf72bdff53672534b9bc1bc9d1a2031a7ea1f",
    ("fig8a", "exact"):
        "d08ac2de161ec09f5028a67552d1506a47b745fbb7b6c5b8bd53a0ea6e7eda7b",
    ("fig8a", "float"):
        "7b3705a1abe1547f28498c16459193a0cf2c88a156cbe8fa65f47e873fcc66db",
    ("fig8b", "exact"):
        "5f5b2af9f8850d01d3a8616dce73c1b058487c39e9b3cfefa949cfd1a1831195",
    ("fig8b", "float"):
        "892068d87fc73c84c2f0b6e4b8301de8fdbd032ade0096fed29b3bc795616fa3",
    ("fig9a", "exact"):
        "f4586ea729701701754fd509ce119dd6790aab37bdae9310098cd95714d60bdc",
    ("fig9a", "float"):
        "9fd20728f6dd5c3861cb327d049d3b1b404656851f44918cf9c54c1556dd3618",
    "appendix":
        "3ac16a845d07ce7b1002f8611508ab123dce535d31527499088ee2a737813995",
}


@pytest.mark.parametrize("name, mode",
                         sorted(k for k in GOLDEN_DIGESTS if k != "appendix"))
def test_fixture_report_digests(capsys, name, mode):
    digest = hashlib.sha256()
    for command in ("validate", "construct", "certify", "limits"):
        code = main([command, "-c", name, "--mode", mode])
        captured = capsys.readouterr()
        digest.update(
            f"{command} {code}\n{captured.out}\0{captured.err}\0".encode())
    assert digest.hexdigest() == GOLDEN_DIGESTS[name, mode]


def test_appendix_report_digest(capsys):
    assert main(["appendix"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_DIGESTS[
        "appendix"]


# Runs in a fresh interpreter where ``import numpy`` raises ImportError:
# the report digests (as test_fixture_report_digests forms them), the sweep
# output digest and the OBJ digest of each family-C fixture, with the exit
# codes of sweep and export, as JSON.
_NUMPY_BLOCKED_RUN = """
import hashlib, json, sys, tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, sys.argv[1])
sys.modules["numpy"] = None
from bibennett.cli import main

def run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()

found = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in ("fig6", "fig8a", "fig8b", "fig9a"):
        for mode in ("exact", "float"):
            digest = hashlib.sha256()
            for command in ("validate", "construct", "certify", "limits"):
                code, out, err = run([command, "-c", name, "--mode", mode])
                digest.update(f"{command} {code}\\n{out}\\0{err}\\0".encode())
            found[f"{name} {mode}"] = digest.hexdigest()
        code, out, _ = run(["sweep", "-c", name])
        found[f"{name} sweep"] = [code, hashlib.sha256(out.encode()).hexdigest()]
        obj = Path(tmp) / f"{name}.obj"
        code, _, _ = run(["export", "-c", name, "--out", str(obj)])
        found[f"{name} export"] = [
            code, hashlib.sha256(obj.read_bytes()).hexdigest()]
print(json.dumps(found))
"""


def test_family_c_fixtures_run_without_numpy():
    src = Path(__import__("bibennett").__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED_RUN, str(src)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    for name in ("fig6", "fig8a", "fig8b", "fig9a"):
        for mode in ("exact", "float"):
            assert found[f"{name} {mode}"] == GOLDEN_DIGESTS[name, mode]
        for command in ("sweep", "export"):
            assert found[f"{name} {command}"] == [
                EXIT_OK, FIXTURE_DIGESTS[name, command]]


def test_trivial_coupling_on_a_collinear_quad_fails_in_the_quad(tmp_path,
                                                                capsys):
    # a trivial config whose four quad vertices lie on one line: the loop
    # closes, but the quad has no symmetry line, so the commands that pose
    # the coupling exit 1 (whether it should be posed at all is still open)
    config = {"schema": 1, "family": "trivial", "a1": "2/1", "a2": "1/1",
              "k": "1/2", "mu23": "1/1", "mu34": "-3/1", "tau": "6/1",
              "mode": "exact"}
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(config))
    assert main(["validate", "-c", str(path)]) == EXIT_OK
    capsys.readouterr()
    for command in ("construct", "export"):
        out = str(tmp_path / f"{command}.out")
        assert main([command, "-c", str(path), "--out", out]) == (
            EXIT_CERTIFICATE)
        assert capsys.readouterr().err == (
            "failure: the quad degenerates to a segment\n")
    parsed = parse_config(config)
    bib = build_structure(parsed)
    pose = frame(bib.design, parsed.tau)
    p14, *others = points_on_axes(pose, bib.mu).vertices()
    assert all(v_cross(v_sub(p, p14), v_sub(others[0], p14)) == (0, 0, 0)
               for p in others)
    report = bennett_loop_check(pose, TOL)
    assert [r.value for r in report.residuals] == [0, 0, 0]
    assert all(type(r.value) is Fraction for r in report.residuals)
