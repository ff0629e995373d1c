"""Command-line interface tests driven through main(argv)."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bibennett.cli import (
    EXIT_CERTIFICATE,
    EXIT_INPUT,
    EXIT_OK,
    TOL_ENV,
    fixture_path,
    main,
)
from bibennett.io_export import FAMILIES


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
_ALL_KEYS = sorted({key for required, optional, _ in FAMILIES.values()
                    for key in required | optional}
                   | set(_VALUES) | {"tau", "unknown"})


@st.composite
def _fuzzed_config(draw, family):
    """A config of ``family`` with values of the right kind for each key
    (mismatched cases, zeros and negatives included), then at most one key
    dropped, added or set to a value of the wrong kind."""
    required, optional, _ = FAMILIES.get(family, (set(), set(), None))
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


def test_sweep_csv_and_report(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "-c", "fig5", "--out", str(out)]) == EXIT_OK
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0].startswith("tau,")
    data = json.loads(out.read_text())
    assert data["family"] == "B"
    assert all(row["verdict"] == "pass" for row in data["rows"])


def test_certify_pass_and_report(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "-c", "fig6", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["name"] == "halfturn"
    assert data["verdict"] is True
    assert all(r["passed"] for r in data["residuals"])


def test_certify_float_mode(capsys):
    assert main(["certify", "-c", "fig6", "--mode", "float"]) == EXIT_OK


def test_certify_branch_override(capsys):
    assert main(["certify", "-c", "fig6", "--branch", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out


def test_certify_rejects_single_loop(capsys):
    assert main(["certify", "-c", "fig3"]) == EXIT_INPUT


def test_limits_fixture(capsys):
    assert main(["limits", "-c", "fig8a"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Prismatic" in out


def test_limits_rejects_non_limit(capsys):
    assert main(["limits", "-c", "fig6"]) == EXIT_INPUT


def test_appendix_report(tmp_path, capsys):
    out = tmp_path / "appendix.json"
    assert main(["appendix", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["verdict"] is True
    assert len(data["residuals"]) == 13


def test_export_obj(tmp_path, capsys):
    out = tmp_path / "mesh.obj"
    assert main(["export", "-c", "fig6", "--out", str(out),
                 "--patch-n", "2"]) == EXIT_OK
    text = out.read_text()
    assert text.count("g ") == 8
    assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 8 * 9


def test_tol_env_default(tmp_path, monkeypatch):
    # an absurdly tight tolerance from the environment fails a float-mode
    # certificate; an explicit --tol override restores it
    monkeypatch.setenv(TOL_ENV, "1e-300")
    code = main(["certify", "-c", "fig6", "--mode", "float"])
    assert code == EXIT_CERTIFICATE
    code = main(["certify", "-c", "fig6", "--mode", "float", "--tol", "1e-9"])
    assert code == EXIT_OK


def test_bad_tol_env_is_input_error(monkeypatch, capsys):
    monkeypatch.setenv(TOL_ENV, "abc")
    assert main(["validate", "-c", "fig6"]) == EXIT_INPUT
    assert TOL_ENV in capsys.readouterr().err


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


def test_exact_and_float_agree_on_fixtures():
    for name in ("fig4", "fig5", "fig6", "fig8a", "fig8b", "fig9a"):
        exact = main(["certify", "-c", name])
        floaty = main(["certify", "-c", name, "--mode", "float"])
        assert exact == floaty == EXIT_OK, name
