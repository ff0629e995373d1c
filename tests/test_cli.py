"""Command-line interface tests driven through main(argv)."""

import json

import pytest

from bibennett.cli import (
    EXIT_CERTIFICATE,
    EXIT_INPUT,
    EXIT_OK,
    TOL_ENV,
    fixture_path,
    main,
)


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


def test_exact_and_float_agree_on_fixtures():
    for name in ("fig4", "fig5", "fig6", "fig8a", "fig8b", "fig9a"):
        exact = main(["certify", "-c", name])
        floaty = main(["certify", "-c", name, "--mode", "float"])
        assert exact == floaty == EXIT_OK, name
