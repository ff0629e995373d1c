"""Command-line front end.

Subcommands cover validation, construction, drive sweeps, certificates, limit
label verification, the plane-symmetric non-existence suite, and OBJ export.
Exit codes: 0 on success or all certificates passing, 1 on a certificate or
math failure, 2 on input errors.  The environment variable ``BIBENNETT_TOL``
supplies a default residual tolerance when neither the config nor ``--tol``
sets one.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys

from .appendix import verify_nonexistence
from .bennett import PoleError, frame, loop_closure_residual
from .families import NoRealBranchError, coupled_pose
from .io_export import (
    Config,
    ConfigError,
    as_bibennett,
    build_structure,
    certify,
    config_object,
    export_obj,
    parse_config,
    sweep_report,
)
from .limits import LimitStructure, verify_labels

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_INPUT = 2

TOL_ENV = "BIBENNETT_TOL"

_MATH_ERRORS = (PoleError, NoRealBranchError, ValueError, ZeroDivisionError)


def fixture_path(name: str):
    """Path of a bundled figure config such as ``fig6`` or ``fig8a.json``."""
    if not name.endswith(".json"):
        name += ".json"
    return importlib.resources.files("bibennett") / "fixtures" / name


def _load_config(args) -> Config:
    if args.config is None:
        raise ConfigError("a config is required: pass -c/--config")
    if os.path.exists(args.config):
        with open(args.config, "rb") as handle:
            raw = handle.read()
    else:
        resource = fixture_path(args.config)
        if not resource.is_file():
            raise ConfigError(
                f"config {args.config!r} is neither a file nor a bundled fixture"
            )
        raw = resource.read_bytes()
    data = config_object(raw)
    for key in ("tau", "mode"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    for key in ("branch", "s"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    tol = getattr(args, "tol", None)
    if tol is None and TOL_ENV in os.environ:
        try:
            tol = float(os.environ[TOL_ENV])
        except ValueError as exc:
            raise ConfigError(f"${TOL_ENV}: {exc}") from exc
    if tol is not None:
        data["tol"] = tol
    return parse_config(json.dumps(data))


def _require_tau(config: Config):
    if config.tau is None:
        raise ConfigError("this subcommand needs a tau: set it in the config "
                          "or pass --tau")
    return config.tau


def _print_report(report) -> None:
    for line in report.lines():
        print(line)


def _cmd_validate(args) -> int:
    config = _load_config(args)
    structure = build_structure(config)
    print(f"config ok: family {config.family}, mode {config.mode}")
    bib = as_bibennett(structure)
    if isinstance(structure, LimitStructure):
        print(f"limit kind {structure.kind}, labels "
              f"{sorted(structure.labels)}")
    if bib is not None:
        print(f"design: {bib.design}")
    else:
        print(f"design: {structure}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    config = _load_config(args)
    structure = build_structure(config)
    tau = _require_tau(config)
    bib = as_bibennett(structure)
    out = {"family": config.family, "tau": str(tau)}
    if bib is None:
        pose = frame(structure, tau)
        residual = loop_closure_residual(structure, tau)
        print(f"loop closure residual: {residual}")
        out["closure_residual"] = str(residual)
        out["axes"] = _axes_dict(pose.axes)
    else:
        cp = coupled_pose(bib, tau)
        print(f"tau     = {tau}")
        print(f"tau_bar = {cp.tau_bar}")
        for label in ((1, 4), (1, 2), (2, 3), (3, 4)):
            coords = " ".join(f"{float(c):+.6f}" for c in cp.quad[label])
            print(f"P{label[0]}{label[1]}: {coords}")
        out["tau_bar"] = str(cp.tau_bar)
        out["axes"] = _axes_dict(cp.pose.axes)
        out["hat_axes"] = _axes_dict(cp.hat_axes)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_OK


def _axes_dict(axes) -> dict:
    return {
        f"{label[0]}{label[1]}": {
            "point": [float(c) for c in axis.point],
            "direction": [float(c) for c in axis.direction],
        }
        for label, axis in sorted(axes.items())
    }


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    samples = config.tau_samples
    if samples is None and config.tau is not None:
        samples = (config.tau,)
    csv_text, report = sweep_report(config, samples)
    print(csv_text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    bad = [row for row in report["rows"] if row.get("verdict") == "fail"]
    return EXIT_CERTIFICATE if bad else EXIT_OK


def _cmd_certify(args) -> int:
    config = _load_config(args)
    structure = build_structure(config)
    if as_bibennett(structure) is None:
        raise ConfigError(f"family {config.family!r} has no coupling to certify")
    tau = _require_tau(config)
    name, report = certify(structure, tau, config.tol)
    _print_report(report)
    if args.out:
        _write_report(args.out, name, report)
    return EXIT_OK if report.verdict else EXIT_CERTIFICATE


def _cmd_limits(args) -> int:
    config = _load_config(args)
    structure = build_structure(config)
    if not isinstance(structure, LimitStructure):
        raise ConfigError(
            f"family {config.family!r} is not a prismatic or pyramidal limit"
        )
    tau = _require_tau(config)
    print(f"kind {structure.kind} from family {structure.source_family}; "
          f"labels {sorted(structure.labels)}")
    report = verify_labels(structure, tau)
    _print_report(report)
    if args.out:
        _write_report(args.out, "limit-labels", report)
    return EXIT_OK if report.verdict else EXIT_CERTIFICATE


def _cmd_appendix(args) -> int:
    report = verify_nonexistence()
    _print_report(report)
    if args.out:
        _write_report(args.out, "nonexistence", report)
    return EXIT_OK if report.verdict else EXIT_CERTIFICATE


def _cmd_export(args) -> int:
    config = _load_config(args)
    structure = build_structure(config)
    tau = _require_tau(config)
    path = args.out or "bibennett.obj"
    export_obj(structure, tau, path, patch_n=args.patch_n)
    print(f"wrote {path}")
    return EXIT_OK


def _write_report(path, name, report) -> None:
    data = {
        "name": name,
        "verdict": bool(report.verdict),
        "residuals": [
            {"label": r.label, "value": float(r.value),
             "tolerance": r.tolerance, "passed": bool(r.passed)}
            for r in report.residuals
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bibennett",
        description="Construct, verify, and export flexible couplings of "
                    "Bennett tubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "validate": _cmd_validate,
        "construct": _cmd_construct,
        "sweep": _cmd_sweep,
        "certify": _cmd_certify,
        "limits": _cmd_limits,
        "appendix": _cmd_appendix,
        "export": _cmd_export,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        if name != "appendix":
            p.add_argument("-c", "--config",
                           help="config path or bundled fixture name "
                                "(fig3 ... fig9a)")
            p.add_argument("--tau", help="drive value override, e.g. 9/10")
            p.add_argument("--branch", type=int, choices=(-1, 1))
            p.add_argument("--s", type=int, choices=(-1, 1))
            p.add_argument("--mode", choices=("exact", "float"))
            p.add_argument("--tol", type=float,
                           help="residual tolerance override "
                                f"(default from ${TOL_ENV})")
        p.add_argument("--out", help="write a machine-readable report or mesh")
        if name == "export":
            p.add_argument("--patch-n", dest="patch_n", type=int, default=4,
                           help="patch density per ribbon (default 4)")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _MATH_ERRORS as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
