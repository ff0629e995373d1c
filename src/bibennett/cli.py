"""Command-line front end.

Subcommands cover validation, construction, drive sweeps, certificates, limit
label verification, the plane-symmetric non-existence suite, and OBJ export.
Exit codes: 0 on success or all certificates passing, 1 on a certificate or
math failure, 2 on input errors: a config that breaks the schema, or whose
design its family's builder rejects.  A sweep keeps a drive value on a pole,
or without a real companion parameter, as a marked row.  ``--tol`` overrides
the config's float residual tolerance (an exact entry must be 0); ``--tau``
replaces its drive values.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import os
import sys

from .appendix import verify_nonexistence
from .bennett import (
    AXIS_LABELS,
    DegenerateQuadError,
    PoleError,
    frame,
    loop_closure_residual,
)
from .families import (
    BiBennett,
    NoRealBranchError,
    NotIsometricError,
    coupled_pose,
)
from .io_export import (
    Config,
    ConfigError,
    build_structure,
    certify,
    config_object,
    export_obj,
    parse_config,
    sweep_report,
)
from .limits import limit_kind

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_INPUT = 2

# The math failures a valid config can reach: a drive value on a pole, a
# family-C drive value without a real companion parameter, and a quad that
# no rigid alignment fits.  Any other exception is a defect and propagates.
_MATH_ERRORS = (PoleError, NoRealBranchError, DegenerateQuadError,
                NotIsometricError)


def fixture_path(name: str):
    """Path of a bundled figure config such as ``fig6`` or ``fig8a.json``."""
    name = name.removesuffix(".json") + ".json"
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
    for key in ("tau", "mode", "branch", "s", "tol"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    config = parse_config(data)
    return config if args.tau is None else config._replace(tau_samples=None)


def _require_tau(config: Config):
    if config.tau is None:
        raise ConfigError("this subcommand needs a tau: set it in the config "
                          "or pass --tau")
    return config.tau


def _cmd_validate(args) -> int:
    config = _load_config(args)
    structure = build_structure(config)
    print(f"config ok: family {config.family}, mode {config.mode}")
    design = structure
    if isinstance(structure, BiBennett):
        if structure.labels:
            print(f"limit kind {limit_kind(structure)}, labels "
                  f"{sorted(structure.labels)}")
        design = structure.design
    print(f"design: {design}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    config = _load_config(args)
    structure = build_structure(config)
    tau = _require_tau(config)
    out = {"family": config.family, "tau": str(tau)}
    if not isinstance(structure, BiBennett):
        pose = frame(structure, tau)
        residual = loop_closure_residual(structure, tau)
        print(f"loop closure residual: {residual}")
        out["closure_residual"] = str(residual)
        out["axes"] = _axes_dict(pose.axes)
    else:
        cp = coupled_pose(structure, tau)
        print(f"tau     = {tau}")
        print(f"tau_bar = {cp.tau_bar}")
        for label in AXIS_LABELS:
            coords = " ".join(f"{float(c):+.6f}" for c in cp.quad[label])
            print(f"P{label[0]}{label[1]}: {coords}")
        out["tau_bar"] = str(cp.tau_bar)
        out["axes"] = _axes_dict(cp.pose.axes)
        out["hat_axes"] = _axes_dict(cp.hat_axes)
    if args.out:
        _write_json(args.out, out)
    return EXIT_OK


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _axes_dict(axes) -> dict:
    return {
        f"{label[0]}{label[1]}": {
            "point": [float(c) for c in axis.point],
            "direction": [float(c) for c in axis.direction],
        }
        for label, axis in sorted(axes.items())
    }


def _cmd_sweep(args) -> int:
    csv_text, report = sweep_report(_load_config(args))
    print(csv_text, end="")
    if args.out:
        _write_json(args.out, report)
    bad = [row for row in report["rows"] if row.get("verdict") == "fail"]
    return EXIT_CERTIFICATE if bad else EXIT_OK


def _cmd_certify(args) -> int:
    config = _load_config(args)
    structure = build_structure(config)
    tau = _require_tau(config)
    return _report(args, *certify(config, structure, tau))


def _cmd_limits(args) -> int:
    config = _load_config(args)
    structure = build_structure(config)
    if not (isinstance(structure, BiBennett) and structure.labels):
        raise ConfigError(
            f"family {config.family!r} is not a prismatic or pyramidal limit"
        )
    tau = _require_tau(config)
    print(f"kind {limit_kind(structure)} from family {structure.family}; "
          f"labels {sorted(structure.labels)}")
    return _report(args, *certify(config, structure, tau))


def _cmd_appendix(args) -> int:
    return _report(args, "nonexistence", verify_nonexistence())


def _cmd_export(args) -> int:
    if args.patch_n < 1:
        raise ConfigError("--patch-n must be at least 1")
    config = _load_config(args)
    structure = build_structure(config)
    tau = _require_tau(config)
    path = args.out or "bibennett.obj"
    export_obj(structure, tau, path, patch_n=args.patch_n)
    print(f"wrote {path}")
    return EXIT_OK


def _report(args, name, report) -> int:
    """Print a certificate report, write it as JSON to ``--out`` when given,
    and return the exit code of its verdict."""
    for line in report.lines():
        print(line)
    if args.out:
        data = {
            "name": name,
            "verdict": bool(report.verdict),
            "residuals": [
                {"label": r.label, "value": float(r.value),
                 "tolerance": r.tolerance, "passed": bool(r.passed)}
                for r in report.residuals
            ],
        }
        _write_json(args.out, data)
    return EXIT_OK if report.verdict else EXIT_CERTIFICATE


@functools.cache
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
            p.add_argument("--tau", help="drive value override, e.g. 9/10; "
                           "write a negative one as --tau=-1/5")
            p.add_argument("--branch", type=int, choices=(-1, 1))
            p.add_argument("--s", type=int, choices=(-1, 1))
            p.add_argument("--mode", choices=("exact", "float"))
            p.add_argument("--tol", type=float,
                           help="float residual tolerance; exact entries "
                                "must be 0")
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
    except (ConfigError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _MATH_ERRORS as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
