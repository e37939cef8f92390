"""Command line front end.

Subcommands map one-to-one onto the drivers in analysis.py:

    convergence   grid-refinement error study for one scheme
    residual      measure modified-equation coefficients from the operator
    spectrum      eigenvalues of the per-wavenumber generator
    correction    discrete curvature defect and its leading coefficient
    compare       modal P1 against both second-order FV slope choices
    taylor        print the exact evolution laws

Every subcommand accepts --assert to exit nonzero unless the documented
acceptance bands hold.  The study subcommands also accept --out DIR: the
driver returns its table and this module writes it there as CSV
(ResultTable.write_csv), then prints the path.  Settings may come from a
config file of key=value lines; command line flags override the file, the
file overrides built-in defaults.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import (
    EOC_BANDS,
    SCHEMES,
    SPECTRUM_SAMPLES,
    ResultTable,
    RunConfig,
    check_convergence,
    check_correction,
    check_residual,
    check_spectrum,
    check_taylor,
    initial_condition,
    run_compare,
    run_convergence,
    run_correction,
    run_residual,
    run_spectrum,
    taylor_statements,
)
from .timestepping import METHODS

_CONFIG_KEYS = ("scheme", "grids", "cfl", "periods", "ic", "integrator", "out")

_DEFAULTS = {
    "scheme": "dg-p1",
    "grids": (20, 40, 80, 160, 320),
    "cfl": 0.1,
    "periods": 1.0,
    "ic": "sine",
    "integrator": "ssprk3",
    "out": None,
}

_SPECTRUM_DEGREE = {"dg-p1": 1, "dg-p2": 2, "fv1": 0}


def _parse_grids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"grids must be comma separated integers, got {text!r}") from exc


def parse_config_file(path: Path | str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    path = Path(path)
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(_CONFIG_KEYS)})")
        values[key] = value
    return values


def _coerce(key: str, value: str):
    if key == "grids":
        return _parse_grids(value)
    if key in ("cfl", "periods"):
        return float(value)
    return value


def _resolve(args: argparse.Namespace) -> tuple[dict, set[str]]:
    """Merge defaults, config file and flags; track explicitly set keys."""
    merged = dict(_DEFAULTS)
    explicit: set[str] = set()
    config_path = getattr(args, "config", None)
    if config_path is not None:
        for key, text in parse_config_file(config_path).items():
            merged[key] = _coerce(key, text)
            explicit.add(key)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is None:
            continue
        merged[key] = _coerce(key, value) if isinstance(value, str) and key == "grids" else value
        explicit.add(key)
    return merged, explicit


def _run_config(merged: dict, **overrides) -> RunConfig:
    return RunConfig(**{f.name: overrides.get(f.name, merged[f.name]) for f in fields(RunConfig)})


def _write(table: ResultTable, merged: dict) -> None:
    if merged["out"] is not None:
        print(f"wrote {table.write_csv(merged['out'])}")


def _report(failures: list[str], label: str) -> int:
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    print(f"PASS: {label}")
    return 0


def _refuse_rough_ic(check: bool, ic_name: str) -> bool:
    if check and not initial_condition(ic_name).smooth:
        print(
            f"error: --assert bands are calibrated for smooth data; {ic_name!r} is not smooth",
            file=sys.stderr,
        )
        return True
    return False


# ----------------------------------------------------------------------
# handlers


def _cmd_convergence(args: argparse.Namespace) -> int:
    merged, _ = _resolve(args)
    if _refuse_rough_ic(args.check, merged["ic"]):
        return 2
    config = _run_config(merged)
    table = run_convergence(config)
    print(table.format_text())
    order = table.meta["fitted_l2_order"][config.scheme]
    if order is not None:
        print(f"fitted L2 order: {order:.4f}")
    _write(table, merged)
    if args.check:
        return _report(check_convergence(table), f"{config.scheme} order within {EOC_BANDS[config.scheme]}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    merged, _ = _resolve(args)
    if _refuse_rough_ic(args.check, merged["ic"]):
        return 2
    config = _run_config(merged, scheme="dg-p1")
    table = run_compare(config)
    print(table.format_text())
    for scheme, order in table.meta["fitted_l2_order"].items():
        if order is not None:
            print(f"fitted L2 order {scheme}: {order:.4f}")
    _write(table, merged)
    if args.check:
        return _report(check_convergence(table), "compared schemes within their order bands")
    return 0


def _cmd_residual(args: argparse.Namespace) -> int:
    merged, _ = _resolve(args)
    table = run_residual(_run_config(merged))
    print(table.format_text())
    _write(table, merged)
    if args.check:
        return _report(
            check_residual(table),
            "measured coefficients within 1% of the exact tables on the finest grids",
        )
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    merged, explicit = _resolve(args)
    if "scheme" in explicit:
        scheme = merged["scheme"]
        if scheme not in _SPECTRUM_DEGREE:
            raise ValueError(
                f"spectrum needs a single-stencil scheme ({', '.join(_SPECTRUM_DEGREE)}), got {scheme!r}"
            )
        degrees: tuple[int, ...] = (_SPECTRUM_DEGREE[scheme],)
    else:
        degrees = (0, 1, 2)
    table = run_spectrum(degrees)
    for degree in degrees:
        print(f"degree {degree}: max Re over {SPECTRUM_SAMPLES} samples"
              f" = {table.meta['max_re'][degree]:.3e}")
        eigs = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in table.meta["theta0"][degree])
        print(f"degree {degree}: theta=0 eigenvalues {eigs}")
    _write(table, merged)
    if args.check:
        return _report(check_spectrum(table), "no eigenvalue crosses the imaginary axis")
    return 0


def _cmd_correction(args: argparse.Namespace) -> int:
    merged, _ = _resolve(args)
    table = run_correction(merged["grids"])
    print(table.format_text())
    print(f"exact leading coefficient: {table.meta['exact_fraction']}")
    _write(table, merged)
    if args.check:
        return _report(check_correction(table), "correction defect matches its leading term")
    return 0


def _cmd_taylor(args: argparse.Namespace) -> int:
    for line in taylor_statements():
        print(line)
    if args.check:
        return _report(check_taylor(), "exact evolution laws match their frozen values")
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgmodeq",
        description="Taylor tables and numerical studies for modal advection stencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="directory for CSV output")
    common.add_argument("--config", help="file of key=value settings; flags override it")
    common.add_argument(
        "--assert",
        dest="check",
        action="store_true",
        help="verify the documented acceptance bands; exit 1 on any failure",
    )

    study = argparse.ArgumentParser(add_help=False)
    study.add_argument("--scheme", choices=SCHEMES, help="spatial scheme (default dg-p1)")
    study.add_argument("--grids", help="comma separated cell counts, e.g. 20,40,80")
    study.add_argument("--cfl", type=float, help="time step per cell width (default 0.1)")
    study.add_argument("--periods", type=float, help="number of domain traversals (default 1)")
    study.add_argument("--ic", help="initial profile: sine, gauss:SIGMA or step")
    study.add_argument("--integrator", choices=METHODS, help="time stepper (default ssprk3)")

    p = sub.add_parser("convergence", parents=[common, study], help="grid refinement error study")
    p.set_defaults(handler=_cmd_convergence)
    p = sub.add_parser("residual", parents=[common, study], help="measure evolution-law coefficients")
    p.set_defaults(handler=_cmd_residual)
    p = sub.add_parser("spectrum", parents=[common, study], help="generator eigenvalues over wavenumber")
    p.set_defaults(handler=_cmd_spectrum)
    p = sub.add_parser("correction", parents=[common, study], help="curvature defect study")
    p.set_defaults(handler=_cmd_correction)
    p = sub.add_parser("compare", parents=[common, study], help="P1 moments against FV slopes")
    p.set_defaults(handler=_cmd_compare)
    p = sub.add_parser("taylor", parents=[common], help="print the exact evolution laws")
    p.set_defaults(handler=_cmd_taylor)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
