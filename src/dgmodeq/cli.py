"""Command line front end.

Subcommands map one-to-one onto the drivers in analysis.py.  _STUDIES names
the settings each one reads, and that one table gives both its flags and the
keys its config file accepts:

    subcommand    settings it reads                       study
    convergence   scheme grids cfl periods ic integrator  grid refinement errors, one scheme
    compare       grids cfl periods ic integrator         modal P1 against both FV slopes
    residual      scheme grids                            evolution-law coefficients
    spectrum      scheme                                  generator eigenvalues
    correction    grids                                   discrete curvature defect
    taylor        (none)                                  the exact evolution laws

A flag the subcommand does not read is refused by argparse (exit 2), and so
is such a key in its config file.  A setting that is not given keeps the
driver's own default (RunConfig, run_spectrum, run_correction).  Every study
subcommand also takes --out DIR, which writes its table as CSV
(ResultTable.write_csv) and prints the path, and --config FILE, a file of
key=value lines with the same keys plus out; flags override the file.  Every
subcommand, taylor included, takes --assert: exit 1 unless the documented
acceptance bands hold.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .analysis import (
    DG_DEGREE,
    EOC_BANDS,
    SCHEMES,
    SPECTRUM_SAMPLES,
    RunConfig,
    check_convergence,
    check_correction,
    check_residual,
    check_spectrum,
    check_taylor,
    fitted_l2_orders,
    initial_condition,
    run_compare,
    run_convergence,
    run_correction,
    run_residual,
    run_spectrum,
    spectrum_by_degree,
    taylor_statements,
)
from .timestepping import METHODS

#: fv1 is the P0 DG stencil {0: -1, -1: 1}, so its spectrum is degree 0's.
_SPECTRUM_DEGREE = {**DG_DEGREE, "fv1": 0}


def _parse_grids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"grids must be comma separated integers, got {text!r}") from exc


#: Every setting a subcommand can read: the parser of its value (a config
#: file's text, or the flag's value) and the keywords of its flag.
_SETTINGS = {
    "scheme": (str, {"choices": SCHEMES, "help": "spatial scheme (default dg-p1; spectrum: all)"}),
    "grids": (_parse_grids, {"help": "comma separated cell counts, e.g. 20,40,80"}),
    "cfl": (float, {"type": float, "help": "time step per cell width (default 0.1)"}),
    "periods": (float, {"type": float, "help": "number of domain traversals (default 1)"}),
    "ic": (str, {"help": "initial profile: sine, gauss:SIGMA or step"}),
    "integrator": (str, {"choices": METHODS, "help": "time stepper (default ssprk3)"}),
    "out": (str, {"help": "directory for CSV output"}),
}


def parse_config_file(path: Path | str, known: Sequence[str]) -> dict[str, str]:
    """key=value lines, each key from `known` at most once; blank lines and # comments ignored."""
    path = Path(path)
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(known)})")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: key {key!r} already given on line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


def _given(args: argparse.Namespace, keys: Sequence[str]) -> dict:
    """The settings set in the config file or by flag (the flag wins), parsed."""
    texts = parse_config_file(args.config, keys) if args.config is not None else {}
    given = {key: _SETTINGS[key][0](text) for key, text in texts.items()}
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            given[key] = _SETTINGS[key][0](value)
    return given


def _report(failures: list[str], label: str) -> int:
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    print(f"PASS: {label}")
    return 0


# ----------------------------------------------------------------------
# handlers: each runs its study on the given settings, prints its own lines,
# and returns the table (None for taylor) and the label of its --assert PASS


def _convergence(given: dict):
    config = RunConfig(**given)
    table = run_convergence(config)
    print(table.format_text())
    order = fitted_l2_orders(table)[config.scheme]
    if order is not None:
        print(f"fitted L2 order: {order:.4f}")
    return table, f"{config.scheme} order within {EOC_BANDS[config.scheme]}"


def _compare(given: dict):
    table = run_compare(RunConfig(**given))
    print(table.format_text())
    for scheme, order in fitted_l2_orders(table).items():
        if order is not None:
            print(f"fitted L2 order {scheme}: {order:.4f}")
    return table, "compared schemes within their order bands"


def _residual(given: dict):
    table = run_residual(RunConfig(**given))
    print(table.format_text())
    return table, "measured coefficients within 1% of the exact tables on the finest grids"


def _spectrum(given: dict):
    scheme = given.get("scheme")
    if scheme is None:
        table = run_spectrum()
    elif scheme in _SPECTRUM_DEGREE:
        table = run_spectrum((_SPECTRUM_DEGREE[scheme],))
    else:
        known = ", ".join(_SPECTRUM_DEGREE)
        raise ValueError(f"spectrum needs a single-stencil scheme ({known}), got {scheme!r}")
    for degree, (worst, at_zero) in spectrum_by_degree(table).items():
        print(f"degree {degree}: max Re over {SPECTRUM_SAMPLES} samples = {worst:.3e}")
        eigs = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in at_zero)
        print(f"degree {degree}: theta=0 eigenvalues {eigs}")
    return table, "no eigenvalue crosses the imaginary axis"


def _correction(given: dict):
    table = run_correction(**given)
    print(table.format_text())
    print(f"exact leading coefficient: {table.meta['exact_fraction']}")
    return table, "correction defect matches its leading term"


def _taylor(given: dict):
    for line in taylor_statements():
        print(line)
    return None, "exact evolution laws match their frozen values"


#: subcommand: (settings it reads, each a flag and a config key; handler;
#: acceptance check of its table; help).  Any with settings takes --config.
_STUDIES = {
    "convergence": (
        ("scheme", "grids", "cfl", "periods", "ic", "integrator", "out"),
        _convergence, check_convergence, "grid refinement error study",
    ),
    "residual": (
        ("scheme", "grids", "out"), _residual, check_residual, "measure evolution-law coefficients",
    ),
    "spectrum": (
        ("scheme", "out"), _spectrum, check_spectrum, "generator eigenvalues over wavenumber",
    ),
    "correction": (("grids", "out"), _correction, check_correction, "curvature defect study"),
    "compare": (
        ("grids", "cfl", "periods", "ic", "integrator", "out"),
        _compare, check_convergence, "P1 moments against FV slopes",
    ),
    "taylor": ((), _taylor, lambda _table: check_taylor(), "print the exact evolution laws"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgmodeq",
        description="Taylor tables and numerical studies for modal advection stencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (settings, _, _, help_text) in _STUDIES.items():
        p = sub.add_parser(name, help=help_text)
        for key in settings:
            p.add_argument(f"--{key}", **_SETTINGS[key][1])
        if settings:
            p.add_argument("--config", help="file of key=value settings; flags override it")
        p.add_argument(
            "--assert",
            dest="check",
            action="store_true",
            help="verify the documented acceptance bands; exit 1 on any failure",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    settings, run, check, _ = _STUDIES[args.command]
    try:
        given = _given(args, settings) if settings else {}
        out = given.pop("out", None)
        ic = given.get("ic")
        if args.check and ic is not None and not initial_condition(ic).smooth:
            print(
                f"error: --assert bands are calibrated for smooth data; {ic!r} is not smooth",
                file=sys.stderr,
            )
            return 2
        table, label = run(given)
        if out is not None:
            print(f"wrote {table.write_csv(out)}")
        if args.check:
            return _report(check(table), label)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
