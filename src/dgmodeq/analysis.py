"""Experiment drivers: convergence, residual, spectrum, correction, compare.

Each run_* function returns a ResultTable that renders both as an aligned
console table and as deterministic CSV (comma separated, header row,
scientific notation with 13 significant digits).  Wall-clock times are kept
in table metadata and the console rendering only, never in the CSV, so
repeated runs with the same configuration produce byte-identical files.

The convergence and compare studies advance each scheme's stencil with the
exact Fourier propagator (Integrator.propagate); marching with
Integrator.integrate is the reference it is tested against.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dg import ExactInterface, rhs_matrix, rhs_weak, symbol, correction_term, update_matrices
from .exact import (
    EXACT_POINT,
    MODES,
    UPWIND_TRACE,
    StencilSpec,
    correction_series,
    moment_evolution_laws,
    moment_leading_scale,
)
from .field import error_norms, project
from .fv import average_error_norms, fv_stencil, project_averages
# Not called here, but kept importable from this module so the benchmark's
# tracer (perfbench/spans.py) can wrap them where it wraps the others.
from .fv import rhs_fv1, rhs_fv2  # noqa: F401
from .mesh import Mesh1D
from .timestepping import METHODS, Integrator

SCHEMES = ("dg-p1", "dg-p2", "fv1", "fv2-central", "fv2-upwind")
DG_DEGREE = {"dg-p1": 1, "dg-p2": 2}

#: Acceptance bands for the fitted L2 convergence order of each scheme.
EOC_BANDS = {
    "dg-p1": (1.7, 2.3),
    "dg-p2": (2.7, 3.3),
    "fv1": (0.9, 1.1),
    "fv2-central": (1.8, 2.2),
    "fv2-upwind": (1.8, 2.2),
}

SPECTRUM_SAMPLES = 256
SPECTRUM_RE_TOL = 1e-12
RESIDUAL_RTOL = 1e-2
CORRECTION_RTOL = 1e-2
CORRECTION_RATIO_TOL = 0.1


# ----------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class InitialCondition:
    """Initial profile plus whatever analytic structure it offers."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    smooth: bool
    derivative: Callable[[np.ndarray, int], np.ndarray] | None = None


def _sine(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * np.pi * x)


def _sine_derivative(x: np.ndarray, n: int) -> np.ndarray:
    return (2.0 * np.pi) ** n * np.sin(2.0 * np.pi * x + 0.5 * np.pi * n)


def initial_condition(spec: str) -> InitialCondition:
    """Parse 'sine', 'gauss:SIGMA' or 'step' into an InitialCondition."""
    if spec == "sine":
        return InitialCondition("sine", _sine, True, _sine_derivative)
    if spec.startswith("gauss:"):
        try:
            sigma = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"cannot parse gauss width from {spec!r}") from exc
        if not 0.0 < sigma < 0.5:
            raise ValueError(f"gauss width must be in (0, 0.5), got {sigma}")

        def gauss(x: np.ndarray) -> np.ndarray:
            d = np.asarray(x, dtype=float) % 1.0 - 0.5
            return np.exp(-0.5 * (d / sigma) ** 2)

        return InitialCondition(spec, gauss, True)
    if spec == "step":

        def step_fn(x: np.ndarray) -> np.ndarray:
            frac = np.asarray(x, dtype=float) % 1.0
            return np.where((frac >= 0.25) & (frac < 0.75), 1.0, 0.0)

        return InitialCondition("step", step_fn, False)
    raise ValueError(f"unknown initial condition {spec!r} (use sine, gauss:SIGMA, step)")


def exact_solution(ic: InitialCondition, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Exact advection solution u0(x - t) on the periodic domain."""
    if ic.name == "sine":
        return lambda x: np.sin(2.0 * np.pi * (np.asarray(x, dtype=float) - t))
    return lambda x: ic.fn((np.asarray(x, dtype=float) - t) % 1.0)


# ----------------------------------------------------------------------
# configuration and tables


@dataclass(frozen=True)
class RunConfig:
    """One study configuration; fully determines every output byte."""

    scheme: str
    grids: tuple[int, ...]
    cfl: float = 0.1
    periods: float = 1.0
    ic: str = "sine"
    integrator: str = "ssprk3"
    out_dir: Path | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        grids = tuple(int(n) for n in self.grids)
        if not grids or any(n < 1 for n in grids):
            raise ValueError(f"grids must be positive cell counts, got {grids}")
        if any(b <= a for a, b in zip(grids, grids[1:])):
            raise ValueError(f"grids must be strictly increasing, got {grids}")
        object.__setattr__(self, "grids", grids)
        if not (math.isfinite(self.cfl) and self.cfl > 0.0):
            raise ValueError(f"cfl must be positive and finite, got {self.cfl}")
        if not (math.isfinite(self.periods) and self.periods >= 0.0):
            raise ValueError(f"periods must be nonnegative and finite, got {self.periods}")
        if self.integrator not in METHODS:
            raise ValueError(f"integrator must be one of {METHODS}")
        initial_condition(self.ic)  # validates the spec string
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", Path(self.out_dir))

    def doubling_grids(self) -> tuple[int, ...]:
        if any(b != 2 * a for a, b in zip(self.grids, self.grids[1:])):
            raise ValueError(f"this study needs a doubling grid sequence, got {self.grids}")
        return self.grids


def _fmt_csv(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _fmt_console(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class ResultTable:
    """Ordered columns, ordered rows, deterministic CSV rendering."""

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        self.name = name
        self.columns = tuple(columns)
        self.rows: list[tuple] = []
        self.meta: dict = {}

    def add_row(self, **cells: object) -> None:
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns {sorted(unknown)}")
        self.rows.append(tuple(cells.get(c) for c in self.columns))

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(",".join(_fmt_csv(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_csv(self, path: Path | str) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.csv_text())
        return path

    def format_text(self) -> str:
        cells = [list(self.columns)]
        cells.extend([_fmt_console(v) for v in row] for row in self.rows)
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        out = []
        for r, row in enumerate(cells):
            out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
            if r == 0:
                out.append("  ".join("-" * w for w in widths))
        return "\n".join(out)


# ----------------------------------------------------------------------
# scheme plumbing


def _setup_scheme(scheme: str, ic: InitialCondition, mesh: Mesh1D):
    """Initial state, stencil and norm function for a scheme name."""
    if scheme in DG_DEGREE:
        degree = DG_DEGREE[scheme]
        return project(ic.fn, mesh, degree), update_matrices(degree).stencil, error_norms
    return project_averages(ic.fn, mesh), fv_stencil(scheme), average_error_norms


def _fit_order(ns: Sequence[int], errs: Sequence[float]) -> float | None:
    """Least-squares slope of log(err) against log(dx)."""
    pairs = [(n, e) for n, e in zip(ns, errs) if e is not None and np.isfinite(e) and e > 0.0]
    if len(pairs) < 2:
        return None
    log_dx = np.log([1.0 / n for n, _ in pairs])
    log_e = np.log([e for _, e in pairs])
    x = log_dx - log_dx.mean()
    return float(x @ (log_e - log_e.mean()) / (x @ x))


# ----------------------------------------------------------------------
# convergence and compare


_CONV_COLUMNS = (
    "scheme",
    "N",
    "dx",
    "l1",
    "l2",
    "linf",
    "eoc_l1",
    "eoc_l2",
    "eoc_linf",
    "steps",
    "status",
)


def _eoc(prev: tuple[int, float] | None, n: int, err: float | None) -> float | None:
    if prev is None or err is None or not np.isfinite(err) or err <= 0.0:
        return None
    n_prev, e_prev = prev
    if e_prev is None or not np.isfinite(e_prev) or e_prev <= 0.0:
        return None
    return float(np.log(e_prev / err) / np.log(n / n_prev))


def run_convergence(config: RunConfig, table: ResultTable | None = None) -> ResultTable:
    """Propagate over whole periods on each grid and tabulate errors/EOCs."""
    ic = initial_condition(config.ic)
    integ = Integrator(config.integrator, config.cfl, t_final=config.periods)
    exact = exact_solution(ic, config.periods)
    own_table = table is None
    if own_table:
        table = ResultTable(f"convergence_{config.scheme}", _CONV_COLUMNS)
    wall_times = table.meta.setdefault("wall_times", [])
    prev: dict[str, tuple[int, float] | None] = {"l1": None, "l2": None, "linf": None}
    ns: list[int] = []
    l2s: list[float | None] = []
    for n in config.grids:
        mesh = Mesh1D(n)
        state, stencil, norms_fn = _setup_scheme(config.scheme, ic, mesh)
        t_start = time.perf_counter()
        try:
            final, steps = integ.propagate(state, stencil)
            norms = norms_fn(final, exact)
            status = "ok"
        except RuntimeError:
            final, steps, norms, status = None, None, None, "failed"
        wall_times.append(time.perf_counter() - t_start)
        row = {
            "scheme": config.scheme,
            "N": n,
            "dx": mesh.dx,
            "steps": steps,
            "status": status,
        }
        for norm_name, value in zip(("l1", "l2", "linf"), norms or (None, None, None)):
            row[norm_name] = value
            row[f"eoc_{norm_name}"] = _eoc(prev[norm_name], n, value)
            prev[norm_name] = (n, value) if value is not None else None
        table.add_row(**row)
        ns.append(n)
        l2s.append(None if norms is None else norms.l2)
    table.meta.setdefault("fitted_l2_order", {})[config.scheme] = _fit_order(ns, l2s)
    if own_table and config.out_dir is not None:
        table.to_csv(config.out_dir / f"convergence_{config.scheme}.csv")
    return table


def run_compare(config: RunConfig) -> ResultTable:
    """Modal P1 against both second-order FV slope variants, one table."""
    table = ResultTable("compare", _CONV_COLUMNS)
    for scheme in ("dg-p1", "fv2-central", "fv2-upwind"):
        sub = RunConfig(
            scheme=scheme,
            grids=config.grids,
            cfl=config.cfl,
            periods=config.periods,
            ic=config.ic,
            integrator=config.integrator,
            seed=config.seed,
        )
        run_convergence(sub, table=table)
    if config.out_dir is not None:
        table.to_csv(config.out_dir / "compare.csv")
    return table


def check_convergence(table: ResultTable) -> list[str]:
    """EOC-band failures for every scheme fitted in the table."""
    failures = []
    for scheme, order in table.meta.get("fitted_l2_order", {}).items():
        lo, hi = EOC_BANDS[scheme]
        if order is None:
            failures.append(f"{scheme}: no usable error data to fit an order")
        elif not lo <= order <= hi:
            failures.append(f"{scheme}: fitted L2 order {order:.3f} outside [{lo}, {hi}]")
    return failures


# ----------------------------------------------------------------------
# residual (instantaneous moment-evolution measurement)


_RESIDUAL_COLUMNS = (
    "mode",
    "moment",
    "estimator",
    "N",
    "dx",
    "target",
    "h_power",
    "exact",
    "measured",
    "rel_err",
    "abs_err",
)


def _deriv_name(order: int) -> str:
    return "u_" + "x" * order


def run_residual(config: RunConfig) -> ResultTable:
    """Measure leading modified-equation coefficients from the live operator.

    For every moment and both interface modes, project the smooth initial
    profile, evaluate the semi-discrete moment derivative on each grid, and
    least-squares fit it against the predicted leading derivative shape.
    Fits of consecutive doubled grids are Richardson-combined to cancel the
    O(dx^2) contamination of the next series terms.  Only the sine profile
    carries the analytic derivatives this comparison needs.
    """
    if config.scheme not in DG_DEGREE:
        raise ValueError(f"residual study needs a modal scheme, got {config.scheme!r}")
    ic = initial_condition(config.ic)
    if ic.derivative is None:
        raise ValueError(f"residual study needs analytic derivatives; use sine, not {config.ic!r}")
    grids = config.doubling_grids()
    degree = DG_DEGREE[config.scheme]
    table = ResultTable(f"residual_{config.scheme}", _RESIDUAL_COLUMNS)
    targets = table.meta.setdefault("targets", {})

    fields = {}
    for n in grids:
        mesh = Mesh1D(n)
        fields[n] = project(ic.fn, mesh, degree)

    for mode in MODES:
        laws = moment_evolution_laws(StencilSpec(degree, mode))
        rhs_by_grid = {}
        for n, field in fields.items():
            if mode == UPWIND_TRACE:
                rhs_by_grid[n] = rhs_matrix(field)
            else:
                rhs_by_grid[n] = rhs_weak(field, ExactInterface(lambda x, t: ic.fn(x)))
        for m in range(degree + 1):
            law = laws[m]
            lead_coeff, _ = moment_leading_scale(degree, m)
            scale = float(lead_coeff)
            q_lead = next(q for q, c in enumerate(law.coeffs) if c != 0)
            probes = [(q_lead, law.coeffs[q_lead])]
            if q_lead > 0:
                # The law's h^0 term vanished identically; measure the zero too.
                probes.insert(0, (0, Fraction(0)))
            for q, exact_coeff in probes:
                deriv_order = law.derivative_order(q)
                estimates: list[tuple[int, float]] = []
                for n in grids:
                    mesh = Mesh1D(n)
                    response = rhs_by_grid[n].coeffs[:, m]
                    shape = (
                        scale
                        * ic.derivative(mesh.centers, deriv_order)
                        * mesh.dx ** (deriv_order - 1)
                    )
                    measured = float(response @ shape / (shape @ shape))
                    estimates.append((n, measured))
                    _add_residual_row(
                        table, mode, m, "grid", n, mesh.dx, deriv_order, q, exact_coeff, measured
                    )
                for (n_c, v_c), (n_f, v_f) in zip(estimates, estimates[1:]):
                    richardson = (4.0 * v_f - v_c) / 3.0
                    _add_residual_row(
                        table, mode, m, "richardson", n_f, 1.0 / n_f, deriv_order, q,
                        exact_coeff, richardson,
                    )
                targets[(mode, m, q)] = {
                    "exact": exact_coeff,
                    "estimates": estimates,
                    "deriv_order": deriv_order,
                }
    if config.out_dir is not None:
        table.to_csv(config.out_dir / f"residual_{config.scheme}.csv")
    return table


def _add_residual_row(
    table: ResultTable,
    mode: str,
    moment: int,
    estimator: str,
    n: int,
    dx: float,
    deriv_order: int,
    h_power: int,
    exact_coeff: Fraction,
    measured: float,
) -> None:
    exact_f = float(exact_coeff)
    rel = abs(measured - exact_f) / abs(exact_f) if exact_coeff != 0 else None
    table.add_row(
        mode=mode,
        moment=moment,
        estimator=estimator,
        N=n,
        dx=dx,
        target=_deriv_name(deriv_order),
        h_power=h_power,
        exact=str(exact_coeff),
        measured=measured,
        rel_err=rel,
        abs_err=abs(measured - exact_f),
    )


def check_residual(table: ResultTable, n_finest: int = 2) -> list[str]:
    """1% relative agreement on the finest grids for every nonzero target."""
    failures = []
    for (mode, m, q), info in table.meta.get("targets", {}).items():
        if info["exact"] == 0:
            continue
        exact = float(info["exact"])
        for n, measured in info["estimates"][-n_finest:]:
            rel = abs(measured - exact) / abs(exact)
            if rel > RESIDUAL_RTOL:
                failures.append(
                    f"{mode} m={m} h^{q}: measured {measured:.6g} vs exact {exact:.6g} "
                    f"at N={n} (rel err {rel:.2e} > {RESIDUAL_RTOL})"
                )
    return failures


# ----------------------------------------------------------------------
# spectrum


_SPECTRUM_COLUMNS = ("degree", "theta", "branch", "re", "im")


def run_spectrum(
    degrees: Sequence[int] = (0, 1, 2),
    n_theta: int = SPECTRUM_SAMPLES,
    out_dir: Path | None = None,
) -> ResultTable:
    """Eigenvalues of the per-cell generator G(theta) over a theta grid.

    Rows are sorted by (re, im) within each theta for deterministic output.
    meta['max_re'] maps degree -> max real part over all samples;
    meta['theta0'] maps degree -> the sorted eigenvalues at theta = 0.
    """
    table = ResultTable("spectrum", _SPECTRUM_COLUMNS)
    max_re = table.meta.setdefault("max_re", {})
    theta0 = table.meta.setdefault("theta0", {})
    for degree in degrees:
        worst = -np.inf
        for i in range(n_theta):
            theta = 2.0 * np.pi * i / n_theta
            eigs = np.linalg.eigvals(symbol(theta, degree))
            eigs = sorted(eigs, key=lambda z: (z.real, z.imag))
            if i == 0:
                theta0[degree] = tuple(complex(z) for z in eigs)
            for branch, z in enumerate(eigs):
                table.add_row(
                    degree=degree, theta=theta, branch=branch, re=float(z.real), im=float(z.imag)
                )
                worst = max(worst, float(z.real))
        max_re[degree] = worst
    if out_dir is not None:
        degrees = tuple(degrees)
        name = "spectrum.csv" if len(degrees) != 1 else f"spectrum_p{degrees[0]}.csv"
        table.to_csv(Path(out_dir) / name)
    return table


def check_spectrum(table: ResultTable) -> list[str]:
    """Non-positivity of every sampled eigenvalue, plus the P2 theta=0 pins."""
    failures = []
    for degree, worst in table.meta.get("max_re", {}).items():
        if worst > SPECTRUM_RE_TOL:
            failures.append(f"degree {degree}: max Re eigenvalue {worst:.3e} > {SPECTRUM_RE_TOL}")
    theta0 = table.meta.get("theta0", {})
    if 2 in theta0:
        expected = sorted(
            (0.0 + 0.0j, -3.0 + 1j * np.sqrt(51.0), -3.0 - 1j * np.sqrt(51.0)),
            key=lambda z: (z.real, z.imag),
        )
        got = theta0[2]
        err = max(abs(a - b) for a, b in zip(got, expected))
        if err > 1e-10:
            failures.append(f"degree 2 theta=0 eigenvalues off by {err:.3e} (> 1e-10)")
    return failures


# ----------------------------------------------------------------------
# correction term


_CORRECTION_COLUMNS = ("N", "dx", "cmax", "ratio", "exact", "measured", "rel_err")


def run_correction(
    grids: Sequence[int] = (20, 40, 80, 160, 320),
    out_dir: Path | None = None,
) -> ResultTable:
    """Discrete curvature defect against its exact leading coefficient.

    Uses the sine profile, fits C_j to u'''' dx^2 per grid, and tracks the
    decay ratio of max|C| under refinement (4.0 for an O(dx^2) defect).
    """
    series = correction_series()
    lead = series.leading()
    assert lead is not None
    p_lead, c_lead = lead
    exact = float(c_lead)
    table = ResultTable("correction", _CORRECTION_COLUMNS)
    table.meta["exact_fraction"] = c_lead.rational_value()
    u = _sine
    u_xx = lambda x: _sine_derivative(x, 2)
    u_lead = lambda x: _sine_derivative(x, p_lead)
    prev_cmax = None
    for n in grids:
        mesh = Mesh1D(n)
        c = correction_term(u, u_xx, mesh.centers, mesh.dx)
        shape = u_lead(mesh.centers) * mesh.dx ** (p_lead + series.h_shift)
        measured = float(c @ shape / (shape @ shape))
        cmax = float(np.max(np.abs(c)))
        ratio = None if prev_cmax is None else prev_cmax / cmax
        prev_cmax = cmax
        table.add_row(
            N=n,
            dx=mesh.dx,
            cmax=cmax,
            ratio=ratio,
            exact=exact,
            measured=measured,
            rel_err=abs(measured - exact) / abs(exact),
        )
    if out_dir is not None:
        table.to_csv(Path(out_dir) / "correction.csv")
    return table


def check_correction(table: ResultTable, n_finest: int = 2) -> list[str]:
    failures = []
    rel_errs = table.column("rel_err")
    ns = table.column("N")
    for n, rel in zip(ns[-n_finest:], rel_errs[-n_finest:]):
        if rel > CORRECTION_RTOL:
            failures.append(f"N={n}: coefficient rel err {rel:.2e} > {CORRECTION_RTOL}")
    for n, ratio in zip(ns, table.column("ratio")):
        if ratio is None:
            continue
        if abs(ratio - 4.0) > CORRECTION_RATIO_TOL:
            failures.append(f"N={n}: max|C| decay ratio {ratio:.3f} not within 4.0 +- 0.1")
    return failures


# ----------------------------------------------------------------------
# exact statements for the CLI


def taylor_statements() -> list[str]:
    """Rendered evolution laws for every degree, mode and moment."""
    lines = []
    for degree in (1, 2):
        for mode in (UPWIND_TRACE, EXACT_POINT):
            label = "upwind" if mode == UPWIND_TRACE else "exact"
            for law in moment_evolution_laws(StencilSpec(degree, mode)):
                lines.append(f"k={degree} {label} a{law.moment}: {law.statement()}")
    series = correction_series()
    lead = series.leading()
    assert lead is not None
    p, c = lead
    lines.append(
        f"correction: C = ({c.rational_value()})*h^{series.h_power(p)}*{_deriv_name(p)}"
        f" + O(h^{series.h_power(p) + 2})"
    )
    return lines
