"""Experiment drivers: convergence, residual, spectrum, correction, compare.

Each run_* function computes and returns a ResultTable; none of them writes
files.  A table renders as an aligned console table and, through
ResultTable.write_csv, as a CSV file named after the table: comma separated,
header row, scientific notation with 13 significant digits.  No timing is
recorded, so repeated runs with the same configuration produce
byte-identical files.

The convergence and compare studies advance each scheme's stencil with the
exact Fourier propagator (Integrator.propagate); marching with
Integrator.integrate is the reference it is tested against.  Their status
column is 'ok', 'unstable' (growth above 1 + GROWTH_TOL, see run_convergence)
or 'failed' (a non-finite state); check_convergence fails on any but 'ok'.
ssprk2 with dg-p2 is weakly unstable (spectral radius 1 + 1.6e-6 per step at
cfl 0.1; Xu, Meng, Shu & Zhang, SINUM 57, 2019): a run of it reads 'unstable'
only once its growth passes 1e-6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Integral
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
from .field import Norms, error_norms, project
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

#: Cell counts of the convergence, residual and correction studies by default.
DEFAULT_GRIDS = (20, 40, 80, 160, 320)
#: The fitted convergence order uses only the finest grids this many deep:
#: coarse grids are pre-asymptotic (fv1's EOC is 0.68 at N=40, 0.96 at 320).
FIT_GRIDS = 3
SPECTRUM_SAMPLES = 256
SPECTRUM_RE_TOL = 1e-12
RESIDUAL_RTOL = 1e-2
GROWTH_TOL = 1e-6
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


def _checked_grids(grids: Sequence[int]) -> tuple[int, ...]:
    """grids as a tuple of strictly increasing positive cell counts, else ValueError."""
    if any(isinstance(n, bool) or not isinstance(n, Integral) for n in grids):
        raise ValueError(f"grids must be integer cell counts, got {tuple(grids)!r}")
    grids = tuple(int(n) for n in grids)
    if not grids or any(n < 1 for n in grids):
        raise ValueError(f"grids must be positive cell counts, got {grids}")
    if any(b <= a for a, b in zip(grids, grids[1:])):
        raise ValueError(f"grids must be strictly increasing, got {grids}")
    return grids


def _doubling_grids(grids: Sequence[int]) -> tuple[int, ...]:
    """_checked_grids, each cell count twice the one before.

    The residual study's Richardson step and the correction study's 4.0
    decay ratio both assume a refinement factor of 2.
    """
    grids = _checked_grids(grids)
    if any(b != 2 * a for a, b in zip(grids, grids[1:])):
        raise ValueError(f"this study needs a doubling grid sequence, got {grids}")
    return grids


@dataclass(frozen=True)
class RunConfig:
    """One study configuration; fully determines every output byte."""

    scheme: str = "dg-p1"
    grids: tuple[int, ...] = DEFAULT_GRIDS
    cfl: float = 0.1
    periods: float = 1.0
    ic: str = "sine"
    integrator: str = "ssprk3"

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        object.__setattr__(self, "grids", _checked_grids(self.grids))
        if not (math.isfinite(self.cfl) and self.cfl > 0.0):
            raise ValueError(f"cfl must be positive and finite, got {self.cfl}")
        if not (math.isfinite(self.periods) and self.periods >= 0.0):
            raise ValueError(f"periods must be nonnegative and finite, got {self.periods}")
        if self.integrator not in METHODS:
            raise ValueError(f"integrator must be one of {METHODS}")
        initial_condition(self.ic)  # validates the spec string


def _fmt(value: object, spec: str) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, spec)
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
        lines.extend(",".join(_fmt(v, ".12e") for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def write_csv(self, out_dir: Path | str) -> Path:
        """Write out_dir/<name>.csv, creating out_dir if needed; return its path."""
        path = Path(out_dir) / f"{self.name}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.csv_text())
        return path

    def format_text(self) -> str:
        cells = [list(self.columns)]
        cells.extend([_fmt(v, ".6g") for v in row] for row in self.rows)
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


def _eoc(n_prev: int, e_prev: float | None, n: int, err: float | None) -> float | None:
    if not all(e is not None and np.isfinite(e) and e > 0.0 for e in (e_prev, err)):
        return None
    return float(np.log(e_prev / err) / np.log(n / n_prev))


def run_convergence(config: RunConfig) -> ResultTable:
    """Propagate over whole periods on each grid and tabulate errors/EOCs.

    A grid's growth is the largest entry of |W amp W^-1| over the Fourier
    modes' propagators amp, with W = diag(sqrt(mass)) for DG (its bases are
    not orthonormal) and 1 for FV; above 1 + GROWTH_TOL the grid is 'unstable'.
    meta['fitted_l2_order'] maps the scheme to the least-squares L2 order
    over the FIT_GRIDS finest grids (all grids when there are fewer).
    """
    ic = initial_condition(config.ic)
    integ = Integrator(config.integrator, config.cfl, t_final=config.periods)
    exact = exact_solution(ic, config.periods)
    records = []  # (N, norms, steps, status) per grid
    for n in config.grids:
        state, stencil, norms_fn = _setup_scheme(config.scheme, ic, Mesh1D(n))
        w = np.sqrt(state.basis.mass) if config.scheme in DG_DEGREE else np.ones(1)
        try:
            final, steps, amp = integ.advance(state, stencil)
        except RuntimeError:
            records.append((n, Norms(None, None, None), None, "failed"))
            continue
        growth = np.max(np.abs(w[:, None] * amp / w))
        status = "ok" if growth <= 1.0 + GROWTH_TOL else "unstable"
        records.append((n, norms_fn(final, exact), steps, status))
    table = ResultTable(f"convergence_{config.scheme}", _CONV_COLUMNS)
    for i, (n, norms, steps, status) in enumerate(records):
        n_prev, prev = records[i - 1][:2] if i else (n, Norms(None, None, None))
        eocs = {f"eoc_{k}": _eoc(n_prev, p, n, e) for k, p, e in zip(Norms._fields, prev, norms)}
        table.add_row(
            scheme=config.scheme,
            N=n,
            dx=1.0 / n,
            steps=steps,
            status=status,
            **norms._asdict(),
            **eocs,
        )
    finest = records[-FIT_GRIDS:]
    table.meta["fitted_l2_order"] = {
        config.scheme: _fit_order([r[0] for r in finest], [r[1].l2 for r in finest])
    }
    return table


def run_compare(config: RunConfig) -> ResultTable:
    """Modal P1 against both second-order FV slope variants, one table."""
    table = ResultTable("compare", _CONV_COLUMNS)
    orders = table.meta["fitted_l2_order"] = {}
    for scheme in ("dg-p1", "fv2-central", "fv2-upwind"):
        part = run_convergence(replace(config, scheme=scheme))
        table.rows.extend(part.rows)
        orders.update(part.meta["fitted_l2_order"])
    return table


def check_convergence(table: ResultTable) -> list[str]:
    """Every grid that did not run 'ok', then EOC-band failures per scheme."""
    rows = zip(table.column("scheme"), table.column("N"), table.column("status"))
    failures = [f"{scheme}: N={n} status {status}" for scheme, n, status in rows if status != "ok"]
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
    grids = _doubling_grids(config.grids)
    degree = DG_DEGREE[config.scheme]
    table = ResultTable(f"residual_{config.scheme}", _RESIDUAL_COLUMNS)
    targets = table.meta.setdefault("targets", {})
    meshes = [Mesh1D(n) for n in grids]
    fields = [project(ic.fn, mesh, degree) for mesh in meshes]
    for mode in MODES:
        if mode == UPWIND_TRACE:
            responses = [rhs_matrix(field).coeffs for field in fields]
        else:
            responses = [rhs_weak(field, ExactInterface(ic.fn)).coeffs for field in fields]
        for m, law in enumerate(moment_evolution_laws(StencilSpec(degree, mode))):
            scale = float(moment_leading_scale(degree, m))
            q_lead = next(q for q, c in enumerate(law.coeffs) if c != 0)
            # When the law's h^0 term vanished identically, measure the zero too.
            for q in sorted({0, q_lead}):
                exact_coeff = law.coeffs[q]
                exact_f = float(exact_coeff)
                deriv_order = law.derivative_order(q)
                estimates: list[tuple[int, float]] = []
                for mesh, response in zip(meshes, responses):
                    shape = scale * ic.derivative(mesh.centers, deriv_order)
                    shape = shape * mesh.dx ** (deriv_order - 1)
                    measured = float(response[:, m] @ shape / (shape @ shape))
                    estimates.append((mesh.n_cells, measured))
                richardson = [
                    (n_f, (4.0 * v_f - v_c) / 3.0)
                    for (_, v_c), (n_f, v_f) in zip(estimates, estimates[1:])
                ]
                for estimator, rows in (("grid", estimates), ("richardson", richardson)):
                    for n, measured in rows:
                        table.add_row(
                            mode=mode,
                            moment=m,
                            estimator=estimator,
                            N=n,
                            dx=1.0 / n,
                            target=_deriv_name(deriv_order),
                            h_power=q,
                            exact=str(exact_coeff),
                            measured=measured,
                            rel_err=abs(measured - exact_f) / abs(exact_f) if exact_coeff else None,
                            abs_err=abs(measured - exact_f),
                        )
                targets[(mode, m, q)] = {
                    "exact": exact_coeff,
                    "estimates": estimates,
                    "deriv_order": deriv_order,
                }
        # Drop this mode's responses before the next mode builds its own (peak memory).
        del responses
    return table


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


def run_spectrum(degrees: Sequence[int] = (0, 1, 2), n_theta: int = SPECTRUM_SAMPLES) -> ResultTable:
    """Eigenvalues of the per-cell generator G(theta) over a theta grid.

    For each degree the n_theta samples theta_i = 2 pi i / n_theta go
    through one symbol() call and one batched eigvals; rows are sorted by
    (re, im) within each theta for deterministic output.  The table is
    named spectrum_p<k> for a single degree k, else spectrum.
    meta['max_re'] maps degree -> max real part over all samples;
    meta['theta0'] maps degree -> the sorted eigenvalues at theta = 0.
    """
    degrees = tuple(degrees)
    if not degrees:
        raise ValueError("spectrum needs at least one degree")
    if n_theta < 1:
        raise ValueError(f"spectrum needs at least one theta sample, got n_theta={n_theta}")
    name = f"spectrum_p{degrees[0]}" if len(degrees) == 1 else "spectrum"
    table = ResultTable(name, _SPECTRUM_COLUMNS)
    max_re = table.meta.setdefault("max_re", {})
    theta0 = table.meta.setdefault("theta0", {})
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    for degree in degrees:
        eigs = np.linalg.eigvals(symbol(thetas, degree))  # (n_theta, m)
        order = np.lexsort((eigs.imag, eigs.real), axis=-1)
        eigs = np.take_along_axis(eigs, order, axis=-1)
        theta0[degree] = tuple(complex(z) for z in eigs[0])
        max_re[degree] = float(eigs.real.max())
        table.rows.extend(
            (degree, theta, branch, z.real, z.imag)
            for theta, row in zip(thetas.tolist(), eigs.tolist())
            for branch, z in enumerate(row)
        )
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


def run_correction(grids: Sequence[int] = DEFAULT_GRIDS) -> ResultTable:
    """Discrete curvature defect against its exact leading coefficient.

    Uses the sine profile, fits C_j to u'''' dx^2 per grid, and tracks the
    decay ratio of max|C| under refinement (4.0 for an O(dx^2) defect), so
    the grids must double like the residual study's.
    """
    grids = _doubling_grids(grids)
    series = correction_series()
    lead = series.leading()
    assert lead is not None
    p_lead, c_lead = lead
    exact = float(c_lead)
    table = ResultTable("correction", _CORRECTION_COLUMNS)
    table.meta["exact_fraction"] = c_lead.rational_value()
    records = []  # (N, cmax, measured) per grid
    for n in grids:
        mesh = Mesh1D(n)
        c = correction_term(_sine, lambda x: _sine_derivative(x, 2), mesh.centers, mesh.dx)
        shape = _sine_derivative(mesh.centers, p_lead) * mesh.dx ** (p_lead + series.h_shift)
        records.append((n, float(np.max(np.abs(c))), float(c @ shape / (shape @ shape))))
    for i, (n, cmax, measured) in enumerate(records):
        table.add_row(
            N=n,
            dx=1.0 / n,
            cmax=cmax,
            ratio=records[i - 1][1] / cmax if i else None,
            exact=exact,
            measured=measured,
            rel_err=abs(measured - exact) / abs(exact),
        )
    return table


def check_correction(table: ResultTable, n_finest: int = 2) -> list[str]:
    failures = []
    rel_errs = table.column("rel_err")
    ns = table.column("N")
    for n, rel in zip(ns[-n_finest:], rel_errs[-n_finest:]):
        if rel > CORRECTION_RTOL:
            failures.append(f"N={n}: coefficient rel err {rel:.2e} > {CORRECTION_RTOL}")
    ratios = [(n, r) for n, r in zip(ns, table.column("ratio")) if r is not None]
    if not ratios:
        failures.append("no max|C| decay ratio to check; the study needs at least two grids")
    for n, ratio in ratios:
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


#: Frozen h-power coefficients of the exact laws, keyed by (degree, mode, moment).
_FROZEN_LAWS = {
    (1, UPWIND_TRACE, 0): {0: Fraction(-1), 1: Fraction(0), 2: Fraction(1, 24)},
    (1, UPWIND_TRACE, 1): {0: Fraction(0), 1: Fraction(-2, 5)},
    (1, EXACT_POINT, 0): {0: Fraction(-1), 1: Fraction(0), 2: Fraction(-1, 24)},
    (1, EXACT_POINT, 1): {0: Fraction(-1), 1: Fraction(0), 2: Fraction(-1, 40)},
    (2, UPWIND_TRACE, 0): {0: Fraction(-1), 1: Fraction(0), 2: Fraction(-1, 24)},
    (2, UPWIND_TRACE, 1): {0: Fraction(-1), 1: Fraction(1, 10)},
    (2, UPWIND_TRACE, 2): {0: Fraction(-1), 1: Fraction(1, 2)},
    (2, EXACT_POINT, 0): {0: Fraction(-1), 1: Fraction(0), 2: Fraction(-1, 24)},
    (2, EXACT_POINT, 1): {0: Fraction(-1), 1: Fraction(0), 2: Fraction(-1, 40)},
    (2, EXACT_POINT, 2): {0: Fraction(-1), 1: Fraction(0), 2: Fraction(-1, 56)},
}


def check_taylor() -> list[str]:
    """Exact evolution laws and the correction series against frozen values."""
    laws = {}
    for degree in (1, 2):
        for mode in MODES:
            for law in moment_evolution_laws(StencilSpec(degree, mode)):
                laws[(degree, mode, law.moment)] = law
    failures = []
    for key, wanted in _FROZEN_LAWS.items():
        law = laws[key]
        for h_power, want in wanted.items():
            got = law.coefficient(h_power)
            if got != want:
                failures.append(
                    f"k={key[0]} {key[1]} a{key[2]}: h^{h_power} coefficient {got}, expected {want}"
                )
    statement = laws[(1, UPWIND_TRACE, 1)].statement()
    wanted_statement = "u_xt = 0*u_xx + (-2/5)*h*u_xxx + O(h^2)"
    if statement != wanted_statement:
        failures.append(f"degenerate first-moment law renders as {statement!r}")
    lead = correction_series().leading()
    if lead is None or lead[0] != 4 or lead[1].rational_value() != Fraction(1, 96):
        failures.append(f"correction series leads with {lead}, expected h^2 coefficient 1/96")
    return failures
