"""Experiment drivers: convergence, residual, spectrum, correction, compare.

Each run_* function computes and returns a ResultTable; none of them writes
files.  A table renders as an aligned console table and, through
ResultTable.write_csv, as a CSV file named after the table: comma separated,
header row, scientific notation with 13 significant digits.  No timing is
recorded, so repeated runs with the same configuration produce
byte-identical files.

Every scheme is one mesh.Stencil (dg.update_matrices, fv.fv_stencil).  The
convergence and compare studies propagate it in Fourier space
(Integrator.propagate), whose per-mode matrices also give the run's growth;
marching with Integrator.integrate is the tested reference.  Their status
column is 'ok', 'unstable' (growth above 1 + GROWTH_TOL, see run_convergence)
or 'failed' (a non-finite state); check_convergence fails on any but 'ok'.
The growth bounds the energy-norm growth only from below, so 'ok' is
necessary for energy stability but does not prove it.  ssprk2 with dg-p2 is
weakly unstable (spectral radius 1 + 1.6e-6 per step at cfl 0.1; Xu, Meng,
Shu & Zhang, SINUM 57, 2019), yet its runs read 'ok' on the default grids,
where the energy-norm growth is 2.2e-4 (N=20) to 5.2e-3 (N=320).
"""
from __future__ import annotations

from itertools import chain, groupby, islice
from math import inf, isfinite, isnan, nan
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .basis import QUAD_NODES, QUAD_WEIGHTS, ModalBasis, modal_basis
from .dg import rhs_matrix, rhs_weak, symbol, correction_term, update_matrices
from .exact import (
    EXACT_POINT,
    MODES,
    UPWIND_TRACE,
    StencilSpec,
    correction_series,
    moment_evolution_laws,
    moment_leading_scale,
)
from .exact.basis import check_degree
from .exact.modeq import derivative_name
from .exact.numbers import Frozen, checked_choice, checked_int, checked_real
from .field import ModalField, Norms, error_norms, project
from .fv import average_error_norms, fv_stencil, project_averages
# Not called here, but kept importable from this module so the benchmark's
# tracer (perfbench/spans.py) can wrap them where it wraps the others.
from .fv import rhs_fv1, rhs_fv2  # noqa: F401
from .mesh import Mesh1D
from .schemes import DG_DEGREE, METHODS, SCHEMES
from .timestepping import Integrator

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
#: check_residual and check_correction judge only the finest grids this many deep.
CHECK_GRIDS = 2
RESIDUAL_RTOL = 1e-2
#: A zero target's 'grid' rows must read |measured| N^2 within this band; its
#: next term, dg-p1's upwind moment 1 at h^0, reads -7.76 to -7.90 h^2.
RESIDUAL_ZERO_BAND = 10.0
GROWTH_TOL = 1e-6
CORRECTION_RTOL = 1e-2
CORRECTION_RATIO_TOL = 0.1


# ----------------------------------------------------------------------
# initial data


class InitialCondition(Frozen):
    """A periodic initial profile and whether it is smooth."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], smooth: bool) -> None:
        vars(self).update(fn=fn, smooth=smooth)


def _sine(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * np.pi * x)


def _sine_derivative(x: np.ndarray, n: int) -> np.ndarray:
    return (2.0 * np.pi) ** n * np.sin(2.0 * np.pi * x + 0.5 * np.pi * n)


def initial_condition(spec: str) -> InitialCondition:
    """Parse 'sine', 'gauss:SIGMA' or 'step', the ic setting, into an InitialCondition."""
    if not isinstance(spec, str):
        raise ValueError(f"ic must be a str, got {spec!r}")
    if spec == "sine":
        return InitialCondition(_sine, True)
    if spec.startswith("gauss:"):
        try:
            sigma = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"cannot parse gauss width from {spec!r}") from exc
        if not 0.0 < sigma < 0.5:
            raise ValueError(f"gauss width must be in (0, 0.5), got {sigma}")

        def gauss(x: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):  # a tiny width squares to inf: exp(-inf) = 0
                return np.exp(-0.5 * ((np.asarray(x, dtype=float) % 1.0 - 0.5) / sigma) ** 2)

        return InitialCondition(gauss, True)
    if spec == "step":

        def step_fn(x: np.ndarray) -> np.ndarray:
            frac = np.asarray(x, dtype=float) % 1.0
            return np.where((frac >= 0.25) & (frac < 0.75), 1.0, 0.0)

        return InitialCondition(step_fn, False)
    raise ValueError(f"unknown initial condition {spec!r} (use sine, gauss:SIGMA, step)")


def exact_solution(ic: InitialCondition, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Exact advection solution u0(x - t); every profile is 1-periodic in x."""
    return lambda x: ic.fn(np.asarray(x, dtype=float) - t)


# ----------------------------------------------------------------------
# configuration and tables


def _checked_grids(grids: Sequence[int]) -> tuple[int, ...]:
    """grids as a tuple of strictly increasing positive cell counts, else ValueError."""
    grids = tuple(checked_int(n, "grids", 1) for n in grids)
    if not grids:
        raise ValueError("grids must name at least one cell count")
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


class RunConfig(Frozen):
    """One study configuration, each setting stored as the plain value its check returns;
    fully determines every output byte."""

    def __init__(
        self,
        scheme: str = "dg-p1",
        grids: tuple[int, ...] = DEFAULT_GRIDS,
        cfl: float = 0.1,
        periods: float = 1.0,
        ic: str = "sine",
        integrator: str = "ssprk3",
    ) -> None:
        scheme = checked_choice(scheme, "scheme", SCHEMES)
        grids = _checked_grids(grids)
        cfl = checked_real(cfl, "cfl")
        periods = checked_real(periods, "periods", zero_ok=True)
        integrator = checked_choice(integrator, "integrator", METHODS)
        initial_condition(ic)  # validates the spec string
        ic = str.__str__(ic)  # the plain str of an np.str_ or str subclass
        vars(self).update(
            scheme=scheme, grids=grids, cfl=cfl, periods=periods, ic=ic, integrator=integrator
        )


def _fmt(value: object, spec: str) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, spec)
    return str(value)


class ResultTable:
    """Ordered columns, ordered rows, deterministic CSV rendering; every check_* reads the rows.

    meta copies rows only for the benchmark's output checks (perfbench/check.py): 'targets'
    (run_residual; each holds only its 'exact' coefficient), 'max_re' (run_spectrum) and
    'exact_fraction' (run_correction).
    """

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        self.name = name
        self.columns = tuple(columns)
        self._known = frozenset(self.columns)
        self.rows: list[tuple] = []
        self.meta: dict = {}

    def add_row(self, **cells: object) -> None:
        unknown = cells.keys() - self._known
        if unknown:
            raise ValueError(f"unknown columns {sorted(unknown)}; columns are {list(self.columns)}")
        self.rows.append(tuple(cells.get(c) for c in self.columns))

    def column(self, name: str) -> list:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ValueError(f"unknown column {name!r}; columns are {list(self.columns)}") from None
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
        return project(ic.fn, mesh, degree), update_matrices(degree), error_norms
    return project_averages(ic.fn, mesh), fv_stencil(scheme), average_error_norms


def _measured(err: float | None) -> bool:
    return err is not None and np.isfinite(err) and err > 0.0


def _fit_order(ns: Sequence[int], errs: Sequence[float]) -> float | None:
    """Least-squares slope of log(err) against log(dx)."""
    pairs = [(n, e) for n, e in zip(ns, errs) if _measured(e)]
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
    if not (_measured(e_prev) and _measured(err)):
        return None
    return float(np.log(e_prev / err) / np.log(n / n_prev))


def run_convergence(config: RunConfig) -> ResultTable:
    """Propagate over whole periods on each grid and tabulate errors/EOCs.

    A grid's growth is the largest entry of |W amp W^-1| over the Fourier
    modes' propagators amp, with W = diag(sqrt(mass)) for DG (its bases are
    not orthonormal) and 1 for FV; above 1 + GROWTH_TOL the grid is 'unstable'.
    An entry bounds the 2-norm of W amp W^-1 only from below, so 'ok' does
    not rule out energy growth: dg-p1 at cfl 0.445 over 0.1 periods reads
    'ok' on N = 10, 20, where that norm is 1.039 and 1.116.
    """
    ic = initial_condition(config.ic)
    integ = Integrator(config.integrator, config.cfl, t_final=config.periods)
    exact = exact_solution(ic, config.periods)
    records = []  # (N, norms, steps, status) per grid
    for n in config.grids:
        state, stencil, norms_fn = _setup_scheme(config.scheme, ic, Mesh1D(n))
        w = np.sqrt(state.basis.mass) if config.scheme in DG_DEGREE else np.ones(1)
        try:
            final, steps, amp = integ.propagate(state, stencil)
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
    return table


def run_compare(config: RunConfig) -> ResultTable:
    """Modal P1 against both second-order FV slope variants: their rows, one table."""
    table = ResultTable("compare", _CONV_COLUMNS)
    for scheme in ("dg-p1", "fv2-central", "fv2-upwind"):
        table.rows.extend(run_convergence(RunConfig(**{**vars(config), "scheme": scheme})).rows)
    return table


def fitted_l2_orders(table: ResultTable) -> dict[str, float | None]:
    """Each scheme's least-squares L2 order over its FIT_GRIDS finest rows (all, when fewer)."""
    ladders: dict[str, list] = {}
    for scheme, n, l2 in zip(*map(table.column, ("scheme", "N", "l2"))):
        ladders.setdefault(scheme, []).append((n, l2))
    return {scheme: _fit_order(*zip(*rows[-FIT_GRIDS:])) for scheme, rows in ladders.items()}


def check_convergence(table: ResultTable) -> list[str]:
    """Every row that did not run 'ok', took no step or has no finite positive l2, then
    fitted_l2_orders outside EOC_BANDS.

    A grid that took no step reports the error of the projection alone,
    whose order is not the scheme's; the fit drops a grid whose l2 is not
    finite and positive, so such a grid must fail on its own.
    """
    failures = []
    names = ("scheme", "N", "steps", "status", "l2")
    for scheme, n, steps, status, l2 in zip(*map(table.column, names)):
        if status != "ok":
            failures.append(f"{scheme}: N={n} status {status}")
        elif steps == 0:
            failures.append(f"{scheme}: N={n} took no time step")
        elif not _measured(l2):
            failures.append(f"{scheme}: N={n} l2 error {l2} is not finite and positive")
    for scheme, order in fitted_l2_orders(table).items():
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


def _sine_projection(mesh: Mesh1D, basis: ModalBasis) -> tuple[ModalField, tuple]:
    """project(_sine, mesh, basis.degree) by separation, and its columns sin, cos(2 pi x_j).

    sin(2 pi (x_j + xi h)) splits into sin(2 pi x_j) cos(2 pi xi h) +
    cos(2 pi x_j) sin(2 pi xi h), so over the 5-point rule (nodes xi_q,
    weights w_q, ModalBasis.phi and .mass) a_m^j = sin(2 pi x_j) C_m +
    cos(2 pi x_j) S_m with

        C_m = sum_q w_q phi_m(xi_q)/M_m - 2 sum_q w_q sin^2(pi xi_q h) phi_m(xi_q)/M_m,
        S_m = sum_q w_q sin(2 pi xi_q h) phi_m(xi_q)/M_m.

    Writing cos - 1 as -2 sin^2 lets no O(1) cancellation in, so each
    moment's rounding is relative to its own size, not to sampled O(1) values.
    The moments are built as (m, n_cells) rows, so each elementwise pass runs
    along the cells; the field copies them into its (n_cells, m) layout.
    """
    phase = 2.0 * np.pi * mesh.centers
    sin_col, cos_col = np.sin(phase), np.cos(phase)
    rule = QUAD_WEIGHTS[:, None] * basis.phi / basis.mass  # w_q phi_m(xi_q) / M_m
    xi_h = QUAD_NODES * mesh.dx
    c_m = rule.sum(axis=0) - 2.0 * (np.sin(np.pi * xi_h) ** 2 @ rule)
    s_m = np.sin(2.0 * np.pi * xi_h) @ rule
    rows = np.multiply.outer(c_m, sin_col)
    for row, s in zip(rows, s_m):
        row += cos_col * s
    return ModalField(mesh, basis, rows.T), (sin_col, cos_col)


def _residual_fits(degree: int) -> list[tuple]:
    """(mode, moment, h_power, exact coefficient, derivative order, shape scale) per fit."""
    fits = []
    for mode in MODES:
        for m, law in enumerate(moment_evolution_laws(StencilSpec(degree, mode))):
            scale = float(moment_leading_scale(degree, m))
            q_lead = next(q for q, c in enumerate(law.coeffs) if c != 0)
            # When the law's h^0 term vanished identically, measure the zero too.
            for q in sorted({0, q_lead}):
                fits.append((mode, m, q, law.coeffs[q], law.derivative_order(q), scale))
    return fits


def _grid_estimates(n: int, basis: ModalBasis, fits: Sequence[tuple]) -> list[float]:
    """run_residual's fits on one grid, from the closed-form sine projection.

    The moments are a_m^j = sin(2 pi x_j) C_m + cos(2 pi x_j) S_m
    (_sine_projection).  The sine's k-th derivative at the centres is
    (2 pi)^k times sin, cos, -sin or -cos (k mod 4), so each target shape is
    a signed scalar f times one of those two columns c, and its fit is
    response @ c / (f c @ c).
    """
    mesh = Mesh1D(n)
    field, columns = _sine_projection(mesh, basis)
    by_mode = {UPWIND_TRACE: rhs_matrix(field).coeffs, EXACT_POINT: rhs_weak(field, _sine).coeffs}
    del field
    norms2 = [column @ column for column in columns]
    estimates = []
    for mode, m, _, _, order, scale in fits:
        factor = (-1.0) ** (order // 2) * (2.0 * np.pi) ** order * scale * mesh.dx ** (order - 1)
        column = columns[order % 2]
        estimates.append(float(by_mode[mode][:, m] @ column / (factor * norms2[order % 2])))
    return estimates


def run_residual(config: RunConfig) -> ResultTable:
    """Measure leading modified-equation coefficients from the live operator.

    For every moment and both interface modes (rhs_matrix on the upwind
    traces, rhs_weak on exact interface values), least-squares fit the
    semi-discrete moment derivative of the projected sine against the
    predicted leading derivative shape.  The sine is projected exactly, by
    separation: a_m^j = sin(2 pi x_j) C_m + cos(2 pi x_j) S_m with per-grid
    constants C_m, S_m of the 5-point rule (_sine_projection).  The grids
    are swept once, one grid's arrays at a time (_grid_estimates); fits of
    consecutive doubled grids are then Richardson-combined to cancel the
    O(dx^2) contamination of the next series terms.  The study needs the
    profile's analytic derivatives, so it runs on sine only.
    """
    if config.scheme not in DG_DEGREE:
        raise ValueError(f"residual study needs a modal scheme, got {config.scheme!r}")
    if config.ic != "sine":
        raise ValueError(f"residual study needs analytic derivatives; use sine, not {config.ic!r}")
    grids = _doubling_grids(config.grids)
    if grids[0] < 3:
        raise ValueError(
            f"residual study needs at least 3 cells on its coarsest grid, got {grids[0]}: "
            "on 1 or 2 cells sin(2 pi x_j) or cos(2 pi x_j) is zero at every centre"
        )
    degree = DG_DEGREE[config.scheme]
    fits = _residual_fits(degree)
    basis = modal_basis(degree)
    per_grid = [_grid_estimates(n, basis, fits) for n in grids]
    table = ResultTable(f"residual_{config.scheme}", _RESIDUAL_COLUMNS)
    targets = table.meta.setdefault("targets", {})
    for (mode, m, q, exact_coeff, order, _), values in zip(fits, zip(*per_grid)):
        found = list(zip(grids, values))
        exact_f = float(exact_coeff)
        richardson = [
            (n_f, (4.0 * v_f - v_c) / 3.0) for (_, v_c), (n_f, v_f) in zip(found, found[1:])
        ]
        for estimator, rows in (("grid", found), ("richardson", richardson)):
            for n, measured in rows:
                table.add_row(
                    mode=mode,
                    moment=m,
                    estimator=estimator,
                    N=n,
                    dx=1.0 / n,
                    target=derivative_name(order),
                    h_power=q,
                    exact=str(exact_coeff),
                    measured=measured,
                    rel_err=abs(measured - exact_f) / abs(exact_f) if exact_coeff else None,
                    abs_err=abs(measured - exact_f),
                )
        targets[(mode, m, q)] = {"exact": exact_coeff}
    return table


def check_residual(table: ResultTable) -> list[str]:
    """Judge the CHECK_GRIDS finest 'grid' rows of every target.

    A nonzero target must agree to RESIDUAL_RTOL relative; a zero target's
    estimate must fall as h^2, |measured| N^2 <= RESIDUAL_ZERO_BAND.
    """
    fits: dict[tuple, list] = {}
    names = ("estimator", "mode", "moment", "h_power", "N", "exact", "measured")
    for estimator, mode, m, q, n, exact, measured in zip(*map(table.column, names)):
        if estimator == "grid":
            # exact is str(Fraction), such as -2/5; int / int rounds as float(Fraction) does
            num, _, den = exact.partition("/")
            fits.setdefault((mode, m, q), []).append((n, int(num) / int(den or 1), measured))
    failures = []
    for (mode, m, q), rows in fits.items():
        for n, exact, measured in rows[-CHECK_GRIDS:]:
            if not exact:
                scaled = abs(measured) * n**2
                if not scaled <= RESIDUAL_ZERO_BAND:
                    failures.append(
                        f"{mode} m={m} h^{q}: measured {measured:.6g} vs exact 0 "
                        f"at N={n} (|measured| N^2 {scaled:.3g} > {RESIDUAL_ZERO_BAND})"
                    )
                continue
            rel = abs(measured - exact) / abs(exact)
            if not rel <= RESIDUAL_RTOL:
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

    The samples are theta_i = 2 pi i / n_theta.  For each degree only
    i <= n_theta // 2 (theta <= pi) go through one symbol() call and one
    batched eigvals; every i > n_theta // 2 takes the conjugates of the
    eigenvalues at n_theta - i, since real blocks give
    G(2 pi - theta) = conj G(theta).  Rows are sorted by (re, im) within
    each theta for deterministic output.  The table is named
    spectrum_p<k> for a single degree k, else spectrum.
    meta['max_re'] maps degree -> max real part over all samples.
    """
    degrees = tuple(check_degree(d) for d in degrees)
    if not degrees:
        raise ValueError("spectrum needs at least one degree")
    for i, degree in enumerate(degrees):
        if degree in degrees[:i]:
            raise ValueError(f"spectrum degree {degree} is repeated")
    n_theta = checked_int(n_theta, "n_theta", 1)
    name = f"spectrum_p{degrees[0]}" if len(degrees) == 1 else "spectrum"
    table = ResultTable(name, _SPECTRUM_COLUMNS)
    max_re = table.meta.setdefault("max_re", {})
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    half = n_theta // 2 + 1
    for degree in degrees:
        eigs = np.linalg.eigvals(symbol(thetas[:half], degree))  # (half, m)
        eigs = np.concatenate((eigs, eigs[n_theta - half : 0 : -1].conj()))  # (n_theta, m)
        order = np.lexsort((eigs.imag, eigs.real), axis=-1)
        eigs = np.take_along_axis(eigs, order, axis=-1)
        max_re[degree] = float(eigs.real.max())
        # Built by column: theta-major, branch-minor, as Python scalars.
        m = degree + 1
        re, im = eigs.real.ravel().tolist(), eigs.imag.ravel().tolist()
        # One float object per theta, shared by its m branches.
        theta_col = [t for t in thetas.tolist() for _ in range(m)]
        table.rows.extend(zip([degree] * len(re), theta_col, [*range(m)] * n_theta, re, im))
    return table


def spectrum_by_degree(table: ResultTable) -> dict[int, tuple[float, tuple[complex, ...]]]:
    """Each degree's largest re and theta = 0 eigenvalues, in one pass over the rows.

    The largest re is nan if any row of the degree has a non-finite re or
    im, so no bound on it holds.
    """
    found = {}
    for degree, rows in groupby(table.rows, itemgetter(0)):  # degree by degree, theta-major
        head = list(islice(rows, degree + 1))
        at_zero = tuple(complex(re, im) for _, theta, _, re, im in head if theta == 0.0)
        worst = -inf
        for _, _, _, re, im in chain(head, rows):
            if not (isfinite(re) and isfinite(im)):
                worst = nan  # and it stays nan: no re compares above it
            elif re > worst:
                worst = re
        found[degree] = worst, at_zero
    return found


#: The degree-2 eigenvalues at theta = 0 by (re, im): the roots of lambda^2 + 6 lambda + 60, and 0.
_P2_AT_THETA_ZERO = (-3.0 - 1j * np.sqrt(51.0), -3.0 + 1j * np.sqrt(51.0), 0.0 + 0.0j)


def check_spectrum(table: ResultTable) -> list[str]:
    """Non-positivity of every eigenvalue row, plus the degree-2 theta=0 pins."""
    failures = []
    by_degree = spectrum_by_degree(table)
    for degree, (worst, _) in by_degree.items():
        if isnan(worst):
            failures.append(f"degree {degree}: a non-finite eigenvalue")
        elif worst > SPECTRUM_RE_TOL:
            failures.append(f"degree {degree}: max Re eigenvalue {worst:.3e} > {SPECTRUM_RE_TOL}")
    if 2 in by_degree:
        got = by_degree[2][1]
        # np.max, unlike max(), keeps a nan error
        err = np.abs(np.subtract(got, _P2_AT_THETA_ZERO)).max() if len(got) == 3 else np.inf
        if not err <= 1e-10:
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
    if grids[0] < 2:
        raise ValueError("correction study needs at least 2 cells: on 1 cell sin(2 pi x_j) is zero")
    series = correction_series()
    lead = series.leading()
    if lead is None:
        raise ValueError(f"correction series {series!r} has no leading term")
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


def check_correction(table: ResultTable) -> list[str]:
    """1% relative agreement on the CHECK_GRIDS finest rows, every decay ratio 4.0 +- 0.1.

    Both are recomputed from the measured, exact and cmax cells, not read from
    the derived rel_err and ratio columns.
    """
    failures = []
    rows = list(zip(*map(table.column, ("N", "measured", "exact"))))
    for n, measured, exact in rows[-CHECK_GRIDS:]:
        rel = abs(measured - exact) / abs(exact)
        if not rel <= CORRECTION_RTOL:
            failures.append(f"N={n}: coefficient rel err {rel:.2e} > {CORRECTION_RTOL}")
    ns, cmaxes = table.column("N"), table.column("cmax")
    ratios = [(n, prev / cmax) for n, prev, cmax in zip(ns[1:], cmaxes, cmaxes[1:])]
    if not ratios:
        failures.append("no max|C| decay ratio to check; the study needs at least two grids")
    for n, ratio in ratios:
        if not abs(ratio - 4.0) <= CORRECTION_RATIO_TOL:
            failures.append(f"N={n}: max|C| decay ratio {ratio:.3f} not within 4.0 +- 0.1")
    return failures
