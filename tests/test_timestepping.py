"""SSP Runge-Kutta steppers: amplification factors, orders, stability."""
import decimal
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dgmodeq import (
    Integrator,
    Mesh1D,
    RunConfig,
    project,
    run_convergence,
    update_matrices,
)
from dgmodeq.analysis import SCHEMES, _setup_scheme, initial_condition
from dgmodeq import timestepping
from dgmodeq.field import error_norms
from dgmodeq.mesh import Stencil
from dgmodeq.timestepping import MAX_STEPS, METHODS


class _Scalar:
    """Minimal state wrapper so the steppers can drive a scalar ODE."""

    def __init__(self, value, mesh=None):
        self.data = np.atleast_1d(np.asarray(value, dtype=float))
        self.mesh = mesh

    def with_data(self, data):
        return _Scalar(data, self.mesh)


@pytest.mark.parametrize(
    "method,poly",
    [
        ("euler", lambda z: 1 + z),
        ("ssprk2", lambda z: 1 + z + z**2 / 2),
        ("ssprk3", lambda z: 1 + z + z**2 / 2 + z**3 / 6),
    ],
)
def test_amplification_polynomial(method, poly):
    # one step applied to y' = lambda*y must multiply y by the stability
    # polynomial evaluated at z = lambda*dt, exactly as documented
    integ = Integrator(method, cfl=0.1)
    for lam in (-1.0, -3.5, 0.7):
        for dt in (0.01, 0.3):
            state = _Scalar(1.0, mesh=Mesh1D(1))
            out = integ.step(state, Stencil({0: lam}), dt)
            assert out.data[0] == pytest.approx(poly(lam * dt), rel=1e-14)


@pytest.mark.parametrize("method,order", [("euler", 1), ("ssprk2", 2), ("ssprk3", 3)])
def test_temporal_order(method, order):
    lam = -2.0
    errs = []
    for n in (20, 40):
        # one cell, so dx = 1 and dt = 1/n
        integ = Integrator(method, cfl=1.0 / n, t_final=1.0)
        state = _Scalar(1.0, mesh=Mesh1D(1))
        out, steps = integ.integrate(state, Stencil({0: lam}))
        assert steps == n
        errs.append(abs(out.data[0] - np.exp(lam)))
    measured = np.log2(errs[0] / errs[1])
    assert measured == pytest.approx(order, abs=0.25)


def test_p0_euler_unit_cfl_is_exact_shift():
    # dt = dx makes first-order upwind copy each average left to right, so a
    # whole period returns the initial data to round-off
    mesh = Mesh1D(32)
    field = project(lambda x: np.sin(2 * np.pi * x), mesh, 0)
    integ = Integrator("euler", cfl=1.0, t_final=1.0)
    out, steps = integ.integrate(field, update_matrices(0))
    assert steps == 32
    assert np.max(np.abs(out.data - field.data)) < 1e-12


def test_p0_ssprk3_unit_cfl_decays():
    # same spatial operator, but the three-stage average mixes neighbors and
    # the scheme turns diffusive: the error after one period is order one
    mesh = Mesh1D(32)
    f = lambda x: np.sin(2 * np.pi * x)
    field = project(f, mesh, 0)
    integ = Integrator("ssprk3", cfl=1.0, t_final=1.0)
    out, _ = integ.integrate(field, update_matrices(0))
    from dgmodeq.fv import AverageField, average_error_norms

    err = average_error_norms(AverageField(mesh, out.data[:, 0]), f).l2
    assert 0.05 < err < 0.6


@pytest.mark.parametrize("method", METHODS)
def test_linear_invariant_preserved(method):
    # total mass is a linear invariant of the rhs, so every RK method keeps
    # it to round-off regardless of order
    mesh = Mesh1D(24)
    field = project(lambda x: np.sin(2 * np.pi * x) + 0.3, mesh, 1)
    before = np.sum(field.data[:, 0]) * mesh.dx
    integ = Integrator(method, cfl=0.1, t_final=0.5)
    out, _ = integ.integrate(field, update_matrices(1))
    after = np.sum(out.data[:, 0]) * mesh.dx
    assert abs(after - before) < 1e-12


def test_cfl_ceiling_k1_ssprk2():
    mesh = Mesh1D(32)
    f = lambda x: np.sin(2 * np.pi * x)
    safe = Integrator("ssprk2", cfl=0.15, t_final=1.0)
    out, _ = safe.integrate(project(f, mesh, 1), update_matrices(1))
    assert error_norms(out, f).l2 < 0.5

    wild = Integrator("ssprk2", cfl=1.0, t_final=1.0)
    try:
        out, _ = wild.integrate(project(f, mesh, 1), update_matrices(1))
        blew_up = error_norms(out, f).l2 > 10.0
    except RuntimeError:
        blew_up = True
    assert blew_up


def test_nonfinite_abort_names_step():
    # each euler step multiplies the state by 1 + 0.5e300: the second overflows
    field = _Scalar(1.0, mesh=Mesh1D(1))
    integ = Integrator("euler", cfl=0.5, t_final=1.0)
    with pytest.raises(RuntimeError, match="step"):
        integ.integrate(field, Stencil({0: 1e300}))


def test_zero_horizon_returns_input():
    field = project(lambda x: x, Mesh1D(4), 1)
    integ = Integrator("ssprk3", cfl=0.1, t_final=0.0)
    out, steps = integ.integrate(field, update_matrices(1))
    assert steps == 0
    assert np.array_equal(out.data, field.data)


def test_final_time_is_hit_exactly():
    # t_final not divisible by dt: last step shrinks, never oversteps
    mesh = Mesh1D(10)
    field = project(lambda x: np.sin(2 * np.pi * x), mesh, 1)
    integ = Integrator("ssprk3", cfl=0.137, t_final=0.25)
    out, steps = integ.integrate(field, update_matrices(1))
    assert steps == int(np.ceil(0.25 / (0.137 * mesh.dx)))


def test_stepper_validation():
    with pytest.raises(ValueError):
        Integrator("rk4")
    with pytest.raises(ValueError):
        Integrator("euler", cfl=0.0)
    with pytest.raises(ValueError):
        Integrator("euler", t_final=-1.0)


def test_integrate_requires_mesh():
    integ = Integrator("euler", cfl=0.1, t_final=1.0)
    with pytest.raises(ValueError):
        integ.integrate(_Scalar(1.0), Stencil({0: 1.0}))


# ----------------------------------------------------------------------
# integer step schedule


def test_schedule_takes_no_sliver_step():
    # t += dt accumulation used to overshoot into a 47201st sliver step here
    n, dt, dt_last = Integrator("ssprk3", cfl=0.1, t_final=10.0).schedule(Mesh1D(472).dx)
    assert n == 47200
    assert dt_last == pytest.approx(dt, rel=1e-9)


def test_schedule_exact_count_property():
    # cfl and periods are short decimals, as typed on the command line; the
    # count must equal the exact rational ceiling and the steps sum to t_final
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        n_cells = int(rng.integers(1, 3001))
        cfl = Fraction(int(rng.integers(1, 2001)), 1000)
        periods = Fraction(int(rng.integers(0, 201)), 10)
        integ = Integrator("ssprk3", cfl=float(cfl), t_final=float(periods))
        n, dt, dt_last = integ.schedule(Mesh1D(n_cells).dx)
        assert n == math.ceil(periods * n_cells / cfl), (n_cells, cfl, periods)
        if n:
            # the last step may absorb rounding up to the schedule's 1e-12 guard
            assert 0.0 < dt_last <= dt + 1e-12 * max(1.0, float(periods))
            assert abs((n - 1) * dt + dt_last - float(periods)) <= 4e-16 * float(periods)


@pytest.mark.parametrize(
    "cfl, n_cells, steps", [(1e-10, 160, 1_600_000_000_000), (1e-12, 1, 1_000_000_000_000)]
)
def test_schedule_counts_past_1e12_steps(cfl, n_cells, steps):
    # an absolute 1e-12 slack is more than a step here, so n fell one short
    # and the last step doubled
    n, dt, dt_last = Integrator("ssprk3", cfl=cfl, t_final=1.0).schedule(Mesh1D(n_cells).dx)
    assert n == steps
    assert dt_last == pytest.approx(dt, rel=1e-3)


def test_schedule_rejects_schedules_past_the_limit():
    integ = Integrator("ssprk3", cfl=1e-12, t_final=1.0)
    assert MAX_STEPS >= 1.6e12
    with pytest.raises(ValueError, match="limit"):
        integ.schedule(Mesh1D(1000).dx)


@pytest.mark.parametrize("t_final", [1.0, 0.0])
def test_schedule_refuses_a_step_that_underflows(t_final):
    # cfl*dx rounded to 0.0, and t_final/dt raised ZeroDivisionError
    integ = Integrator("ssprk3", cfl=5e-324, t_final=t_final)
    with pytest.raises(ValueError, match=r"^dt = cfl\*dx = .* rounds to 0$"):
        integ.schedule(1 / 640)


def test_schedule_last_step_property():
    # seeded draws of cfl 1e-12..1e12, 1..1000 cells and t_final 1e-12..1e6:
    # at least one step, the last one positive, at most dt up to rounding,
    # and landing on t_final
    rng = np.random.default_rng(1012)
    eps = np.finfo(float).eps
    counted = 0
    for _ in range(20000):
        cfl = 10.0 ** rng.uniform(-12.0, 12.0)
        n_cells = int(rng.integers(1, 1001))
        t_final = 10.0 ** rng.uniform(-12.0, 6.0)
        integ = Integrator("ssprk3", cfl=cfl, t_final=t_final)
        dx = Mesh1D(n_cells).dx
        if t_final / (cfl * dx) > MAX_STEPS:
            with pytest.raises(ValueError, match="limit"):
                integ.schedule(dx)
            continue
        n, dt, dt_last = integ.schedule(dx)
        counted += 1
        case = (cfl, n_cells, t_final, n)
        assert n >= 1, case
        assert 0.0 < dt_last <= dt + 16 * eps * t_final, case
        assert abs((n - 1) * dt + dt_last - t_final) <= 4 * eps * t_final, case
    assert counted > 10000


@pytest.mark.parametrize(
    "bad",
    [
        {"cfl": np.nan}, {"cfl": np.inf}, {"t_final": np.nan}, {"t_final": np.inf},
        {"cfl": True}, {"t_final": True}, {"cfl": -0.1}, {"t_final": "1"},
        # 1e-4000 was accepted although its float is 0.0, and 10**400 raised
        # OverflowError inside schedule
        {"cfl": np.longdouble("1e-4000")}, {"t_final": np.longdouble("1e-4000")},
        {"cfl": 10**400}, {"t_final": Fraction(10**400)},
    ],
)
def test_stepper_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        Integrator("ssprk3", **bad)


# ----------------------------------------------------------------------
# Fourier propagator against marching


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("method", METHODS)
def test_propagate_matches_integrate(scheme, method):
    rng = np.random.default_rng(17)
    for n_cells in (8, 16, 40, 41):
        state, stencil, _ = _setup_scheme(scheme, initial_condition("sine"), Mesh1D(n_cells))
        state = state.with_data(rng.standard_normal(state.data.shape))
        # 0.2345 is no multiple of dt, so the last step is shortened; 0.25 is
        for t_final in (0.2345, 0.25):
            integ = Integrator(method, cfl=0.1, t_final=t_final)
            marched, n_marched = integ.integrate(state, stencil)
            propagated, n_propagated, _ = integ.propagate(state, stencil)
            assert n_propagated == n_marched == integ.schedule(state.mesh.dx)[0]
            scale = np.max(np.abs(marched.data))
            assert np.max(np.abs(propagated.data - marched.data)) <= 1e-11 * scale


def test_propagate_zero_horizon_returns_input():
    field = project(lambda x: x, Mesh1D(4), 1)
    out, steps, _ = Integrator("ssprk3", cfl=0.1, t_final=0.0).propagate(
        field, update_matrices(1)
    )
    assert steps == 0
    assert np.array_equal(out.data, field.data)


def _taylor_stability(z, stages):
    """sum_{q <= stages} z^q / q!, the stability polynomial of each method here."""
    term = np.eye(z.shape[-1], dtype=complex)
    r = term.copy()
    for q in range(1, stages + 1):
        term = term @ z / q
        r = r + term
    return r


@pytest.mark.parametrize("scheme", ["dg-p1", "dg-p2", "fv2-upwind"])
@pytest.mark.parametrize("method", METHODS)
def test_propagate_amp_is_per_step_product(scheme, method):
    stages = {"euler": 1, "ssprk2": 2, "ssprk3": 3}[method]
    for n_cells in (7, 8):
        mesh = Mesh1D(n_cells)
        state, stencil, _ = _setup_scheme(scheme, initial_condition("sine"), mesh)
        m = stencil.size
        integ = Integrator(method, cfl=0.1, t_final=0.2345)
        _, n, amp = integ.propagate(state, stencil)
        assert amp.shape == (n_cells // 2 + 1, m, m)
        _, dt, dt_last = integ.schedule(mesh.dx)
        assert n > 1 and dt_last < dt
        for k in range(n_cells // 2 + 1):
            g = stencil.symbol(2.0 * np.pi * k / n_cells) / mesh.dx
            want = np.eye(m, dtype=complex)
            for _ in range(n - 1):
                want = want @ _taylor_stability(dt * g, stages)
            want = want @ _taylor_stability(dt_last * g, stages)
            assert np.max(np.abs(amp[k] - want)) <= 1e-12


@pytest.mark.parametrize("scheme", ["dg-p1", "fv2-upwind"])
def test_propagate_zero_steps_amp_is_identity(scheme):
    state, stencil, _ = _setup_scheme(scheme, initial_condition("sine"), Mesh1D(6))
    m = stencil.size
    _, n, amp = Integrator("ssprk3", cfl=0.1, t_final=0.0).propagate(state, stencil)
    assert n == 0
    assert amp.shape == (1, m, m)
    assert np.array_equal(amp[0], np.eye(m))


def test_propagate_reports_blow_up_like_integrate():
    # the unstable run of test_convergence_records_failure_rows at N=32
    field = project(lambda x: np.sin(2 * np.pi * x), Mesh1D(32), 1)
    stencil = update_matrices(1)
    integ = Integrator("euler", cfl=2.0, t_final=30.0)
    with pytest.raises(RuntimeError, match="step"):
        integ.integrate(field, stencil)
    with pytest.raises(RuntimeError, match="step"):
        integ.propagate(field, stencil)
    table = run_convergence(RunConfig("dg-p1", (32,), cfl=2.0, periods=30.0, integrator="euler"))
    assert table.column("status") == ["failed"]


@pytest.mark.parametrize("scheme", ["dg-p1", "dg-p2", "fv2-upwind"])
def test_propagate_has_no_rounding_floor_at_small_cfl(scheme):
    # At cfl 1e-9 the N=160 run takes 1.6e11 steps.  A propagator that forms
    # R = I + dt G + ... before powering loses about eps per step, which put
    # dg-p2 13x above its converged error there with every row reading ok.
    grids = (40, 80, 160)
    want = run_convergence(RunConfig(scheme, grids, cfl=1e-4)).column("l2")
    got = run_convergence(RunConfig(scheme, grids, cfl=1e-9)).column("l2")
    assert np.allclose(got, want, rtol=1e-6, atol=0.0)


def _decimal_ssprk3_amp(g, dt, dt_last, n):
    """R(dt g)^(n-1) R(dt_last g) at 40 digits, taking the float g as exact.

    Complex entries are (re, im) pairs of Decimals and R(z) = I + z + z^2/2
    + z^3/6 is formed with its identity term; at 40 digits the n = 1600
    steps below cost about 1e-37.  Takes 1-3 ms per mode on a 2-vCPU Xeon.
    """
    m = len(g)

    def mul(a, b):
        return [
            [
                (
                    sum(a[i][l][0] * b[l][j][0] - a[i][l][1] * b[l][j][1] for l in range(m)),
                    sum(a[i][l][0] * b[l][j][1] + a[i][l][1] * b[l][j][0] for l in range(m)),
                )
                for j in range(m)
            ]
            for i in range(m)
        ]

    def stability(h):
        h = Decimal(h)
        z = [[(h * Decimal(v.real), h * Decimal(v.imag)) for v in row] for row in g]
        r = [[(Decimal(int(i == j)), Decimal(0)) for j in range(m)] for i in range(m)]
        for q in (3, 2, 1):  # I + z (I + z/2 (I + z/3))
            zr = mul(z, r)
            r = [[(int(i == j) + re / q, im / q) for j, (re, im) in enumerate(row)]
                 for i, row in enumerate(zr)]
        return r

    with decimal.localcontext() as ctx:
        ctx.prec = 40
        amp, base, p = stability(dt_last), stability(dt), n - 1
        while p:
            if p & 1:
                amp = mul(base, amp)
            base = mul(base, base)
            p >>= 1
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in amp])


@pytest.mark.parametrize("k", [1, 7])
def test_propagate_amp_matches_decimal_reference(k):
    # dg-p2 at N=160 and the default cfl 0.1: 1600 steps.  Forming R = I + E
    # before powering was off by 9.6e-14 (k=1) and 3.2e-14 (k=7); carrying E
    # is off by about 1e-15 and 7e-15.
    mesh = Mesh1D(160)
    state, stencil, _ = _setup_scheme("dg-p2", initial_condition("sine"), mesh)
    integ = Integrator()
    _, n, amp = integ.propagate(state, stencil)
    _, dt, dt_last = integ.schedule(mesh.dx)
    g = stencil.symbol(2.0 * np.pi * k / mesh.n_cells) / mesh.dx
    assert n == 1600
    assert np.max(np.abs(amp[k] - _decimal_ssprk3_amp(g, dt, dt_last, n))) <= 1e-14


def test_propagate_peak_memory():
    # 280 KiB sits just above the 274 KiB peak of the real 2m x 2m embedding
    # that the mode-last kernel replaced (dg-p2, N=640, numpy 2.4.6); faster
    # must not mean larger.  The column-by-column product peaks at 273 KiB
    # (the row-by-row one at 213 KiB): its power loop holds a fourth stack,
    # the product temporary.
    state, stencil, _ = _setup_scheme("dg-p2", initial_condition("sine"), Mesh1D(640))
    integ = Integrator()
    integ.propagate(state, stencil)  # first-call numpy state is not the kernel's
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = integ.propagate(state, stencil)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result[1] == 6400
    assert peak <= 280 * 1024


def _row_product(a, b, out=None, tmp=None):
    """The row-by-row product that _product's column form must match bit for bit."""
    if out is None:
        out = np.empty(a.shape[:1] + b.shape[1:], a.dtype)
    for i, row in enumerate(out):
        np.multiply(a[i, 0], b[0], out=row)
        for j in range(1, len(b)):
            row += a[i, j] * b[j]
    return out


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint8)


@pytest.mark.parametrize("m, n_cols", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3)])
def test_product_keeps_the_row_formula_bits(m, n_cols):
    rng = np.random.default_rng(10 * m + n_cols)

    def stack(*shape):
        x = rng.standard_normal(shape + (37,)) + 1j * rng.standard_normal(shape + (37,))
        flat = x.reshape(-1)
        for value in (np.inf, -np.inf, np.nan, complex(np.inf, 1.0), complex(0.0, np.nan)):
            flat[rng.integers(flat.size)] = value
        return x

    a, b = stack(m, m), stack(m, n_cols)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _row_product(a, b)
        assert np.array_equal(_bits(timestepping._product(a, b)), _bits(expected))
        out, tmp = np.empty_like(expected), np.empty_like(expected)
        timestepping._product(a, b, out, tmp)
        assert np.array_equal(_bits(out), _bits(expected))
        if n_cols == m:  # squaring reads one stack as both factors
            assert np.array_equal(_bits(timestepping._product(a, a)), _bits(_row_product(a, a)))


@pytest.mark.parametrize("n_cells", [40, 640])
def test_propagate_keeps_the_row_product_bits(monkeypatch, n_cells):
    integ = Integrator()
    for scheme in SCHEMES:
        state, stencil, _ = _setup_scheme(scheme, initial_condition("sine"), Mesh1D(n_cells))
        column = integ.propagate(state, stencil)
        with monkeypatch.context() as patch:
            patch.setattr(timestepping, "_product", _row_product)
            row = integ.propagate(state, stencil)
        assert column[1] == row[1]
        assert column[0].data.tobytes() == row[0].data.tobytes(), scheme
        assert column[2].tobytes() == row[2].tobytes(), scheme
