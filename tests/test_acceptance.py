"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Each test prints as its own pass/fail line under pytest -v. The expensive
ladders are computed once in module-scoped fixtures and shared; the whole
module is budgeted to run in well under two minutes.
"""
import time
from fractions import Fraction as F

import numpy as np
import pytest

from dgmodeq import (
    EXACT_POINT,
    UPWIND_TRACE,
    Integrator,
    Mesh1D,
    RunConfig,
    StencilSpec,
    basis_moments,
    correction_series,
    moment_evolution_laws,
    project,
    rhs_weak,
    run_correction,
    run_residual,
    run_spectrum,
    update_matrices,
)
from dgmodeq.analysis import fitted_l2_orders, run_convergence
from dgmodeq.basis import ModalBasis
from dgmodeq.cli import main
from dgmodeq.dg import rhs_matrix
from dgmodeq.exact import QF, update_matrices_exact
from dgmodeq.field import ModalField


def R(p, q=1):
    return QF(F(p, q))


SQ3 = QF(0, 1, 0, 0)
SQ5 = QF(0, 0, 1, 0)
SQ15 = QF(0, 0, 0, 1)

LADDER = (40, 80, 160, 320)


@pytest.fixture(scope="module")
def convergence_ladders():
    tables = {}
    start = time.perf_counter()
    for scheme in ("dg-p1", "dg-p2", "fv1", "fv2-central", "fv2-upwind"):
        tables[scheme] = run_convergence(RunConfig(scheme, LADDER))
    tables["elapsed"] = time.perf_counter() - start
    return tables


@pytest.fixture(scope="module")
def residual_tables():
    return {
        scheme: run_residual(RunConfig(scheme, LADDER)) for scheme in ("dg-p1", "dg-p2")
    }


@pytest.fixture(scope="module")
def spectrum_table():
    return run_spectrum()


@pytest.fixture(scope="module")
def correction_table():
    return run_correction((20, 40, 80, 160, 320))


# ----------------------------------------------------------------------


def test_criterion_01_update_matrices_exact():
    a1, b1 = update_matrices_exact(1)
    assert a1 == ((R(1), R(1, 2)), (R(-6), R(3)))
    assert b1 == ((R(1), R(1, 2)), (R(-6), R(-3)))
    a2, b2 = update_matrices_exact(2)
    assert a2 == ((R(1), SQ3, SQ5), (-SQ3, R(3), SQ15), (SQ5, -SQ15, R(5)))
    assert b2 == ((R(1), SQ3, SQ5), (-SQ3, R(-3), -SQ15), (SQ5, SQ15, R(5)))


def test_criterion_02_projection_moments():
    # the five printed coefficients, in their textbook reciprocal forms
    k1 = basis_moments(1)
    assert k1[0].coefficient(2) == R(1, 24)
    assert k1[1].coefficient(3) == R(1, 40)
    k2 = basis_moments(2)
    assert k2[1].coefficient(1) == (R(2) * SQ3).reciprocal()  # 1/(2*sqrt(3))
    assert k2[1].coefficient(3) == (R(80) * SQ3).reciprocal()  # 1/(80*sqrt(3))
    assert k2[2].coefficient(2) == (R(12) * SQ5).reciprocal()  # 1/(12*sqrt(5))


def test_criterion_03_first_moment_degeneracy():
    upwind = moment_evolution_laws(StencilSpec(1, UPWIND_TRACE))[1]
    assert upwind.coefficient(0) == F(0)  # u_xx coefficient cancels exactly
    assert upwind.coefficient(1) == F(-2, 5)  # h*u_xxx survives
    exact = moment_evolution_laws(StencilSpec(1, EXACT_POINT))[1]
    assert exact.coefficient(0) == F(-1)  # generic flux keeps -u_xx


def test_criterion_04_third_order_evolution_laws():
    for mode in (UPWIND_TRACE, EXACT_POINT):
        laws = moment_evolution_laws(StencilSpec(2, mode))
        for m in (1, 2):
            assert laws[m].coefficient(0) == F(-1)
            assert all(isinstance(c, F) for c in laws[m].coeffs)
    # with exact interface data the laws are clean to O(h^2)
    exact_laws = moment_evolution_laws(StencilSpec(2, EXACT_POINT))
    assert exact_laws[1].coefficient(1) == F(0)
    assert exact_laws[2].coefficient(1) == F(0)
    # the upwind variant carries rational O(h) terms
    upwind_laws = moment_evolution_laws(StencilSpec(2, UPWIND_TRACE))
    assert upwind_laws[1].coefficient(1) == F(1, 10)
    assert upwind_laws[2].coefficient(1) == F(1, 2)


def test_criterion_05_correction_term(correction_table):
    series = correction_series()
    p, lead = series.leading()
    assert series.h_power(p) == 2 and lead.rational_value() == F(1, 96)
    for q in range(4):
        assert series.coefficient(q) == R(0)  # h^0 and h^1 vanish exactly
    rel_errs = correction_table.column("rel_err")
    for n, rel in zip(correction_table.column("N")[-2:], rel_errs[-2:]):
        assert rel <= 0.01, f"N={n}: fitted coefficient off by {rel:.2e}"
    for ratio in correction_table.column("ratio"):
        if ratio is not None:
            assert abs(ratio - 4.0) <= 0.1


def test_criterion_06_residual_remeasurement(residual_tables):
    checked = 0
    names = ("estimator", "mode", "moment", "h_power", "N", "exact", "measured")
    for table in residual_tables.values():
        for estimator, mode, m, q, n, exact, measured in zip(*map(table.column, names)):
            if estimator != "grid" or exact == "0" or n not in (160, 320):
                continue
            exact = float(F(exact))
            rel = abs(measured - exact) / abs(exact)
            assert rel <= 0.01, (
                f"{mode} m={m} h^{q}: N={n} measured {measured:.6g}, "
                f"exact {exact:.6g}, rel err {rel:.2e}"
            )
            checked += 1
    assert checked >= 8  # both degrees, both modes, two finest grids


def test_criterion_07_path_equivalence():
    rng = np.random.default_rng(1234)
    for degree in (1, 2):
        mesh = Mesh1D(64)
        basis = ModalBasis(degree)
        for _ in range(100):
            field = ModalField(mesh, basis, rng.standard_normal((64, degree + 1)))
            rm = rhs_matrix(field).data
            rw = rhs_weak(field).data
            scale = max(np.max(np.abs(rm)), np.max(np.abs(rw)))
            assert np.max(np.abs(rm - rw)) <= 1e-13 * scale


def test_criterion_08_conservation_over_period():
    integ = Integrator("ssprk3", cfl=0.1, t_final=1.0)
    for degree in (1, 2):
        mesh = Mesh1D(64)
        field = project(lambda x: np.sin(2 * np.pi * x) + 0.4, mesh, degree)
        before = np.sum(field.data[:, 0]) * mesh.dx
        out, _ = integ.integrate(field, update_matrices(degree))
        after = np.sum(out.data[:, 0]) * mesh.dx
        assert abs(after - before) <= 1e-12


def test_criterion_09_spectrum(spectrum_table):
    for degree in (0, 1, 2):
        assert spectrum_table.meta["max_re"][degree] <= 1e-12
    at_zero = [row for row in spectrum_table.rows if row[:2] == (2, 0.0)]  # degree, theta
    got = [complex(re, im) for *_, re, im in at_zero]
    assert len(got) == 3
    expected = sorted(
        [0 + 0j, -3 + 1j * np.sqrt(51.0), -3 - 1j * np.sqrt(51.0)],
        key=lambda z: (z.real, z.imag),
    )
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-10


def test_criterion_10_convergence_orders(convergence_ladders):
    bands = {
        "dg-p1": (1.7, 2.3),
        "dg-p2": (2.7, 3.3),
        "fv1": (0.9, 1.1),
        "fv2-central": (1.8, 2.2),
        "fv2-upwind": (1.8, 2.2),
    }
    for scheme, (lo, hi) in bands.items():
        order = fitted_l2_orders(convergence_ladders[scheme])[scheme]
        assert lo <= order <= hi, f"{scheme}: fitted L2 order {order:.3f} outside [{lo}, {hi}]"
    assert convergence_ladders["elapsed"] < 120.0


def test_criterion_11_csv_determinism(tmp_path):
    commands = {
        "convergence_fv1.csv": ["convergence", "--scheme", "fv1", "--grids", "10,20"],
        "residual_dg-p1.csv": ["residual", "--scheme", "dg-p1", "--grids", "20,40"],
        "spectrum_p1.csv": ["spectrum", "--scheme", "dg-p1"],
        "correction.csv": ["correction", "--grids", "20,40"],
        "compare.csv": ["compare", "--grids", "10,20"],
    }
    for rerun in ("a", "b"):
        for name, argv in commands.items():
            out = tmp_path / rerun
            assert main(argv + ["--out", str(out)]) == 0
    for name in commands:
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
        assert first  # non-empty
