"""Study drivers and the command line wrapper around them."""
import argparse
import importlib
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dgmodeq
from dgmodeq import (
    Integrator,
    RunConfig,
    analysis,
    fitted_l2_orders,
    run_compare,
    run_convergence,
    run_correction,
    run_residual,
    run_spectrum,
)
from dgmodeq.analysis import (
    FIT_GRIDS,
    SCHEMES,
    ResultTable,
    _sine,
    _sine_projection,
    _fit_order,
    _grid_estimates,
    _residual_fits,
    check_convergence,
    check_correction,
    check_residual,
    check_spectrum,
    exact_solution,
    initial_condition,
)
from dgmodeq.basis import QUAD_NODES, QUAD_WEIGHTS, ModalBasis
from dgmodeq.cli import build_parser, main, parse_config_file
from dgmodeq.dg import rhs_matrix, rhs_weak, symbol
from dgmodeq.exact import UPWIND_TRACE, DerivativeSeries, check_taylor, moment_leading_scale
from dgmodeq.field import ModalField, project
from dgmodeq.mesh import Mesh1D
from dgmodeq.schemes import METHODS


def test_initial_condition_parsing():
    sine = initial_condition("sine")
    assert sine.smooth
    gauss = initial_condition("gauss:0.08")
    assert gauss.smooth
    xs = np.array([0.5, 0.3])
    assert gauss.fn(xs)[0] == pytest.approx(1.0)
    assert list(initial_condition("gauss:1e-300").fn(xs)) == [1.0, 0.0]
    step = initial_condition("step")
    assert not step.smooth
    assert list(step.fn(np.array([0.3, 0.8]))) == [1.0, 0.0]
    for bad in ("ramp", "gauss:abc", "gauss:0.9"):
        with pytest.raises(ValueError):
            initial_condition(bad)


def test_exact_solution_translates():
    ic = initial_condition("step")
    moved = exact_solution(ic, 0.5)
    assert moved(np.array([0.9]))[0] == 1.0  # the jump moved with the flow
    sine = initial_condition("sine")
    x = np.array([0.3])
    assert exact_solution(sine, 0.25)(x)[0] == pytest.approx(np.sin(2 * np.pi * 0.05))
    # u0(x - t) needs no wrap of its own: every profile is 1-periodic, so it
    # equals the sine formula and the wrapped u0((x - t) % 1) bit for bit
    xs = np.concatenate([np.linspace(-0.5, 1.5, 401), [0.0, 1e-17, 1.0]])
    for spec in ("sine", "gauss:0.1", "step"):
        ic = initial_condition(spec)
        for t in (0.0, 0.3, 1.0, 2.5, 1e-17):
            if spec == "sine":
                want = np.sin(2.0 * np.pi * (xs - t))
            else:
                want = ic.fn((xs - t) % 1.0)
            assert np.array_equal(exact_solution(ic, t)(xs), want), (spec, t)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig("dg-p3", (10, 20))
    with pytest.raises(ValueError):
        RunConfig("dg-p1", ())
    with pytest.raises(ValueError):
        RunConfig("dg-p1", (20, 20))
    with pytest.raises(ValueError):
        RunConfig("dg-p1", (40, 20))
    with pytest.raises(ValueError):
        RunConfig("dg-p1", (10, 20), cfl=0.0)
    with pytest.raises(ValueError, match="integrator must be one of .*, got 'rk4'"):
        RunConfig("dg-p1", (10, 20), integrator="rk4")
    with pytest.raises(ValueError):
        RunConfig("dg-p1", (10, 20), ic="sawtooth")


def test_choices_are_stored_as_plain_str():
    # an equal np.str_ used to be stored as given, and so keyed caches and reprs
    config = RunConfig(np.str_("dg-p2"), (10, 20), integrator=np.str_("euler"))
    assert type(config.scheme) is str and type(config.integrator) is str
    assert repr(config) == repr(RunConfig("dg-p2", (10, 20), integrator="euler"))
    assert type(Integrator(np.str_("ssprk2")).method) is str


@pytest.mark.parametrize(
    "grids", [(10.7, 20.2), (10.0, 20.0), (True, 2), ("10", "20"), (10, 2.5), (0, 10), (-5, 10)]
)
def test_run_config_rejects_non_integer_grids(grids):
    # these used to be truncated or cast silently: (10.7, 20.2) ran as (10, 20)
    with pytest.raises(ValueError, match="integer"):
        RunConfig("dg-p1", grids)


def test_run_config_accepts_numpy_integer_grids():
    config = RunConfig("dg-p1", (np.int64(10), np.int32(20)))
    assert config.grids == (10, 20)
    assert all(type(n) is int for n in config.grids)
    spectrum = run_spectrum((np.int64(1),), n_theta=np.int64(4))
    assert spectrum.rows == run_spectrum((1,), n_theta=4).rows and type(spectrum.rows[0][0]) is int


def test_run_config_defaults():
    assert RunConfig() == RunConfig("dg-p1", (20, 40, 80, 160, 320), 0.1, 1.0, "sine", "ssprk3")


@pytest.mark.parametrize(
    "study",
    [
        lambda: run_spectrum((1,), n_theta=0),
        lambda: run_spectrum((1,), n_theta=-5),
        lambda: run_spectrum(()),
        lambda: run_correction(()),
        # 2.5 used to sample theta = 0, 2.51, 5.03; True one theta
        lambda: run_spectrum((1,), n_theta=2.5),
        lambda: run_spectrum((1,), n_theta=True),
        lambda: run_spectrum((1,), n_theta="3"),
        lambda: run_spectrum((3,)),
        lambda: run_correction((20.5, 41)),
        # a repeated degree used to write its rows twice
        lambda: run_spectrum((1, 1)),
        # on 1 or 2 cells sin or cos(2 pi x_j) vanishes at the centres: the
        # residual fit printed 2.1e14 and the correction cmax 3.9e-15
        lambda: run_residual(RunConfig("dg-p2", (1, 2, 4))),
        lambda: run_residual(RunConfig("dg-p1", (2, 4))),
        lambda: run_correction((1, 2, 4)),
    ],
    ids=[
        "n_theta=0", "n_theta=-5", "no-degrees", "no-grids",
        "n_theta=2.5", "n_theta=True", "n_theta='3'", "degree=3", "grids=(20.5, 41)",
        "degrees=(1, 1)", "residual-grids=(1, 2, 4)", "residual-grids=(2, 4)",
        "correction-grids=(1, 2, 4)",
    ],
)
def test_study_rejects_empty_input(study):
    # an empty table would read as a PASS of check_spectrum/check_correction on no data
    with pytest.raises(ValueError):
        study()


@pytest.mark.parametrize(
    "bad",
    [
        {"cfl": np.nan}, {"cfl": np.inf}, {"periods": np.nan}, {"periods": np.inf},
        {"cfl": True}, {"periods": True}, {"periods": False}, {"cfl": "0.1"}, {"periods": -1.0},
        # their floats leave the range: 0.0 for a positive value, or an overflow
        {"cfl": np.longdouble("1e-4000")}, {"periods": np.longdouble("1e-4000")},
        {"periods": Fraction(1, 10**400)}, {"cfl": 10**400}, {"periods": Fraction(10**400)},
    ],
)
def test_run_config_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        RunConfig("dg-p1", (10, 20), **bad)


def test_finite_settings_are_named_as_the_caller_names_them():
    # RunConfig and Integrator share the rule; a bad horizon reads periods, not t_final
    with pytest.raises(ValueError, match="^periods must be nonnegative"):
        RunConfig(periods=True)
    with pytest.raises(ValueError, match="^cfl must be positive"):
        RunConfig(cfl=0.0)
    assert RunConfig(periods=0, cfl=np.float64(0.2)).periods == 0


@pytest.mark.parametrize("ic", [5, None, b"sine"])
def test_run_config_refuses_a_non_str_ic(ic):
    # these used to raise AttributeError from initial_condition
    for parse in (initial_condition, lambda ic: RunConfig(ic=ic)):
        with pytest.raises(ValueError, match="^ic must be a str"):
            parse(ic)


def test_ic_is_stored_as_plain_str():
    class Text(str):
        pass

    for ic in (np.str_("gauss:0.1"), Text("gauss:0.1")):
        config = RunConfig(ic=ic)
        assert type(config.ic) is str
        assert repr(config) == repr(RunConfig(ic="gauss:0.1"))


def test_cli_refuses_a_step_that_underflows(capsys):
    # cfl*dx rounded to 0.0, and the CLI printed a ZeroDivisionError traceback
    assert main(["convergence", "--cfl", "5e-324", "--grids", "10,20"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dt = cfl*dx = 4.94e-324*0.1 rounds to 0\n"


@pytest.mark.parametrize("flag", ["--cfl", "--periods"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_nonfinite(flag, value, capsys):
    # a nan horizon used to print zero steps, nan norms and status ok
    assert main(["convergence", "--grids", "10,20", flag, value]) != 0
    assert "finite" in capsys.readouterr().err


def test_fit_order_matches_polyfit():
    # the closed-form slope against numpy's least squares on the acceptance ladders
    for grids in ((40, 80, 160, 320), (40, 80, 160, 320, 640)):
        for scheme in SCHEMES:
            table = run_convergence(RunConfig(scheme, grids))
            ns, l2s = table.column("N"), table.column("l2")
            want = np.polyfit(np.log([1.0 / n for n in ns]), np.log(l2s), 1)[0]
            assert abs(_fit_order(ns, l2s) - want) <= 1e-12


def test_convergence_small_ladder():
    table = run_convergence(RunConfig("dg-p1", (20, 40, 80)))
    assert table.column("status") == ["ok"] * 3
    eocs = table.column("eoc_l2")
    assert eocs[0] is None
    assert eocs[1] == pytest.approx(2.0, abs=0.3)
    order = fitted_l2_orders(table)["dg-p1"]
    assert 1.7 < order < 2.3
    assert not check_convergence(table)


def test_fitted_order_uses_finest_grids():
    table = run_convergence(RunConfig("fv1"))
    ns, l2s = table.column("N"), table.column("l2")
    assert len(ns) > FIT_GRIDS
    order = fitted_l2_orders(table)["fv1"]
    assert order == _fit_order(ns[-FIT_GRIDS:], l2s[-FIT_GRIDS:])
    assert order != _fit_order(ns, l2s)
    assert not check_convergence(table)
    # fewer grids than FIT_GRIDS: the fit spans all of them
    pair = run_convergence(RunConfig("fv1", (10, 20)))
    assert fitted_l2_orders(pair) == {"fv1": _fit_order(pair.column("N"), pair.column("l2"))}


def test_cli_convergence_fv1_assert_default_ladder(capsys):
    assert main(["convergence", "--scheme", "fv1", "--assert"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_convergence_records_failure_rows():
    # cfl far above the stability ceiling for long enough that the state
    # overflows: the run must report the blow-up as a row, not raise
    table = run_convergence(
        RunConfig("dg-p1", (16, 32), cfl=2.0, periods=30.0, integrator="euler")
    )
    statuses = table.column("status")
    assert "failed" in statuses
    for row, status in zip(table.rows, statuses):
        if status == "failed":
            assert row[table.columns.index("l2")] is None


# Runs past the RKDG limits (cfl about 0.409 for P1 and 0.209 for P2 under
# SSPRK3; forward Euler with P >= 1 or a central slope).  Their states stay
# finite, so only the growth check flags them, and the one-grid run has no
# order band to fail.
UNSTABLE_RUNS = [
    "--cfl 0.41 --grids 64,128",
    "--cfl 0.45 --grids 32,64",
    "--cfl 0.45 --grids 64",
    "--scheme dg-p2 --integrator euler",
    "--integrator euler",
    "--scheme fv2-central --integrator euler",
    "--scheme fv2-central --cfl 1.5 --periods 20 --grids 20,40",
]


@pytest.mark.parametrize("flags", UNSTABLE_RUNS)
def test_cli_convergence_reports_unstable_runs(flags, tmp_path, capsys):
    assert main(["convergence", *flags.split(), "--out", str(tmp_path), "--assert"]) == 1
    out = capsys.readouterr().out
    assert "PASS" not in out
    (csv,) = tmp_path.glob("convergence_*.csv")
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    for scheme, n, _dx, _l1, l2, *_, status in rows:
        assert status == "unstable"
        assert f"FAIL: {scheme}: N={n} status unstable" in out
        assert l2  # the norms stay in the table


def test_check_convergence_fails_a_failed_single_grid():
    # one grid gives no order to fit, so only the status check can fail it
    table = run_convergence(RunConfig("dg-p1", (32,), cfl=2.0, periods=30.0, integrator="euler"))
    assert check_convergence(table) == [
        "dg-p1: N=32 status failed",
        "dg-p1: no usable error data to fit an order",
    ]


STABLE_RUNS = (
    [(s, "ssprk3", cfl) for s in SCHEMES for cfl in (0.1, 0.2, 0.3) if (s, cfl) != ("dg-p2", 0.3)]
    + [(s, "ssprk2", 0.1) for s in SCHEMES]
    + [("fv1", "euler", 0.1)]
)


@pytest.mark.parametrize("scheme, integrator, cfl", STABLE_RUNS)
def test_convergence_stable_runs_read_ok(scheme, integrator, cfl):
    grids = (20, 40, 80, 160, 320, 640)
    table = run_convergence(RunConfig(scheme, grids, cfl=cfl, integrator=integrator))
    assert table.column("status") == ["ok"] * len(grids)


@pytest.mark.parametrize("periods", [0.0, 0.001])
def test_convergence_short_runs_read_ok(periods):
    # at 0.001 periods the unweighted max |amp| of dg-p1 reads 2.29: the
    # {1, xi} basis is not orthonormal, and only the mass-weighted one is 1
    table = run_convergence(RunConfig("dg-p1", (20, 80, 320), periods=periods))
    assert table.column("status") == ["ok"] * 3
    if periods == 0.0:
        assert table.column("steps") == [0] * 3
        # with no step the fitted order is the projection's, not the scheme's
        assert check_convergence(table)[:3] == [
            f"dg-p1: N={n} took no time step" for n in (20, 80, 320)
        ]


def test_residual_small_grids():
    table = run_residual(RunConfig("dg-p1", (40, 80)))
    finest = {
        (cell["mode"], cell["moment"], cell["h_power"]): cell
        for cell in (dict(zip(table.columns, row)) for row in table.rows)
        if cell["estimator"] == "grid"
    }
    cell = finest[("upwind-trace", 0, 0)]
    assert cell["N"] == 80
    assert cell["measured"] == pytest.approx(-1.0, rel=1e-3)
    # degenerate slope coefficient measured as a decaying near-zero
    zero_cell = finest[("upwind-trace", 1, 0)]
    assert zero_cell["N"] == 80 and abs(zero_cell["measured"]) < 0.01
    assert not check_residual(table)


def test_residual_requires_doubling_and_sine():
    with pytest.raises(ValueError):
        run_residual(RunConfig("dg-p1", (40, 60)))
    with pytest.raises(ValueError):
        run_residual(RunConfig("dg-p1", (40, 80), ic="gauss:0.1"))
    with pytest.raises(ValueError):
        run_residual(RunConfig("fv1", (40, 80)))


# ----------------------------------------------------------------------
# between-grid columns, recomputed from each table's own per-grid cells


def _usable(err):
    return err is not None and np.isfinite(err) and err > 0.0


@pytest.mark.parametrize(
    "table",
    [
        lambda: run_compare(RunConfig("dg-p1", (10, 20, 40))),
        lambda: run_convergence(RunConfig("dg-p2", (10, 20, 40), ic="step")),
        lambda: run_convergence(RunConfig("fv1")),
        # overflowing norms (l2 = inf at N=16) and failed rows at N=32, 64
        lambda: run_convergence(
            RunConfig("dg-p1", (4, 8, 16, 32, 64), cfl=2.0, periods=30.0, integrator="euler")
        ),
    ],
    ids=["compare", "dg-p2-step", "fv1", "failing"],
)
def test_eoc_columns_follow_norm_columns(table):
    table = table()
    col = {name: table.column(name) for name in table.columns}
    checked = 0
    for i, scheme in enumerate(col["scheme"]):
        first = i == 0 or col["scheme"][i - 1] != scheme
        for norm in ("l1", "l2", "linf"):
            eoc = col[f"eoc_{norm}"][i]
            if first or "failed" in (col["status"][i - 1], col["status"][i]):
                assert eoc is None
                continue
            e_prev, e = col[norm][i - 1], col[norm][i]
            if not (_usable(e_prev) and _usable(e)):
                assert eoc is None
                continue
            n_prev, n = col["N"][i - 1], col["N"][i]
            assert eoc == float(np.log(e_prev / e) / np.log(n / n_prev))
            checked += 1
    assert checked


@pytest.mark.parametrize("scheme, grids", [("dg-p1", (20, 40, 80)), ("dg-p2", (10, 20, 40, 80))])
def test_residual_richardson_rows_follow_grid_rows(scheme, grids):
    table = run_residual(RunConfig(scheme, grids))
    cols = table.columns
    groups: dict = {}
    for row in table.rows:
        cell = dict(zip(cols, row))
        key = (cell["mode"], cell["moment"], cell["h_power"])
        groups.setdefault(key, {"grid": [], "richardson": []})[cell["estimator"]].append(cell)
    assert set(groups) == set(table.meta["targets"])
    for key, rows in groups.items():
        grid = [(c["N"], c["measured"]) for c in rows["grid"]]
        assert [n for n, _ in grid] == list(grids)
        assert table.meta["targets"][key] == {"exact": Fraction(rows["grid"][0]["exact"])}
        want = [(n_f, (4.0 * v_f - v_c) / 3.0) for (_, v_c), (n_f, v_f) in zip(grid, grid[1:])]
        assert [(c["N"], c["measured"]) for c in rows["richardson"]] == want


@pytest.mark.parametrize("scheme, degree", [("dg-p1", 1), ("dg-p2", 2)])
def test_residual_grid_rows_match_a_per_row_recomputation(scheme, degree):
    # The slow reference: every grid row projects the sine by separation,
    # takes its mode's response and builds its own target shape, with
    # nothing shared between rows.
    table = run_residual(RunConfig(scheme, (20, 40, 80)))
    checked = 0
    for row in table.rows:
        cell = dict(zip(table.columns, row))
        if cell["estimator"] != "grid":
            continue
        mesh, m, k = Mesh1D(cell["N"]), cell["moment"], len(cell["target"]) - 2
        basis, h = ModalBasis(degree), mesh.dx
        # a_m^j = sin(2 pi x_j) C_m + cos(2 pi x_j) S_m, with cos - 1 = -2 sin^2
        weighted = QUAD_WEIGHTS[:, None] * basis.phi / basis.mass
        c_m = weighted.sum(axis=0) - 2.0 * (np.sin(np.pi * (QUAD_NODES * h)) ** 2 @ weighted)
        s_m = np.sin(2.0 * np.pi * (QUAD_NODES * h)) @ weighted
        sin_x = np.sin(2.0 * np.pi * mesh.centers)
        cos_x = np.cos(2.0 * np.pi * mesh.centers)
        field = ModalField(mesh, basis, sin_x[:, None] * c_m + cos_x[:, None] * s_m)
        r = rhs_matrix(field) if cell["mode"] == UPWIND_TRACE else rhs_weak(field, _sine)
        # d^k/dx^k sin(2 pi x) = (2 pi)^k times sin, cos, -sin, -cos for k mod 4
        column = [sin_x, cos_x, sin_x, cos_x][k % 4]
        sign = [1.0, 1.0, -1.0, -1.0][k % 4]
        factor = sign * (2.0 * np.pi) ** k * float(moment_leading_scale(degree, m)) * h ** (k - 1)
        assert cell["measured"] == float(r.coeffs[:, m] @ column / (factor * (column @ column)))
        checked += 1
    assert checked == len(table.meta["targets"]) * 3


@pytest.mark.parametrize("n", [1, 7, 1280, 20480])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_sine_projection_by_separation_matches_project(degree, n):
    mesh = Mesh1D(n)
    field, (sin_x, cos_x) = _sine_projection(mesh, ModalBasis(degree))
    np.testing.assert_allclose(field.coeffs, project(_sine, mesh, degree).coeffs, rtol=0, atol=4e-15)
    assert np.array_equal(sin_x, np.sin(2.0 * np.pi * mesh.centers))
    assert np.array_equal(cos_x, np.cos(2.0 * np.pi * mesh.centers))


@pytest.mark.parametrize("n", [1, 3, 7, 1280, 20480])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_sine_projection_matches_cell_major_formula_bit_for_bit(degree, n):
    # the same separation assembled cell-major, (N, m), one column at a time
    mesh, basis = Mesh1D(n), ModalBasis(degree)
    sin_x = np.sin(2.0 * np.pi * mesh.centers)
    cos_x = np.cos(2.0 * np.pi * mesh.centers)
    rule = QUAD_WEIGHTS[:, None] * basis.phi / basis.mass
    xi_h = QUAD_NODES * mesh.dx
    c_m = rule.sum(axis=0) - 2.0 * (np.sin(np.pi * xi_h) ** 2 @ rule)
    s_m = np.sin(2.0 * np.pi * xi_h) @ rule
    want = np.multiply.outer(sin_x, c_m)
    for column, s in zip(want.T, s_m):
        column += cos_x * s
    got = _sine_projection(mesh, basis)[0].coeffs
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme", ["dg-p1", "dg-p2"])
def test_residual_fine_ladder_reads_the_law_not_rounding(scheme):
    # An absolute rounding of eps in a moment of size h^m reads up to 7e-4
    # relative here, so the projection must round relative to each moment.
    table = run_residual(RunConfig(scheme, (1280, 2560, 5120, 10240, 20480)))
    checked = 0
    for row in table.rows:
        cell = dict(zip(table.columns, row))
        if cell["N"] == 20480 and cell["exact"] != "0":
            assert cell["rel_err"] < 1e-5, cell
            checked += 1
    assert checked == 2 * sum(info["exact"] != 0 for info in table.meta["targets"].values())


def _traced_peak(call) -> int:
    """Bytes call() allocates at its peak, above what was live before it."""
    call()  # first-call numpy state is not the kernel's
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_residual_kernels_peak_memory():
    # dg-p2 at N=20480, numpy 2.4.6: one (N, 3) state is 480 KiB.  With
    # full-size temporaries rhs_weak peaked at 2882 KiB, rhs_matrix at 1441
    # and one _grid_estimates call at 4483; filling their own buffers, they
    # peak at 1601, 961 and 3202 KiB.  _sine_projection peaks at 1442 KiB,
    # its (m, N) rows and the field's copy beside the phase, sin and cos
    # columns.
    n, basis = 20480, ModalBasis(2)
    mesh = Mesh1D(n)
    field, _ = _sine_projection(mesh, basis)
    fits = _residual_fits(2)
    assert _traced_peak(lambda: rhs_weak(field, _sine)) <= 1800 * 1024
    assert _traced_peak(lambda: rhs_matrix(field)) <= 1100 * 1024
    assert _traced_peak(lambda: _grid_estimates(n, basis, fits)) <= 3400 * 1024
    assert _traced_peak(lambda: _sine_projection(mesh, basis)) <= 1500 * 1024


def test_correction_ratio_follows_cmax():
    table = run_correction((10, 20, 40, 80))
    cmax, ratio = table.column("cmax"), table.column("ratio")
    assert ratio[0] is None
    assert ratio[1:] == [c_prev / c for c_prev, c in zip(cmax, cmax[1:])]


@pytest.mark.parametrize("grids", [(40, 20), (20, 30)])
def test_correction_requires_doubling(grids):
    # its ratio column and the 4.0 +- 0.1 decay band assume a doubling ladder
    with pytest.raises(ValueError):
        run_correction(grids)


def test_correction_without_a_leading_term_is_refused(monkeypatch, capsys):
    # a ValueError, not an assert statement, so `python -O` refuses it too
    zero = DerivativeSeries([0] * 9, -2)
    monkeypatch.setattr(analysis, "correction_series", lambda: zero)
    message = "correction series <series 0 + O(h^7)> has no leading term"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_correction((20, 40))
    assert main(["correction", "--grids", "20,40"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("grids, code", [("40,20", 2), ("20,30", 2), ("20", 1)])
def test_cli_correction_ladder(grids, code, capsys):
    # a bad ladder is refused before the study runs; a single grid runs but
    # has no decay ratio, so --assert cannot pass on it
    assert main(["correction", "--grids", grids, "--assert"]) == code
    out = capsys.readouterr().out
    assert "PASS" not in out
    if code == 1:
        assert "FAIL: no max|C| decay ratio" in out


def test_spectrum_table_and_checks():
    table = run_spectrum()
    assert not check_spectrum(table)
    assert set(table.meta["max_re"]) == {0, 1, 2}
    # 256 samples x (1 + 2 + 3) branches
    assert len(table.rows) == 256 * 6


def _spectrum_by_loop(degrees, n_theta):
    """The per-theta reference: scalar symbol, eigvals, sorted by (re, im)."""
    table = ResultTable("ref", ("degree", "theta", "branch", "re", "im"))
    for degree in degrees:
        for i in range(n_theta):
            theta = 2.0 * np.pi * i / n_theta
            eigs = sorted(np.linalg.eigvals(symbol(theta, degree)), key=lambda z: (z.real, z.imag))
            for branch, z in enumerate(eigs):
                table.add_row(
                    degree=degree, theta=theta, branch=branch, re=float(z.real), im=float(z.imag)
                )
    return table


#: How far a mirrored row may sit from a direct per-theta eigensolve; 4.5e-15 at 2048 samples.
MIRROR_TOL = 1e-13


def _by_theta(table, n_theta):
    """{(degree, i): the rows at theta_i}, from the theta-major rows of each degree."""
    found, start = {}, 0
    for degree in dict.fromkeys(table.column("degree")):
        for i in range(n_theta):
            found[degree, i] = table.rows[start : start + degree + 1]
            start += degree + 1
    assert start == len(table.rows)
    return found


@pytest.mark.parametrize("degrees", [(0, 1, 2), (0,), (2,)])
@pytest.mark.parametrize("n_theta", [1, 2, 3, 7, 8, 256])
def test_spectrum_matches_per_theta_loop(degrees, n_theta):
    table = run_spectrum(degrees, n_theta)
    ref = _spectrum_by_loop(degrees, n_theta)
    assert table.column("theta") == ref.column("theta")
    got, want = _by_theta(table, n_theta), _by_theta(ref, n_theta)
    assert list(got) == list(want)
    for (degree, i), rows in got.items():
        assert [tuple(map(type, row)) for row in rows] == [
            tuple(map(type, row)) for row in want[degree, i]
        ]
        if i <= n_theta // 2:
            # theta <= pi is solved directly: bit for bit the per-theta loop
            assert rows == want[degree, i]
        else:
            # theta > pi is its mirror's conjugates, re-sorted by (re, im)
            mirror = sorted((re, -im) for *_, re, im in got[degree, n_theta - i])
            assert [(re, im) for *_, re, im in rows] == mirror
        for (*_, re, im), (*_, re_ref, im_ref) in zip(rows, want[degree, i]):
            z, z_ref = complex(re, im), complex(re_ref, im_ref)
            assert abs(z - z_ref) <= MIRROR_TOL * max(1.0, abs(z_ref))
    assert table.meta == {
        "max_re": {d: max(row[3] for row in table.rows if row[0] == d) for d in degrees}
    }
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    for k in degrees:
        batch = symbol(thetas, k)
        assert batch.shape == (n_theta, k + 1, k + 1)
        for i, theta in enumerate(thetas):
            assert np.array_equal(batch[i], symbol(theta, k))


@pytest.mark.parametrize("n_theta", [1, 2, 3, 7, 8, 256])
def test_spectrum_solves_only_theta_up_to_pi(monkeypatch, n_theta):
    solved = []
    eigvals = np.linalg.eigvals

    def counting(a):
        solved.append(len(a) if np.ndim(a) == 3 else 1)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    run_spectrum((0, 1, 2), n_theta)
    assert solved == [n_theta // 2 + 1] * 3


def test_correction_small_grids():
    table = run_correction((20, 40, 80))
    assert not check_correction(table)
    ratios = [r for r in table.column("ratio") if r is not None]
    assert all(abs(r - 4.0) < 0.1 for r in ratios)


def test_compare_combines_three_schemes():
    table = run_compare(RunConfig("dg-p1", (20, 40)))
    schemes = set(table.column("scheme"))
    assert schemes == {"dg-p1", "fv2-central", "fv2-upwind"}
    assert len(table.rows) == 6


def test_csv_determinism(tmp_path):
    cfg = RunConfig("fv1", (10, 20))
    path = run_convergence(cfg).write_csv(tmp_path)
    assert path == tmp_path / "convergence_fv1.csv"
    first = path.read_bytes()
    assert run_convergence(cfg).write_csv(tmp_path).read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header.split(",")[:6] == ["scheme", "N", "dx", "l1", "l2", "linf"]
    assert "wall" not in header  # timings stay out of the deterministic file


def test_csv_written_for_each_study(tmp_path):
    tables = {
        "residual_dg-p1.csv": run_residual(RunConfig("dg-p1", (20, 40))),
        "spectrum_p2.csv": run_spectrum((2,)),
        "spectrum.csv": run_spectrum((1, 2), n_theta=4),
        "correction.csv": run_correction((20, 40)),
        "compare.csv": run_compare(RunConfig("dg-p1", (10, 20))),
    }
    for name, table in tables.items():
        path = table.write_csv(tmp_path / "sub")
        assert path == tmp_path / "sub" / name
        assert path.read_text() == table.csv_text()


def test_run_config_has_only_study_settings():
    assert RunConfig._fields == ("scheme", "grids", "cfl", "periods", "ic", "integrator")
    assert list(vars(RunConfig())) == list(RunConfig._fields)


def test_compare_merges_three_convergence_runs():
    config = RunConfig("dg-p1", (10, 20))
    table = run_compare(config)
    expected_rows, expected_orders = [], {}
    for scheme in ("dg-p1", "fv2-central", "fv2-upwind"):
        part = run_convergence(RunConfig(**{**vars(config), "scheme": scheme}))
        expected_rows += part.rows
        expected_orders.update(fitted_l2_orders(part))
    assert table.rows == expected_rows
    assert fitted_l2_orders(table) == expected_orders
    assert list(expected_orders) == ["dg-p1", "fv2-central", "fv2-upwind"]


# ----------------------------------------------------------------------
# every verdict reads its table's rows


def _last_nonzero_grid_row(table):
    cells = [dict(zip(table.columns, row)) for row in table.rows]
    return max(i for i, c in enumerate(cells) if c["estimator"] == "grid" and c["exact"] != "0")


def _last_zero_grid_row(table):
    cells = [dict(zip(table.columns, row)) for row in table.rows]
    return max(i for i, c in enumerate(cells) if c["estimator"] == "grid" and c["exact"] == "0")


def _first_degree2_row(table):
    index = table.column("degree").index(2)
    assert table.rows[index][1] == 0.0  # theta
    return index


@pytest.mark.parametrize(
    "make, check, pick, column, edit, message",
    [
        (lambda: run_convergence(RunConfig("dg-p1", (20, 40, 80))), check_convergence,
         lambda table: -1, "l2", lambda l2: 10.0 * l2, "dg-p1: fitted L2 order"),
        # the fit drops a grid whose l2 is not finite and positive, so the row must fail itself
        *[
            (lambda: run_convergence(RunConfig("dg-p1", (20, 40, 80))), check_convergence,
             lambda table: -1, "l2", lambda l2, bad=bad: bad, f"dg-p1: N=80 l2 error {bad}")
            for bad in (np.nan, np.inf, 0.0)
        ],
        (lambda: run_residual(RunConfig("dg-p1", (40, 80))), check_residual,
         _last_nonzero_grid_row, "measured", lambda v: 1.02 * v, "at N=80 (rel err"),
        (lambda: run_residual(RunConfig("dg-p1", (40, 80))), check_residual,
         _last_nonzero_grid_row, "measured", lambda v: np.nan, "at N=80 (rel err nan"),
        # a zero target is judged too: its estimate must fall as h^2
        *[
            (lambda: run_residual(RunConfig("dg-p1", (40, 80))), check_residual,
             _last_zero_grid_row, "measured", lambda v, bad=bad: bad,
             f"vs exact 0 at N=80 (|measured| N^2 {text} > 10.0)")
            for bad, text in ((np.nan, "nan"), (5.0, "3.2e+04"))
        ],
        (lambda: run_correction((20, 40, 80)), check_correction,
         lambda table: -1, "measured", lambda v: 1.02 * v, "N=80: coefficient rel err"),
        (lambda: run_correction((20, 40, 80)), check_correction,
         lambda table: -1, "measured", lambda v: np.nan, "N=80: coefficient rel err nan"),
        (lambda: run_correction((20, 40, 80)), check_correction,
         lambda table: -1, "cmax", lambda c: 1.1 * c, "N=80: max|C| decay ratio 3.6"),
        (lambda: run_correction((20, 40, 80)), check_correction,
         lambda table: -1, "cmax", lambda c: np.nan, "N=80: max|C| decay ratio nan"),
        (run_spectrum, check_spectrum,
         lambda table: 700, "re", lambda re: 1e-9, "max Re eigenvalue 1.000e-09 > 1e-12"),
        (run_spectrum, check_spectrum,
         _first_degree2_row, "im", lambda im: im + 1e-6, "degree 2 theta=0 eigenvalues off by 1.0"),
        # a pin row that leaves theta = 0 is a missing pin, not one fewer to compare
        (run_spectrum, check_spectrum,
         _first_degree2_row, "theta", lambda theta: 1e-3, "theta=0 eigenvalues off by inf"),
    ],
    ids=[
        "convergence-l2", "convergence-l2-nan", "convergence-l2-inf", "convergence-l2-zero",
        "residual-measured", "residual-measured-nan", "residual-zero-nan", "residual-zero-5",
        "correction-measured",
        "correction-measured-nan", "correction-cmax", "correction-cmax-nan", "spectrum-re",
        "spectrum-theta-zero", "spectrum-pin-moved",
    ],
)
def test_a_row_edit_flips_its_verdict(make, check, pick, column, edit, message):
    # meta stays as the run wrote it, so only a check that reads the rows sees the edit
    table = make()
    assert not check(table)
    i, j = pick(table), table.columns.index(column)
    row = list(table.rows[i])
    row[j] = edit(row[j])
    table.rows[i] = tuple(row)
    failures = check(table)
    assert len(failures) == 1 and message in failures[0], failures


def test_check_correction_reads_no_derived_column():
    # rel_err and ratio follow from measured, exact and cmax, so the verdict recomputes them
    table = run_correction((20, 40, 80))
    for column, wrong in (("rel_err", 1.0), ("ratio", 2.0)):
        j = table.columns.index(column)
        table.rows = [row[:j] + (wrong,) + row[j + 1:] for row in table.rows]
    assert check_correction(table) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("column", ["re", "im"])
@pytest.mark.parametrize(
    "index, degree", [(0, 1), (3, 1), (16, 2), (-1, 2)],
    ids=["first-row", "fourth-row", "degree2-pin", "last-row"],
)
def test_check_spectrum_fails_a_non_finite_eigenvalue(index, degree, column, value):
    table = run_spectrum((1, 2), n_theta=8)  # degree 1 fills rows 0..15, degree 2 from 16
    assert not check_spectrum(table) and table.rows[16][:3] == (2, 0.0, 0)
    row = list(table.rows[index])
    row[table.columns.index(column)] = value
    table.rows[index] = tuple(row)
    failures = check_spectrum(table)
    assert f"degree {degree}: a non-finite eigenvalue" in failures
    if index == 16:  # a theta = 0 pin is off by the same non-finite amount
        assert any("theta=0 eigenvalues off by nan" in f or "off by inf" in f for f in failures)
    assert len(failures) == 1 + (index == 16), failures


# ----------------------------------------------------------------------
# command line


TAYLOR_STDOUT = """\
k=1 upwind a0: u_t = (-1)*u_x + 0*h*u_xx + O(h^2)
k=1 upwind a1: u_xt = 0*u_xx + (-2/5)*h*u_xxx + O(h^2)
k=1 exact a0: u_t = (-1)*u_x + 0*h*u_xx + O(h^2)
k=1 exact a1: u_xt = (-1)*u_xx + 0*h*u_xxx + O(h^2)
k=2 upwind a0: u_t = (-1)*u_x + 0*h*u_xx + O(h^2)
k=2 upwind a1: u_xt = (-1)*u_xx + (1/10)*h*u_xxx + O(h^2)
k=2 upwind a2: u_xxt = (-1)*u_xxx + (1/2)*h*u_xxxx + O(h^2)
k=2 exact a0: u_t = (-1)*u_x + 0*h*u_xx + O(h^2)
k=2 exact a1: u_xt = (-1)*u_xx + 0*h*u_xxx + O(h^2)
k=2 exact a2: u_xxt = (-1)*u_xxx + 0*h*u_xxxx + O(h^2)
correction: C = (1/96)*h^2*u_xxxx + O(h^4)
"""


def test_cli_taylor_contains_frozen_line(capsys):
    # the whole exact output is rational text, so it is pinned verbatim
    assert main(["taylor"]) == 0
    out = capsys.readouterr().out
    assert "k=1 upwind a1: u_xt = 0*u_xx + (-2/5)*h*u_xxx + O(h^2)" in out
    assert out == TAYLOR_STDOUT


def test_cli_taylor_assert(capsys):
    assert main(["taylor", "--assert"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_taylor_passes():
    assert check_taylor() == []


def test_cli_convergence_writes_csv(tmp_path, capsys):
    code = main([
        "convergence", "--scheme", "fv1", "--grids", "10,20", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "convergence_fv1.csv").exists()
    assert "fitted L2 order" in capsys.readouterr().out


def test_cli_step_assert_refused(capsys):
    code = main(["convergence", "--ic", "step", "--grids", "10,20", "--assert"])
    assert code == 2
    assert "smooth" in capsys.readouterr().err


def test_cli_residual_rejects_fv(capsys):
    assert main(["residual", "--scheme", "fv1", "--grids", "10,20"]) == 2


def test_cli_spectrum_single_degree(tmp_path, capsys):
    code = main(["spectrum", "--scheme", "dg-p2", "--out", str(tmp_path), "--assert"])
    assert code == 0
    assert (tmp_path / "spectrum_p2.csv").exists()
    assert "PASS" in capsys.readouterr().out


def test_cli_correction_assert(capsys):
    assert main(["correction", "--grids", "20,40,80", "--assert"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("# comment\nscheme = dg-p2\ngrids=10,20\n\ncfl = 0.05  # inline\n")
    values = parse_config_file(cfg, ("scheme", "grids", "cfl"))
    assert values == {"scheme": "dg-p2", "grids": "10,20", "cfl": "0.05"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("colour = blue\n")
    with pytest.raises(ValueError):
        parse_config_file(bad, ("scheme", "grids", "cfl"))
    twice = tmp_path / "twice.cfg"
    twice.write_text("scheme = dg-p1\ngrids = 10,20\nscheme = dg-p2\n")
    with pytest.raises(ValueError, match=r"twice.cfg:3: key 'scheme' already given on line 1"):
        parse_config_file(twice, ("scheme", "grids", "cfl"))


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("scheme = dg-p2\ngrids = 10,20\n")
    code = main([
        "convergence", "--config", str(cfg), "--scheme", "fv1", "--out", str(tmp_path),
    ])
    assert code == 0
    # scheme came from the flag, grids from the file
    assert (tmp_path / "convergence_fv1.csv").exists()
    body = (tmp_path / "convergence_fv1.csv").read_text()
    assert "fv1,10," in body and "fv1,20," in body


def test_cli_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("speed = 2\n")
    assert main(["convergence", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_config_line_without_equals(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("scheme dg-p2\n")
    assert main(["convergence", "--config", str(cfg)]) == 2
    assert f"{cfg}:1: expected key=value" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("grids = 20,x", "grids: grids must be comma separated integers, got '20,x'"),
    ("cfl = fast", "cfl: could not convert string to float: 'fast'"),
    ("scheme = foo", f"scheme: scheme must be one of {SCHEMES}, got 'foo'"),
    ("integrator = rk4", f"integrator: integrator must be one of {METHODS}, got 'rk4'"),
], ids=["grids", "cfl", "scheme", "integrator"])
def test_cli_config_bad_value_names_file_and_line(line, message, tmp_path, capsys):
    # each used to print only the message, with neither file nor line
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"ic = sine\n{line}\n")
    assert main(["convergence", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"


def test_cli_bad_flag_value_keeps_argparse_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--cfl", "fast"])
    assert exc.value.code == 2
    assert "argument --cfl: invalid float value: 'fast'" in capsys.readouterr().err


def test_cli_rejects_non_integer_grid(capsys):
    assert main(["convergence", "--grids", "20,x"]) == 2
    assert "comma separated integers" in capsys.readouterr().err


def test_cli_spectrum_rejects_multi_stencil_scheme(capsys):
    assert main(["spectrum", "--scheme", "fv2-central"]) == 2
    err = capsys.readouterr().err
    assert "dg-p1, dg-p2, fv1" in err and "'fv2-central'" in err


@pytest.mark.parametrize("argv", [["--out", ""], ["--config", "study.cfg"]], ids=["flag", "key"])
def test_cli_empty_out_refused(argv, tmp_path, monkeypatch, capsys):
    # "" used to print `wrote correction.csv` into the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "study.cfg").write_text("out =\n")
    assert main(["correction", *argv]) == 2
    assert "out must name a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["study.cfg"]


def test_add_row_refuses_unknown_column():
    table = ResultTable("t", ("N", "l2"))
    with pytest.raises(ValueError, match=r"unknown columns \['linf'\]; columns are \['N', 'l2'\]$"):
        table.add_row(N=10, linf=0.5)
    assert table.rows == []


def test_column_names_an_unknown_column():
    # it used to raise tuple.index's "tuple.index(x): x not in tuple"
    table = ResultTable("t", ("N", "l2"))
    table.add_row(N=10, l2=0.5)
    assert table.column("l2") == [0.5]
    with pytest.raises(ValueError, match=r"^unknown column 'nope'; columns are \['N', 'l2'\]$"):
        table.column("nope")


# What each subcommand reads; every other study flag must be refused.
CLI_READS = {
    "convergence": ("scheme", "grids", "cfl", "periods", "ic", "integrator", "out", "config"),
    "compare": ("grids", "cfl", "periods", "ic", "integrator", "out", "config"),
    "residual": ("scheme", "grids", "out", "config"),
    "spectrum": ("scheme", "out", "config"),
    "correction": ("grids", "out", "config"),
    "taylor": (),
}
CLI_FLAG_VALUES = {
    "scheme": "dg-p1",
    "grids": "10,20",
    "cfl": "0.2",
    "periods": "1",
    "ic": "sine",
    "integrator": "euler",
    "out": "results",
    "config": "study.cfg",
}
CLI_UNREAD = [
    (command, flag)
    for command, reads in CLI_READS.items()
    for flag in CLI_FLAG_VALUES
    if flag not in reads
]


def test_cli_flag_slots():
    # every subcommand has exactly the flags it reads: 31 slots, down from 48
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    slots = {
        name: {opt for action in parser._actions for opt in action.option_strings}
        - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    expected = {name: {f"--{flag}" for flag in reads} for name, reads in CLI_READS.items()}
    assert slots == {name: flags | {"--assert"} for name, flags in expected.items()}
    assert sum(len(flags) for flags in slots.values()) == 31


@pytest.mark.parametrize("command,flag", CLI_UNREAD)
def test_cli_refuses_unread_flag(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{flag}", CLI_FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"--{flag}" in capsys.readouterr().err


def test_cli_refuses_unread_config_key(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("grids = 20,40\ncfl = 0.2\n")
    assert main(["correction", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'cfl'" in err
    assert "known: grids, out" in err


def test_cli_spectrum_scheme_from_config(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"scheme = dg-p2\nout = {tmp_path / 'results'}\n")
    assert main(["spectrum", "--config", str(cfg)]) == 0
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == ["spectrum_p2.csv"]
    out = capsys.readouterr().out
    assert "degree 2:" in out and "degree 1:" not in out


@pytest.mark.parametrize("module", [dgmodeq, dgmodeq.exact], ids=lambda m: m.__name__)
def test_export_list_resolves(module):
    # a stale name breaks only `from dgmodeq import *`, which nothing else runs
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


# The top level keeps only what the README, the demos or the benchmark import.
TOP_LEVEL = {
    "EXACT_POINT", "UPWIND_TRACE", "Integrator", "Mesh1D", "RunConfig", "StencilSpec",
    "basis_moments", "check_convergence", "check_correction", "check_residual",
    "check_spectrum", "correction_series", "fitted_l2_orders", "moment_evolution_laws",
    "project", "rhs_weak", "run_compare", "run_convergence", "run_correction",
    "run_residual", "run_spectrum", "symbol", "taylor_statements", "update_matrices",
    "__version__",
}
MODULE_ONLY = [
    ("analysis", "SCHEMES"), ("analysis", "exact_solution"), ("analysis", "initial_condition"),
    ("exact", "QF"), ("exact", "update_matrices_exact"), ("basis", "ModalBasis"),
    ("field", "ModalField"), ("field", "error_norms"), ("mesh", "Stencil"),
    ("fv", "AverageField"), ("fv", "average_error_norms"), ("fv", "fv_stencil"),
    ("fv", "project_averages"), ("fv", "rhs_fv1"), ("fv", "rhs_fv2"),
    ("dg", "correction_term"), ("dg", "rhs_matrix"),
]


def test_top_level_exports():
    assert len(dgmodeq.__all__) == len(TOP_LEVEL)
    assert set(dgmodeq.__all__) == TOP_LEVEL


@pytest.mark.parametrize("module, name", MODULE_ONLY, ids=[f"{m}.{n}" for m, n in MODULE_ONLY])
def test_name_lives_only_in_its_module(module, name):
    with pytest.raises(AttributeError):
        getattr(dgmodeq, name)
    assert hasattr(importlib.import_module(f"dgmodeq.{module}"), name)


def test_import_does_not_load_cli():
    code = "import sys, dgmodeq; print('dgmodeq.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(dgmodeq.__file__).parents[1]),
           "PYTHONWARNINGS": "error"}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


def test_python_m_dgmodeq_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(dgmodeq.__file__).parents[1]),
           "PYTHONWARNINGS": "error"}
    result = subprocess.run(
        [sys.executable, "-m", "dgmodeq", "taylor", "--assert"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "PASS" in result.stdout


def test_cli_seed_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--grids", "10,20", "--seed", "0"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_seed_config_key_removed(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("grids = 10,20\nseed = 0\n")
    assert main(["convergence", "--config", str(cfg)]) == 2
    assert "unknown key 'seed'" in capsys.readouterr().err
