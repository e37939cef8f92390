"""Study drivers and the command line wrapper around them."""
import numpy as np
import pytest

from dgmodeq import (
    SCHEMES,
    RunConfig,
    exact_solution,
    initial_condition,
    run_compare,
    run_convergence,
    run_correction,
    run_residual,
    run_spectrum,
)
from dgmodeq.analysis import (
    _fit_order,
    check_convergence,
    check_correction,
    check_residual,
    check_spectrum,
)
from dgmodeq.cli import main, parse_config_file


def test_initial_condition_parsing():
    sine = initial_condition("sine")
    assert sine.smooth and sine.derivative is not None
    gauss = initial_condition("gauss:0.08")
    assert gauss.smooth
    xs = np.array([0.5, 0.3])
    assert gauss.fn(xs)[0] == pytest.approx(1.0)
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
    with pytest.raises(ValueError):
        RunConfig("dg-p1", (10, 20), integrator="rk4")
    with pytest.raises(ValueError):
        RunConfig("dg-p1", (10, 20), ic="sawtooth")


@pytest.mark.parametrize("bad", [{"cfl": np.nan}, {"cfl": np.inf}, {"periods": np.nan}, {"periods": np.inf}])
def test_run_config_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        RunConfig("dg-p1", (10, 20), **bad)


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
    order = table.meta["fitted_l2_order"]["dg-p1"]
    assert 1.7 < order < 2.3
    assert not check_convergence(table)


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


def test_residual_small_grids():
    table = run_residual(RunConfig("dg-p1", (40, 80)))
    targets = table.meta["targets"]
    info = targets[("upwind-trace", 0, 0)]
    n, measured = info["estimates"][-1]
    assert n == 80
    assert measured == pytest.approx(-1.0, rel=1e-3)
    # degenerate slope coefficient measured as a decaying near-zero
    zero_info = targets[("upwind-trace", 1, 0)]
    assert abs(zero_info["estimates"][-1][1]) < 0.01
    assert not check_residual(table, n_finest=1)


def test_residual_requires_doubling_and_sine():
    with pytest.raises(ValueError):
        run_residual(RunConfig("dg-p1", (40, 60)))
    with pytest.raises(ValueError):
        run_residual(RunConfig("dg-p1", (40, 80), ic="gauss:0.1"))
    with pytest.raises(ValueError):
        run_residual(RunConfig("fv1", (40, 80)))


def test_spectrum_table_and_checks():
    table = run_spectrum()
    assert not check_spectrum(table)
    assert set(table.meta["max_re"]) == {0, 1, 2}
    # 256 samples x (1 + 2 + 3) branches
    assert len(table.rows) == 256 * 6


def test_correction_small_grids():
    table = run_correction((20, 40, 80))
    assert not check_correction(table, n_finest=1)
    ratios = [r for r in table.column("ratio") if r is not None]
    assert all(abs(r - 4.0) < 0.1 for r in ratios)


def test_compare_combines_three_schemes():
    table = run_compare(RunConfig("dg-p1", (20, 40)))
    schemes = set(table.column("scheme"))
    assert schemes == {"dg-p1", "fv2-central", "fv2-upwind"}
    assert len(table.rows) == 6


def test_csv_determinism(tmp_path):
    cfg = RunConfig("fv1", (10, 20), out_dir=tmp_path)
    run_convergence(cfg)
    first = (tmp_path / "convergence_fv1.csv").read_bytes()
    run_convergence(cfg)
    assert (tmp_path / "convergence_fv1.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header.split(",")[:6] == ["scheme", "N", "dx", "l1", "l2", "linf"]
    assert "wall" not in header  # timings stay out of the deterministic file


def test_csv_written_for_each_study(tmp_path):
    run_residual(RunConfig("dg-p1", (20, 40), out_dir=tmp_path))
    run_spectrum((2,), out_dir=tmp_path)
    run_correction((20, 40), out_dir=tmp_path)
    run_compare(RunConfig("dg-p1", (10, 20), out_dir=tmp_path))
    for name in ("residual_dg-p1.csv", "spectrum_p2.csv", "correction.csv", "compare.csv"):
        assert (tmp_path / name).exists(), name


# ----------------------------------------------------------------------
# command line


def test_cli_taylor_contains_frozen_line(capsys):
    assert main(["taylor"]) == 0
    out = capsys.readouterr().out
    assert "k=1 upwind a1: u_xt = 0*u_xx + (-2/5)*h*u_xxx + O(h^2)" in out


def test_cli_taylor_assert(capsys):
    assert main(["taylor", "--assert"]) == 0
    assert "PASS" in capsys.readouterr().out


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
    values = parse_config_file(cfg)
    assert values == {"scheme": "dg-p2", "grids": "10,20", "cfl": "0.05"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("colour = blue\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)


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
