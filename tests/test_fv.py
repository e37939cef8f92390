"""Finite-volume reference ladder: first order and both MUSCL slopes."""
import numpy as np
import pytest

from dgmodeq import Mesh1D
from dgmodeq.fv import (
    AverageField,
    average_error_norms,
    project_averages,
    rhs_fv1,
    rhs_fv2,
)


def test_fv1_two_cell_oracle():
    field = AverageField(Mesh1D(2), np.array([1.0, 0.0]))
    assert rhs_fv1(field).data == pytest.approx([-2.0, 2.0], abs=1e-14)


def test_fv2_central_pulse_oracle():
    field = AverageField(Mesh1D(4), np.array([0.0, 1.0, 0.0, 0.0]))
    assert rhs_fv2(field, "central").data == pytest.approx([-1.0, -3.0, 5.0, -1.0], abs=1e-13)


def test_fv2_upwind_pulse_oracle():
    field = AverageField(Mesh1D(4), np.array([0.0, 1.0, 0.0, 0.0]))
    assert rhs_fv2(field, "upwind").data == pytest.approx([0.0, -6.0, 8.0, -2.0], abs=1e-13)


@pytest.mark.parametrize("rhs", [rhs_fv1, lambda f: rhs_fv2(f, "central"), lambda f: rhs_fv2(f, "upwind")])
def test_conservation(rhs):
    rng = np.random.default_rng(3)
    field = AverageField(Mesh1D(50), rng.standard_normal(50))
    assert abs(np.sum(rhs(field).data)) < 1e-12 * 50


def test_linearity():
    rng = np.random.default_rng(4)
    mesh = Mesh1D(20)
    u = AverageField(mesh, rng.standard_normal(20))
    v = AverageField(mesh, rng.standard_normal(20))
    combo = AverageField(mesh, 2.0 * u.data + 3.0 * v.data)
    for rhs in (rhs_fv1, lambda f: rhs_fv2(f, "central")):
        lhs = rhs(combo).data
        want = 2.0 * rhs(u).data + 3.0 * rhs(v).data
        assert np.max(np.abs(lhs - want)) < 1e-11


def test_constant_steady():
    field = AverageField(Mesh1D(8), np.full(8, 2.5))
    assert np.max(np.abs(rhs_fv1(field).data)) == 0.0
    assert np.max(np.abs(rhs_fv2(field, "central").data)) == 0.0


def test_fv1_total_variation_nonincreasing():
    # monotone scheme under forward Euler at cfl 0.8: TV can never grow
    rng = np.random.default_rng(11)
    mesh = Mesh1D(40)
    field = AverageField(mesh, rng.standard_normal(40))
    dt = 0.8 * mesh.dx
    tv = np.sum(np.abs(field.data - np.roll(field.data, 1)))
    for _ in range(60):
        field = field.with_data(field.data + dt * rhs_fv1(field).data)
        tv_next = np.sum(np.abs(field.data - np.roll(field.data, 1)))
        assert tv_next <= tv + 1e-12
        tv = tv_next


def test_unknown_slope():
    field = AverageField(Mesh1D(4), np.zeros(4))
    with pytest.raises(ValueError):
        rhs_fv2(field, "superbee")


def test_project_averages_sine():
    mesh = Mesh1D(9)
    field = project_averages(lambda x: np.sin(2 * np.pi * x), mesh)
    xl, xr = mesh.interfaces[:-1], mesh.interfaces[1:]
    exact = (np.cos(2 * np.pi * xl) - np.cos(2 * np.pi * xr)) / (2 * np.pi * mesh.dx)
    assert np.max(np.abs(field.data - exact)) < 1e-12


def test_project_averages_rejects_nonfinite():
    bad = lambda x: np.where(x > 0.5, np.inf, 1.0)
    with pytest.raises(ValueError):
        project_averages(bad, Mesh1D(4))


def test_average_error_norms_zero_on_projection():
    f = lambda x: np.cos(2 * np.pi * x)
    field = project_averages(f, Mesh1D(12))
    norms = average_error_norms(field, f)
    assert max(norms) < 1e-13


def test_average_error_norms_offset():
    mesh = Mesh1D(6)
    field = AverageField(mesh, np.zeros(6))
    norms = average_error_norms(field, lambda x: np.ones_like(x))
    assert norms.l1 == pytest.approx(1.0, abs=1e-13)
    assert norms.l2 == pytest.approx(1.0, abs=1e-13)
    assert norms.linf == pytest.approx(1.0, abs=1e-13)


def test_shape_validation():
    with pytest.raises(ValueError):
        AverageField(Mesh1D(4), np.zeros(5))
