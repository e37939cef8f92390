"""Mesh geometry, L2 projection and pointwise evaluation."""
import numpy as np
import pytest

from dgmodeq import Mesh1D, ModalBasis, ModalField, error_norms, gauss_legendre_halfcell, project


def test_mesh_geometry():
    mesh = Mesh1D(4)
    assert mesh.dx == 0.25
    assert np.allclose(mesh.centers, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(mesh.interfaces, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.centers.flags.writeable is False


def test_mesh_locate_interiors_and_interfaces():
    mesh = Mesh1D(4)
    cells, xi, on_if = mesh.locate(np.array([0.1, 0.25, 0.5 - 1e-18, 0.99]))
    assert list(cells) == [0, 0, 1, 3]
    assert on_if[1] and on_if[2]
    assert xi[0] == pytest.approx(-0.1, abs=1e-15)
    assert xi[1] == 0.5 and xi[2] == 0.5


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1D(0)
    with pytest.raises(ValueError):
        Mesh1D(-3)


def test_project_linear_single_cell():
    mesh = Mesh1D(1)
    field = project(lambda x: x, mesh, 1)
    assert field.data[0] == pytest.approx([0.5, 1.0], abs=1e-15)
    assert field.eval(0.75) == pytest.approx(0.75, abs=1e-14)


def test_project_sine_averages_match_antiderivative():
    # mode 0 is the cell average; for sin(2 pi x) that average has the
    # closed form (cos(2 pi x_L) - cos(2 pi x_R)) / (2 pi dx)
    mesh = Mesh1D(7)
    field = project(lambda x: np.sin(2 * np.pi * x), mesh, 2)
    xl, xr = mesh.interfaces[:-1], mesh.interfaces[1:]
    expected = (np.cos(2 * np.pi * xl) - np.cos(2 * np.pi * xr)) / (2 * np.pi * mesh.dx)
    assert np.max(np.abs(field.data[:, 0] - expected)) < 1e-12


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_projection_idempotent(degree):
    mesh = Mesh1D(5)
    rng = np.random.default_rng(degree)
    field = ModalField(mesh, ModalBasis(degree), rng.standard_normal((5, degree + 1)))
    again = project(field.eval, mesh, degree)
    assert np.max(np.abs(again.data - field.data)) < 1e-13


def test_projection_linearity():
    mesh = Mesh1D(6)
    f = lambda x: np.sin(2 * np.pi * x)
    g = lambda x: np.cos(2 * np.pi * x) ** 2
    lhs = project(lambda x: 2.0 * f(x) - 0.5 * g(x), mesh, 2)
    rhs = 2.0 * project(f, mesh, 2).data - 0.5 * project(g, mesh, 2).data
    assert np.max(np.abs(lhs.data - rhs)) < 1e-14


def test_projection_error_second_order_for_p1():
    f = lambda x: np.sin(2 * np.pi * x)
    errs = []
    for n in (40, 80):
        field = project(f, Mesh1D(n), 1)
        errs.append(error_norms(field, f).l2)
    ratio = errs[0] / errs[1]
    assert ratio == pytest.approx(4.0, abs=0.2)


def test_moment_expansion_of_projection():
    # a0 = u + u'' dx^2/24 + O(dx^4) and a1 = u' dx + u''' dx^3/40 + O(dx^5):
    # removing the known terms must leave residuals shrinking 16x and 32x
    f = lambda x: np.sin(2 * np.pi * x)
    d2 = lambda x: -(2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
    d1 = lambda x: 2 * np.pi * np.cos(2 * np.pi * x)
    d3 = lambda x: -(2 * np.pi) ** 3 * np.cos(2 * np.pi * x)
    res0, res1 = [], []
    for n in (16, 32):
        mesh = Mesh1D(n)
        field = project(f, mesh, 1)
        xc, dx = mesh.centers, mesh.dx
        res0.append(np.max(np.abs(field.data[:, 0] - f(xc) - d2(xc) * dx**2 / 24)))
        res1.append(np.max(np.abs(field.data[:, 1] - d1(xc) * dx - d3(xc) * dx**3 / 40)))
    assert 13.0 < res0[0] / res0[1] < 19.0
    assert 26.0 < res1[0] / res1[1] < 38.0


def test_eval_matches_trace_at_interfaces():
    # interface abscissae are snapped and routed through the owning cell's
    # right trace so pointwise evaluation and flux traces can never disagree
    mesh = Mesh1D(8)
    rng = np.random.default_rng(99)
    field = ModalField(mesh, ModalBasis(2), rng.standard_normal((8, 3)))
    for j in range(8):
        x = mesh.interfaces[j + 1]
        assert field.eval(x) == field.trace_right(j)
    # x = 0 wraps to the right trace of the last cell
    assert field.eval(0.0) == field.trace_right(7)
    assert field.eval(1.0) == field.trace_right(7)


def test_eval_vectorized_and_periodic():
    mesh = Mesh1D(4)
    field = project(lambda x: np.sin(2 * np.pi * x), mesh, 2)
    xs = np.array([0.1, 1.1, -0.9])
    vals = field.eval(xs)
    assert vals.shape == (3,)
    # wrapping x by whole periods only perturbs the abscissa at ulp level
    assert np.max(np.abs(vals - vals[0])) < 1e-13


def test_field_shape_validation():
    mesh = Mesh1D(4)
    with pytest.raises(ValueError):
        ModalField(mesh, ModalBasis(1), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        ModalField(mesh, ModalBasis(1), np.zeros((3, 2)))


def test_field_data_read_only():
    field = project(lambda x: x, Mesh1D(2), 1)
    with pytest.raises(ValueError):
        field.data[0, 0] = 1.0


def test_with_data_returns_new_field():
    field = project(lambda x: x, Mesh1D(2), 1)
    other = field.with_data(field.data * 2.0)
    assert other is not field
    assert np.allclose(other.data, field.data * 2.0)


def test_project_rejects_nonfinite():
    bad = lambda x: np.where(x > 0.5, np.nan, 1.0)
    with pytest.raises(ValueError):
        project(bad, Mesh1D(4), 1)


def test_project_quadrature_floor():
    with pytest.raises(ValueError):
        project(lambda x: x, Mesh1D(4), 1, n_quad=3)


def test_degree_range():
    with pytest.raises(ValueError):
        ModalBasis(3)
    with pytest.raises(ValueError):
        ModalBasis(-1)


def test_error_norms_zero_for_projection_of_itself():
    mesh = Mesh1D(3)
    field = project(lambda x: np.full_like(x, 2.5), mesh, 2)
    norms = error_norms(field, lambda x: np.full_like(x, 2.5))
    assert norms.l1 < 1e-14 and norms.l2 < 1e-14 and norms.linf < 1e-14


def test_error_norms_scale():
    # constant offset of 1 has L1 = L2 = Linf = 1 on the unit interval
    mesh = Mesh1D(10)
    field = project(lambda x: np.zeros_like(x), mesh, 1)
    norms = error_norms(field, lambda x: np.ones_like(x))
    for value in norms:
        assert value == pytest.approx(1.0, abs=1e-13)


def test_cell_averages():
    mesh = Mesh1D(4)
    field = project(lambda x: x, mesh, 1)
    assert np.allclose(field.cell_averages(), mesh.centers, atol=1e-14)


def test_gauss_legendre_matches_numpy():
    # the half-cell rule is the standard one scaled by 1/2
    for n in range(1, 13):
        nodes, weights = gauss_legendre_halfcell(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(nodes - ref_nodes / 2.0)) <= 1e-15
        assert np.max(np.abs(weights - ref_weights / 2.0)) <= 1e-15
        assert not nodes.flags.writeable and not weights.flags.writeable
