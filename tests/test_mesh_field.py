"""Mesh geometry, L2 projection and error norms."""
import copy
import dataclasses
import pickle

import numpy as np
import pytest

from dgmodeq import Integrator, Mesh1D, RunConfig, project
from dgmodeq.analysis import _sine, initial_condition
from dgmodeq.basis import QUAD_NODES, QUAD_WEIGHTS, ModalBasis
from dgmodeq.exact import basis as exact_basis
from dgmodeq.field import ModalField, error_norms, sample_cells
from dgmodeq.fv import AverageField, average_error_norms, fv_stencil, project_averages


def test_mesh_geometry():
    mesh = Mesh1D(4)
    assert mesh.dx == 0.25
    assert np.allclose(mesh.centers, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(mesh.interfaces, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.centers.flags.writeable is False


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1D(0)
    with pytest.raises(ValueError):
        Mesh1D(-3)
    with pytest.raises(ValueError, match="n_cells"):
        Mesh1D(True)  # an int equal to 1: a 1-cell mesh whose n_cells is True
    for bad in (2.5, 4.0, "3", False):
        with pytest.raises(ValueError, match="n_cells"):
            Mesh1D(bad)
    mesh = Mesh1D(np.int64(4))  # a cell count read from a numpy grid array
    assert mesh.n_cells == 4 and type(mesh.n_cells) is int


def test_project_linear_single_cell():
    mesh = Mesh1D(1)
    field = project(lambda x: x, mesh, 1)
    assert field.data[0] == pytest.approx([0.5, 1.0], abs=1e-15)


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

    def evaluate(x):
        # project samples only interior quadrature nodes, so every x has
        # one owning cell and no interface rule is needed
        cells = np.floor(x / mesh.dx).astype(int)
        xi = (x - mesh.centers[cells]) / mesh.dx
        phi = [sum(float(c) * xi**p for p, c in enumerate(poly))
               for poly in exact_basis.basis_polynomials(degree)]
        return np.einsum("...k,...k->...", field.coeffs[cells], np.stack(phi, axis=-1))

    again = project(evaluate, mesh, degree)
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


def _mesh_with_centers():
    mesh = Mesh1D(4)
    mesh.centers  # cached in the instance, where a default copy would find it
    return mesh


# Each float value type with its read-only arrays.
FROZEN_ARRAYS = {
    "ModalBasis": (lambda: ModalBasis(2), ("mass", "trace_right", "trace_left", "phi", "dphi")),
    "ModalField": (lambda: project(np.sin, Mesh1D(4), 1), ("coeffs",)),
    "Mesh1D": (_mesh_with_centers, ("centers",)),
    "Stencil": (lambda: fv_stencil("fv2-upwind"), ("blocks",)),
    "AverageField": (lambda: project_averages(np.sin, Mesh1D(4)), ("data",)),
}


DUPLICATES = pytest.mark.parametrize(
    "duplicate",
    [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["deepcopy", "pickle"],
)


@DUPLICATES
@pytest.mark.parametrize("kind", FROZEN_ARRAYS)
def test_copies_keep_arrays_read_only(kind, duplicate):
    make, names = FROZEN_ARRAYS[kind]
    original = make()
    dup = duplicate(original)
    assert type(dup) is type(original)
    for name in names:
        arr = getattr(dup, name)
        assert np.array_equal(arr, getattr(original, name))
        assert arr.flags.writeable is False, name


@pytest.mark.parametrize("n", [40, 1280, 20480])
def test_field_coefficients_are_c_ordered(n):
    # A Fortran-ordered input is copied to C order, so a column dot product,
    # the residual fit's own operation, matches the C-built field bit for bit.
    arr = np.random.default_rng(n).standard_normal((n, 3))
    c_built = ModalField(Mesh1D(n), ModalBasis(2), arr)
    f_built = ModalField(Mesh1D(n), ModalBasis(2), np.asfortranarray(arr))
    assert f_built.coeffs.flags.c_contiguous
    v = np.sin(np.arange(n))
    for m in range(3):
        assert f_built.coeffs[:, m] @ v == c_built.coeffs[:, m] @ v


@pytest.mark.parametrize("kind", ["ModalField", "AverageField"])
def test_fields_compare_by_identity(kind):
    state = FROZEN_ARRAYS[kind][0]()
    twin = state.with_data(state.data)
    assert hash(state) == hash(state) and state == state
    assert state != twin and np.array_equal(state.data, twin.data)
    assert len({state, twin}) == 2


# Each float value type (exact.numbers.Frozen): a builder, and its repr, or for the two
# field states, which compare by identity, the start of it.
FROZEN_VALUES = {
    "Mesh1D": (lambda: Mesh1D(np.int64(4)), "Mesh1D(n_cells=4)"),
    "ModalBasis": (lambda: ModalBasis(2), "ModalBasis(degree=2)"),
    "Integrator": (
        lambda: Integrator("euler", 0.2), "Integrator(method='euler', cfl=0.2, t_final=1.0)"
    ),
    "RunConfig": (
        lambda: RunConfig("fv1", [10, 20]),
        "RunConfig(scheme='fv1', grids=(10, 20), cfl=0.1, periods=1.0, ic='sine',"
        " integrator='ssprk3')",
    ),
    "InitialCondition": (
        lambda: initial_condition("sine"), f"InitialCondition(fn={_sine!r}, smooth=True)"
    ),
    "ModalField": (
        FROZEN_ARRAYS["ModalField"][0],
        "ModalField(mesh=Mesh1D(n_cells=4), basis=ModalBasis(degree=1), coeffs=array([[",
    ),
    "AverageField": (
        FROZEN_ARRAYS["AverageField"][0], "AverageField(mesh=Mesh1D(n_cells=4), data=array(["
    ),
}


@DUPLICATES
@pytest.mark.parametrize("kind", FROZEN_VALUES)
def test_frozen_values_compare_show_refuse_writes_and_copy(kind, duplicate):
    make, shown = FROZEN_VALUES[kind]
    value, twin = make(), make()
    dup = duplicate(value)
    assert type(dup) is type(value)
    if kind.endswith("Field"):
        assert value != twin and value != dup and len({value, twin, dup}) == 3
        assert repr(value).startswith(shown)
    else:
        assert value == twin == dup and len({value, twin, dup}) == 1
        assert repr(value) == repr(dup) == shown
        assert value != tuple(getattr(value, name) for name in type(value)._fields)
    for name in type(value)._fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(twin, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1


def test_with_data_returns_new_field():
    field = project(lambda x: x, Mesh1D(2), 1)
    other = field.with_data(field.data * 2.0)
    assert other is not field
    assert np.allclose(other.data, field.data * 2.0)


def test_project_rejects_nonfinite():
    bad = lambda x: np.where(x > 0.5, np.nan, 1.0)
    with pytest.raises(ValueError):
        project(bad, Mesh1D(4), 1)
    # error_norms samples its reference through the same check
    with pytest.raises(ValueError):
        error_norms(project(np.sin, Mesh1D(4), 1), bad)


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


@pytest.mark.parametrize("scale", [1.0, 1e200])
@pytest.mark.parametrize("n", [1, 7, 1280])
def test_norms_match_their_formulas_bit_for_bit(n, scale):
    # error_norms and average_error_norms share one kernel; each must still
    # give exactly the numbers of its own formula, written out here.  At
    # scale 1e200 the squares overflow: l2 reads inf, and nothing warns.
    rng = np.random.default_rng(n)
    mesh = Mesh1D(n)
    ref = lambda x: np.sin(2 * np.pi * x) + 0.5 * np.cos(6 * np.pi * x)
    dx = mesh.dx
    for degree in (0, 1, 2):
        field = ModalField(mesh, ModalBasis(degree), scale * rng.standard_normal((n, degree + 1)))
        with np.errstate(over="ignore"):
            d = field.coeffs @ field.basis.phi.T - sample_cells(ref, mesh)
            expected = (
                float(np.sum(np.abs(d) @ QUAD_WEIGHTS) * dx),
                float(np.sqrt(np.sum((d * d) @ QUAD_WEIGHTS) * dx)),
                float(np.max(np.abs(d))),
            )
        assert tuple(error_norms(field, ref)) == expected, degree
    averages = AverageField(mesh, scale * rng.standard_normal(n))
    with np.errstate(over="ignore"):
        d = averages.data - project_averages(ref, mesh).data
        expected = (
            float(np.sum(np.abs(d)) * dx),
            float(np.sqrt(np.sum(d * d) * dx)),
            float(np.max(np.abs(d))),
        )
    assert tuple(average_error_norms(averages, ref)) == expected
    assert (expected[1] == np.inf) == (scale > 1.0)


def test_gauss_legendre_matches_numpy():
    # the half-cell rule is the standard 5-point one scaled by 1/2
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(5)
    assert np.max(np.abs(QUAD_NODES - ref_nodes / 2.0)) <= 1e-15
    assert np.max(np.abs(QUAD_WEIGHTS - ref_weights / 2.0)) <= 1e-15
    assert not QUAD_NODES.flags.writeable and not QUAD_WEIGHTS.flags.writeable


def test_quadrature_exact_through_degree_nine():
    # the integral of xi^k over the reference cell, to rounding, for k <= 9
    for k in range(10):
        exact = float(exact_basis.xi_moment(k))
        assert abs(QUAD_WEIGHTS @ QUAD_NODES**k - exact) <= 2e-17, k
    assert abs(QUAD_WEIGHTS @ QUAD_NODES**10 - float(exact_basis.xi_moment(10))) > 1e-7


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_basis_tables_at_the_nodes_reproduce_the_exact_integrals(degree):
    # under QUAD_WEIGHTS, phi gives the mass diagonal and dphi with phi the
    # volume matrix V[m][n] = integral of phi_n dphi_m/dxi
    basis = ModalBasis(degree)
    assert basis.phi.shape == basis.dphi.shape == (len(QUAD_NODES), degree + 1)
    mass = np.array([float(x) for x in exact_basis.mass_diagonal(degree)])
    volume = np.array([[float(x) for x in row] for row in exact_basis.volume_matrix(degree)])
    assert np.max(np.abs(QUAD_WEIGHTS @ basis.phi**2 - mass)) <= 1e-15 * np.max(np.abs(mass))
    quad_volume = (basis.dphi.T * QUAD_WEIGHTS) @ basis.phi
    assert np.max(np.abs(quad_volume - volume)) <= 1e-15 * np.max(np.abs(volume))


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_projections_share_one_basis_per_degree(degree):
    basis = project(np.sin, Mesh1D(8), degree).basis
    assert project(np.cos, Mesh1D(16), degree).basis is basis
    assert basis == ModalBasis(degree)
    for name in ("mass", "trace_right", "trace_left", "phi", "dphi"):
        table = getattr(basis, name)
        assert table.flags.writeable is False
        with pytest.raises(ValueError):
            table[0] = 1.0
