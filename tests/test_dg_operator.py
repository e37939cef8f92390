"""Semi-discrete DG operator: both computation paths, symbol, correction."""
import numpy as np
import pytest

from dgmodeq import Mesh1D, project, rhs_weak, symbol, update_matrices
from dgmodeq.basis import QUAD_WEIGHTS, ModalBasis
from dgmodeq.dg import correction_term, rhs_matrix
from dgmodeq.field import ModalField

SQ3 = np.sqrt(3.0)
SQ5 = np.sqrt(5.0)
SQ15 = np.sqrt(15.0)


def random_field(n, degree, seed):
    rng = np.random.default_rng(seed)
    return ModalField(Mesh1D(n), ModalBasis(degree), rng.standard_normal((n, degree + 1)))


def update_blocks(degree):
    """(A, B) read back from the dg-pk stencil {0: -A, -1: +B}."""
    stencil = update_matrices(degree)
    blocks = dict(zip(stencil.offsets, stencil.blocks))
    return -blocks[0], blocks[-1]


def test_float_matrices_match_literals():
    a1, b1 = update_blocks(1)
    assert np.array_equal(a1, [[1.0, 0.5], [-6.0, 3.0]])
    assert np.array_equal(b1, [[1.0, 0.5], [-6.0, -3.0]])
    a2, b2 = update_blocks(2)
    assert np.allclose(
        a2, [[1, SQ3, SQ5], [-SQ3, 3, SQ15], [SQ5, -SQ15, 5]], rtol=0, atol=1e-15
    )
    assert np.allclose(
        b2, [[1, SQ3, SQ5], [-SQ3, -3, -SQ15], [SQ5, SQ15, 5]], rtol=0, atol=1e-15
    )
    a0, b0 = update_blocks(0)
    assert np.array_equal(a0, [[1.0]]) and np.array_equal(b0, [[1.0]])


def test_two_cell_hand_oracle():
    # dx = 1/2, cell 0 carries (1, 0): worked through the stencil by hand,
    # cell 1 must see (2, -12) and cell 0 the mirror (-2, 12)
    field = ModalField(Mesh1D(2), ModalBasis(1), np.array([[1.0, 0.0], [0.0, 0.0]]))
    out = rhs_matrix(field)
    assert out.data[1] == pytest.approx([2.0, -12.0], abs=1e-13)
    assert out.data[0] == pytest.approx([-2.0, 12.0], abs=1e-13)
    weak = rhs_weak(field)
    assert weak.data == pytest.approx(out.data, abs=1e-12)


def test_single_mode_injection_k2():
    # one cell carrying only the quadratic mode: its own derivative reads
    # column 2 of A, the downwind neighbor reads column 2 of B
    n = 4
    coeffs = np.zeros((n, 3))
    coeffs[1, 2] = 1.0
    field = ModalField(Mesh1D(n), ModalBasis(2), coeffs)
    out = rhs_matrix(field).data
    assert out[1] == pytest.approx(np.array([-SQ5, -SQ15, -5.0]) * n, abs=1e-12)
    assert out[2] == pytest.approx(np.array([SQ5, -SQ15, 5.0]) * n, abs=1e-12)
    assert np.max(np.abs(out[3])) == 0.0
    assert np.max(np.abs(out[0])) == 0.0


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_paths_agree_on_random_fields(degree):
    for seed in range(10):
        field = random_field(32, degree, seed)
        rm = rhs_matrix(field).data
        rw = rhs_weak(field).data
        scale = max(np.max(np.abs(rm)), np.max(np.abs(rw)))
        assert np.max(np.abs(rm - rw)) <= 1e-13 * scale


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_conservation_telescopes(degree):
    field = random_field(64, degree, seed=7 + degree)
    total = np.sum(rhs_matrix(field).data[:, 0])
    assert abs(total) <= 1e-13 * 64


@pytest.mark.parametrize("degree", [1, 2])
def test_rhs_linearity(degree):
    u = random_field(16, degree, seed=1)
    v = random_field(16, degree, seed=2)
    combo = u.with_data(1.75 * u.data - 0.25 * v.data)
    direct = rhs_matrix(combo).data
    combined = 1.75 * rhs_matrix(u).data - 0.25 * rhs_matrix(v).data
    assert np.max(np.abs(direct - combined)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_constants_are_steady(degree):
    field = project(lambda x: np.full_like(x, 3.7), Mesh1D(16), degree)
    assert np.max(np.abs(rhs_matrix(field).data)) < 1e-11
    assert np.max(np.abs(rhs_weak(field).data)) < 1e-11


def _rhs_weak_cell_major(field, interface):
    """rhs_weak's weak form assembled cell-major, (N, m), by broadcasting."""
    mesh, basis = field.mesh, field.basis
    volume = (field.coeffs @ basis.phi.T * QUAD_WEIGHTS[None, :]) @ basis.dphi
    if interface is None:
        u_right = field.coeffs @ basis.trace_right
        u_left = np.roll(u_right, 1)
    else:
        values = interface(mesh.interfaces)
        u_right, u_left = values[1:], values[:-1]
    boundary = (
        u_right[:, None] * basis.trace_right[None, :]
        - u_left[:, None] * basis.trace_left[None, :]
    )
    return (volume - boundary) / (mesh.dx * basis.mass[None, :])


@pytest.mark.parametrize("interface", [None, lambda x: np.sin(2 * np.pi * x)], ids=["upwind", "exact"])
# N = 2 and 3 are the smallest periodic wraps; 20480 is the residual study's
# finest benchmark grid.
@pytest.mark.parametrize("n", [1, 2, 3, 7, 1280, 20480])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_rhs_weak_matches_cell_major_formula_bit_for_bit(degree, n, interface):
    field = random_field(n, degree, seed=n + degree)
    out = rhs_weak(field, interface).data
    want = _rhs_weak_cell_major(field, interface)
    assert out.flags.c_contiguous
    assert out.tobytes() == want.tobytes()


def test_exact_interface_linear_single_cell():
    # u(x) = x supplied exactly at both ends of one cell: slope derivative
    # vanishes because linear data has no curvature, average sees -u_x = -1
    field = ModalField(Mesh1D(1), ModalBasis(1), np.array([[0.5, 1.0]]))
    out = rhs_weak(field, lambda x: x)
    assert out.data[0] == pytest.approx([-1.0, 0.0], abs=1e-13)


def test_exact_interface_uses_all_interfaces():
    # endpoints 0 and 1 are sampled separately, no periodic wrap
    seen = []

    def probe(x):
        seen.append(np.array(x))
        return np.zeros_like(x)

    field = project(lambda x: np.sin(2 * np.pi * x), Mesh1D(4), 1)
    rhs_weak(field, probe)
    assert seen and seen[0].shape == (5,)
    assert seen[0][0] == 0.0 and seen[0][-1] == 1.0


def test_exact_interface_shape_validated():
    field = project(lambda x: x, Mesh1D(4), 1)
    with pytest.raises(ValueError):
        rhs_weak(field, lambda x: np.zeros(3))
    with pytest.raises(ValueError, match="x = 0.75"):
        rhs_weak(field, lambda x: np.where(x > 0.5, np.nan, 0.0))


def test_flux_rule_type_checked():
    field = project(lambda x: x, Mesh1D(4), 1)
    with pytest.raises(TypeError):
        rhs_weak(field, "upwind")


def test_symbol_k1_theta0():
    g = symbol(0.0, 1)
    assert np.allclose(g, [[0.0, 0.0], [0.0, -6.0]], atol=1e-15)
    eigs = sorted(np.linalg.eigvals(g).real)
    assert eigs == pytest.approx([-6.0, 0.0], abs=1e-13)


def test_symbol_k0_closed_form():
    for theta in (0.0, 0.5, np.pi, 4.0):
        g = symbol(theta, 0)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(-(1 - np.exp(-1j * theta)), abs=1e-15)


def test_symbol_k2_theta0_eigenvalues():
    eigs = sorted(np.linalg.eigvals(symbol(0.0, 2)), key=lambda z: (z.real, z.imag))
    expected = [-3 - 1j * np.sqrt(51), -3 + 1j * np.sqrt(51), 0]
    assert np.max(np.abs(np.array(eigs) - expected)) < 1e-10


def test_symbol_periodicity():
    a = symbol(1.0, 2)
    b = symbol(1.0 + 2 * np.pi, 2)
    assert np.max(np.abs(a - b)) < 1e-13


def test_correction_term_quadratic_vanishes():
    xs = np.linspace(0.05, 0.95, 10)
    c = correction_term(lambda x: x**2, lambda x: np.full_like(x, 2.0), xs, 0.1)
    assert np.max(np.abs(c)) < 1e-13


def test_correction_term_quartic_exact():
    # for u = x^4 the defect is exactly h^2/4 = (1/96) * u'''' * h^2
    xs = np.linspace(0.05, 0.95, 10)
    h = 0.05
    c = correction_term(lambda x: x**4, lambda x: 12.0 * x**2, xs, h)
    assert c == pytest.approx(np.full_like(xs, h**2 / 4.0), rel=1e-10)
