"""Block-circulant stencils: every scheme's rhs and symbol from one table."""
import numpy as np
import pytest

from dgmodeq import AverageField, Mesh1D, ModalBasis, ModalField, update_matrices
from dgmodeq.fv import fv_stencil
from dgmodeq.mesh import Stencil


def _old_rhs_matrix(field):
    m = update_matrices(field.degree)
    a = field.coeffs
    return -(a @ m.a.T - np.roll(a, 1, axis=0) @ m.b.T) / field.mesh.dx


def _old_rhs_fv1(field):
    u = field.values
    return -(u - np.roll(u, 1)) / field.mesh.dx


def _old_rhs_fv2(field, slope):
    u = field.values
    s = 0.5 * (np.roll(u, -1) - np.roll(u, 1)) if slope == "central" else u - np.roll(u, 1)
    u_face = u + 0.5 * s
    return -(u_face - np.roll(u_face, 1)) / field.mesh.dx


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_dg_apply_matches_matrix_formula(degree):
    rng = np.random.default_rng(degree)
    for n in (1, 2, 7, 64):
        field = ModalField(Mesh1D(n), ModalBasis(degree), rng.standard_normal((n, degree + 1)))
        got = update_matrices(degree).stencil.apply(field)
        assert isinstance(got, ModalField)
        assert np.array_equal(got.data, _old_rhs_matrix(field))


@pytest.mark.parametrize(
    "scheme,old",
    [
        ("fv1", _old_rhs_fv1),
        ("fv2-central", lambda f: _old_rhs_fv2(f, "central")),
        ("fv2-upwind", lambda f: _old_rhs_fv2(f, "upwind")),
    ],
)
def test_fv_apply_matches_reconstruction_formula(scheme, old):
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 50):
        field = AverageField(Mesh1D(n), rng.standard_normal(n))
        got = fv_stencil(scheme).apply(field)
        assert isinstance(got, AverageField)
        want = old(field)
        assert np.max(np.abs(got.data - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_symbol_is_rhs_of_a_fourier_mode():
    # a_j = v exp(i j theta) must give rhs_j = G(theta) v exp(i j theta) / dx
    n = 12
    mesh = Mesh1D(n)
    rng = np.random.default_rng(9)
    stencils = [update_matrices(k).stencil for k in (0, 1, 2)]
    stencils += [fv_stencil(s) for s in ("fv1", "fv2-central", "fv2-upwind")]
    for stencil in stencils:
        m = stencil.size
        v = rng.standard_normal(m)
        theta = 2 * np.pi * 5 / n
        phase = np.exp(1j * theta * np.arange(n))
        data = np.outer(phase, v)
        want = np.outer(phase, stencil.symbol(theta) @ v) / mesh.dx
        for part in (np.real, np.imag):
            state = ModalField(mesh, ModalBasis(m - 1), part(data))
            assert np.allclose(stencil.apply(state).data, part(want), rtol=0, atol=1e-12)


def test_symbol_vectorizes_over_theta():
    stencil = fv_stencil("fv2-central")
    thetas = np.linspace(0.0, np.pi, 7)
    stacked = stencil.symbol(thetas)
    assert stacked.shape == (7, 1, 1)
    for theta, g in zip(thetas, stacked):
        assert np.allclose(g, stencil.symbol(theta), rtol=0, atol=1e-15)
        want = -0.25 * np.exp(1j * theta) - 0.75 + 1.25 * np.exp(-1j * theta)
        want += -0.25 * np.exp(-2j * theta)
        assert g[0, 0] == pytest.approx(want, abs=1e-15)


def test_stencil_blocks_sorted_and_frozen():
    stencil = Stencil({1: 2.0, -2: 3.0, 0: -5.0})
    assert stencil.offsets == (-2, 0, 1)
    assert stencil.blocks.shape == (3, 1, 1)
    assert not stencil.blocks.flags.writeable


def test_fv_stencil_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        fv_stencil("fv3")
