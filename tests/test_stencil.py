"""Block-circulant stencils: every scheme's rhs and symbol from one table."""
import dataclasses

import numpy as np
import pytest

from dgmodeq import Mesh1D, update_matrices
from dgmodeq.analysis import SCHEMES, _setup_scheme, initial_condition
from dgmodeq.basis import ModalBasis
from dgmodeq.exact import update_matrices_exact
from dgmodeq.exact.basis import mass_diagonal, trace_vector
from dgmodeq.field import ModalField
from dgmodeq.fv import AverageField, fv_stencil
from dgmodeq.mesh import Stencil


def _old_rhs_matrix(field):
    stencil = update_matrices(field.basis.degree)
    blocks = dict(zip(stencil.offsets, stencil.blocks))
    m_a, m_b = -blocks[0], blocks[-1]
    a = field.coeffs
    return -(a @ m_a.T - np.roll(a, 1, axis=0) @ m_b.T) / field.mesh.dx


def _old_rhs_fv1(field):
    u = field.data
    return -(u - np.roll(u, 1)) / field.mesh.dx


def _old_rhs_fv2(field, slope):
    u = field.data
    s = 0.5 * (np.roll(u, -1) - np.roll(u, 1)) if slope == "central" else u - np.roll(u, 1)
    u_face = u + 0.5 * s
    return -(u_face - np.roll(u_face, 1)) / field.mesh.dx


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_dg_apply_matches_matrix_formula(degree):
    rng = np.random.default_rng(degree)
    for n in (1, 2, 7, 64, 1280, 4097, 20480):  # up to the residual study's sizes
        field = ModalField(Mesh1D(n), ModalBasis(degree), rng.standard_normal((n, degree + 1)))
        got = update_matrices(degree).apply(field)
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
    stencils = [update_matrices(k) for k in (0, 1, 2)]
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


@pytest.mark.parametrize(
    "make, arg",
    [(update_matrices, 0), (update_matrices, 1), (update_matrices, 2),
     (fv_stencil, "fv1"), (fv_stencil, "fv2-central"), (fv_stencil, "fv2-upwind")],
    ids=["dg-p0", "dg-p1", "dg-p2", "fv1", "fv2-central", "fv2-upwind"],
)
def test_symbol_row_zero_vanishes_exactly_at_theta_zero(make, arg):
    # Row 0 of G(0) is the rate of the summed cell averages per unit state:
    # every scheme conserves them, so it is zero, not merely below rounding.
    row = make(arg).symbol(0.0)[0]
    assert np.all(row == 0), row


def test_stencil_blocks_sorted_and_frozen():
    stencil = Stencil({1: 2.0, -2: 3.0, 0: -5.0})
    assert stencil.offsets == (-2, 0, 1)
    assert stencil.blocks.shape == (3, 1, 1)
    assert not stencil.blocks.flags.writeable


@pytest.mark.parametrize(
    "blocks",
    [
        {0.5: 1.0},  # apply used to read offset 0 while symbol used the phase exp(i theta/2)
        {True: 1.0},
        {"1": 1.0},
        {},
        {0: np.ones((2, 3))},
        {0: np.eye(2), -1: 1.0},
        {0: np.ones((2, 2, 2))},
        {0: 1j, -1: 2.0},  # used to keep the real part [2, 0] with only a ComplexWarning
        {0: np.nan},
        {0: np.inf},
        {0: np.zeros((0, 0))},  # used to build a size-0 stencil that failed later in reshape
    ],
    ids=[
        "half-offset", "bool-offset", "str-offset", "empty", "not-square", "mixed-sizes",
        "3d-block", "complex", "nan", "inf", "no-unknowns",
    ],
)
def test_stencil_rejects_bad_blocks(blocks):
    with pytest.raises(ValueError, match="offset"):
        Stencil(blocks)


def test_stencil_offsets_are_ints():
    stencil = Stencil({np.int64(0): -1.0, np.int32(-1): 1.0})
    assert stencil.offsets == (-1, 0) and all(type(o) is int for o in stencil.offsets)
    assert np.array_equal(stencil.symbol(0.3), fv_stencil("fv1").symbol(0.3))


def test_fv_stencil_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        fv_stencil("fv3")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_is_a_stencil(scheme):
    _, stencil, _ = _setup_scheme(scheme, initial_condition("sine"), Mesh1D(8))
    assert isinstance(stencil, Stencil)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_dg_stencil_is_demoted_exact_update(degree):
    stencil = update_matrices(degree)
    assert update_matrices(degree) is stencil
    exact_a, exact_b = update_matrices_exact(degree)
    a = np.array([[float(x) for x in row] for row in exact_a])
    b = np.array([[float(x) for x in row] for row in exact_b])
    assert stencil.offsets == (-1, 0)
    blocks = dict(zip(stencil.offsets, stencil.blocks))
    assert np.array_equal(blocks[0], -a) and np.array_equal(blocks[-1], b)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_modal_basis_is_a_record_of_demoted_exact_tables(degree):
    basis = ModalBasis(degree)
    exact_tables = {
        "mass": mass_diagonal(degree),
        "trace_right": trace_vector(degree, +1),
        "trace_left": trace_vector(degree, -1),
    }
    for name, exact in exact_tables.items():
        table = getattr(basis, name)
        assert np.array_equal(table, [float(x) for x in exact])
        assert not table.flags.writeable
    assert not basis.phi.flags.writeable
    # equal, hashed and shown by degree alone
    assert ModalBasis(np.int64(degree)) == basis
    assert hash(ModalBasis(np.int64(degree))) == hash(basis)
    assert repr(basis) == f"ModalBasis(degree={degree})"
    for name, value in (("degree", (degree + 1) % 3), ("mass", np.ones(degree + 1))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(basis, name, value)


def test_dg_stencil_cache_does_not_answer_for_a_bool_degree():
    # True == np.int64(1) in an untyped cache key, so a warm degree-1 entry used to answer
    update_matrices(np.int64(1))
    with pytest.raises(ValueError, match="degree"):
        update_matrices(True)
