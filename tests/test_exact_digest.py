"""The exact route is pinned bit for bit.

Every evolution law, moment series, modified-equation series, correction
series and exact update matrix the engine derives (with the float demotion
of the matrices) is rendered with repr and hashed.  The digest was taken
before the Q(sqrt3, sqrt5) arithmetic moved from Fraction components to
integer numerators over one denominator; any change in a coefficient, in its
rendering or in a demoted float changes it.
"""
import hashlib

from dgmodeq.exact import (
    MODES,
    StencilSpec,
    basis_moments,
    correction_series,
    modified_equation,
    moment_evolution_laws,
    update_matrices_exact,
)

DEGREES = range(3)
ORDERS = range(5, 13)
CORRECTION_ORDERS = range(4, 13)

EXPECTED_ENTRIES = 159
EXPECTED_DIGEST = "f450f68c992589812a41fa96d5cef547a159dd3d7f6663864cf201eb8bc9a254"


def _entries():
    out = []
    for degree in DEGREES:
        for mode in MODES:
            for order in ORDERS:
                spec = StencilSpec(degree, mode, order)
                out.append(repr(moment_evolution_laws(spec)))
                out.append(repr(modified_equation(spec)))
                out.append(repr(basis_moments(degree, order)))
    for order in CORRECTION_ORDERS:
        out.append(repr(correction_series(order)))
    for degree in DEGREES:
        a_mat, b_mat = update_matrices_exact(degree)
        out.append(repr((a_mat, b_mat)))
        demoted = tuple(tuple(tuple(float(x) for x in row) for row in m) for m in (a_mat, b_mat))
        out.append(repr(demoted))
    return out


def test_exact_route_matches_pinned_digest():
    entries = _entries()
    assert len(entries) == EXPECTED_ENTRIES
    digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
    assert digest == EXPECTED_DIGEST
