"""Output checks that do not trust the code under test.

Every function returns a list of failure messages (empty means the result
is right).  The expected values come from outside the package: exact step
counts computed here in Fraction arithmetic, frozen evolution-law Fractions,
and an L2 reference committed in reference.json.
"""
from __future__ import annotations

import math
from fractions import Fraction as F

# L2 errors must match reference.json to L2_RTOL relative plus L2_ATOL
# absolute.  The absolute part admits ~1e-13 reordering of the state (an
# L2 change is at most the max-norm change) with a 20x margin; a wrong step
# count or scheme moves these errors by 1e-8 or more.
L2_RTOL = 1e-6
L2_ATOL = 1e-11

UP, EX = "upwind-trace", "exact-point"

# Coefficients of h^q u^(m+1+q), q = 0, 1, 2, in d/dt u^(m) for each
# (degree, mode, moment).  Degrees 1 and 2 are the values `dgmodeq taylor
# --assert` and acceptance criterion 4 freeze.  Degree 0 follows by hand:
# the cell average ubar = u + h^2/24 u'' + ... obeys
#   upwind: -(ubar(x) - ubar(x-h))/h = -u' + h/2 u'' - (1/6 + 1/24) h^2 u''' + ...
#   exact:  -(u(x+h/2) - u(x-h/2))/h  = -u' - h^2/24 u''' + ...
FROZEN_LAWS = {
    (0, UP, 0): (F(-1), F(1, 2), F(-5, 24)),
    (0, EX, 0): (F(-1), F(0), F(-1, 24)),
    (1, UP, 0): (F(-1), F(0), F(1, 24)),
    (1, UP, 1): (F(0), F(-2, 5)),
    (1, EX, 0): (F(-1), F(0), F(-1, 24)),
    (1, EX, 1): (F(-1), F(0), F(-1, 40)),
    (2, UP, 0): (F(-1), F(0), F(-1, 24)),
    (2, UP, 1): (F(-1), F(1, 10)),
    (2, UP, 2): (F(-1), F(1, 2)),
    (2, EX, 0): (F(-1), F(0), F(-1, 24)),
    (2, EX, 1): (F(-1), F(0), F(-1, 40)),
    (2, EX, 2): (F(-1), F(0), F(-1, 56)),
}
DEGENERATE_STATEMENT = "k=1 upwind a1: u_xt = 0*u_xx + (-2/5)*h*u_xxx + O(h^2)"
CORRECTION_LEAD = F(1, 96)  # h^2 u'''' coefficient of the curvature defect


def row_op(scheme: str, n: int) -> str:
    return f"{scheme} N={n}"


def exact_steps(n: int, cfl: str, periods: str) -> int:
    """ceil(periods / (cfl * dx)) in exact arithmetic, dx = 1/n."""
    return math.ceil(F(periods) * n / F(cfl))


def march_rows(table, scheme: str, grids: list[int], run: dict, reference: dict) -> dict:
    """One verdict per grid: status, exact step count, L2 against reference."""
    out = {row_op(scheme, n): [] for n in grids}
    got_ns = table.column("N")
    if list(got_ns) != list(grids):
        out[row_op(scheme, grids[0])].append(f"table grids {got_ns} != requested {grids}")
        return out
    ref = reference["march_l2"].get(scheme, {})
    for n, status, steps, l2 in zip(
        got_ns, table.column("status"), table.column("steps"), table.column("l2")
    ):
        msgs = out[row_op(scheme, n)]
        if status != "ok":
            msgs.append(f"status {status!r}")
        want_steps = exact_steps(n, run["cfl"], run["periods"])
        if steps != want_steps:
            msgs.append(f"{steps} steps, exact count is {want_steps}")
        want = ref.get(str(n))
        if want is None:
            msgs.append("no committed L2 reference for this grid")
        elif l2 is None or not abs(l2 - want) <= L2_RTOL * want + L2_ATOL:
            msgs.append(f"L2 {l2!r} vs reference {want!r}")
    return out


def laws(found, degree: int, mode: str) -> list[str]:
    """Evolution laws of one stencil against FROZEN_LAWS."""
    msgs = []
    if len(found) != degree + 1:
        return [f"{len(found)} laws for degree {degree}"]
    for m, law in enumerate(found):
        if not all(isinstance(c, F) for c in law.coeffs):
            msgs.append(f"a{m}: coefficients are not exact Fractions")
        for q, want in enumerate(FROZEN_LAWS[(degree, mode, m)]):
            got = law.coeffs[q] if q < len(law.coeffs) else None
            if got != want:
                msgs.append(f"a{m} h^{q}: {got} != {want}")
    return msgs


def residual_targets(table, scheme: str) -> list[str]:
    """The exact targets the residual study measured against, vs FROZEN_LAWS."""
    degree = int(scheme[-1])
    targets = table.meta.get("targets", {})
    msgs = []
    for mode in (UP, EX):
        for m in range(degree + 1):
            frozen = FROZEN_LAWS[(degree, mode, m)]
            probed = {q: info["exact"] for (md, mm, q), info in targets.items() if (md, mm) == (mode, m)}
            if not probed:
                msgs.append(f"{mode} a{m}: no target measured")
            for q, exact in probed.items():
                if q < len(frozen) and exact != frozen[q]:
                    msgs.append(f"{mode} a{m} h^{q}: target {exact} != {frozen[q]}")
    return msgs


def spectrum_shape(table, degrees: tuple[int, ...], n_theta: int) -> list[str]:
    want = n_theta * sum(d + 1 for d in degrees)
    msgs = [] if len(table.rows) == want else [f"{len(table.rows)} rows, expected {want}"]
    if sorted(table.meta.get("max_re", {})) != sorted(degrees):
        msgs.append("max_re does not cover every degree")
    return msgs


def correction_fraction(table) -> list[str]:
    got = table.meta.get("exact_fraction")
    return [] if got == CORRECTION_LEAD else [f"exact coefficient {got} != {CORRECTION_LEAD}"]


def correction_series(series) -> list[str]:
    msgs = []
    lead = series.leading()
    if lead is None or lead[0] != 4 or series.h_power(4) != 2:
        return [f"series leads with {lead}, expected u'''' at h^2"]
    if lead[1].rational_value() != CORRECTION_LEAD:
        msgs.append(f"leading coefficient {lead[1]} != {CORRECTION_LEAD}")
    if any(not series.coefficient(p).is_zero() for p in range(4)):
        msgs.append("h^0 or h^1 terms do not vanish")
    return msgs


def statements(lines: list[str], reference: dict) -> list[str]:
    msgs = [] if DEGENERATE_STATEMENT in lines else ["degenerate first-moment statement missing"]
    if lines != reference["taylor_statements"]:
        msgs.append("rendered statements differ from reference.json")
    return msgs
