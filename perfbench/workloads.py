"""Workload inputs (from a seed) and the runners that do one pass of each.

Input generation is plain stdlib so the parent process never imports the
package under test.  Seed 0 gives the default inputs below; any other seed
draws from narrow, stated ranges chosen so that every seed keeps every check
passing and the amount of work nearly the same as seed 0:

* march: each of the five schemes gets its own ladder base, a seeded
  permutation of MARCH_BASES (Sum of base^2 is within 0.2% of 5 * 40^2);
  the ladder is base * (1, 2, 4, 8, 16).
* remeasure: each residual degree gets a base from RESIDUAL_BASES; the
  ladder is base * (1, ..., 16), so the top grid stays at or below 20480,
  the largest grid at which both degrees keep the 1% residual band.
* derive: the six (degree, mode) stencils get a seeded permutation of
  DERIVE_ORDERS as truncation orders and the correction series one order
  from 8..10; every order in 8..10 reproduces the frozen low-order laws.

The runners call the package only through its public names (`dgmodeq.*`,
`dgmodeq.exact.*`), looked up at call time so that the tracer can wrap them.
"""
from __future__ import annotations

import random
import time

import check

WORKLOADS = ("march", "remeasure", "derive")

SCHEMES = ("dg-p1", "dg-p2", "fv1", "fv2-central", "fv2-upwind")
LADDER_STEPS = (1, 2, 4, 8, 16)
MARCH_DEFAULT_BASE = 40
MARCH_BASES = (38, 39, 40, 41, 42)
MARCH_RUN = {"cfl": "0.1", "periods": "1", "ic": "sine", "integrator": "ssprk3"}

RESIDUAL_SCHEMES = ("dg-p1", "dg-p2")
RESIDUAL_DEFAULT_BASE = 1280
RESIDUAL_BASES = (1216, 1248, 1280)
SPECTRUM_DEGREES = (0, 1, 2)
SPECTRUM_THETAS = 2048

STENCIL_MODES = ("upwind-trace", "exact-point")
DERIVE_DEFAULT_ORDER = 8
DERIVE_ORDERS = (8, 8, 9, 9, 10, 10)
CORRECTION_ORDERS = (8, 9, 10)

# Smoke inputs for the self-test: tiny, but every grid is one the committed
# reference covers and every check still applies (fv1 leaves its EOC band
# on ladders that start at 40 and stop short of 640).
SMOKE = {
    "march": {"ladders": {s: [80, 160] for s in SCHEMES}, **MARCH_RUN},
    "remeasure": {
        "residual": {s: [160, 320, 640] for s in RESIDUAL_SCHEMES},
        "spectrum_degrees": list(SPECTRUM_DEGREES),
        "n_theta": 64,
    },
    "derive": {
        "orders": {f"{d}/{m}": DERIVE_DEFAULT_ORDER for d in range(3) for m in STENCIL_MODES},
        "correction_order": DERIVE_DEFAULT_ORDER,
    },
}


def ladder(base: int) -> list[int]:
    return [base * k for k in LADDER_STEPS]


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs one run of `workload` hands to the package, from `seed`."""
    rng = random.Random(seed)
    if workload == "march":
        bases = [MARCH_DEFAULT_BASE] * len(SCHEMES) if seed == 0 else rng.sample(MARCH_BASES, 5)
        return {"ladders": {s: ladder(b) for s, b in zip(SCHEMES, bases)}, **MARCH_RUN}
    if workload == "remeasure":
        bases = (
            [RESIDUAL_DEFAULT_BASE] * 2 if seed == 0
            else [rng.choice(RESIDUAL_BASES) for _ in RESIDUAL_SCHEMES]
        )
        return {
            "residual": {s: ladder(b) for s, b in zip(RESIDUAL_SCHEMES, bases)},
            "spectrum_degrees": list(SPECTRUM_DEGREES),
            "n_theta": SPECTRUM_THETAS,
        }
    if workload == "derive":
        keys = [f"{d}/{m}" for d in range(3) for m in STENCIL_MODES]
        if seed == 0:
            orders, corr = [DERIVE_DEFAULT_ORDER] * len(keys), DERIVE_DEFAULT_ORDER
        else:
            orders, corr = rng.sample(DERIVE_ORDERS, len(keys)), rng.choice(CORRECTION_ORDERS)
        return {"orders": dict(zip(keys, orders)), "correction_order": corr}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ----------------------------------------------------------------------
# runners: one pass each, returning ({operation: [failure messages]}, stats).
# `probe` runs before every study; the worker uses it to sample machine speed.


def _nothing() -> None:
    pass


def _study(verdicts: dict, ops: list[str], body, probe) -> None:
    """Run one study; an exception fails every operation it covers."""
    probe()
    try:
        found = body()
    except Exception as exc:  # the benchmark must report, not crash
        for op in ops:
            verdicts[op] = [f"raised {type(exc).__name__}: {exc}"]
        return
    for op in ops:
        verdicts[op] = found.get(op, [])


def run_march(dg, inputs: dict, reference: dict, probe=_nothing) -> tuple[dict, dict]:
    verdicts: dict[str, list[str]] = {}
    stats = {"cell_steps": 0, "march_s": 0.0}

    def study(scheme: str, grids: list[int]):
        config = dg.RunConfig(
            scheme,
            tuple(grids),
            cfl=float(inputs["cfl"]),
            periods=float(inputs["periods"]),
            ic=inputs["ic"],
            integrator=inputs["integrator"],
        )
        start = time.perf_counter()
        table = dg.run_convergence(config)
        stats["march_s"] += time.perf_counter() - start
        stats["cell_steps"] += sum(
            n * s for n, s in zip(table.column("N"), table.column("steps")) if s is not None
        )
        found = check.march_rows(table, scheme, grids, inputs, reference)
        found[f"{scheme} check_convergence"] = dg.check_convergence(table)
        return found

    for scheme, grids in inputs["ladders"].items():
        ops = [check.row_op(scheme, n) for n in grids] + [f"{scheme} check_convergence"]
        _study(verdicts, ops, lambda: study(scheme, grids), probe)
    return verdicts, stats


def run_remeasure(dg, inputs: dict, reference: dict, probe=_nothing) -> tuple[dict, dict]:
    verdicts: dict[str, list[str]] = {}

    def residual(scheme: str, grids: list[int]):
        table = dg.run_residual(dg.RunConfig(scheme, tuple(grids)))
        return {f"residual {scheme}": dg.check_residual(table) + check.residual_targets(table, scheme)}

    def spectrum():
        degrees = tuple(inputs["spectrum_degrees"])
        table = dg.run_spectrum(degrees, n_theta=inputs["n_theta"])
        return {"spectrum": dg.check_spectrum(table) + check.spectrum_shape(table, degrees, inputs["n_theta"])}

    def correction():
        table = dg.run_correction()
        return {"correction": dg.check_correction(table) + check.correction_fraction(table)}

    for scheme, grids in inputs["residual"].items():
        _study(verdicts, [f"residual {scheme}"], lambda: residual(scheme, grids), probe)
    _study(verdicts, ["spectrum"], spectrum, probe)
    _study(verdicts, ["correction"], correction, probe)
    return verdicts, {}


def run_derive(dg, inputs: dict, reference: dict, probe=_nothing) -> tuple[dict, dict]:
    exact = dg.exact
    verdicts: dict[str, list[str]] = {}

    def stencil(key: str, order: int):
        degree, mode = key.split("/")
        laws = exact.moment_evolution_laws(exact.StencilSpec(int(degree), mode, order))
        return {f"laws {key}": check.laws(laws, int(degree), mode)}

    def correction():
        return {"correction_series": check.correction_series(exact.correction_series(inputs["correction_order"]))}

    def statements():
        return {"taylor_statements": check.statements(dg.taylor_statements(), reference)}

    for key, order in inputs["orders"].items():
        _study(verdicts, [f"laws {key}"], lambda: stencil(key, order), probe)
    _study(verdicts, ["correction_series"], correction, probe)
    _study(verdicts, ["taylor_statements"], statements, probe)
    return verdicts, {}


RUNNERS = {"march": run_march, "remeasure": run_remeasure, "derive": run_derive}
