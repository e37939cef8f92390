"""In-memory span tracer wrapped around the package's public functions.

Each wrapper sits where the caller looks the name up at call time: the
module global the calling module reads (`dgmodeq.analysis.rhs_matrix`, not
`dgmodeq.dg.rhs_matrix`), or the attribute on the class for methods.  A span
is (name, start, end, parent); spans stay in flat arrays until the pass ends,
when `summary` turns them into per-layer totals and `dump` writes them out.
"""
from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

# (layer name, [(module path or class path, attribute), ...])
SPAN_SITES = [
    ("analysis.run_convergence", [("dgmodeq", "run_convergence")]),
    ("analysis.run_residual", [("dgmodeq", "run_residual")]),
    ("analysis.run_spectrum", [("dgmodeq", "run_spectrum")]),
    ("analysis.run_correction", [("dgmodeq", "run_correction")]),
    ("analysis.taylor_statements", [("dgmodeq", "taylor_statements")]),
    ("analysis.check", [
        ("dgmodeq", "check_convergence"),
        ("dgmodeq", "check_residual"),
        ("dgmodeq", "check_spectrum"),
        ("dgmodeq", "check_correction"),
    ]),
    ("timestepping.step", [("dgmodeq.timestepping:Integrator", "step")]),
    ("dg.rhs_weak", [("dgmodeq.analysis", "rhs_weak")]),
    ("dg.symbol", [("dgmodeq.analysis", "symbol")]),
    ("dg.update_matrices", [("dgmodeq.analysis", "update_matrices"), ("dgmodeq.dg", "update_matrices")]),
    ("fv.rhs_fv1", [("dgmodeq.analysis", "rhs_fv1")]),
    ("fv.rhs_fv2", [("dgmodeq.analysis", "rhs_fv2")]),
    ("field.project", [("dgmodeq.analysis", "project")]),
    ("field.error_norms", [("dgmodeq.analysis", "error_norms")]),
    ("fv.project_averages", [("dgmodeq.analysis", "project_averages"), ("dgmodeq.fv", "project_averages")]),
    ("fv.average_error_norms", [("dgmodeq.analysis", "average_error_norms")]),
    ("basis.ModalBasis", [("dgmodeq.basis:ModalBasis", "__init__")]),
    ("exact.moment_evolution_laws", [
        ("dgmodeq.analysis", "moment_evolution_laws"),
        ("dgmodeq.exact", "moment_evolution_laws"),
        ("dgmodeq", "moment_evolution_laws"),
    ]),
    ("exact.correction_series", [
        ("dgmodeq.analysis", "correction_series"),
        ("dgmodeq.exact", "correction_series"),
        ("dgmodeq", "correction_series"),
    ]),
    ("exact.update_matrices_exact", [
        ("dgmodeq.exact.basis", "update_matrices_exact"),
        ("dgmodeq.exact.modeq", "update_matrices_exact"),
    ]),
]

COUNT_SITES = [
    ("field.states_built", [("dgmodeq.field:ModalField", "with_data"), ("dgmodeq.fv:AverageField", "with_data")]),
    ("analysis.add_row", [("dgmodeq.analysis:ResultTable", "add_row")]),
]

# Arrays of n_cells * (k+1) doubles that one rhs_matrix call reads or writes:
# roll (read a, write) + two matmuls (read, write each) + difference (2 in,
# 1 out) + negation (1, 1) + division (1, 1) + ModalField copy (1, 1).
# Computed from array sizes, so cache behaviour is not in it.
RHS_MATRIX_PASSES = 15


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every site; the package must already be imported."""
        for name, sites in SPAN_SITES:
            for owner, attr in sites:
                owner = _resolve(owner)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        for name, sites in COUNT_SITES:
            for owner, attr in sites:
                owner = _resolve(owner)
                setattr(owner, attr, self.count(name, getattr(owner, attr)))
        self._install_integrate()
        self._install_rhs_matrix()

    def _install_integrate(self) -> None:
        integrator = _resolve("dgmodeq.timestepping:Integrator")
        inner, counts = integrator.integrate, self.counts

        def integrate(self_, state, rhs):
            def rhs_counted(s, t):
                counts["timestepping.rhs_evals"] += 1
                return rhs(s, t)

            return inner(self_, state, rhs_counted)

        integrator.integrate = self.wrap("timestepping.integrate", integrate)

    def _install_rhs_matrix(self) -> None:
        analysis = _resolve("dgmodeq.analysis")
        inner, counts = analysis.rhs_matrix, self.counts

        def rhs_matrix(field, *args, **kwargs):
            counts["dg.rhs_matrix.elements"] += field.coeffs.size
            return inner(field, *args, **kwargs)

        analysis.rhs_matrix = self.wrap("dg.rhs_matrix", rhs_matrix)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: inclusive seconds, self seconds and calls."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {n: {"s": 0.0, "self_s": 0.0, "calls": 0} for n in self.names}
        for i, nid in enumerate(self.name_id):
            d = self.end[i] - self.start[i]
            row = out[self.names[nid]]
            row["s"] += d
            row["self_s"] += d - child[i]
            row["calls"] += 1
        return out

    def root_seconds(self) -> float:
        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0)

    def summary(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced pass (trace.overhead_frac is
        filled in by the parent, which also has the untraced passes)."""
        t = self.totals()
        get = lambda name, stat: t.get(name, {}).get(stat, 0)
        out = {
            "timestepping.integrate.self_s": get("timestepping.integrate", "self_s"),
            "timestepping.step.self_s": get("timestepping.step", "self_s"),
            "timestepping.step.calls": get("timestepping.step", "calls"),
        }
        out["timestepping.rhs_evals"] = self.counts["timestepping.rhs_evals"]
        for layer in (
            "dg.rhs_matrix", "fv.rhs_fv1", "fv.rhs_fv2", "field.project", "field.error_norms",
            "fv.project_averages", "fv.average_error_norms", "basis.ModalBasis", "dg.rhs_weak",
            "dg.symbol", "exact.moment_evolution_laws", "exact.correction_series",
            "exact.update_matrices_exact", "dg.update_matrices",
        ):
            out[f"{layer}.s"] = get(layer, "s")
            out[f"{layer}.calls"] = get(layer, "calls")
        calls, secs = out["dg.rhs_matrix.calls"], out["dg.rhs_matrix.s"]
        out["dg.rhs_matrix.us_per_call"] = 1e6 * secs / calls if calls else 0.0
        nbytes = 8 * RHS_MATRIX_PASSES * self.counts["dg.rhs_matrix.elements"]
        out["dg.rhs_matrix.gbs_computed"] = nbytes / secs / 1e9 if secs else 0.0
        out["field.states_built"] = self.counts["field.states_built"]
        out["analysis.add_row.calls"] = self.counts["analysis.add_row"]
        for layer in ("analysis.run_spectrum", "analysis.run_convergence", "analysis.run_residual"):
            out[f"{layer}.self_s"] = get(layer, "self_s")
        out["analysis.check.s"] = get("analysis.check", "s")
        out["trace.unattributed_s"] = wall_s - self.root_seconds()
        out["trace.spans"] = len(self.start)
        return out

    def dump(self, path) -> None:
        """Write every span as [name index, start, end, parent index]."""
        spans = [list(span) for span in zip(self.name_id, self.start, self.end, self.parent)]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": spans}, fh, separators=(",", ":"))
