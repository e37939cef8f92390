"""Self-test of the benchmark itself (not of dgmodeq).

    python3 perfbench/selftest.py

1. Smoke runs: every workload, untraced and traced, on tiny inputs; the last
   line must carry exactly the BENCHMARK.json metrics with their units.
2. The checker can fail: deliberately wrong results fed through the same
   runners and checks must give fail_frac > 0.
3. Without src/ beside it, run.py must exit non-zero and print no result.
Exits 0 when all of it holds.
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke_runs(spec: dict) -> None:
    for workload in ("march", "remeasure", "derive"):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
                 "--seconds", "0", "--trace", str(trace), "--smoke"],
                ROOT,
            )
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct with {result['attempted']} checked operations")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{label}: every listed metric, with its unit")
            values = [v["value"] for v in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                   f"{label}: every value a finite number")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{label}: end-to-end values nonzero")


class Faulty:
    """The package, with some public names replaced."""

    def __init__(self, package, **overrides):
        self._package, self._overrides = package, overrides

    def __getattr__(self, name):
        return self._overrides.get(name, getattr(self._package, name))


def fail_frac(verdicts: dict) -> float:
    return sum(1 for msgs in verdicts.values() if msgs) / len(verdicts)


def checker_can_fail() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import dgmodeq
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    march_in = {"ladders": {"dg-p1": [80, 160]}, **workloads.MARCH_RUN}
    clean, _ = workloads.run_march(dgmodeq, march_in, reference)
    expect(fail_frac(clean) == 0, "march: a correct result passes every check")

    def tampered(column, change):
        def run_convergence(config):
            table = dgmodeq.run_convergence(config)
            idx = table.columns.index(column)
            row = list(table.rows[-1])
            row[idx] = change(row[idx])
            table.rows[-1] = tuple(row)
            return table
        return Faulty(dgmodeq, run_convergence=run_convergence)

    def broken(config):
        raise RuntimeError("injected")

    for label, fake in (
        ("L2 off by 1e-4 relative", tampered("l2", lambda v: v * (1 + 1e-4))),
        ("one extra step", tampered("steps", lambda v: v + 1)),
        ("status not ok", tampered("status", lambda v: "failed")),
        ("study raises", Faulty(dgmodeq, run_convergence=broken)),
    ):
        verdicts, _ = workloads.run_march(fake, march_in, reference)
        expect(fail_frac(verdicts) > 0, f"march, {label}: fail_frac {fail_frac(verdicts):.3g} > 0")

    exact = dgmodeq.exact

    def wrong_laws(spec):
        laws = exact.moment_evolution_laws(spec)
        bad = laws[0].coeffs[:2] + (laws[0].coeffs[2] + 1,) + laws[0].coeffs[3:]
        return [dataclasses.replace(laws[0], coeffs=bad)] + laws[1:]

    fake = Faulty(dgmodeq, exact=Faulty(exact, moment_evolution_laws=wrong_laws))
    verdicts, _ = workloads.run_derive(fake, workloads.SMOKE["derive"], reference)
    expect(fail_frac(verdicts) > 0, f"derive, wrong h^2 law coefficient: fail_frac {fail_frac(verdicts):.3g} > 0")

    def wrong_correction():
        table = dgmodeq.run_correction()
        table.meta["exact_fraction"] *= 2
        return table

    inputs = {**workloads.SMOKE["remeasure"], "residual": {}}
    verdicts, _ = workloads.run_remeasure(Faulty(dgmodeq, run_correction=wrong_correction), inputs, reference)
    expect(fail_frac(verdicts) > 0, f"remeasure, wrong correction fraction: fail_frac {fail_frac(verdicts):.3g} > 0")


def refuses_without_sources() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run([sys.executable, "perfbench/run.py", "--workload", "derive", "--seed", "0",
                "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    printed = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not printed, f"no src/: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    smoke_runs(spec)
    checker_can_fail()
    refuses_without_sources()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
