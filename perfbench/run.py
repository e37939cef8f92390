"""dgmodeq benchmark: three workloads, one per way the package is used.

    python3 perfbench/run.py --workload march --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py for the inputs and their seeded ranges):
  march      run_convergence + check_convergence for every scheme on a
             5-grid ladder; what every convergence or compare user waits on.
  remeasure  run_residual (dg-p1, dg-p2), run_spectrum, run_correction and
             their checks; the float re-measurement route, no time stepping.
  derive     moment_evolution_laws for degrees 0-2 x both modes, plus
             correction_series and taylor_statements; the exact route.

Each pass runs in a fresh interpreter (cold in-process caches, as a CLI call
has).  Passes repeat until --seconds have gone by and at least MIN_PASSES
ran; the end-to-end metrics are medians over passes.  With --trace 1 the
run alternates untraced and traced passes and reports the per-layer metrics
of BENCHMARK.json instead.  The last stdout line is one JSON object; a
fuller record, and the spans of the last traced pass, go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 5
# Stop starting passes after RUN_CAP_S so that a run ends well within 180 s.
RUN_CAP_S = 120
PASS_TIMEOUT_S = 170
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def worker(*args: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON record."""
    cmd = [sys.executable, "-s", "-E", str(HERE / "worker.py"), *args]
    env = dict(os.environ, **BLAS_PIN)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ran past {PASS_TIMEOUT_S} s and was killed") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def environment() -> dict:
    """Machine and source provenance; the package's own versions come from
    the workers, which import it."""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        cpu = None
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = lambda *a: subprocess.run(
                ["git", *a], cwd=ROOT, capture_output=True, text=True, check=True, timeout=30
            ).stdout.strip()
            commit = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dgmodeq").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_pin": BLAS_PIN,
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
    }


def tail(values: list[float]) -> str:
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return "no tail percentile (fewer than 40 samples)"


def measure(workload: str, inputs: dict, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run the passes of one workload and collect their records."""
    min_passes = 1 if smoke else MIN_PASSES
    min_traced = (1 if smoke else MIN_TRACED_PASSES) if trace else 0
    probes = [worker("--import-only") for _ in range(1 if smoke else SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{workload}.json"
    plain: list[dict] = []
    traced: list[dict] = []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        done = len(plain) >= min_passes and len(traced) >= min_traced and elapsed >= seconds
        if done or (plain and elapsed >= RUN_CAP_S):
            break
        if trace and len(traced) < len(plain):
            traced.append(worker(workload, json.dumps(inputs), "--trace", str(spans_out)))
        else:
            plain.append(worker(workload, json.dumps(inputs)))
    return {"probes": probes, "plain": plain, "traced": traced}


def summarize(workload: str, passes: dict, spec: dict, trace: bool) -> tuple[dict, dict, list[str]]:
    """Metric values (BENCHMARK.json names only), run totals and report lines."""
    plain, traced = passes["plain"], passes["traced"]
    records = plain + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    walls = [r["wall_s"] for r in plain]
    setups = [r["setup_s"] for r in passes["probes"] + records]
    median = lambda key, rs: statistics.median(r[key] for r in rs)
    lines = [
        f"wall_s      median {statistics.median(walls):.6g} s over {len(walls)} passes; {tail(walls)}"
        f" (clock: {median('wall_raw_s', plain):.6g} s)",
        f"setup_s     median {statistics.median(setups):.6g} s over {len(setups)} imports"
        f" (clock: {median('setup_raw_s', passes['probes'] + records):.6g} s)",
        f"            both at nominal machine speed: yardstick median"
        f" {statistics.median(y for r in records for y in r['yardstick_s']):.6g} s",
        f"peak_rss_mb median {median('peak_rss_mb', plain):.6g} MiB",
        f"fail_frac   {failed / attempted:.6g} ({failed} of {attempted} checked operations failed)",
    ]
    if workload == "march":
        rates = [r["stats"]["cell_steps"] / r["stats"]["march_s"] for r in plain]
        lines.append(
            f"cell_steps_per_s median {statistics.median(rates):.6g} cell-steps/s "
            f"({plain[0]['stats']['cell_steps']} cell-steps per pass)"
        )
    for record in records:
        for op, msgs in record["failures"].items():
            lines.append(f"FAILED {op}: {'; '.join(msgs)}")
    if not trace:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median("peak_rss_mb", plain),
        }
        names = spec["end_to_end"]
    else:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_frac"] = median("wall_s", traced) / statistics.median(walls) - 1.0
        names = spec["per_layer"]
        lines.append(f"traced passes {len(traced)}, untraced {len(plain)}; per layer (median):")
        lines.extend(f"  {m['name']:<34} {values[m['name']]:.6g} {m['unit']}" for m in names)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    return metrics, {"attempted": attempted, "failed": failed}, lines


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> dict:
    inputs = workloads.SMOKE[workload] if smoke else workloads.make_inputs(workload, seed)
    passes = measure(workload, inputs, seconds, trace, smoke)
    metrics, totals, lines = summarize(workload, passes, spec, trace)
    env = {**environment(), **passes["plain"][0]["env"]}
    print(f"== {workload} seed {seed}{' (smoke)' if smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(inputs))
    print("\n".join(lines))
    record = {"workload": workload, "seed": seed, "trace": trace, "env": env, "inputs": inputs,
              "metrics": metrics, **totals, "passes": passes}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {"metrics": metrics, **totals}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dgmodeq" / "__init__.py").is_file():
        print(f"no dgmodeq sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = {w: run_one(w, args.seed, args.seconds, bool(args.trace), args.smoke, spec) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in runs.items() for k, v in r["metrics"].items()}
    else:
        metrics = runs[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
