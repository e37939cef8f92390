"""Regenerate perfbench/reference.json from the package as it stands.

    python3 perfbench/make_reference.py

Records the L2 error of every (scheme, grid) that any seed of the march
workload can produce, and the rendered `taylor_statements()`.  Run it only
on a commit whose results are known good (the seed commit wrote the file in
the repository); the benchmark then holds later commits to these values.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dgmodeq  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    l2 = {}
    for scheme in workloads.SCHEMES:
        l2[scheme] = {}
        for base in workloads.MARCH_BASES:
            run = workloads.MARCH_RUN
            config = dgmodeq.RunConfig(
                scheme, tuple(workloads.ladder(base)), cfl=float(run["cfl"]),
                periods=float(run["periods"]), ic=run["ic"], integrator=run["integrator"],
            )
            table = dgmodeq.run_convergence(config)
            l2[scheme].update({str(n): e for n, e in zip(table.column("N"), table.column("l2"))})
        l2[scheme] = dict(sorted(l2[scheme].items(), key=lambda kv: int(kv[0])))
    reference = {"march_l2": l2, "taylor_statements": dgmodeq.taylor_statements()}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
