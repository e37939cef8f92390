"""One benchmark pass in a fresh interpreter, so every in-process cache is cold.

Usage (normally started by run.py):
    python3 -s -E perfbench/worker.py WORKLOAD INPUTS_JSON [--trace SPANS_OUT]
    python3 -s -E perfbench/worker.py --import-only

Imports dgmodeq from the checkout's src/ first and times that import
(setup_s), then runs the workload's studies and checks (wall_s) and prints
one JSON object as its last stdout line.  Both times are also given rescaled
to a nominal machine speed (see Yardstick).
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

_t0 = time.perf_counter()
import dgmodeq  # noqa: E402
import dgmodeq.exact  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy  # noqa: E402  (already loaded by dgmodeq; for its version)


def provenance() -> dict:
    """Where dgmodeq was imported from; exits if it is not this checkout's src/."""
    origin = Path(dgmodeq.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"dgmodeq imported from {origin}, not from {SRC}; refusing to measure it")
    return {
        "dgmodeq_file": str(origin.relative_to(ROOT.resolve())),
        "dgmodeq_version": dgmodeq.__version__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


class Yardstick:
    """Samples machine speed with a fixed loop of the two kinds of work the
    package does: small numpy array operations and Fraction arithmetic.

    The host's speed drifts by +-20% over tens of seconds, far more than the
    changes the benchmark must resolve; wall and CPU time both follow it.
    The loop is timed right after the import, after the pass, and before
    any study that starts at least INTERVAL_S after the last sample; its
    time is kept out of the pass time.  normalize() rescales a time by
    NOMINAL_S / (mean loop time so far): the time it would take on a machine
    where the loop takes NOMINAL_S.  setup_s and wall_s are normalized this
    way; setup_raw_s and wall_raw_s are the clock readings.
    """

    NOMINAL_S = 0.033  # median loop time on the baseline machine (see README)
    INTERVAL_S = 1.0

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self.last < self.INTERVAL_S:
            return
        a = numpy.ones((320, 3))
        m = numpy.eye(3) * 0.5
        acc = Fraction(0)
        start = time.perf_counter()
        for _ in range(1000):
            a = -(a @ m - numpy.roll(a, 1, axis=0) @ m) * 0.999
        for i in range(1, 2000):
            acc += Fraction(i % 97, i)
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def normalize(self, seconds: float) -> float:
        return seconds * self.NOMINAL_S / (sum(self.samples) / len(self.samples))


def main(argv: list[str]) -> None:
    env = provenance()
    yardstick = Yardstick()
    yardstick.sample(force=True)
    setup = {"setup_raw_s": SETUP_S, "setup_s": yardstick.normalize(SETUP_S)}
    if argv == ["--import-only"]:
        print(json.dumps({**setup, "env": env}))
        return
    workload, inputs = argv[0], json.loads(argv[1])
    spans_out = argv[3] if argv[2:3] == ["--trace"] else None

    import workloads  # benchmark code, loaded before the clock starts

    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    tracer = None
    if spans_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    verdicts, stats = workloads.RUNNERS[workload](dgmodeq, inputs, reference, yardstick.sample)
    wall_s = time.perf_counter() - start - sum(yardstick.samples[1:])
    yardstick.sample(force=True)

    result = {
        **setup,
        "wall_raw_s": wall_s,
        "wall_s": yardstick.normalize(wall_s),
        "yardstick_s": yardstick.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(verdicts),
        "failures": {op: msgs for op, msgs in verdicts.items() if msgs},
        "stats": stats,
        "env": env,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(wall_s)
        tracer.dump(spans_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
