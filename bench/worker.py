"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode MODE --t0 NS

``--t0`` is the parent's ``time.monotonic_ns()`` just before it started this
process, so ``setup_s`` covers interpreter start-up plus the import of
``e1forge.cli``.  Modes: ``setup`` stops after the import; ``plain`` runs
the pass untraced; ``spans`` runs it under the span tracer; ``counts``
runs it counting ``FieldSpec.mul`` calls and class constructions, then
times field operations directly.  The result is one JSON line on stdout.
Exit code 2 means the package could not be imported.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import e1forge.cli  # noqa: F401  (the import that setup_s measures)
except ImportError as exc:
    print(f"cannot import e1forge from {ROOT}/src: {exc}", file=sys.stderr)
    sys.exit(2)
IMPORTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

from e1forge import gf2k, oracle, polyfield, semisimple  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spans  # noqa: E402
import workloads  # noqa: E402

FIELD_OP_CALLS = 2000
FIELD_OP_REPEATS = 7


class Timer:
    """Times the block; ``around`` are entered just before the clock starts
    and left just after it stops, so tracing covers exactly the timed work."""

    def __init__(self, *around):
        self.around = around

    def __enter__(self):
        for ctx in self.around:
            ctx.__enter__()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        for ctx in reversed(self.around):
            ctx.__exit__(*exc)
        return False


def field_op_ns(seed: int) -> dict:
    """Least ns per call, over repeats, of mul (GF(2^4), 2^8, 2^20), inv and pow (2^8)."""
    rng = random.Random(seed)
    out = {}

    def time_op(name, op, operands):
        runs = []
        for _ in range(FIELD_OP_REPEATS):
            start = time.perf_counter_ns()
            for a, b in operands:
                op(a, b)
            runs.append((time.perf_counter_ns() - start) / len(operands))
        out[name] = min(runs)

    for k in (4, 8, 20):
        fld = gf2k.make_field(k, 1)
        pairs = [
            (rng.randrange(1, fld.size), rng.randrange(1, fld.size))
            for _ in range(FIELD_OP_CALLS)
        ]
        time_op(f"gf2k.mul_ns.k{k}", fld.mul, pairs)
        if k == 8:
            time_op("gf2k.inv_ns.k8", lambda a, b: fld.inv(a), pairs)
            pows = [(a, rng.randrange(1, fld.size - 1)) for a, _ in pairs]
            time_op("gf2k.pow_ns.k8", fld.pow, pows)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "plain", "spans", "counts"))
    parser.add_argument("--t0", type=int, required=True)
    args = parser.parse_args()
    result = {"setup_s": (IMPORTED_NS - args.t0) / 1e9}
    if args.mode == "setup":
        result["numpy"] = numpy.__version__
        print(json.dumps(result))
        return 0

    cold = (
        polyfield.irreducibles.cache_info().currsize == 0
        and oracle.mult_table.cache_info().currsize == 0
    )
    run_pass = workloads.WORKLOADS[args.workload]
    if args.mode == "spans":
        tracer = spans.Tracer()
        timer = Timer(tracer)
        run = run_pass(args.seed, timer)
        stray = spans.installed_wrappers()
        run.check(not stray, f"tracer left wrappers installed: {stray}")
        metrics = tracer.metrics(timer.seconds)
        run.check(
            metrics["bench.self_s"] >= 0,
            f"layer self times sum to more than the pass's {timer.seconds} s",
        )
        metrics["cli.report_bytes"] = run.report_bytes
        result["layers"] = metrics
    elif args.mode == "counts":
        targets = {
            "gf2k.mul_calls": (gf2k.FieldSpec, "mul"),
            "semisimple.classes": (semisimple.SemisimpleClass, "__post_init__"),
        }
        counter = spans.CallCounter(targets)
        timer = Timer(counter)
        run = run_pass(args.seed, timer)
        result["layers"] = {**counter.counts, **field_op_ns(args.seed)}
    else:
        timer = Timer()
        run = run_pass(args.seed, timer)
    run.check(cold, "lru caches of irreducibles and mult_table were not empty")
    result.update(
        wall_s=timer.seconds,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        segments=run.segments,
        items=run.items,
        checks=run.checks,
        failures=run.failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
