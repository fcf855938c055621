"""e1forge benchmark: one command for every workload and metric.

    python3 bench/run.py --workload {oracle,poly,formulas} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Each pass of the workload runs in a fresh
interpreter (``bench/worker.py``), so every pass pays, as a CLI user does,
for importing the package and for filling its ``lru_cache`` tables.  Passes
repeat until the next one would end after ``--seconds``.  Timings sum, over
the named segments of a pass, each segment's least time in the run;
``setup_s`` and ``peak_rss_mb`` are medians.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` prints the per-layer metrics: span passes under the tracer,
one pass counting field multiplications, and untraced passes to give the
tracing overhead.

Metric names, units and workload names come from ``BENCHMARK.json``.
Every pass checks its outputs.  The last stdout line is the result object;
the line before it holds run information (versions, core count, source line
counts, pass count).  Exit code 0 when every check passed, 1 when any
failed, 2 when the package cannot be found or imported.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
MIN_PASSES = 3
HARD_LIMIT_S = 170  # a run ends within this, even if a pass hangs

class FatalError(Exception):
    """The package could not be imported: there is nothing to measure."""


def spawn(
    workload: str, seed: int, mode: str, timeout: float
) -> tuple[dict | None, float, str]:
    """Run one worker; return (its result or None, seconds taken, error)."""
    t0 = time.monotonic_ns()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--mode", mode, "--t0", str(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return None, (time.monotonic_ns() - t0) / 1e9, f"{mode} pass timed out"
    took = (time.monotonic_ns() - t0) / 1e9
    if proc.returncode == 2:
        raise FatalError(proc.stderr.strip())
    if proc.returncode != 0:
        return None, took, f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), took, ""


def source_lines() -> dict:
    out = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "e1forge", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            out[os.path.basename(path)] = sum(1 for _ in fh)
    out["total"] = sum(out.values())
    return out


def fastest_segments(passes: list[dict]) -> dict:
    """Each segment's least time over the passes.

    Every pass of a run does the same work on the same inputs.  Other
    processes on the machine only ever add time, in bursts lasting from
    seconds to minutes, which move the median of a 40 s run by 30% and more.
    A short segment almost always runs clear of them in one pass or another,
    so its least time tracks the work the code does.
    """
    return {
        name: min(p["segments"][name] for p in passes) for name in passes[0]["segments"]
    }


def percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, list, int]:
    """Measure one workload; return (metric values, info, failures, checks)."""
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + HARD_LIMIT_S
    setups = []
    for _ in range(SETUP_PROBES):
        probe, _, error = spawn(workload, seed, "setup", hard_deadline - time.monotonic())
        if probe is None:
            raise FatalError(error)
        setups.append(probe["setup_s"])
    numpy = probe["numpy"]

    if trace:
        schedule = ["counts", "spans", "plain"]
        cycle = ["spans", "plain"]
    else:
        schedule = ["plain"] * MIN_PASSES
        cycle = ["plain"]
    done: dict[str, list] = {"plain": [], "spans": [], "counts": []}
    durations, failures = [], []
    attempted = 0
    i = 0
    while True:
        if i < len(schedule):
            mode = schedule[i]
        else:
            mode = cycle[(i - len(schedule)) % len(cycle)]
            if time.monotonic() + statistics.median(durations) > deadline:
                break
        if time.monotonic() > hard_deadline:
            failures.append(f"run passed {HARD_LIMIT_S} s before its minimum passes")
            break
        result, took, error = spawn(workload, seed, mode, hard_deadline - time.monotonic())
        durations.append(took)
        i += 1
        if result is None:
            attempted += 1
            failures.append(error)
            continue
        attempted += result["checks"]
        failures.extend(result["failures"])
        setups.append(result["setup_s"])
        done[mode].append(result)

    if trace:
        metrics = trace_metrics(done)
    else:
        metrics = {}
        plain = done["plain"]
        if plain:
            best = fastest_segments(plain)
            items_ms = [best[name] * 1e3 for name in plain[0]["items"]]
            metrics = {
                "wall_s": sum(best.values()),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
                "item_ms_p50": statistics.median(items_ms),
                "item_ms_p90": percentile(items_ms, 90),
            }
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "elapsed_s": time.monotonic() - start,
        "passes": {mode: len(results) for mode, results in done.items()},
        "items_per_pass": len(done["plain"][0]["items"]) if done["plain"] else 0,
        "setup_samples": len(setups),
        "pass_wall_s": [p["wall_s"] for p in done["plain"]],
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": source_lines(),
    }
    return metrics, info, failures, attempted


def trace_metrics(done: dict) -> dict:
    """Layer metrics of the fastest span pass, so they describe one pass
    and its self times add up; counts and field timings from the counting
    pass."""
    spans, counts, plain = done["spans"], done["counts"], done["plain"]
    metrics = {}
    if spans:
        best = min(spans, key=lambda p: p["wall_s"])
        metrics.update(best["layers"])
        metrics["trace.wall_s"] = best["wall_s"]
        if plain:
            untraced = min(p["wall_s"] for p in plain)
            metrics["trace.overhead_ratio"] = best["wall_s"] / untraced
    if counts:
        metrics.update(counts[0]["layers"])
    return metrics


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "e1forge", "cli.py")):
        print(f"error: no e1forge source under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        values, info, failures, attempted = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except FatalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
        if m["name"] in values
    }
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not failures and bool(metrics),
                "attempted": max(attempted, 1),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
