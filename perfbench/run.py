"""Benchmark command for ccrm.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in fresh single-threaded worker processes and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer ones, from a traced
pass whose counts must equal those of an untraced round of the same ops.
Exits non-zero, without a result line, when the program cannot be run;
exits 1 after the result line when any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("smooth_solve", "hull_solve", "diagnose", "rate_table")

# Set-up is timed in this many fresh processes: the main worker plus
# SETUP_SAMPLES - 1 set-up-only ones; the median is reported.
SETUP_SAMPLES = 7
# Every worker of one run must end within this many seconds of its start.
RUN_TIMEOUT = 170

SINGLE_THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class WorkerError(RuntimeError):
    pass


DEADLINE = time.monotonic() + RUN_TIMEOUT


def worker(*args):
    """Run perfbench/worker.py in a fresh process; return its JSON result."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    timeout = max(DEADLINE - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(map(str, args))} exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload, seed, seconds):
    common = ("--workload", workload, "--seed", seed)
    setup_runs = [worker(*common, "--mode", "setup") for _ in range(SETUP_SAMPLES - 1)]
    main = worker(*common, "--mode", "count", "--seconds", seconds)
    setup_runs.append(main)
    setups = [r["setup_s"] for r in setup_runs]
    n = main["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (main["ops_per_s"], "ops/s"),
        "op_p50_ms": (main["op_p50_ms"], "ms"),
        "op_p90_ms": (main["op_p90_ms"], "ms"),
        "oracle_calls_per_op": (main["oracle_calls_per_op"], "count"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    result = {
        "correct": main["failed"] == 0,
        "attempted": n,
        "failed": main["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    notes = [
        f"reference job {main['reference_ms']:.4g} ms in the timed pass (scaled to "
        f"{main['scaled_to_ms']:g} ms); unscaled ops_per_s {main['wall_ops_per_s']:.6g}",
        f"unscaled setup_s median {statistics.median(r['wall_setup_s'] for r in setup_runs):.4g} s, "
        f"reference job after set-up {statistics.median(r['setup_reference_ms'] for r in setup_runs):.4g} ms",
    ]
    return result, notes


def traced(workload, seed, seconds):
    """Per-layer metrics; the traced counts must match an untraced round."""
    common = ("--workload", workload, "--seed", seed)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
    reference = worker(*common, "--mode", "count", "--rounds", 1)
    run = worker(*common, "--mode", "trace", "--seconds", seconds, "--spans-out", spans_path)
    mismatches = [
        f"{key}: untraced {reference['round_counts'][key]}, traced {run['round_counts'][key]}"
        for key in reference["round_counts"]
        if reference["round_counts"][key] != run["round_counts"][key]
    ]
    notes = [
        f"traced ops_per_s {run['ops_per_s']:.6g} (unscaled {run['wall_ops_per_s']:.6g}); "
        f"spans in {spans_path}"
    ]
    notes += [f"traced count differs from untraced, {m}" for m in mismatches]
    failed = reference["failed"] + run["failed"]
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": reference["attempted"] + run["attempted"],
        "failed": failed,
        "metrics": run["per_layer"],
    }
    return result, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="ccrm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        measure = traced if args.trace else end_to_end
        result, notes = measure(args.workload, args.seed, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(note)
    line = json.dumps(result)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
