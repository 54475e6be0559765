"""Time one ``run()`` step, in microseconds, for each catalog problem and method.

Usage: PYTHONPATH=src python tools/time_steps.py [--repeats R] [--budget-ms B]

The cases are each selector of ``write_traces.py`` with each method, run
with the default ``SolverConfig`` from the problem's suggested start. A
case's time is the wall time of one ``run`` call over its step count, so
it includes the start's projection and the trace's assembly. The cases
are interleaved in one process: each of R repeats times every case in
turn, as the best of 3 timings of as many calls as fill B milliseconds
(at least one, counted from one call before the repeats). The output is
one JSON line with each case's median over the repeats and its step
count, keyed by method and selector; a run that raises or takes no step
reads null. Only the public API is used, so the script runs on older
checkouts: run it on two of them to compare.
"""

import argparse
import json
import math
import statistics
import time

from ccrm import catalog
from ccrm.solvers import METHODS, SolverConfig, run
from write_traces import SELECTORS


def _steps(problem, config, z0):
    try:
        return run(problem, config, z0).n_steps
    except (ArithmeticError, RuntimeError, ValueError):
        return 0


def _per_step_us(call, calls, steps):
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / (calls * steps)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--budget-ms", type=float, default=5.0)
    args = parser.parse_args(argv)
    cases = {}
    for selector in SELECTORS:
        entry = catalog.resolve(selector)
        for method in METHODS:
            config = SolverConfig(method=method)
            start = time.perf_counter()
            steps = _steps(entry.problem, config, entry.suggested_z0)
            once = time.perf_counter() - start
            calls = max(1, int(1e-3 * args.budget_ms / once))

            def call(problem=entry.problem, config=config, z0=entry.suggested_z0):
                run(problem, config, z0)

            cases[(method, selector)] = (call, calls, steps)
    samples = {case: [] for case in cases}
    for _ in range(args.repeats):
        for case, (call, calls, steps) in cases.items():
            if steps:
                samples[case].append(_per_step_us(call, calls, steps))
    result = {"unit": "us/step", "repeats": args.repeats, "budget_ms": args.budget_ms, "steps": {}}
    for (method, selector), times in samples.items():
        result["steps"].setdefault(method, {})[selector] = cases[(method, selector)][2] or None
        result.setdefault(method, {})[selector] = round(statistics.median(times), 2) if times else None
    print(json.dumps(result))


if __name__ == "__main__":
    main()
