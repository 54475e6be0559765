"""Time one ``run()`` step, in microseconds, for each catalog problem and method.

Usage: PYTHONPATH=src python tools/time_steps.py [--repeats R] [--budget-ms B] [--against SRC]

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

``--against SRC`` names the ``src`` directory of a second checkout. Its
package is loaded into the same process (``twin.py``) and every case is
timed on both packages in turn, the first one alternating between
repeats. The line then also holds each case's median on SRC
(``against``), this checkout's median over SRC's (``ratio``), and
whether the two runs' iterates are equal bit for bit (``bitwise``; null
where both runs raise or take no step).
"""

import argparse
import json
import math
import time

import ccrm
import twin
from write_traces import SELECTORS


def _cases(package, budget_ms):
    """{(method, selector): (call, calls, trace)} of one package; trace is
    None where the run raises or takes no step."""
    catalog, solvers = twin.submodule(package, "catalog"), twin.submodule(package, "solvers")
    cases = {}
    for selector in SELECTORS:
        entry = catalog.resolve(selector)
        for method in solvers.METHODS:

            def call(problem=entry.problem, config=solvers.SolverConfig(method=method), z0=entry.suggested_z0,
                     run=solvers.run):
                return run(problem, config, z0)

            start = time.perf_counter()
            try:
                trace = call()
            except (ArithmeticError, RuntimeError, ValueError):
                trace = None
            once = time.perf_counter() - start
            calls = max(1, int(1e-3 * budget_ms / once))
            cases[(method, selector)] = (call, calls, trace if trace is not None and trace.n_steps else None)
    return cases


def _per_step_us(call, calls, steps):
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / (calls * steps)


def _bitwise(a, b):
    if a is None and b is None:
        return None
    return a is not None and b is not None and a.iterates.shape == b.iterates.shape and (
        a.iterates.tobytes() == b.iterates.tobytes()
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--budget-ms", type=float, default=5.0)
    parser.add_argument("--against", metavar="SRC", help="src directory of a second checkout to time beside this one")
    args = parser.parse_args(argv)
    packages = [ccrm] + ([twin.load(args.against)] if args.against else [])
    sides = [_cases(package, args.budget_ms) for package in packages]

    def time_case(i, case):
        call, calls, trace = sides[i][case]
        return None if trace is None else _per_step_us(call, calls, trace.n_steps)

    samples = twin.interleave(sides, args.repeats, time_case)
    result = {"unit": "us/step", "repeats": args.repeats, "budget_ms": args.budget_ms, "steps": {}}
    for (method, selector), (_, _, trace) in sides[0].items():
        result["steps"].setdefault(method, {})[selector] = trace.n_steps if trace is not None else None
        result.setdefault(method, {})[selector] = twin.median(samples[0][(method, selector)])
    if args.against:
        twin.compare(result, samples, lambda case: _bitwise(sides[0][case][2], sides[1][case][2]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
