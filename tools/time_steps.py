"""Time one ``run()`` step, in microseconds, for each catalog problem and method.

Usage: PYTHONPATH=src python tools/time_steps.py [--against SRC]

The cases are each problem in ``corpus.SELECTORS`` under each method,
run with the default ``SolverConfig`` from the suggested start. A case's
time is one ``run`` call's wall time over its step count, the start's
projection and the trace's assembly included. Each of ``twin.REPEATS``
repeats times every case in turn, as the best of 3 timings of as many
calls as fill ``BUDGET_MS`` milliseconds (at least one). The output is one
JSON line of each case's median, step count and projections per step,
keyed by method and selector; a run that raises or takes no step reads
null. A case's projections are the X and Y ``project`` calls of its
first, untimed run over its step count, the start's included, counted as
perfbench counts them (``twin.counted``), before the timed runs. Only the
public API is used, so the script runs on older checkouts.

``--against SRC`` loads the ``src`` of a second checkout beside this one
(``twin.py``) and times every case on both, the first alternating. The
line then also holds each case's median on SRC (``against``), this
checkout's over SRC's (``ratio``) and whether the two runs' iterates agree
bit for bit (``bitwise``; null where both raise or take no step), with
SRC's projections per step (``against_projections``) and the cases whose
projection counts differ (``projections_differ``, "method selector").
"""

import argparse
import functools
import json
import time

import ccrm
import twin
from corpus import SELECTORS

BUDGET_MS = 5.0


def _cases(package):
    """{(method, selector): (call, z0, calls, trace, projections)} of one
    package, where ``call(z0)`` runs the case; trace and projections are
    None where the run raises or takes no step."""
    catalog, solvers = twin.submodule(package, "catalog"), twin.submodule(package, "solvers")
    cases = {}
    for selector in SELECTORS:
        entry = catalog.resolve(selector)
        for method in solvers.METHODS:
            call = functools.partial(solvers.run, entry.problem, solvers.SolverConfig(method=method))
            start = time.perf_counter()
            trace, projections = twin.counted(entry.problem, call, entry.suggested_z0)
            calls = max(1, int(1e-3 * BUDGET_MS / (time.perf_counter() - start)))
            if trace is None or not trace.n_steps:
                trace = projections = None
            cases[(method, selector)] = (call, entry.suggested_z0, calls, trace, projections)
    return cases


def _projections(side):
    """Projections per step of each case of one side, keyed by method and selector."""
    result = {}
    for (method, selector), (*_, trace, projections) in side.items():
        per_step = None if trace is None else round(projections / trace.n_steps, 3)
        result.setdefault(method, {})[selector] = per_step
    return result


def _bitwise(a, b):
    if a is None and b is None:
        return None
    return a is not None and b is not None and a.iterates.shape == b.iterates.shape and (
        a.iterates.tobytes() == b.iterates.tobytes()
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="SRC", help="src directory of a second checkout to time beside this one")
    args = parser.parse_args(argv)
    packages = [ccrm] + ([twin.load(args.against)] if args.against else [])
    sides = [_cases(package) for package in packages]

    def time_case(i, case):
        call, z0, calls, trace, _ = sides[i][case]
        return None if trace is None else twin.best_us(call, [z0], calls) / trace.n_steps

    samples = twin.interleave(sides, time_case)
    result = {"unit": "us/step", "repeats": twin.REPEATS, "budget_ms": BUDGET_MS, "steps": {}}
    for (method, selector), (*_, trace, _) in sides[0].items():
        result["steps"].setdefault(method, {})[selector] = trace.n_steps if trace is not None else None
        result.setdefault(method, {})[selector] = twin.median(samples[0][(method, selector)])
    result["projections"] = _projections(sides[0])
    if args.against:
        twin.compare(result, samples, lambda case: _bitwise(sides[0][case][3], sides[1][case][3]))
        result["against_projections"] = _projections(sides[1])
        result["projections_differ"] = [" ".join(c) for c in sides[0] if sides[0][c][4] != sides[1][c][4]]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
