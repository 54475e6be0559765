"""Time one ``project`` call, in microseconds, for each catalog problem's sets.

Usage: PYTHONPATH=src python tools/time_projections.py [--repeats R] [--passes K]

The cases are the X, Y and ``diagnostics.intersection_oracle`` of each
catalog problem in ``SELECTORS`` (those of ``write_traces.py``). Each case
cycles over 50 points drawn from ``default_rng(5)`` around the problem's
suggested start, z0 + N(0, 1) per coordinate, so some points lie in the
set and some do not, as they do for a solver. A case keeps only the points
it projects without an error (a tangent pair's intersection refuses
them all) and reads null when none is left. The cases are interleaved
in one process: each of R repeats times every case in turn, as the best
of 3 timings of K passes over its points. The output is one JSON line
with each case's median over the repeats, keyed by oracle role and
selector. Only the public API is used, so the script runs on older
checkouts: run it on two of them to compare.
"""

import argparse
import json
import statistics
import time

import numpy as np

from ccrm import catalog
from ccrm.diagnostics import intersection_oracle

SELECTORS = (
    ["discs3d", "ellipses", "eq_ellipsoids", "socp", "sdp", "fixed_trace"]
    + [f"epigraph:a={a},b={b},y={y}" for a, b in ((2, 0), (3, 1))
       for y in catalog.EPIGRAPH_VARIANTS]
)
POINTS = 50


def _projects(oracle, z):
    try:
        oracle.project(z)
    except (ArithmeticError, RuntimeError, ValueError):
        return False
    return True


def _per_call_us(project, points, passes):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(passes):
            for z in points:
                project(z)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / (passes * len(points))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--passes", type=int, default=4)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(5)
    cases = {}
    for selector in SELECTORS:
        entry = catalog.resolve(selector)
        problem = entry.problem
        points = [entry.suggested_z0 + rng.normal(size=problem.dim) for _ in range(POINTS)]
        for role, oracle in (("X", problem.X), ("Y", problem.Y),
                             ("intersection", intersection_oracle(problem))):
            cases[(role, selector)] = (oracle.project, [z for z in points if _projects(oracle, z)])
    samples = {case: [] for case in cases}
    for _ in range(args.repeats):
        for case, (project, points) in cases.items():
            if points:
                samples[case].append(_per_call_us(project, points, args.passes))
    result = {"unit": "us/call", "repeats": args.repeats, "passes": args.passes, "points": POINTS}
    for (role, selector), times in samples.items():
        result.setdefault(role, {})[selector] = round(statistics.median(times), 2) if times else None
    print(json.dumps(result))


if __name__ == "__main__":
    main()
