"""Time one ``circumcenter`` call, in microseconds, as the solver steps make it.

Usage: PYTHONPATH=src python tools/time_circumcenter.py [--repeats R] [--passes K]

The cases are three points passed as a list of three 1-d float64 arrays,
the way the cCRM and CRM steps pass them, at n = 2, 3, 4, 6, 10 and 16
(``three``); the same points through the general m-point loop
(``loop_three``); and four points at n = 4 through that loop (``four``).
The loop is ``circumcenter_loop`` of ``tests/helpers.py``, the tests'
bitwise reference for ``circumcenter``, which takes three points only.
Each case cycles over 50 point sets drawn from ``default_rng(5)``. The
cases are interleaved in one process: each of R repeats times every case
in turn, as the best of 3 timings of K passes over its sets. The output
is one JSON line with each case's median over the repeats. Run it on two
checkouts to compare them.
"""

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from ccrm.circumcenter import circumcenter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from helpers import circumcenter_loop  # noqa: E402

DIMS = (2, 3, 4, 6, 10, 16)
SETS = 50


def _per_call_us(solve, sets, passes):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(passes):
            for points in sets:
                solve(points)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / (passes * len(sets))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--passes", type=int, default=4)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(5)
    cases = {}
    for n in DIMS:
        sets = [list(rng.normal(size=(3, n))) for _ in range(SETS)]
        cases[("three", n)] = (circumcenter, sets)
        cases[("loop_three", n)] = (circumcenter_loop, sets)
    cases[("four", 4)] = (circumcenter_loop, [list(rng.normal(size=(4, 4))) for _ in range(SETS)])
    samples = {case: [] for case in cases}
    for _ in range(args.repeats):
        for case, (solve, sets) in cases.items():
            samples[case].append(_per_call_us(solve, sets, args.passes))
    result = {"unit": "us/call", "repeats": args.repeats, "passes": args.passes, "sets": SETS}
    for (kind, n), times in samples.items():
        result.setdefault(kind, {})[f"n={n}"] = round(statistics.median(times), 2)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
