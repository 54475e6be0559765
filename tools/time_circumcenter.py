"""Time one ``circumcenter`` call, in microseconds, as the solver steps make it.

Usage: PYTHONPATH=src python tools/time_circumcenter.py

The cases are three points, a list of three 1-d float64 arrays as the
cCRM and CRM steps pass them, at n = 2, 3, 4, 6, 10 and 16 (``three``);
the same points through ``circumcenter_loop`` of ``tests/helpers.py``, the
tests' general m-point reference (``loop_three``); and four points at n = 4
through that loop (``four``), each over 50 point sets from
``default_rng(5)``. Each of ``twin.REPEATS`` repeats times every case in
turn (``twin.interleave``), as the best of 3 timings of ``twin.PASSES``
passes. The output is one JSON line of each case's median.
"""

import json
import os
import sys

import numpy as np

import twin
from ccrm.circumcenter import circumcenter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from helpers import circumcenter_loop  # noqa: E402

DIMS = (2, 3, 4, 6, 10, 16)
SETS = 50


def main():
    rng = np.random.default_rng(5)
    cases = {}
    for n in DIMS:
        sets = [list(rng.normal(size=(3, n))) for _ in range(SETS)]
        cases[("three", n)] = (circumcenter, sets)
        cases[("loop_three", n)] = (circumcenter_loop, sets)
    cases[("four", 4)] = (circumcenter_loop, [list(rng.normal(size=(4, 4))) for _ in range(SETS)])
    samples = twin.interleave([cases], lambda _, case: twin.best_us(*cases[case], twin.PASSES))[0]
    result = {"unit": "us/call", "repeats": twin.REPEATS, "passes": twin.PASSES, "sets": SETS}
    for (kind, n), times in samples.items():
        result.setdefault(kind, {})[f"n={n}"] = twin.median(times)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
