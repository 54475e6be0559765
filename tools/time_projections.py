"""Time one ``project`` call, in microseconds, for each catalog problem's sets.

Usage: PYTHONPATH=src python tools/time_projections.py [--against SRC]

The cases are the X, Y and ``diagnostics.intersection_oracle`` of each
problem in ``corpus.SELECTORS``, each cycling over 50 points z0 + N(0, 1)
from ``default_rng(5)`` around the problem's suggested start, inside and
outside the set as a solver's are. A case keeps the points it projects
without an error and reads null when none is left (a tangent pair's
intersection). Each of ``twin.REPEATS`` repeats times every case in turn,
as the best of 3 timings of ``twin.PASSES`` passes over its points. The
output is one JSON line of each case's median, keyed by role and selector.
Only the public API is used, so the script runs on older checkouts.

``--against SRC`` loads the ``src`` of a second checkout beside this one
(``twin.py``); a case keeps the points both project and each repeat times
it on both, the first alternating. The line then also holds each case's
median on SRC (``against``), this checkout's over SRC's (``ratio``) and
whether the two projections of every point agree bit for bit (``bitwise``).
"""

import argparse
import json

import numpy as np

import ccrm
import twin
from corpus import SELECTORS

POINTS = 50


def _projects(oracle, z):
    try:
        oracle.project(z)
    except (ArithmeticError, RuntimeError, ValueError):
        return False
    return True


def _oracles(package):
    """{(role, selector): oracle} of one package, with each selector's points."""
    resolve, diagnostics = twin.submodule(package, "catalog").resolve, twin.submodule(package, "diagnostics")
    rng = np.random.default_rng(5)
    oracles, points = {}, {}
    for selector in SELECTORS:
        entry = resolve(selector)
        problem = entry.problem
        points[selector] = [entry.suggested_z0 + rng.normal(size=problem.dim) for _ in range(POINTS)]
        for role, oracle in (("X", problem.X), ("Y", problem.Y),
                             ("intersection", diagnostics.intersection_oracle(problem))):
            oracles[(role, selector)] = oracle
    return oracles, points


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="SRC", help="src directory of a second checkout to time beside this one")
    args = parser.parse_args(argv)
    packages = [ccrm] + ([twin.load(args.against)] if args.against else [])
    built = [_oracles(package) for package in packages]
    sides, points = [oracles for oracles, _ in built], built[0][1]
    kept = {case: [z for z in points[case[1]] if all(_projects(side[case], z) for side in sides)]
            for case in sides[0]}

    def time_case(i, case):
        return twin.best_us(sides[i][case].project, kept[case], twin.PASSES) if kept[case] else None

    def bitwise(case):
        return all(
            sides[0][case].project(z).tobytes() == sides[1][case].project(z).tobytes() for z in kept[case]
        ) if kept[case] else None

    samples = twin.interleave(sides, time_case)
    result = {"unit": "us/call", "repeats": twin.REPEATS, "passes": twin.PASSES, "points": POINTS}
    for role, selector in kept:
        result.setdefault(role, {})[selector] = twin.median(samples[0][(role, selector)])
    if args.against:
        twin.compare(result, samples, bitwise)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
