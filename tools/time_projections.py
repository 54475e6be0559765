"""Time one ``project`` call, in microseconds, for each catalog problem's sets,
and one ``estimate_omega`` call at each problem's cCRM limit.

Usage: PYTHONPATH=src python tools/time_projections.py [--against SRC]

The ``project`` cases are the X, Y and ``diagnostics.intersection_oracle``
of each problem in ``corpus.SELECTORS``, each cycling over 50 points z0 +
N(0, 1) from ``default_rng(5)`` around the problem's suggested start,
inside and outside the set as a solver's are. The ``estimate_omega`` case
of a problem cycles over seeds 0-7 at 4 samples per radius, as perfbench's
``diagnose`` does, at the limit of a cCRM run from the suggested start. A
case keeps the inputs it runs without an error and reads null when none is
left (a tangent pair's intersection). Each of ``twin.REPEATS`` repeats
times every case in turn, as the best of 3 timings of ``twin.PASSES``
passes over its inputs. The output is one JSON line of each case's
median, keyed by role and selector, and of each ``estimate_omega`` case's
X and Y ``project`` calls per call over the seeds it keeps
(``projections``, by selector), counted in untimed calls as perfbench
counts them (``twin.counted``). Only the public API is used, so the
script runs on older checkouts.

``--against SRC`` loads the ``src`` of a second checkout beside this one
(``twin.py``); a case keeps the inputs both run and each repeat times it
on both, the first alternating. The line then also holds each case's
median on SRC (``against``), this checkout's over SRC's (``ratio``) and
whether the two outputs of every input agree bit for bit (``bitwise``),
with SRC's projection counts (``against_projections``).
"""

import argparse
import json

import numpy as np

import ccrm
import twin
from corpus import SELECTORS

POINTS = 50
OMEGA_SEEDS = range(8)
OMEGA_SAMPLES_PER_RADIUS = 4


def _runs(call, x):
    try:
        call(x)
    except (ArithmeticError, RuntimeError, ValueError):
        return False
    return True


def _cases(package):
    """{(role, selector): call} of one package, {(role, selector): inputs}
    and the problem of each ``estimate_omega`` case."""
    catalog, diagnostics, solvers = (twin.submodule(package, m) for m in ("catalog", "diagnostics", "solvers"))
    rng = np.random.default_rng(5)
    calls, inputs, problems = {}, {}, {}
    for selector in SELECTORS:
        entry = catalog.resolve(selector)
        problem = entry.problem
        points = [entry.suggested_z0 + rng.normal(size=problem.dim) for _ in range(POINTS)]
        for role, oracle in (("X", problem.X), ("Y", problem.Y),
                             ("intersection", diagnostics.intersection_oracle(problem))):
            calls[(role, selector)], inputs[(role, selector)] = oracle.project, points
        z_bar = solvers.run(problem, solvers.SolverConfig(method="ccrm"), entry.suggested_z0).final
        calls[("estimate_omega", selector)] = lambda seed, problem=problem, z_bar=z_bar: diagnostics.estimate_omega(
            problem, z_bar, samples_per_radius=OMEGA_SAMPLES_PER_RADIUS, seed=seed)
        inputs[("estimate_omega", selector)] = list(OMEGA_SEEDS)
        problems[("estimate_omega", selector)] = problem
    return calls, inputs, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="SRC", help="src directory of a second checkout to time beside this one")
    args = parser.parse_args(argv)
    packages = [ccrm] + ([twin.load(args.against)] if args.against else [])
    built = [_cases(package) for package in packages]
    sides, inputs = [calls for calls, _, _ in built], built[0][1]
    kept = {case: [x for x in inputs[case] if all(_runs(side[case], x) for side in sides)] for case in sides[0]}

    def projections(i):
        counts = {}
        for case, problem in built[i][2].items():
            total = sum(twin.counted(problem, sides[i][case], x)[1] for x in kept[case])
            counts[case[1]] = round(total / len(kept[case]), 3) if kept[case] else None
        return counts

    counts = [projections(i) for i in range(len(sides))]

    def time_case(i, case):
        return twin.best_us(sides[i][case], kept[case], twin.PASSES) if kept[case] else None

    def bitwise(case):
        return all(
            np.asarray(sides[0][case](x)).tobytes() == np.asarray(sides[1][case](x)).tobytes() for x in kept[case]
        ) if kept[case] else None

    samples = twin.interleave(sides, time_case)
    result = {"unit": "us/call", "repeats": twin.REPEATS, "passes": twin.PASSES, "points": POINTS}
    for role, selector in kept:
        result.setdefault(role, {})[selector] = twin.median(samples[0][(role, selector)])
    result["projections"] = counts[0]
    if args.against:
        twin.compare(result, samples, bitwise)
        result["against_projections"] = counts[1]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
