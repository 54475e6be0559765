"""Time the library layer by layer, and count each layer's projections.

Usage: PYTHONPATH=src python tools/timers.py {circumcenter,project,step} [--against SRC]

A layer builds its cases, ``{(group, name): (call, inputs, units,
oracles)}``, and ``main`` measures every layer alike. A first, untimed
pass runs ``call`` on each input through ``twin.counted``, which counts
the ``project`` calls made on ``oracles`` (none where that is None) as
perfbench counts a problem's X and Y. A case keeps the inputs that run
without an error and reads null when none is left. Each of
``twin.REPEATS`` repeats then times every case in turn
(``twin.interleave``), as the best of 3 timings of as many passes over
its inputs as fill ``BUDGET_MS`` milliseconds (at least one), over its
``units``: 1 per call, or a run's steps. The output is one JSON line of
each case's median, keyed by group and name, and the counted cases'
``projections`` per unit over the inputs kept. A case whose ``units`` is
None is counted and not timed: it reads its projections over all its
inputs, or, with no oracles, how many of them raise.

The layers:

- ``circumcenter``: three lists of floats as the cCRM and CRM steps pass
  them to ``solvers.circumcenter`` at n = 2, 3, 4, 6, 10 and 16
  (``three``), the same points through the tests' general reference
  ``circumcenter_loop`` (``loop_three``) and four points at n = 4 through
  it (``four``), each over 50 point sets from ``default_rng(5)``. Under
  ``--against`` both sides run this checkout's loop, so its ratios show
  the timer's own noise.
- ``project``: ``project`` of the X, Y and ``intersection_oracle`` of each
  problem in ``corpus.SELECTORS``, over 50 points z0 + N(0, 1) from
  ``default_rng(5)`` around its suggested start; ``estimate_omega`` at the
  limit of a cCRM run from that start, over seeds 0-7 at 4 samples per
  radius as perfbench's ``diagnose`` makes it, counting X and Y; and,
  where ``intersection_oracle`` is a ``Cap`` (in the common hull or not),
  for those problems and ``DIAGNOSE_EPIGRAPH``, the calls into the cap's
  inner set over ``NEAR`` points at distance 10^U(-6, -1) from the limit
  (``cap_near``) and ``FAR`` points at 10^U(0, 4) (``cap_far``), in
  directions from ``default_rng(5)``, and the calls of both that raise
  (``cap_failed``): the machine-independent cost of the cap's dual search.
- ``step``: one ``run()`` step of each problem under each method, with
  the default ``SolverConfig`` from the suggested start: a run's wall
  time over its ``steps``, the start's projection and the trace's
  assembly included, and its X and Y projections per step, the start's
  included. A run that raises or takes no step reads null.

``--against SRC`` loads the ``src`` of a second checkout beside this one
(``twin.py``); a case keeps the inputs both run, and each repeat times it
on both, the first alternating. The line then also holds each case's
median on SRC (``against``), this checkout's over SRC's (``ratio``),
whether the two outputs of every input agree bit for bit (``bitwise``),
SRC's counts (``against_projections``) and the cases whose counts differ
(``projections_differ``, "group name"). Only the public API and
``solvers.circumcenter`` are used, so the script runs on older checkouts.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

import ccrm
import twin
from corpus import SELECTORS

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from helpers import circumcenter_loop  # noqa: E402

BUDGET_MS = 5.0
DIMS = (2, 3, 4, 6, 10, 16)
POINTS = 50
OMEGA_SEEDS = range(8)
OMEGA_SAMPLES_PER_RADIUS = 4
# Points projected per cap, near the limit and far from it, and the
# epigraph of perfbench's diagnose workload.
NEAR, FAR = 800, 200
DIAGNOSE_EPIGRAPH = "epigraph:a=2,b=1"


def _loop_center(points):
    return circumcenter_loop(points).center


def circumcenter_cases(package):
    """one circumcenter solve per call"""
    solve = twin.submodule(package, "solvers").circumcenter
    rng = np.random.default_rng(5)
    cases = {}
    for n in DIMS:
        sets = [rng.normal(size=(3, n)).tolist() for _ in range(POINTS)]
        cases[("three", f"n={n}")] = (lambda points: solve(*points).center, sets, 1, None)
        cases[("loop_three", f"n={n}")] = (_loop_center, sets, 1, None)
    cases[("four", "n=4")] = (_loop_center, [list(rng.normal(size=(4, 4))) for _ in range(POINTS)], 1, None)
    return cases


def _around(center, rng, exponents, count):
    """``count`` points at distance 10^U(exponents) from ``center``."""
    points = []
    for _ in range(count):
        s = rng.normal(size=center.shape[0])
        points.append(center + 10.0 ** rng.uniform(*exponents) * s / np.linalg.norm(s))
    return points


def project_cases(package):
    """one project call per set, one estimate_omega call per problem, and the cap counts"""
    catalog, diagnostics, sets, solvers = (
        twin.submodule(package, m) for m in ("catalog", "diagnostics", "sets", "solvers"))
    rng = np.random.default_rng(5)
    cases = {}
    for selector in [*SELECTORS, DIAGNOSE_EPIGRAPH]:
        entry = catalog.resolve(selector)
        problem, pair = entry.problem, diagnostics.intersection_oracle(entry.problem)
        z_bar = solvers.run(problem, solvers.SolverConfig(method="ccrm"), entry.suggested_z0).final
        if selector in SELECTORS:
            points = [entry.suggested_z0 + rng.normal(size=problem.dim) for _ in range(POINTS)]
            for role, oracle in (("X", problem.X), ("Y", problem.Y), ("intersection", pair)):
                cases[(role, selector)] = (oracle.project, points, 1, None)
            cases[("estimate_omega", selector)] = (
                lambda seed, problem=problem, z_bar=z_bar: diagnostics.estimate_omega(
                    problem, z_bar, samples_per_radius=OMEGA_SAMPLES_PER_RADIUS, seed=seed),
                list(OMEGA_SEEDS), 1, (problem.X, problem.Y))
        cap = pair.inner if isinstance(pair, sets.EmbeddedOracle) else pair
        if isinstance(cap, sets.Cap):
            limit = z_bar if cap.dim == problem.dim else problem.common_hull.to_local(z_bar)
            cap_rng = np.random.default_rng(5)
            near, far = _around(limit, cap_rng, (-6.0, -1.0), NEAR), _around(limit, cap_rng, (0.0, 4.0), FAR)
            cases[("cap_near", selector)] = (cap.project, near, None, (cap.inner,))
            cases[("cap_far", selector)] = (cap.project, far, None, (cap.inner,))
            cases[("cap_failed", selector)] = (cap.project, near + far, None, None)
    return cases


def step_cases(package):
    """one run() step per problem and method"""
    catalog, solvers = twin.submodule(package, "catalog"), twin.submodule(package, "solvers")
    cases = {}
    for selector in SELECTORS:
        entry = catalog.resolve(selector)
        for method in solvers.METHODS:
            def call(z0, problem=entry.problem, config=solvers.SolverConfig(method=method)):
                return solvers.run(problem, config, z0).iterates

            iterates = twin.counted((), call, entry.suggested_z0)[0]
            steps = 0 if iterates is None else len(iterates) - 1
            inputs = [entry.suggested_z0] if steps else []
            cases[(method, selector)] = (call, inputs, steps, (entry.problem.X, entry.problem.Y))
    return cases


LAYERS = {"circumcenter": (circumcenter_cases, "call"), "project": (project_cases, "call"),
          "step": (step_cases, "step")}


def _first_pass(call, inputs, oracles):
    """Each input's (output or None, projections), and the pass's seconds."""
    start = time.perf_counter()
    outcomes = [twin.counted(oracles or (), call, x) for x in inputs]
    return outcomes, time.perf_counter() - start


def _nested(values):
    """{group: {name: value}} of {(group, name): value}."""
    result = {}
    for (group, name), value in values.items():
        result.setdefault(group, {})[name] = value
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    layers = parser.add_subparsers(dest="layer", required=True)
    for name, (build, _) in LAYERS.items():
        layer = layers.add_parser(name, help=build.__doc__, description=f"Time {build.__doc__}.")
        layer.add_argument("--against", metavar="SRC", help="src directory of a second checkout to time beside this one")
    args = parser.parse_args(argv)
    build, unit = LAYERS[args.layer]
    sides = [build(package) for package in [ccrm] + ([twin.load(args.against)] if args.against else [])]
    passes = [{case: _first_pass(call, inputs, oracles) for case, (call, inputs, _, oracles) in side.items()}
              for side in sides]
    kept = {case: [j for j, outcomes in enumerate(zip(*(p[case][0] for p in passes)))
                   if all(output is not None for output, _ in outcomes)] for case in sides[0]}

    def counts(i):
        result = {}
        for case, (_, _, units, oracles) in sides[i].items():
            outcomes = passes[i][case][0]
            if units is None:
                result[case] = sum(n for _, n in outcomes) if oracles else sum(o is None for o, _ in outcomes)
            elif oracles:
                total = sum(outcomes[j][1] for j in kept[case])
                result[case] = round(total / (len(kept[case]) * units), 3) if kept[case] else None
        return result

    timed = [{case: spec for case, spec in side.items() if spec[2] is not None} for side in sides]

    def time_case(i, case):
        call, inputs, units, _ = timed[i][case]
        if not kept[case]:
            return None
        runs = max(1, int(1e-3 * BUDGET_MS / passes[i][case][1]))
        return twin.best_us(call, [inputs[j] for j in kept[case]], runs) / units

    def bitwise(case):
        outputs = [[np.asarray(p[case][0][j][0]).tobytes() for j in kept[case]] for p in passes]
        return outputs[0] == outputs[1] if kept[case] else None

    samples = twin.interleave(timed, time_case)
    result = {"unit": f"us/{unit}", "repeats": twin.REPEATS, "budget_ms": BUDGET_MS}
    result |= _nested({case: twin.median(times) for case, times in samples[0].items()})
    if unit != "call":
        result[unit + "s"] = _nested({case: spec[2] if kept[case] else None for case, spec in timed[0].items()})
    counted = [counts(i) for i in range(len(sides))]
    if counted[0]:
        result["projections"] = _nested(counted[0])
    if args.against:
        twin.compare(result, samples, bitwise)
        if counted[0]:
            result["against_projections"] = _nested(counted[1])
            result["projections_differ"] = [" ".join(c) for c in counted[0] if counted[0][c] != counted[1][c]]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
