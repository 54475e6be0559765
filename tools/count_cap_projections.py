"""Count the inner projections a cap pair oracle makes per batch of calls.

Usage: PYTHONPATH=src python tools/count_cap_projections.py

For each problem in ``corpus.SELECTORS``, and ``epigraph:a=2,b=1`` (the
benchmark's ``diagnose`` epigraph), whose ``intersection_oracle`` is a
``Cap`` (in the common hull or not), it runs cCRM from ``suggested_z0`` and
projects ``NEAR`` points at distance 10^U(-6, -1) from the limit and ``FAR``
points at 10^U(0, 4), in directions from ``default_rng(5)``, counting the
calls into the cap's inner set. The output is one JSON line of the counts
per selector, near and far, and the calls that raised: the
machine-independent cost of the cap's dual search.
"""

import json

import numpy as np

from ccrm import catalog
from ccrm.diagnostics import intersection_oracle
from ccrm.sets import Cap, EmbeddedOracle
from ccrm.solvers import SolverConfig, run
from corpus import SELECTORS

# Points projected per cap, near the limit and far from it.
NEAR, FAR = 800, 200


def _cap(problem):
    pair = intersection_oracle(problem)
    return pair.inner if isinstance(pair, EmbeddedOracle) else pair


def _count(cap, points):
    """(inner projections, calls that raised) over ``points``."""
    calls, failed = [0], 0
    project = cap.inner.project

    def counted(z):
        calls[0] += 1
        return project(z)

    cap.inner.project = counted
    try:
        for z in points:
            try:
                cap.project(z)
            except Exception:
                failed += 1
    finally:
        del cap.inner.project
    return calls[0], failed


def _around(center, rng, exponents, count):
    for _ in range(count):
        s = rng.normal(size=center.shape[0])
        yield center + 10.0 ** rng.uniform(*exponents) * s / np.linalg.norm(s)


def main():
    result = {"near": {}, "far": {}, "failed": {}}
    for selector in [*SELECTORS, "epigraph:a=2,b=1"]:
        entry = catalog.resolve(selector)
        cap = _cap(entry.problem)
        if not isinstance(cap, Cap):
            continue
        limit = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
        if cap.dim != limit.shape[0]:  # a cap in the common hull's coordinates
            limit = entry.problem.common_hull.to_local(limit)
        rng = np.random.default_rng(5)
        near = _count(cap, list(_around(limit, rng, (-6.0, -1.0), NEAR)))
        far = _count(cap, list(_around(limit, rng, (0.0, 4.0), FAR)))
        result["near"][selector], result["far"][selector] = near[0], far[0]
        result["failed"][selector] = near[1] + far[1]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
