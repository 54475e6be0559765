"""Write the trace CSV of every catalog problem x method x start.

Usage: PYTHONPATH=src python tools/write_traces.py OUT_DIR

Run it on two checkouts and compare the directories with ``diff -r``: a
change that must leave the iteration alone leaves every file
byte-identical. The starts are each problem's ``suggested_z0`` and three
seeded perturbations of it; a run that raises is written as one
``error:`` line, so both sides produce the same file names. A problem
whose sets share an affine hull also gets, per start, the cCRM trace of
its isometry reduction from the start's hull coordinates
(``*_reduced_ccrm_*.csv``).
"""

import os
import sys

import numpy as np

from ccrm import catalog
from ccrm.serialize import trace_to_csv
from ccrm.solvers import METHODS, SolverConfig, isometry_reduce, run

SELECTORS = (
    ["discs3d", "ellipses", "eq_ellipsoids", "socp", "sdp", "fixed_trace"]
    + [f"epigraph:a={a},b={b},y={y}" for a, b in ((2, 0), (3, 1))
       for y in catalog.EPIGRAPH_VARIANTS]
)
SEEDS = (0, 1, 2)


def starts_of(entry):
    """The catalog start and its seeded perturbations, by label."""
    out = {"z0": entry.suggested_z0}
    for seed in SEEDS:
        noise = np.random.default_rng(seed).normal(size=entry.problem.dim)
        out[f"seed{seed}"] = entry.suggested_z0 + 0.3 * noise
    return out


def main(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    count = 0
    for selector in SELECTORS:
        entry = catalog.resolve(selector)
        starts = starts_of(entry)
        runs = [(f"{method}_{label}", method, entry.problem, z0)
                for method in METHODS for label, z0 in starts.items()]
        if entry.problem.common_hull is not None:
            red, hull = isometry_reduce(entry.problem), entry.problem.common_hull
            runs += [(f"reduced_ccrm_{label}", "ccrm", red, hull.to_local(z0))
                     for label, z0 in starts.items()]
        for suffix, method, problem, z0 in runs:
            name = f"{selector.replace(':', '_').replace(',', '_')}_{suffix}.csv"
            path = os.path.join(out_dir, name)
            try:
                trace_to_csv(run(problem, SolverConfig(method=method), z0), path)
            except Exception as exc:
                with open(path, "w") as fh:
                    fh.write(f"error: {type(exc).__name__}: {exc}\n")
            count += 1
    print(f"{count} traces written to {out_dir}")


if __name__ == "__main__":
    main(sys.argv[1])
