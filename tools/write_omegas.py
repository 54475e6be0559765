"""Write curvature and estimate_omega at each catalog problem's cCRM limit.

Usage: PYTHONPATH=src python tools/write_omegas.py OUT_FILE

Run it on two checkouts and ``diff`` the files: a change that must leave
the diagnostics alone leaves them byte-identical. For every selector of
``write_traces.py`` it runs cCRM from ``suggested_z0`` and writes, at
the final iterate, ``kappa_X`` and ``kappa_Y``, the ``repr`` of
``curvature``'s (kappa, direction as a list), and ``repr`` of
``estimate_omega`` for seeds 0-3 with 4 samples per radius. A run,
curvature or estimate that raises is written as an ``error:`` line, so
both sides write the same lines.
"""

import sys

from ccrm import catalog
from ccrm.diagnostics import curvature, estimate_omega
from ccrm.solvers import SolverConfig, run
from write_traces import SELECTORS

SEEDS = (0, 1, 2, 3)


def main(out_path):
    lines = []
    for selector in SELECTORS:
        try:
            entry = catalog.resolve(selector)
            z_bar = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
        except Exception as exc:
            lines.append(f"{selector} error: {type(exc).__name__}: {exc}")
            continue
        for name, oracle in (("X", entry.problem.X), ("Y", entry.problem.Y)):
            try:
                value = curvature(oracle, z_bar)
                direction = value.maximizing_direction
                kappa = (value.kappa, None if direction is None else direction.tolist())
                lines.append(f"{selector} kappa_{name} {kappa!r}")
            except Exception as exc:
                lines.append(f"{selector} kappa_{name} error: {type(exc).__name__}: {exc}")
        for seed in SEEDS:
            try:
                omega = estimate_omega(entry.problem, z_bar, samples_per_radius=4, seed=seed)
                lines.append(f"{selector} seed{seed} {omega!r}")
            except Exception as exc:
                lines.append(f"{selector} seed{seed} error: {type(exc).__name__}: {exc}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} lines written to {out_path}")


if __name__ == "__main__":
    main(sys.argv[1])
