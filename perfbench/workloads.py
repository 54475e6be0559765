"""The four workloads: problems built through ``ccrm.catalog``, one round of
ops, and each op's check.

A round is a fixed list of ops, the same in every round of a run and
made from the seed alone. Each op is one timed call into a public
function of ccrm; its check runs afterwards, untimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ccrm import catalog, cli, diagnostics, solvers
from ccrm.errors import UnsupportedOperation

import checks
from checks import require
from tracing import instrument_problem

FEASIBLE = "feasible"


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _rng(seed, stream):
    return np.random.default_rng([abs(int(seed)), stream])


def _shuffled(ops, seed):
    order = _rng(seed, 99).permutation(len(ops))
    return [ops[i] for i in order]


# -- smooth_solve ---------------------------------------------------------------

SMOOTH_NOISE = 1.0
SMOOTH_STARTS_PER_PAIR = 12


def _smooth_problems():
    """(selector, methods, violation, a point known to lie in X & Y)."""
    all3 = ("ccrm", "crm", "map")
    rows = [
        ("discs3d", all3, checks.discs_violation, np.array([checks.S15 / 2.0, 0.0, 0.0])),
        ("ellipses", all3, checks.ellipses_violation, np.array([1.0, 0.0, 0.0])),
    ]
    for beta, methods in ((1.0, all3), (0.0, ("ccrm", "crm"))):
        for alpha in (1.5, 2.0, 3.0):
            for variant in catalog.EPIGRAPH_VARIANTS:
                violation = (
                    lambda z, a=alpha, b=beta, v=variant: checks.epigraph_violation(z, a, b, v)
                )
                rows.append(
                    (f"epigraph:a={alpha},b={beta},variant={variant}", methods, violation, np.zeros(2))
                )
    return rows


def _solve_check(label, method, violation, s, hull_residual=None):
    def check(trace):
        require(trace.termination == FEASIBLE, f"{label}: ended {trace.termination}")
        checks.check_feasible(violation, trace.final, label)
        if method == "ccrm" and s is not None:
            checks.check_ccrm_fejer(trace.iterates, s, label)
        if method == "map" and s is not None:
            checks.check_fejer_monotone(trace.iterates, s, label)
        if method in ("ccrm", "map") and hull_residual is not None:
            checks.check_in_hull(hull_residual, trace.iterates, label)

    return check


def _solve_op(label, problem, config, z0, check):
    return Op(label, lambda: solvers.run(problem, config, z0), check)


def build_smooth_solve(seed, rec):
    rng = _rng(seed, 1)
    ops = []
    for selector, methods, violation, s in _smooth_problems():
        problem_entry = catalog.resolve(selector)
        problem = instrument_problem(rec, problem_entry.problem)
        for method in methods:
            config = solvers.SolverConfig(method=method, tol_feas=1e-12)
            for i in range(SMOOTH_STARTS_PER_PAIR):
                z0 = problem_entry.suggested_z0 + SMOOTH_NOISE * rng.normal(size=problem.dim)
                label = f"{selector} {method} start {i}"
                ops.append(_solve_op(label, problem, config, z0, _solve_check(label, method, violation, s)))
    return _shuffled(ops, seed)


# -- hull_solve -----------------------------------------------------------------

HULL_NOISE = 0.03
# (problem, method, starts per round). cCRM on eq_ellipsoids is left out:
# from about 1.5% of seeded starts its first circumcenter raises
# GeometryError (three points within ~1e-13 of each other) and run() ends
# in "stagnation" at the start point, so the op would fail on some seeds
# only; CHANGES.md records it. sdp under crm, the slowest pair, gets six
# starts so that the 90th percentile falls inside its cluster of op times
# rather than between it and the next one.
HULL_RUNS = (
    ("eq_ellipsoids", "crm", 4),
    ("eq_ellipsoids", "map", 4),
    ("socp", "ccrm", 4),
    ("socp", "crm", 4),
    ("socp", "map", 4),
    ("sdp", "ccrm", 4),
    ("sdp", "crm", 6),
    ("fixed_trace", "ccrm", 4),
    ("fixed_trace", "crm", 4),
)


def build_hull_solve(seed, rec):
    rng = _rng(seed, 2)
    entries = {}
    ops = []
    for selector, method, starts in HULL_RUNS:
        if selector not in entries:
            entries[selector] = catalog.resolve(selector)
            instrument_problem(rec, entries[selector].problem)
        entry = entries[selector]
        violation, hull_residual = checks.HULL_STATEMENTS[selector]
        config = solvers.SolverConfig(method=method, tol_feas=1e-12)
        for i in range(starts):
            z0 = entry.suggested_z0 + HULL_NOISE * rng.normal(size=entry.problem.dim)
            label = f"{selector} {method} start {i}"
            check = _solve_check(label, method, violation, None, hull_residual)
            ops.append(_solve_op(label, entry.problem, config, z0, check))
    return _shuffled(ops, seed)


# -- diagnose -------------------------------------------------------------------

# Each problem gets estimate_omega seeds 0 .. DIAGNOSE_SEEDS_PER_PROBLEM - 1
# whatever the benchmark seed, which only orders the ops: the cost of one
# socp sample ranges from 2 ms to 80 ms with its direction, so seeded
# sample sets would let the seed, not the program, set the figures.
DIAGNOSE_SEEDS_PER_PROBLEM = 8
# estimate_omega samples this many points on each of its four radii.
DIAGNOSE_SAMPLES_PER_RADIUS = 4
EPIGRAPH_ALPHA, EPIGRAPH_BETA = 2.0, 1.0


def _kappa(oracle, point):
    try:
        return diagnostics.curvature(oracle, point).kappa
    except UnsupportedOperation:
        return None


def _diagnose_call(problem, point, op_seed):
    def call():
        kappa_x = _kappa(problem.X, point)
        kappa_y = _kappa(problem.Y, point)
        omega = diagnostics.estimate_omega(
            problem, point, samples_per_radius=DIAGNOSE_SAMPLES_PER_RADIUS, seed=op_seed
        )
        return kappa_x, kappa_y, omega

    return call


def _diagnose_check(label, problem, point, expected, observed_ratio, op_seed, lens):
    def check(result):
        kappa_x, kappa_y, omega = result
        checks.check_omega(omega, label)
        for name, kappa, want in (("X", kappa_x, expected[0]), ("Y", kappa_y, expected[1])):
            if want is None:
                # No smooth descriptor is required here; one that exists
                # must still give a curvature.
                require(kappa is None or (np.isfinite(kappa) and kappa >= 0.0),
                        f"{label}: curvature of {name} is {kappa}")
            else:
                checks.check_curvature(kappa, want, f"{label} {name}")
        checks.check_quad_constant(observed_ratio, (kappa_x, kappa_y), omega, label)
        if lens:
            omega_lens = diagnostics.estimate_omega(
                problem, point, samples_per_radius=DIAGNOSE_SAMPLES_PER_RADIUS,
                seed=op_seed, projector=checks.lens_project,
            )
            checks.check_lens_omega(omega, omega_lens, label)

    return check


def build_diagnose(seed, rec):
    """Set-up includes the cCRM runs from the catalog starts: they give the
    socp limit point and the traces whose quadratic ratios are checked."""
    corner = EPIGRAPH_BETA ** (1.0 / EPIGRAPH_ALPHA)
    cases = (
        ("discs3d", np.array([checks.S15 / 2.0, 0.5, 0.0]), (0.5, 0.5)),
        (
            f"epigraph:a={EPIGRAPH_ALPHA:g},b={EPIGRAPH_BETA:g}",
            np.array([corner, 0.0]),
            (checks.epigraph_corner_curvature(EPIGRAPH_ALPHA, EPIGRAPH_BETA), 0.0),
        ),
        ("socp", None, (None, checks.socp_ball_curvature())),
    )
    ops = []
    for selector, point, expected in cases:
        entry = catalog.resolve(selector)
        problem = instrument_problem(rec, entry.problem)
        trace = solvers.run(problem, solvers.SolverConfig(method="ccrm"), entry.suggested_z0)
        require(trace.termination == FEASIBLE, f"{selector}: set-up cCRM run ended {trace.termination}")
        self_referenced = point is None
        if self_referenced:
            point = trace.final
        observed = checks.last_quad_ratio(trace.iterates, point, self_referenced)
        for op_seed in range(DIAGNOSE_SEEDS_PER_PROBLEM):
            label = f"diagnose {selector} seed {op_seed}"
            check = _diagnose_check(
                label, problem, point, expected, observed, op_seed, selector == "discs3d"
            )
            ops.append(Op(label, _diagnose_call(problem, point, op_seed), check))
    return _shuffled(ops, seed)


# -- rate_table -----------------------------------------------------------------

def build_rate_table(seed, rec):
    """One op per cell of the Table 2 grid; table2_cell builds its own
    problem inside the op, so set-up builds nothing."""
    latest = {}
    ops = []
    for beta, alpha in cli.TABLE2_GRID:
        for variant in catalog.EPIGRAPH_VARIANTS:
            for method in cli.TABLE2_METHODS:
                label = f"table2 beta={beta:g} alpha={alpha:g} {variant} {method}"

                def check(report, alpha=alpha, beta=beta, method=method, variant=variant, label=label):
                    checks.check_rate_cell(
                        alpha, beta, method, report.classification, report.constant, label
                    )
                    other = latest.get((alpha, beta, method))
                    if other is not None and other[0] != variant:
                        checks.check_same_report(report, other[1], label)
                    latest[(alpha, beta, method)] = (variant, report)

                call = lambda a=alpha, b=beta, m=method, v=variant: cli.table2_cell(a, b, m, v)
                ops.append(Op(label, call, check))
    return _shuffled(ops, seed)


WORKLOADS = {
    "smooth_solve": build_smooth_solve,
    "hull_solve": build_hull_solve,
    "diagnose": build_diagnose,
    "rate_table": build_rate_table,
}
