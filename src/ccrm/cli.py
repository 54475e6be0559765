"""Command-line interface: solve, table1, table2, diagnose.

Exit codes: 0 for feasible termination (and for reports); 2 for any
other termination (the trace and report are still written) and for a
``ConvergenceError`` outside a run; 1 for input errors. No command
writes partial output files on input error: problems and points are
fully validated before any file is opened.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import catalog
from .diagnostics import (
    RATE_LINEAR,
    RATE_QUADRATIC,
    estimate_omega,
    curvature,
    rate_report,
    trace_reference_distances,
)
from .errors import ConvergenceError, RegularityError, UnsupportedOperation
from .linalg import EPS
from .serialize import (
    load_problem_file,
    trace_to_csv,
    trace_to_json,
    write_json_report,
)
from .solvers import (
    METHODS,
    TERMINATION_FEASIBLE,
    SolverConfig,
    run,
)

# Epigraph grid of the benchmark table: (beta, alpha) rows.
TABLE2_GRID = ((0.0, 2.0), (0.0, 3.0), (1.0, 1.5), (1.0, 2.0), (1.0, 3.0))
TABLE2_METHODS = ("map", "crm", "ccrm")


def _parse_z0(text, dim):
    values = [float(v) for v in text.split(",")]
    if len(values) != dim:
        raise ValueError(f"z0 has {len(values)} coordinates; the problem needs {dim}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"the point {text!r} has a non-finite coordinate")
    return np.asarray(values)


def _resolve_problem(selector):
    """Problem from a catalog name (with optional params) or a JSON file."""
    if selector.endswith(".json") or os.path.sep in selector or os.path.exists(selector):
        if not os.path.exists(selector):
            raise ValueError(f"problem file {selector!r} does not exist")
        return load_problem_file(selector)
    entry = catalog.resolve(selector)
    return entry.problem, entry.suggested_z0


def _fmt(value):
    return f"{value:.2e}"


def _classification_label(report):
    if report.constant is not None and report.classification == RATE_LINEAR:
        return f"linear (c={report.constant:.3f})"
    if report.constant is not None and report.classification == RATE_QUADRATIC:
        return f"quadratic (C={report.constant:.3f})"
    return report.classification


def cmd_solve(args):
    problem, z0 = _resolve_problem(args.problem)
    if args.z0 != "default":
        z0 = _parse_z0(args.z0, problem.dim)
    if z0 is None:
        raise ValueError("the problem file has no z0; pass --z0")
    config = SolverConfig(method=args.method, max_iter=args.max_iter, tol_feas=args.tol)
    trace = run(problem, config, z0)

    if args.out:
        if args.out.endswith(".json"):
            trace_to_json(trace, args.out)
        else:
            trace_to_csv(trace, args.out)
    if args.report:
        report_data = {
            "termination": trace.termination,
            "termination_detail": trace.termination_detail,
            "iterations": trace.n_steps,
            "pass_flags": {"feasible": trace.termination == TERMINATION_FEASIBLE},
        }
        try:
            distances = trace_reference_distances(trace, problem)
            scale = 1.0 + float(np.linalg.norm(trace.final))
            report = rate_report(distances, scale=scale)
            report_data.update(report.to_dict())
        except ValueError as exc:
            report_data["rate_error"] = str(exc)
        write_json_report(args.report, report_data)

    print(
        f"{args.method} on {args.problem}: {trace.termination} after "
        f"{trace.n_steps} steps, final residual {_fmt(float(trace.residuals[-1]))}"
    )
    if trace.termination_detail:
        print(f"  {trace.termination_detail}")
    return 0 if trace.termination == TERMINATION_FEASIBLE else 2


def cmd_table1(args):
    entry = catalog.resolve("discs3d")
    config = SolverConfig(method="ccrm", max_iter=5, tol_feas=1e-300)
    trace = run(entry.problem, config, entry.suggested_z0)
    d = trace.distances_to_reference

    print("cCRM on the two-disc problem, distances to the reference solution")
    print(f"{'k':>2}  {'|z^k - ref|':>12}  {'|z^k+1 - ref|':>13}  {'lin ratio':>10}  {'quad ratio':>10}")
    rows = []
    for k in range(5):
        lin = d[k + 1] / d[k]
        quad = d[k + 1] / d[k] ** 2
        rows.append((k, d[k], d[k + 1], lin, quad))
        if k == 4:
            print(f"{k:>2}  {_fmt(d[k]):>12}  {_fmt(d[k + 1]):>13}  {'n/a':>10}  {'n/a':>10}  *")
        else:
            print(f"{k:>2}  {_fmt(d[k]):>12}  {_fmt(d[k + 1]):>13}  {_fmt(lin):>10}  {quad:>10.3f}")
    print("*  the true distance at k=5 lies below the double-precision floor,")
    print("   so the k=4 ratios are not representable; see the CSV for raw values.")

    if args.out:
        lines = ["k,dist_k,dist_k1,linear_ratio,quad_ratio"]
        for k, dk, dk1, lin, quad in rows:
            lines.append(f"{k},{float(dk)!r},{float(dk1)!r},{float(lin)!r},{float(quad)!r}")
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _table2_floor(alpha, beta):
    # Tangential contact (beta = 0) freezes the step once the projection
    # correction alpha*x^(2a-2) falls under machine epsilon; ratios within
    # a factor ~30 of that abscissa are quantization noise, not rate.
    if beta > 0.0:
        return None
    return 30.0 * (EPS / (2.0 * alpha)) ** (1.0 / (2.0 * alpha - 2.0))


def table2_cell(alpha, beta, method, variant):
    """Observed rate report for one cell of the epigraph benchmark grid."""
    entry = catalog.make_epigraph(alpha, beta, y_variant=variant)
    if beta == 0.0:
        max_iter = 3000 if method == "map" else 300
        config = SolverConfig(method=method, max_iter=max_iter, tol_feas=1e-300)
    else:
        config = SolverConfig(method=method, max_iter=500, tol_feas=1e-13)
    trace = run(entry.problem, config, entry.suggested_z0)
    distances = trace_reference_distances(trace, entry.problem)
    scale = 1.0 + float(np.linalg.norm(entry.problem.reference_solution))
    return rate_report(distances, scale=scale, floor=_table2_floor(alpha, beta))


def cmd_table2(args):
    print("Observed convergence rates for the power-epigraph family")
    header = f"{'beta':>5} {'alpha':>5} {'variant':>9}  {'MAP':<18} {'CRM':<22} {'cCRM':<22}"
    print(header)
    lines = ["beta,alpha,variant,method,classification,constant,order"]
    for beta, alpha in TABLE2_GRID:
        for variant in catalog.EPIGRAPH_VARIANTS:
            labels = []
            for method in TABLE2_METHODS:
                report = table2_cell(alpha, beta, method, variant)
                labels.append(_classification_label(report))
                constant = "" if report.constant is None else repr(report.constant)
                lines.append(
                    f"{beta},{alpha},{variant},{method},{report.classification},"
                    f"{constant},{report.order_estimate!r}"
                )
            print(
                f"{beta:>5} {alpha:>5} {variant:>9}  "
                f"{labels[0]:<18} {labels[1]:<22} {labels[2]:<22}"
            )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_diagnose(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    problem, _ = _resolve_problem(args.problem)
    if args.point != "reference":
        point = _parse_z0(args.point, problem.dim)
    elif problem.reference_solution is not None:
        point = problem.reference_solution
    else:
        raise ValueError("the problem has no reference point; pass --point")

    report = {"problem": args.problem, "point": [float(v) for v in point]}
    kappas = {}
    for label, oracle in (("kappa_x", problem.X), ("kappa_y", problem.Y)):
        try:
            kappas[label] = curvature(oracle, point).kappa
            report[label] = kappas[label]
        except (RegularityError, UnsupportedOperation, ValueError) as exc:
            report[label] = None
            report[label + "_error"] = str(exc)

    try:
        omega = report["omega_estimate"] = estimate_omega(problem, point, seed=args.seed)
    except (UnsupportedOperation, ValueError) as exc:
        omega, report["omega_estimate"], report["omega_error"] = None, None, str(exc)
    if kappas and omega is not None:
        kappa = max(kappas.values())
        report["quad_constant_bound"] = 4.0 * kappa / omega
        report["quad_constant_sharper"] = kappa / omega

    if args.out:
        write_json_report(args.out, report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ccrm",
        description="Convex feasibility by circumcentered reflections: "
        "solvers, benchmark tables, and rate diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a solver on a catalog or JSON problem")
    p_solve.add_argument("--problem", required=True, help="catalog name (name:key=val,...) or JSON file")
    p_solve.add_argument("--method", default="ccrm", choices=METHODS)
    p_solve.add_argument("--z0", default="default", help="comma-separated start, or 'default'")
    p_solve.add_argument("--tol", type=float, default=SolverConfig.tol_feas, help="feasibility tolerance")
    p_solve.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p_solve.add_argument("--out", help="trace output (.csv or .json)")
    p_solve.add_argument("--report", help="rate report output (.json)")
    p_solve.set_defaults(func=cmd_solve)

    p_t1 = sub.add_parser("table1", help="disc-problem distance table")
    p_t1.add_argument("--out", help="CSV output path")
    p_t1.set_defaults(func=cmd_table1)

    p_t2 = sub.add_parser("table2", help="epigraph rate grid (3 methods x 5 instances x 2 variants)")
    p_t2.add_argument("--out", help="CSV output path")
    p_t2.set_defaults(func=cmd_table2)

    p_diag = sub.add_parser("diagnose", help="curvatures, error-bound estimate, rate constants")
    p_diag.add_argument("--problem", required=True)
    p_diag.add_argument("--point", default="reference", help="comma-separated point, or 'reference'")
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--out", help="JSON output path")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConvergenceError) else 1


if __name__ == "__main__":
    sys.exit(main())
