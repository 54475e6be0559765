"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions hold (pytest
reports FAIL otherwise), so a verbose run doubles as the acceptance
checklist.
"""

import time

import numpy as np
import pytest

from ccrm.catalog import (
    make_discs3d,
    make_ellipses,
    make_epigraph,
    make_eq_constrained_ellipsoids,
    make_fixed_trace,
    make_sdp_feasibility,
)
from ccrm.cli import TABLE2_GRID, table2_cell
from ccrm.diagnostics import (
    RATE_LINEAR,
    RATE_QUADRATIC,
    RATE_SUBLINEAR,
    RATE_SUPERLINEAR,
    curvature,
    estimate_omega,
    rate_report,
    trace_reference_distances,
)
from ccrm.linalg import least_squares_min_norm, vec_to_sym
from ccrm.sets import Ball, Ellipsoid
from ccrm.solvers import (
    SolverConfig,
    ccrm_step,
    epigraph_scalar_step,
    isometry_reduce,
    run,
)

from helpers import dykstra_project, oracle_zoo, sample_epigraph_lens, sample_lens_point


def _report(criterion, detail=""):
    print(f"[acceptance] criterion {criterion}: PASS {detail}")


# -- criterion 1: disc-problem distance table ---------------------------------

def test_criterion_1_disc_distance_table():
    entry = make_discs3d()
    t0 = time.perf_counter()
    trace = run(
        entry.problem, SolverConfig(method="ccrm", max_iter=5, tol_feas=1e-300),
        entry.suggested_z0,
    )
    elapsed = time.perf_counter() - t0
    d = trace.distances_to_reference
    expected = [3.54, 9.24e-2, 3.70e-3, 7.51e-6, 3.13e-11]
    for k, exp in enumerate(expected):
        assert abs(d[k] - exp) <= 1e-2 * exp, f"distance k={k}"
    quad = d[1:] / d[:-1] ** 2
    for k, exp in zip((1, 2, 3), (0.433, 0.549, 0.555)):
        assert abs(quad[k] - exp) <= 0.01, f"quad ratio k={k}"
    # the k=4 quadratic ratio is excluded: the k=5 distance (5.45e-22 in
    # exact arithmetic) lies below the double-precision floor
    assert d[5] <= 1e3 * np.finfo(float).eps * (1.0 + np.linalg.norm(d))
    assert elapsed < 1.0
    _report(1, f"(distances to 1%, ratios to 0.01, {elapsed * 1e3:.0f} ms)")


# -- criterion 2: epigraph rate grid -------------------------------------------

def test_criterion_2_epigraph_rate_grid():
    t0 = time.perf_counter()
    for beta, alpha in TABLE2_GRID:
        for variant in ("halfplane", "line"):
            got = {m: table2_cell(alpha, beta, m, variant) for m in ("map", "crm", "ccrm")}
            cell = f"beta={beta} alpha={alpha} {variant}"
            if beta == 0.0:
                assert got["map"].classification == RATE_SUBLINEAR, cell
                for m in ("crm", "ccrm"):
                    assert got[m].classification == RATE_LINEAR, cell
                    assert abs(got[m].constant - (1.0 - 1.0 / alpha)) <= 0.01, cell
            else:
                assert got["map"].classification == RATE_LINEAR, cell
                if alpha >= 2.0:
                    assert got["ccrm"].classification == RATE_QUADRATIC, cell
                else:
                    # guaranteed superlinear; the observed limit is the lens
                    # corner, where the boundary is smooth, so the measured
                    # class can be quadratic (which implies superlinear)
                    assert got["ccrm"].classification in (
                        RATE_SUPERLINEAR, RATE_QUADRATIC,
                    ), cell
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"(5x3 grid, both variants, {elapsed:.1f} s)")


# -- criterion 3: quadratic-constant bounds -------------------------------------

def test_criterion_3_quadratic_constant_bounds():
    entry = make_discs3d()
    problem = entry.problem
    zbar = problem.reference_solution
    kappa_x = curvature(problem.X, zbar).kappa
    kappa_y = curvature(problem.Y, zbar).kappa
    kappa = max(kappa_x, kappa_y)
    assert abs(kappa - 0.5) <= 1e-8

    omega = estimate_omega(problem, zbar, samples_per_radius=200, seed=0)
    assert 0.0 < omega <= 1.0

    trace = run(problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    dists = np.array(
        [
            np.linalg.norm(z - dykstra_project([problem.X, problem.Y], z, tol=1e-13))
            for z in trace.iterates
        ]
    )
    report = rate_report(dists, scale=1.0 + float(np.linalg.norm(zbar)))
    assert report.classification == RATE_QUADRATIC
    observed = report.quad_ratios[-1]
    assert observed <= (kappa / omega) * 1.10
    assert observed <= 4.0 * kappa / omega
    _report(3, f"(observed {observed:.3f} <= {kappa / omega:.3f} * 1.1, omega_est {omega:.3f})")


# -- criterion 4: curvature suite ------------------------------------------------

def test_criterion_4_curvature_suite():
    for r in (0.5, 1.0, 2.0, 5.0):
        ball = Ball([0.0, 0.0, 0.0], r)
        for t in (0.0, 1.1, 2.5):
            z = np.array([r * np.cos(t), r * np.sin(t), 0.0])
            assert abs(curvature(ball, z).kappa - 1.0 / r) <= 1e-8

    E = Ellipsoid(np.diag([0.25, 1.0]))
    for t in np.linspace(0.05, 2.0 * np.pi, 20, endpoint=False):
        z = np.array([2.0 * np.cos(t), np.sin(t)])
        formula = 2.0 / (4.0 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5
        assert abs(curvature(E, z).kappa - formula) <= 1e-8

    class Scaled(Ellipsoid):
        def __init__(self, c):
            super().__init__(np.diag([0.25, 1.0]))
            self._c = c

        def _boundary(self, z):
            return tuple(self._c * part for part in super()._boundary(z))

    rng = np.random.default_rng(101)
    z = np.array([2.0 * np.cos(0.8), np.sin(0.8)])
    want = curvature(E, z).kappa
    for _ in range(50):
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        assert abs(curvature(Scaled(c), z).kappa - want) <= 1e-8 * max(1.0, want)
    _report(4, "(balls, 20 ellipse points, 50 random rescalings)")


# -- criterion 5: randomized property suites -------------------------------------

def test_criterion_5a_projection_properties():
    rng = np.random.default_rng(211)
    zoo = oracle_zoo(rng)
    count = 0
    while count < 1000:
        oracle, dim = zoo[count % len(zoo)]
        z1 = rng.normal(size=dim) * 3.0
        z2 = rng.normal(size=dim) * 3.0
        p1 = oracle.project(z1)
        p2 = oracle.project(z2)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(z1 - z2) + 1e-10
        assert np.linalg.norm(oracle.project(p1) - p1) <= 1e-10
        s = oracle.project(rng.normal(size=dim) * 2.0)
        assert float((z1 - p1) @ (s - p1)) <= 1e-10
        count += 1
    _report("5a", "(nonexpansive, idempotent, obtuse-angle: 1000 cases)")


def test_criterion_5b_fejer_decrease_and_chain():
    rng = np.random.default_rng(223)
    s15 = np.sqrt(15.0)
    disc_entry = make_discs3d()
    epi_entry = make_epigraph(2.0, 1.0)
    centers = (np.array([0.0, 0.0, 0.0]), np.array([s15, 0.0, 0.0]))
    count = 0
    while count < 1000:
        if count % 2 == 0:
            prob = disc_entry.problem
            z = rng.normal(size=3) * 3.0 + np.array([s15 / 2.0, 0.0, 0.0])
            s = sample_lens_point(rng, centers, 2.0)
        else:
            prob = epi_entry.problem
            z = rng.normal(size=2) * 3.0
            s = sample_epigraph_lens(rng, 2.0, 1.0)
        w = prob.X.project(z)
        yw = prob.Y.project(w)
        z_next, z_c = ccrm_step(prob, z)
        dz = np.linalg.norm(z - s)
        dc = np.linalg.norm(z_c - s)
        dy = np.linalg.norm(yw - s)
        dn = np.linalg.norm(z_next - s)
        step = np.linalg.norm(z - z_next)
        assert dn**2 <= dz**2 - 0.125 * step**2 + 1e-9
        assert dn <= dc + 1e-9 and dc <= dy + 1e-9 and dy <= dz + 1e-9
        count += 1
    _report("5b", "(Fejer decrease with 1/8 step term + monotone chain: 1000 cases)")


def test_criterion_5c_tangent_hyperplane_identity():
    # where the centralized point is outside both sets, the step equals the
    # projection onto the intersection of the two tangent hyperplanes
    rng = np.random.default_rng(227)
    s15 = np.sqrt(15.0)
    disc_entry = make_discs3d()
    epi_entry = make_epigraph(2.0, 1.0)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 50000:
        attempts += 1
        if attempts % 2 == 0:
            prob = disc_entry.problem
            z = np.array([s15 / 2.0, 0.5, 0.0]) + rng.normal(size=3) * np.array([0.6, 0.8, 0.4])
        else:
            prob = epi_entry.problem
            z = np.array([1.0, 0.0]) + rng.normal(size=2) * np.array([1.0, 0.8])
        w = prob.X.project(z)
        yw = prob.Y.project(w)
        z_c = 0.5 * (yw + prob.X.project(yw))
        px = prob.X.project(z_c)
        py = prob.Y.project(z_c)
        n_x = z_c - px
        n_y = z_c - py
        if np.linalg.norm(n_x) <= 1e-9 or np.linalg.norm(n_y) <= 1e-9:
            continue
        z_next, _ = ccrm_step(prob, z)
        A = np.stack([n_x, n_y])
        b = np.array([n_x @ px, n_y @ py])
        w_star = z_c + least_squares_min_norm(A, b - A @ z_c)
        assert np.linalg.norm(z_next - w_star) <= 1e-8
        checked += 1
    assert checked >= 1000
    _report("5c", f"(tangent-hyperplane identity: {checked} cases)")


def test_criterion_5d_fejer_factor_two_bound():
    rng = np.random.default_rng(229)
    entry = make_epigraph(2.0, 0.0)
    checked = 0
    # isolated intersection: distance to the solution set is the norm
    for _ in range(60):
        x0 = 0.05 + rng.random()
        trace = run(
            entry.problem, SolverConfig(method="ccrm", max_iter=25, tol_feas=1e-300),
            np.array([x0, 0.0]),
        )
        for z in trace.iterates:
            gap = np.linalg.norm(z - np.zeros(2))
            dist = np.linalg.norm(z)
            assert gap <= 2.0 * dist + 1e-9
            checked += 1
    disc = make_discs3d()
    for _ in range(8):
        z0 = disc.suggested_z0 + rng.normal(size=3) * np.array([0.5, 1.0, 0.5])
        trace = run(disc.problem, SolverConfig(method="ccrm"), z0)
        zbar = trace.final
        for z in trace.iterates:
            dist = np.linalg.norm(
                z - dykstra_project([disc.problem.X, disc.problem.Y], z, tol=1e-13)
            )
            assert np.linalg.norm(z - zbar) <= 2.0 * dist + 1e-9
            checked += 1
    assert checked >= 1000
    _report("5d", f"(factor-two bound along traces: {checked} iterate checks)")


def test_criterion_5e_hull_trapping():
    rng = np.random.default_rng(233)
    entries = [make_discs3d(), make_fixed_trace(), make_eq_constrained_ellipsoids()]
    checked = 0
    for entry in entries:
        hull = entry.problem.common_hull
        dim = entry.problem.dim
        for _ in range(30):
            z0 = entry.suggested_z0 + rng.normal(size=dim) * 0.5
            for method in ("ccrm", "map"):
                trace = run(
                    entry.problem,
                    SolverConfig(method=method, max_iter=12, tol_feas=1e-14),
                    z0,
                )
                for z in trace.iterates[1:]:
                    assert np.linalg.norm(hull.A @ z - hull.b) <= 1e-9
                    checked += 1
    assert checked >= 1000
    _report("5e", f"(iterates confined to the hull: {checked} checks)")


def test_criterion_5f_isometry_reduction_equivalence():
    rng = np.random.default_rng(239)
    entry = make_discs3d()
    red, hull = isometry_reduce(entry.problem), entry.problem.common_hull
    compared = 0
    for _ in range(260):
        z0 = entry.suggested_z0 + rng.normal(size=3) * np.array([0.8, 1.5, 0.8])
        ambient = run(
            entry.problem, SolverConfig(method="ccrm", max_iter=14, tol_feas=1e-300),
            z0,
        )
        if ambient.n_steps < 2:
            continue
        start = hull.to_local(ambient.iterates[1])
        reduced = run(
            red,
            SolverConfig(method="ccrm", max_iter=ambient.n_steps - 1, tol_feas=1e-300),
            start,
        )
        for k in range(reduced.iterates.shape[0]):
            back = hull.from_local(reduced.iterates[k])
            assert np.linalg.norm(back - ambient.iterates[k + 1]) <= 1e-10
            compared += 1
    assert compared >= 1000
    _report("5f", f"(ambient/reduced iterate agreement: {compared} comparisons)")


def test_criterion_5g_halfplane_line_variant_identity():
    rng = np.random.default_rng(241)
    compared = 0
    for _ in range(150):
        alpha = 1.0 + 3.0 * rng.random()
        beta = rng.choice([0.0, rng.random()])
        x0 = 0.1 + 2.0 * rng.random()
        halfplane = make_epigraph(alpha, beta, y_variant="halfplane")
        line = make_epigraph(alpha, beta, y_variant="line")
        config = SolverConfig(method="ccrm", max_iter=12, tol_feas=1e-300)
        t1 = run(halfplane.problem, config, np.array([x0, 0.0]))
        t2 = run(line.problem, config, np.array([x0, 0.0]))
        n = min(t1.iterates.shape[0], t2.iterates.shape[0])
        for k in range(n):
            assert np.linalg.norm(t1.iterates[k] - t2.iterates[k]) <= 1e-12
            compared += 1
    assert compared >= 1000
    _report("5g", f"(halfplane vs line variant identity: {compared} iterates)")


# -- criterion 6: scalar recurrence equivalence -----------------------------------

def test_criterion_6_scalar_recurrence():
    rng = np.random.default_rng(251)
    checked = 0
    while checked < 100:
        alpha = 1.0 + 3.0 * rng.random()
        x = rng.random()
        if x <= 1e-8:
            continue
        entry = make_epigraph(alpha, 0.0)
        x_next, _ = epigraph_scalar_step(alpha, x)
        z_next, _ = ccrm_step(entry.problem, np.array([x, 0.0]))
        assert abs(z_next[0] - x_next) <= 1e-10
        assert abs(z_next[1]) <= 1e-10
        checked += 1
    for alpha in (1.5, 2.0, 3.0, 4.0):
        x_star = 10.0 ** (-10.0 / (2.0 * alpha - 2.0))
        x_next, _ = epigraph_scalar_step(alpha, x_star)
        assert abs(x_next / x_star - (1.0 - 1.0 / alpha)) <= 1e-3
    _report(6, "(scalar vs planar step to 1e-10: 100 pairs; limit ratios to 1e-3)")


# -- criterion 7: matrix problems at desk scale ------------------------------------

def test_criterion_7_matrix_problems():
    for entry, n in ((make_sdp_feasibility(), 3), (make_fixed_trace(), 4)):
        t0 = time.perf_counter()
        trace = run(
            entry.problem, SolverConfig(method="ccrm", tol_feas=1e-10, max_iter=200),
            entry.suggested_z0,
        )
        elapsed = time.perf_counter() - t0
        assert trace.termination == "feasible", entry.name
        assert trace.residuals[-1] <= 1e-10
        assert elapsed < 5.0, entry.name

        limit = vec_to_sym(trace.final)
        w = np.linalg.eigvalsh(limit)
        gap = w[-1] - w[-2]
        simple_leading = gap > 1e-6 * (1.0 + abs(w[-1]))
        tight = run(
            entry.problem, SolverConfig(method="ccrm", tol_feas=1e-13, max_iter=200),
            entry.suggested_z0,
        )
        d = trace_reference_distances(tight)
        if simple_leading:
            report = rate_report(d, scale=1.0 + float(np.linalg.norm(tight.final)))
            assert report.classification == RATE_QUADRATIC, entry.name
        else:  # pragma: no cover - not hit by the default instances
            print(f"[acceptance] {entry.name}: leading eigenvalue not simple, no rate claim")
    _report(7, "(sdp n=3 and fixed-trace n=4: feasible to 1e-10, quadratic tails)")
