import time

import numpy as np
import pytest

import ccrm.diagnostics

from ccrm.catalog import (
    make_discs3d,
    make_epigraph,
    make_eq_constrained_ellipsoids,
    make_fixed_trace,
    make_sdp_feasibility,
    make_socp,
    resolve,
)
from ccrm.diagnostics import (
    RATE_LINEAR,
    RATE_QUADRATIC,
    RATE_SUBLINEAR,
    RATE_SUPERLINEAR,
    curvature,
    estimate_omega,
    intersection_oracle,
    quad_constant_check,
    rate_report,
    trace_reference_distances,
)
from ccrm.errors import ConvergenceError, RegularityError
from ccrm.sets import (
    AffineSubspace,
    Ball,
    Cap,
    Ellipsoid,
    EmbeddedOracle,
    Halfspace,
    WRONG_OUTPUT_TOL,
    SecondOrderCone,
    _norm,
)
from ccrm.solvers import FeasibilityProblem, SolverConfig, isometry_reduce, run

from helpers import discs3d_lens, dykstra_project, fejer_bound_check, general_sdp, per_radius_estimate_omega
from helpers import tangent_bound_check, tool_module

BENCH_DISTANCES = np.array([3.54, 9.24e-2, 3.70e-3, 7.51e-6, 3.13e-11])


# --- rate classification ------------------------------------------------------

def test_rate_report_quadratic_benchmark_sequence():
    report = rate_report(BENCH_DISTANCES, scale=2.0)
    assert report.classification == RATE_QUADRATIC
    assert abs(report.constant - 0.555) <= 5e-3
    assert report.usable_range == (0, 5)


def test_rate_report_geometric_is_linear():
    report = rate_report(2.0 ** -np.arange(30))
    assert report.classification == RATE_LINEAR
    assert abs(report.constant - 0.5) <= 1e-12


def test_rate_report_doubly_exponential_is_quadratic_with_unit_constant():
    d = np.array([2.0 ** -(2.0**k) for k in range(6)])
    report = rate_report(d)
    assert report.classification == RATE_QUADRATIC
    assert abs(report.constant - 1.0) <= 1e-12


def test_rate_report_sublinear_ratios():
    # harmonic-like decay: ratios increase toward one
    d = 1.0 / np.sqrt(np.arange(1, 400))
    report = rate_report(d)
    assert report.classification == RATE_SUBLINEAR
    assert report.constant >= 0.98


def test_rate_report_superlinear_subquadratic():
    # order-1.5 decay: superlinear but quad ratios blow up
    d = [0.5]
    for _ in range(12):
        d.append(d[-1] ** 1.5)
    report = rate_report(np.array(d))
    assert report.classification == RATE_SUPERLINEAR
    assert 1.3 <= report.order_estimate <= 1.7


def test_rate_report_requires_three_usable():
    with pytest.raises(ValueError):
        rate_report([1.0, 1e-20, 1e-21])


@pytest.mark.parametrize(
    "d, message",
    [
        ([[1.0, 0.5, 0.25]], "expected a 1-d sequence of distances"),
        ([1.0, -0.5, 0.25], "distances must be finite and nonnegative"),
        ([1.0, np.nan, 0.25], "distances must be finite and nonnegative"),
        ([1.0, np.inf, 0.25], "distances must be finite and nonnegative"),
    ],
    ids=["2-d", "negative", "nan", "inf"],
)
def test_rate_report_refuses_bad_distances(d, message):
    with pytest.raises(ValueError) as info:
        rate_report(d)
    assert str(info.value) == message


def _window_by_loop(d, floor):
    """The usable window as rate_report found it by a Python loop: from the
    first entry above the floor up to the next one at or below it."""
    above = d > floor
    start = int(np.argmax(above)) if above.any() else 0
    stop = start
    while stop < d.shape[0] and above[stop]:
        stop += 1
    return start, stop


@pytest.mark.parametrize(
    "d",
    [
        [1.0, 0.5, 0.25, 0.125],  # all above the floor
        [1.0, 0.5, 0.25, 1e-20, 0.25, 0.125],  # a dip ends the window
        [1e-20, 0.0, 1.0, 0.5, 0.25, 1e-20],  # leading entries below the floor
        [0.0, 1.0, 0.5, 0.25],  # a leading zero, then the rest of the sequence
        [1.0, 0.5, 0.25, 1e-10],  # the last entry exactly at the floor is out
    ],
    ids=["all-above", "dip", "leading-below", "leading-zero", "at-floor"],
)
def test_rate_report_window_is_the_loops(d):
    d = np.array(d)
    report = rate_report(d, floor=1e-10)
    assert report.usable_range == _window_by_loop(d, 1e-10)
    start, stop = report.usable_range
    assert np.array_equal(report.linear_ratios, d[start + 1:stop] / d[start:stop - 1])


@pytest.mark.parametrize("d", [[1e-20, 1e-21, 0.0], [], [1.0, 0.5, 1e-20, 0.25, 0.125]],
                         ids=["none-above", "empty", "dip-after-two"])
def test_rate_report_window_too_short_raises(d):
    d = np.array(d, dtype=float)
    start, stop = _window_by_loop(d, 1e-10)
    with pytest.raises(ValueError, match=f"got {stop - start}$"):
        rate_report(d, floor=1e-10)


def test_rate_report_floor_excludes_tail():
    d = np.array([1.0, 1e-1, 1e-2, 1e-3, 1e-16, 1e-17])
    report = rate_report(d, scale=1.0)
    assert report.usable_range == (0, 4)


def test_trace_reference_distances_self_referenced():
    entry = make_discs3d()
    problem = FeasibilityProblem(entry.problem.X, entry.problem.Y)  # no reference
    trace = run(problem, SolverConfig(method="ccrm", tol_feas=1e-13), entry.suggested_z0)
    d = trace_reference_distances(trace)
    assert d.shape[0] == trace.iterates.shape[0] - 2
    # matches the analytic reference to the displayed precision
    assert abs(d[0] - 3.5355) <= 1e-3


# --- curvature -----------------------------------------------------------------

def test_curvature_ball_is_inverse_radius():
    for r in (0.5, 1.0, 2.0, 5.0):
        ball = Ball([0.0, 0.0, 0.0], r)
        z = np.array([r, 0.0, 0.0])
        assert abs(curvature(ball, z).kappa - 1.0 / r) <= 1e-8


def test_curvature_ellipse_axis_points():
    E = Ellipsoid(np.diag([0.25, 1.0]))
    assert abs(curvature(E, [2.0, 0.0]).kappa - 2.0) <= 1e-8
    assert abs(curvature(E, [0.0, 1.0]).kappa - 0.25) <= 1e-8


def test_curvature_halfspace_flat():
    hs = Halfspace([0.0, 1.0, 0.0], 0.0)
    assert curvature(hs, [3.0, 0.0, -1.0]).kappa == 0.0


@pytest.mark.filterwarnings("error")
def test_curvature_halfspace_flat_at_every_normal_scale():
    for scale in (1e200, 1e-200):
        hs = Halfspace([0.0, scale], 0.0)
        assert curvature(hs, [0.3, 0.0]).kappa == 0.0
        g, grad, _ = hs._boundary([0.3, 0.25])
        assert g == 0.25 and np.array_equal(grad, [0.0, 1.0])
    # the epigraph Y {y <= 0}: g is y itself, bit for bit
    hs = Halfspace([0.0, 1.0], 0.0)
    for z in ([0.3, 1e-7], [-2.0, -0.1], [1e150, -3e-300]):
        g, grad, _ = hs._boundary(z)
        assert g == z[1] and np.array_equal(grad, [0.0, 1.0])


def test_curvature_maximizing_direction_is_tangent():
    E = Ellipsoid(np.diag([0.25, 1.0]))
    val = curvature(E, [2.0, 0.0])
    assert abs(val.maximizing_direction @ np.array([1.0, 0.0])) <= 1e-10
    assert np.isclose(np.linalg.norm(val.maximizing_direction), 1.0)


def test_curvature_scale_invariance():
    # kappa does not depend on which function represents the boundary
    rng = np.random.default_rng(83)
    base = Ellipsoid(np.diag([0.25, 1.0]))

    class Scaled(Ellipsoid):
        def __init__(self, c):
            super().__init__(np.diag([0.25, 1.0]))
            self._c = c

        def _boundary(self, z):
            return tuple(self._c * part for part in super()._boundary(z))

    t = 0.9
    z = np.array([2.0 * np.cos(t), np.sin(t)])
    want = curvature(base, z).kappa
    for _ in range(20):
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        got = curvature(Scaled(c), z).kappa
        assert abs(got - want) <= 1e-8 * max(1.0, want)


def test_curvature_isometry_invariance():
    entry = make_discs3d()
    zbar = entry.problem.reference_solution
    ambient = curvature(entry.problem.X, zbar).kappa
    red = isometry_reduce(entry.problem)
    reduced = curvature(red.X, entry.problem.common_hull.to_local(zbar)).kappa
    assert abs(ambient - reduced) <= 1e-8
    assert abs(ambient - 0.5) <= 1e-8


def test_curvature_soc_apex_regularity_error():
    K = SecondOrderCone(3)
    with pytest.raises(RegularityError):
        curvature(K, [0.0, 0.0, 0.0])


def test_curvature_off_boundary_rejected():
    ball = Ball([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        curvature(ball, [0.5, 0.0])


def test_curvature_off_hull_rejected():
    # The descriptor of a hull-confined set reads only the point's hull
    # coordinates, so the lifted limit reported the limit's kappa_X 0.9549.
    entry = make_socp()
    limit = run(entry.problem, SolverConfig(tol_feas=1e-14), entry.suggested_z0).final
    normal = np.array([0.0, 1.0, 1.0, 1.0]) / np.sqrt(3.0)
    for oracle in (entry.problem.X, entry.problem.Y):
        curvature(oracle, limit)  # a limit on the hull to rounding passes
        with pytest.raises(ValueError, match="affine hull"):
            curvature(oracle, limit + 0.3 * normal)


def test_estimate_omega_off_hull_rejected():
    # Samples around the lifted limit measured the lift, not the error
    # bound: 50 samples per radius gave 0.965 there, and 0.392 at the limit.
    entry = make_socp()
    limit = run(entry.problem, SolverConfig(tol_feas=1e-14), entry.suggested_z0).final
    normal = np.array([0.0, 1.0, 1.0, 1.0]) / np.sqrt(3.0)
    assert 0.3 < estimate_omega(entry.problem, limit, samples_per_radius=50) < 0.5
    with pytest.raises(ValueError, match="not on the problem's common hull"):
        estimate_omega(entry.problem, limit + 0.3 * normal, samples_per_radius=50)
    # the tolerance is curvature's: 1e-9 (1 + ||z||)
    scale = 1e-9 * (1.0 + np.linalg.norm(limit))
    estimate_omega(entry.problem, limit + 0.5 * scale * normal, samples_per_radius=50)
    with pytest.raises(ValueError, match="not on the problem's common hull"):
        estimate_omega(entry.problem, limit + 2.0 * scale * normal, samples_per_radius=50)


# --- tangent bound -------------------------------------------------------------

def test_tangent_bound_flat_boundary():
    hs = Halfspace([0.0, 1.0], 0.0)
    p = np.array([0.0, 0.0])
    samples = [np.array([t, 0.0]) for t in np.linspace(-5.0, 5.0, 11)]
    report = tangent_bound_check(hs, p, samples)
    assert report.passed
    assert report.worst_ratio == 0.0


def test_tangent_bound_circle_matches_exact_geometry():
    ball = Ball([0.0, 0.0], 2.0)
    p = np.array([2.0, 0.0])
    ts = np.linspace(-0.15, 0.15, 21)
    samples = [np.array([2.0, t]) for t in ts if t != 0.0]
    report = tangent_bound_check(ball, p, samples)
    assert report.passed
    assert report.kappa == pytest.approx(0.5, abs=1e-10)
    # exact circle geometry: dist = hypot(2, t) - 2, ratio -> 1/4
    worst = max((np.hypot(2.0, t) - 2.0) / t**2 for t in ts if t != 0.0)
    assert report.worst_ratio == pytest.approx(worst, rel=1e-9)
    assert report.worst_ratio <= 0.5 * 1.1


def test_tangent_bound_ellipse_tip():
    E = Ellipsoid(np.diag([0.25, 1.0]))
    p = np.array([2.0, 0.0])
    samples = [np.array([2.0, t]) for t in np.linspace(-0.04, 0.04, 9) if t != 0.0]
    report = tangent_bound_check(E, p, samples)
    assert report.passed
    assert report.kappa == pytest.approx(2.0, abs=1e-8)


def test_tangent_bound_rejects_off_plane_samples():
    ball = Ball([0.0, 0.0], 2.0)
    with pytest.raises(ValueError):
        tangent_bound_check(ball, np.array([2.0, 0.0]), [np.array([2.1, 0.05])])


def test_tangent_bound_rejects_off_hull_and_far_samples():
    # a radius-2 disc of {z_3 = 0}: kappa = 1/2, so offsets up to 0.2 hold
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.0])
    disc = Ball([0.0, 0.0, 0.0], 2.0, plane)
    p = np.array([2.0, 0.0, 0.0])
    assert tangent_bound_check(disc, p, [np.array([2.0, 0.15, 0.0])]).passed
    with pytest.raises(ValueError, match="sample is not in the affine hull"):
        tangent_bound_check(disc, p, [np.array([2.0, 0.05, 0.01])])
    with pytest.raises(ValueError, match="sample offset exceeds the validity radius"):
        tangent_bound_check(disc, p, [np.array([2.0, 0.25, 0.0])])


def test_tangent_bound_at_a_zero_offset():
    ball = Ball([0.0, 0.0], 2.0)
    p = np.array([2.0, 0.0])
    report = tangent_bound_check(ball, p, [p])
    assert report.n_samples == 1 and report.worst_ratio == 0.0 and report.passed
    # a boundary point just outside the set is its own sample at a positive distance
    q = np.array([2.0 + 1e-9, 0.0])
    report = tangent_bound_check(ball, q, [q])
    assert report.n_samples == 1 and report.worst_ratio == np.inf and not report.passed


# --- error-bound estimation -----------------------------------------------------

def test_estimate_omega_identical_balls():
    ball1 = Ball([0.0, 0.0], 1.0)
    ball2 = Ball([0.0, 0.0], 1.0)
    prob = FeasibilityProblem(ball1, ball2)
    zbar = np.array([1.0, 0.0])
    omega = estimate_omega(prob, zbar, radii=(1e-1, 1e-2), samples_per_radius=100, seed=1)
    assert abs(omega - 1.0) <= 1e-6


def test_estimate_omega_orthogonal_halfspaces():
    prob = FeasibilityProblem(Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0))
    omega = estimate_omega(prob, np.zeros(2), samples_per_radius=200, seed=1)
    assert abs(omega - 1.0 / np.sqrt(2.0)) <= 0.02


def test_estimate_omega_deterministic_under_seed():
    prob = FeasibilityProblem(Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0))
    a = estimate_omega(prob, np.zeros(2), radii=(1e-2,), samples_per_radius=50, seed=7)
    b = estimate_omega(prob, np.zeros(2), radii=(1e-2,), samples_per_radius=50, seed=7)
    assert a == b


def test_estimate_omega_disc_problem_in_unit_interval():
    entry = make_discs3d()
    omega = estimate_omega(
        entry.problem,
        entry.problem.reference_solution,
        radii=(1e-1, 1e-2),
        samples_per_radius=60,
        seed=3,
    )
    assert 0.0 < omega <= 1.0 + 1e-9
    # the geometric constant at the lens corner is cos(phi/2) = 1/4, so the
    # sampled minimum lands well below one
    assert omega <= 0.9


@pytest.mark.parametrize(
    "make", [make_discs3d, make_socp, make_sdp_feasibility, make_fixed_trace],
    ids=["discs3d", "socp", "sdp", "fixed_trace"],
)
def test_estimate_omega_reuses_each_samples_x_projection(make, monkeypatch):
    # X's kernel runs once on every sample and once on the centre, whose
    # pair projection q anchors the bound L = d_X / (||w - q|| + margin) on
    # each ratio. One X projection per sample serves dist(z, X) and the
    # pair's s = 0 residual. The pair then runs on the samples of least L,
    # each at most once, up to the first L at or above the running minimum;
    # Y is read only on those. omega equals the unpruned minimum bitwise.
    # discs3d and socp solve X & Y in the hull's coordinates, and measure
    # there: X's projection is of v = B^T (z - a) onto X's own oracle in
    # those coordinates, dist(z, X) is ||P_X(v) - v||, and problem.X is
    # never called.
    entry = make()
    problem = entry.problem
    z_bar = run(problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
    oracle = intersection_oracle(problem)
    monkeypatch.setattr(ccrm.diagnostics, "intersection_oracle", lambda p: oracle)
    hull = problem.common_hull
    if isinstance(oracle, EmbeddedOracle):
        assert oracle.subspace is hull and make in (make_discs3d, make_socp)
        pair, in_hull = oracle.inner, True
    else:
        pair, in_hull = oracle, False
        assert pair.inner is problem.X
    radii, per_radius = (1e-1, 1e-2, 1e-3, 1e-4), 5
    rng, best, samples = np.random.default_rng(3), np.inf, []
    for rho in radii:
        directions = rng.normal(size=(per_radius, hull.subspace_dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        V = hull.to_local(z_bar) + rho * directions
        for z, v in zip(hull.anchor + V @ hull.basis.T, V):
            w = v if in_hull else z
            di = pair.distance(w)
            if di > 1e-12:
                dist_x = _norm(pair.inner.project(w) - w)
                best = min(best, max(dist_x, problem.Y.distance(z)) / di)
            samples.append((z, w))
    center = hull.to_local(z_bar) if in_hull else z_bar
    q = pair.project(center)
    margin = 2.0 * WRONG_OUTPUT_TOL
    bounds = [_norm(pair.inner.project(w) - w) / (_norm(w - q) + margin * max(1.0, _norm(w))) for _, w in samples]
    order = sorted(range(len(samples)), key=bounds.__getitem__)
    # The hook is X's kernel, which its own project calls, and so does a
    # cap's dual on shifted points; a lens calls it on the point it has
    # validated. The pair's hook is its own kernel.
    x_project, x_inputs, pair_inputs, y_inputs, ambient = pair.inner._project, [], [], [], []
    pair_given = pair._given
    pair.inner._project = lambda z, x: x_inputs.append(z.tobytes()) or x_project(z, x)
    pair._given = lambda z, zl, inner_z: pair_inputs.append(z.tobytes()) or pair_given(z, zl, inner_z)
    y_distance = problem.Y.distance
    problem.Y.distance = lambda z: y_inputs.append(z.tobytes()) or y_distance(z)
    if pair.inner is not problem.X:
        ambient_project = problem.X.project
        problem.X.project = lambda z: ambient.append(1) or ambient_project(z)
    omega = estimate_omega(problem, z_bar, radii=radii, samples_per_radius=per_radius, seed=3)
    assert omega == best
    assert ambient == []
    keys = [w.tobytes() for _, w in samples]
    assert x_inputs.count(center.tobytes()) == 1
    assert all(x_inputs.count(key) == 1 for key in keys)
    assert pair_inputs[0] == center.tobytes()
    evaluated = pair_inputs[1:]
    assert len(set(evaluated)) == len(evaluated) <= len(samples)
    assert set(evaluated) == {keys[i] for i in order[:len(evaluated)]}
    assert {keys[i] for i in order if bounds[i] < omega} <= set(evaluated)
    evaluated_z = {samples[keys.index(key)][0].tobytes() for key in evaluated}
    assert 0 < len(y_inputs) <= len(evaluated) and set(y_inputs) <= evaluated_z


@pytest.mark.parametrize("selector", ["discs3d", "socp", "sdp", "fixed_trace"])
def test_estimate_omega_skips_the_pair_on_samples_that_cannot_lower_omega(selector, monkeypatch):
    # At the default 200 samples on each of 4 radii, the unpruned sampler
    # ran the pair 800 times; the bound skips 30-47% of them (470, 556,
    # 463 and 422 runs, the centre's included).
    entry = resolve(selector)
    problem = entry.problem
    z_bar = run(problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
    oracle = intersection_oracle(problem)
    monkeypatch.setattr(ccrm.diagnostics, "intersection_oracle", lambda p: oracle)
    pair = oracle.inner if isinstance(oracle, EmbeddedOracle) else oracle
    pair_given, runs = pair._given, []
    pair._given = lambda z, zl, inner_z: runs.append(1) or pair_given(z, zl, inner_z)
    estimate_omega(problem, z_bar, seed=0)
    assert 1 < len(runs) < 800


def test_estimate_omega_samples_in_the_common_hull(monkeypatch):
    # Every sample z where Y's residual is read (each one outside X & Y)
    # lies in aff(X) = aff(Y).
    for make in (make_discs3d, make_socp, make_sdp_feasibility, make_fixed_trace):
        entry = make()
        problem = entry.problem
        z_bar = run(problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
        hull, samples = problem.common_hull, []
        y_distance = problem.Y.distance
        monkeypatch.setattr(problem.Y, "distance", lambda z: samples.append(z) or y_distance(z))
        estimate_omega(problem, z_bar, samples_per_radius=10, seed=1)
        assert 0 < len(samples) <= 40
        assert all(hull.distance(z) <= 1e-12 * (1.0 + _norm(z)) for z in samples)


def test_estimate_omega_projector_path_matches_the_hull_path():
    # discs3d's closed-form lens, as a projector, measures ambiently on the
    # same in-hull samples that the default path measures in the hull's
    # coordinates.
    entry = make_discs3d()
    z_bar = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
    for seed in range(8):
        omega = estimate_omega(entry.problem, z_bar, samples_per_radius=4, seed=seed)
        lens = estimate_omega(entry.problem, z_bar, samples_per_radius=4, seed=seed, projector=discs3d_lens)
        assert abs(lens - omega) <= 1e-12 * omega


def _hull_unit_normal(oracle, z, hull):
    """The unit normal of ``oracle``'s boundary descriptor at z, projected
    onto the linear part of ``hull`` (None: the whole space)."""
    _, grad, _ = oracle._boundary(z)
    if hull is not None:
        grad = hull.basis @ (hull.basis.T @ grad)
    return grad / np.linalg.norm(grad)


@pytest.mark.parametrize(
    "selector, omega_lin",
    [("discs3d", 0.2500), ("socp", 0.3418), ("sdp", 0.1378), ("fixed_trace", 0.0508),
     ("epigraph:a=2,b=1", 0.5257)],
)
def test_estimate_omega_is_near_the_linearized_constant(selector, omega_lin):
    # At the cCRM limit both boundaries are active; along the bisector of
    # their unit normals n_X, n_Y, projected into the common hull, the ratio
    # tends to sqrt((1 + <n_X, n_Y>) / 2). The in-hull sampler stays above
    # it and within 2% of it; the ambient one read +15% (discs3d) to +66%
    # (fixed_trace).
    entry = resolve(selector)
    problem = entry.problem
    z_bar = run(problem, SolverConfig(method="ccrm", tol_feas=1e-15), entry.suggested_z0).final
    hull = problem.common_hull
    n_x, n_y = (_hull_unit_normal(oracle, z_bar, hull) for oracle in (problem.X, problem.Y))
    linearized = np.sqrt((1.0 + n_x @ n_y) / 2.0)
    assert abs(linearized - omega_lin) <= 5e-5
    omega = estimate_omega(problem, z_bar, samples_per_radius=800, seed=0)
    assert linearized - 1e-12 <= omega <= 1.02 * linearized


@pytest.mark.parametrize("selector", tool_module("corpus").SELECTORS)
def test_estimate_omega_is_the_per_radius_sampler_bit_for_bit(selector):
    # One draw for all radii and one sample block per radius give the
    # omega of a draw per radius, at every catalog problem's cCRM limit.
    entry = resolve(selector)
    z_bar = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
    for seed in range(4):
        try:
            expected = per_radius_estimate_omega(entry.problem, z_bar, samples_per_radius=25, seed=seed)
        except ConvergenceError:  # the epigraph of x^2 and its tangent cut
            with pytest.raises(ConvergenceError):
                estimate_omega(entry.problem, z_bar, samples_per_radius=25, seed=seed)
            continue
        omega = estimate_omega(entry.problem, z_bar, samples_per_radius=25, seed=seed)
        assert omega.hex() == expected.hex()


def test_estimate_omega_raises_fast_on_a_tangent_intersection():
    # The epigraph of x^2 touches {y <= 0} at the origin only. Dykstra
    # spent its 100 000 cycles (2.7 s) on the first sample; the cap's
    # hyperplane tangent test stops it within a few dual steps.
    entry = make_epigraph(2.0, 0.0)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="tangent"):
        estimate_omega(entry.problem, entry.problem.reference_solution, samples_per_radius=4)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "kwargs",
    [{"samples_per_radius": 0}, {"samples_per_radius": -3}, {"samples_per_radius": 2.5},
     {"samples_per_radius": "4"}, {"radii": ()}, {"radii": (0.0,)}, {"radii": (1e-2, -1e-3)},
     {"radii": (np.nan,)}, {"radii": (np.inf,)}, {"radii": ("0.1",)}],
    ids=["zero-samples", "negative-samples", "float-samples", "string-samples", "no-radii",
         "zero-radius", "negative-radius", "nan-radius", "inf-radius", "string-radius"],
)
def test_estimate_omega_rejects_bad_sampling_arguments(kwargs):
    # The first three radius cases and zero samples reported "all samples
    # were inside the intersection"; a float sample count raised a bare
    # TypeError, and a negative radius was accepted.
    entry = make_discs3d()
    with pytest.raises(ValueError, match="radii|samples_per_radius"):
        estimate_omega(entry.problem, entry.problem.reference_solution, **kwargs)


def test_estimate_omega_takes_any_sequence_of_radii():
    entry = make_discs3d()
    args = (entry.problem, entry.problem.reference_solution)
    omega = estimate_omega(*args, radii=(1e-2, 1e-3), samples_per_radius=np.int64(20))
    assert estimate_omega(*args, radii=[1e-2, 1e-3], samples_per_radius=20) == omega


def test_estimate_omega_all_samples_excluded():
    ball = Ball([0.0, 0.0], 10.0)
    prob = FeasibilityProblem(ball, Ball([0.0, 0.0], 11.0))
    with pytest.raises(ValueError):
        estimate_omega(prob, np.zeros(2), radii=(1e-3,), samples_per_radius=10, seed=0)


# --- intersection distance and quadratic constant --------------------------------

def test_intersection_distance_prefers_projector():
    prob = FeasibilityProblem(Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0))
    z = np.array([1.0, 1.0])
    proj = lambda w: np.minimum(w, 0.0)
    assert np.linalg.norm(proj(z) - z) == pytest.approx(np.sqrt(2.0))
    assert intersection_oracle(prob).distance(z) == pytest.approx(np.sqrt(2.0), abs=1e-9)


def _socp():
    entry = make_socp()
    return entry.problem, entry.suggested_z0


def _eq_ellipsoids():
    entry = make_eq_constrained_ellipsoids()
    return entry.problem, entry.suggested_z0


def _general_sdp():
    return general_sdp()


@pytest.mark.parametrize("make", [_socp, _eq_ellipsoids, _general_sdp])
def test_intersection_distance_matches_flat_reference_near_limit(make):
    problem, z0 = make()
    limit = run(problem, SolverConfig(method="ccrm"), z0).final
    leaves = []
    for oracle in (problem.X, problem.Y):
        members = [oracle.inner, oracle.cut] if isinstance(oracle, Cap) else [oracle]
        for leaf in members:
            if not any(leaf is seen for seen in leaves):
                leaves.append(leaf)
    rng = np.random.default_rng(61)
    for rho in (1e-1, 1e-2, 1e-3, 1e-4):
        for _ in range(4):
            s = rng.normal(size=problem.dim)
            z = limit + rho * s / np.linalg.norm(s)
            reference = np.linalg.norm(z - dykstra_project(leaves, z, tol=1e-15))
            assert abs(intersection_oracle(problem).distance(z) - reference) <= 1e-11


def test_quad_constant_check_disc_problem():
    entry = make_discs3d()
    trace = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    report = quad_constant_check(trace, entry.problem, omega=0.25, isolated=False)
    assert report.passed
    assert report.observed == pytest.approx(0.555, abs=5e-3)
    assert report.bound == pytest.approx(4.0 * 0.5 / 0.25)
    assert report.sharper_bound is None


def test_quad_constant_check_requires_constants():
    entry = make_discs3d()
    trace = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    with pytest.raises(ValueError):
        quad_constant_check(trace, entry.problem)  # omega unknown


def test_quad_constant_check_rejects_non_quadratic_trace():
    entry = make_discs3d()
    trace = run(
        entry.problem, SolverConfig(method="map", max_iter=400, tol_feas=1e-13),
        entry.suggested_z0,
    )
    with pytest.raises(ValueError):
        quad_constant_check(trace, entry.problem, omega=0.25)


def test_flat_pair_collapses_in_one_step():
    # two flat boundaries: curvatures vanish and the step is exact
    prob = FeasibilityProblem(Halfspace([0.0, 1.0], 0.0), Halfspace([1.0, 0.0], 0.0))
    trace = run(prob, SolverConfig(method="ccrm"), np.array([2.0, 3.0]))
    assert trace.termination == "feasible"
    assert trace.n_steps <= 2
    assert np.linalg.norm(np.minimum(trace.final, 0.0) - trace.final) <= 1e-12


# --- Fejer factor-two bound -------------------------------------------------------

def test_fejer_bound_isolated_intersection_equality():
    entry = make_epigraph(2.0, 0.0)
    trace = run(
        entry.problem, SolverConfig(method="ccrm", max_iter=40, tol_feas=1e-300),
        entry.suggested_z0,
    )
    projector = lambda z: np.zeros(2)
    report = fejer_bound_check(trace, projector, reference=np.zeros(2))
    assert report.passed
    assert report.worst_factor == pytest.approx(1.0, abs=1e-9)


def test_fejer_bound_disc_problem():
    entry = make_discs3d()
    trace = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    projector = lambda z: dykstra_project([entry.problem.X, entry.problem.Y], z, tol=1e-13)
    report = fejer_bound_check(trace, projector, reference=entry.problem.reference_solution)
    assert report.passed
    assert report.worst_factor <= 2.0 + 1e-9


def test_fejer_bound_constant_feasible_trace():
    prob = FeasibilityProblem(Halfspace([0.0, 1.0], 0.0), Halfspace([0.0, -1.0], 0.0))
    trace = run(prob, SolverConfig(method="ccrm"), np.array([0.4, 0.0]))
    report = fejer_bound_check(trace, lambda z: np.array([z[0], 0.0]))
    assert report.passed
    assert report.worst_violation <= 0.0 + 1e-12
