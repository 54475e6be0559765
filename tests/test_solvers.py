import numpy as np
import pytest

import ccrm.solvers
from ccrm import catalog
from ccrm.circumcenter import circumcenter
from ccrm.catalog import (
    make_discs3d,
    make_epigraph,
    make_fixed_trace,
    make_sdp_feasibility,
    make_socp,
)
from ccrm.errors import ConvergenceError, GeometryError, NonFiniteError, UnsupportedOperation
from ccrm.linalg import EPS
from ccrm.sets import AffineSubspace, Ball, Ellipsoid, EmbeddedOracle, Halfspace, IsometricImage
from ccrm.sets import PowerEpigraph, SetOracle, _row_norms, in_hull_coordinates
from ccrm.solvers import (
    METHODS,
    STATUS_CENTRALIZED_FEASIBLE,
    TERMINATION_FEASIBLE,
    TERMINATION_INNER_FAILURE,
    TERMINATION_MAX_ITER,
    TERMINATION_STAGNATION,
    FeasibilityProblem,
    SolverConfig,
    ccrm_step,
    crm_step,
    isometry_reduce,
    map_step,
    run,
)

from helpers import epigraph_scalar_step, reflection_ccrm_step, sample_lens_point, tool_module

corpus = tool_module("corpus")


def complementary_halfplanes():
    return FeasibilityProblem(Halfspace([0.0, 1.0], 0.0), Halfspace([0.0, -1.0], 0.0))


def test_ccrm_step_fixed_on_intersection():
    prob = complementary_halfplanes()
    z = np.array([0.7, 0.0])
    z_next, z_c = ccrm_step(prob, z)
    assert np.allclose(z_next, z, atol=1e-14)
    assert np.allclose(z_c, z, atol=1e-14)


def test_ccrm_step_complementary_halfplanes():
    prob = complementary_halfplanes()
    z_next, _ = ccrm_step(prob, np.array([0.0, 1.0]))
    assert np.allclose(z_next, [0.0, 0.0], atol=1e-14)


def test_ccrm_first_step_on_disc_problem():
    entry = make_discs3d()
    z_next, _ = ccrm_step(entry.problem, entry.suggested_z0)
    d1 = np.linalg.norm(z_next - entry.problem.reference_solution)
    assert abs(d1 - 9.24e-2) <= 1e-2 * 9.24e-2


def test_map_step_fixed_on_intersection():
    prob = complementary_halfplanes()
    z = np.array([-0.4, 0.0])
    assert np.allclose(map_step(prob, z), z)


def test_map_step_overlapping_halfplanes_single_step():
    prob = FeasibilityProblem(Halfspace([0.0, 1.0], 1.0), Halfspace([0.0, -1.0], 1.0))
    z = map_step(prob, np.array([2.0, 5.0]))
    assert prob.max_distance(z) <= 1e-14


def test_map_step_epigraph_matches_scalar_root():
    alpha = 2.0
    prob = FeasibilityProblem(PowerEpigraph(alpha, 0.0), Halfspace([0.0, 1.0], 0.0))
    x = 0.8
    z = map_step(prob, np.array([x, 0.0]))
    # independent root of u (1 + alpha u^(2 alpha - 2)) = x by bisection
    f = lambda u: u * (1.0 + alpha * u ** (2.0 * alpha - 2.0)) - x
    lo, hi = 0.0, x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    assert np.allclose(z, [0.5 * (lo + hi), 0.0], atol=1e-12)


def test_crm_step_fixed_on_intersection():
    prob = complementary_halfplanes()
    z = np.array([1.3, 0.0])
    assert np.allclose(crm_step(prob, z), z, atol=1e-14)


def test_crm_step_complementary_halfplanes():
    prob = complementary_halfplanes()
    assert np.allclose(crm_step(prob, np.array([0.0, 1.0])), [0.0, 0.0], atol=1e-14)


def test_crm_epigraph_ratio_approaches_limit():
    entry = make_epigraph(2.0, 0.0)
    z = np.array([0.02, 0.0])
    for _ in range(6):
        z = crm_step(entry.problem, z)
        assert abs(z[1]) <= 1e-15
    # per-step ratio near 1 - 1/alpha at small abscissa
    z_next = crm_step(entry.problem, z)
    assert abs(z_next[0] / z[0] - 0.5) <= 5e-3


def test_run_already_feasible():
    prob = complementary_halfplanes()
    trace = run(prob, SolverConfig(method="ccrm"), np.array([0.2, 0.0]))
    assert trace.termination == TERMINATION_FEASIBLE
    assert trace.iterates.shape[0] == 1


def test_run_disc_problem_matches_known_distances():
    entry = make_discs3d()
    trace = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    assert trace.termination == TERMINATION_FEASIBLE
    d = trace.distances_to_reference
    expected = [3.54, 9.24e-2, 3.70e-3, 7.51e-6]
    for k, exp in enumerate(expected):
        assert abs(d[k] - exp) <= 1e-2 * exp


def test_run_max_iter_termination():
    entry = make_discs3d()
    trace = run(
        entry.problem,
        SolverConfig(method="map", max_iter=3, tol_feas=1e-13),
        entry.suggested_z0,
    )
    assert trace.termination == TERMINATION_MAX_ITER
    assert trace.n_steps == 3


def test_run_stagnation_at_precision_floor():
    entry = make_epigraph(2.0, 0.0)
    trace = run(
        entry.problem,
        SolverConfig(method="ccrm", max_iter=300, tol_feas=1e-300),
        entry.suggested_z0,
    )
    assert trace.termination == TERMINATION_STAGNATION
    # the iterates stay on the axis and decrease geometrically until frozen
    assert np.all(np.abs(trace.iterates[:, 1]) <= 1e-15)
    assert trace.iterates[-1][0] <= 1e-7


@pytest.mark.filterwarnings("error")
def test_ccrm_step_past_the_float_range_ends_as_stagnation():
    # The projections' circumcenter (1.25e308, 6.25e304) is finite, the
    # doubled step 2 c - z_C is not.
    problem = FeasibilityProblem(Halfspace([0.0, 1.0], 0.0), Halfspace([-1e-3, -1.0], -2.5e305))
    trace = run(problem, SolverConfig(method="ccrm"), [0.0, 1e300])
    assert trace.termination == TERMINATION_STAGNATION
    assert trace.termination_detail == "the circumcenter lies beyond the float range"
    assert trace.n_steps == 0
    with pytest.raises(GeometryError, match="beyond the float range"):
        ccrm_step(problem, [0.0, 1e300])


class ShiftedOracle(SetOracle):
    """``inner``'s projection moved by a fixed offset: a stand-in for an
    oracle whose output lies within rounding of the set."""

    def __init__(self, inner, offset):
        super().__init__(inner.dim)
        self.inner, self.offset = inner, np.asarray(offset, dtype=float)

    def project(self, z):
        return self.inner.project(z) + self.offset


def test_ccrm_feasible_centralized_point_is_taken():
    # The first centralized point z_C = (-eps/2, 0) lies within eps of both
    # sets, and its reflections (3 eps/2, 0) and (-5 eps/2, 0) are collinear
    # with it, so the circumcenter system is inconsistent. The step returns
    # z_C instead of stagnating. (Exact projections no longer reach this
    # from the eq_ellipsoids starts that found it by rounding.)
    eps = 1e-14
    problem = FeasibilityProblem(
        ShiftedOracle(Halfspace([0.0, 1.0], 0.0), [eps, 0.0]),
        ShiftedOracle(Halfspace([1.0, 0.0], 0.0), [-eps, 0.0]),
    )
    z0 = np.array([2.0, 3.0])
    with pytest.raises(GeometryError):
        ccrm_step(problem, z0)
    trace = run(problem, SolverConfig(method="ccrm"), z0)
    assert trace.termination == TERMINATION_FEASIBLE
    assert trace.n_steps == 1
    assert trace.circum_statuses == [STATUS_CENTRALIZED_FEASIBLE]
    assert np.array_equal(trace.final, trace.centralized_points[0])
    assert np.array_equal(trace.final, [-0.5 * eps, 0.0])
    # at a feasibility tolerance the point cannot meet, it still stagnates
    floor = run(problem, SolverConfig(method="ccrm", tol_feas=1e-300), z0)
    assert floor.termination == TERMINATION_STAGNATION
    assert floor.n_steps == 0
    assert "inconsistent" in floor.termination_detail


def test_run_records_internals():
    entry = make_discs3d()
    trace = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    assert trace.centralized_points is not None
    assert trace.centralized_points.shape[0] == trace.n_steps
    assert len(trace.circum_statuses) == trace.n_steps

    crm = run(entry.problem, SolverConfig(method="crm"), entry.suggested_z0)
    assert crm.n_steps > 0
    assert len(crm.circum_statuses) == crm.n_steps
    assert crm.centralized_points is None

    map_ = run(entry.problem, SolverConfig(method="map"), entry.suggested_z0)
    assert map_.n_steps > 0
    assert map_.circum_statuses is None
    assert map_.centralized_points is None


def _count_projections(problem):
    """Wrap X.project and Y.project on the instances; returns the call counter."""
    calls = [0]
    for oracle in (problem.X, problem.Y):
        def project(z, _project=oracle.project):
            calls[0] += 1
            return _project(z)

        oracle.project = project
    return calls


# X/Y projections per step: the step's own projections once P_X(z) is
# reused, plus the new iterate's X residual and, except for MAP, whose
# iterate is P_Y's output, its Y residual.
PROJECTIONS_PER_STEP = {"ccrm": 6, "crm": 3, "map": 2}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("selector", corpus.SELECTORS)
def test_run_projects_each_iterate_once(selector, method):
    entry = catalog.resolve(selector)
    calls = _count_projections(entry.problem)
    config = SolverConfig(method=method)
    trace = run(entry.problem, config, entry.suggested_z0)
    # MAP's sublinear rate on the beta = 0 epigraphs ends at the cap
    capped = trace.n_steps == config.max_iter
    assert trace.termination == (TERMINATION_MAX_ITER if capped else TERMINATION_FEASIBLE)
    assert trace.n_steps > 0
    assert calls[0] == 2 + PROJECTIONS_PER_STEP[method] * trace.n_steps


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("selector", corpus.SELECTORS)
def test_run_matches_repeated_steps(selector, method):
    entry = catalog.resolve(selector)
    trace = run(entry.problem, SolverConfig(method=method, max_iter=200), entry.suggested_z0)
    step = {"ccrm": lambda p, z: ccrm_step(p, z)[0], "crm": crm_step, "map": map_step}[method]
    z = entry.suggested_z0
    for k in range(1, trace.n_steps + 1):
        z = step(entry.problem, z)
        assert np.array_equal(z, trace.iterates[k]), k


class FailingOracle(SetOracle):
    """Delegates to ``inner`` but fails its N-th project: raises
    ConvergenceError, or with ``nan`` returns a nan point."""

    def __init__(self, inner, fail_at, nan=False):
        super().__init__(inner.dim)
        self.inner = inner
        self.fail_at = fail_at
        self.nan = nan
        self.calls = 0

    def project(self, z):
        self.calls += 1
        if self.calls == self.fail_at:
            if self.nan:
                return np.full(self.dim, np.nan)
            raise ConvergenceError("inner solver gave up", residual=1.0)
        return self.inner.project(z)


@pytest.mark.parametrize("method", METHODS)
def test_inner_failure_keeps_partial_trace(method):
    entry = make_discs3d()
    full = run(entry.problem, SolverConfig(method=method), entry.suggested_z0)
    # X is projected once at the start and three (cCRM) or one (CRM, MAP)
    # times per step, so this call falls inside the second step.
    fail_at = 2 + {"ccrm": 3, "crm": 1, "map": 1}[method]
    failing = FeasibilityProblem(
        FailingOracle(entry.problem.X, fail_at), entry.problem.Y,
        reference_solution=entry.problem.reference_solution,
    )
    trace = run(failing, SolverConfig(method=method), entry.suggested_z0)
    assert trace.termination == TERMINATION_INNER_FAILURE
    assert trace.termination_detail == "inner solver gave up"
    assert trace.n_steps == 1 < full.n_steps
    assert np.array_equal(trace.iterates, full.iterates[: trace.n_steps + 1])
    assert np.array_equal(trace.residuals_x, full.residuals_x[: trace.n_steps + 1])
    assert trace.distances_to_reference.shape[0] == trace.n_steps + 1
    if method != "map":
        assert len(trace.circum_statuses) == trace.n_steps


@pytest.mark.parametrize("nan_at", range(2, 7))
@pytest.mark.parametrize("broken", ["X", "Y"])
@pytest.mark.parametrize("method", METHODS)
def test_non_finite_oracle_output_ends_run_as_inner_failure(method, broken, nan_at):
    # Depending on the call, the nan is the iterate (MAP), a point inside
    # the step or a residual; each ends the run with the trace so far.
    sets = {"X": Ball([0.0, 0.0], 2.0), "Y": Ball([3.5, 0.0], 2.0)}
    z0 = [1.0, 5.0]
    full = run(FeasibilityProblem(**sets), SolverConfig(method=method), z0)
    sets[broken] = FailingOracle(sets[broken], nan_at, nan=True)
    trace = run(FeasibilityProblem(**sets), SolverConfig(method=method), z0)
    assert trace.termination == TERMINATION_INNER_FAILURE
    assert trace.termination_detail.startswith(f"iterate {trace.n_steps + 1}: ")
    assert "non-finite" in trace.termination_detail
    assert trace.n_steps < full.n_steps
    assert np.array_equal(trace.iterates, full.iterates[: trace.n_steps + 1])
    assert np.array_equal(trace.residuals_x, full.residuals_x[: trace.n_steps + 1])
    assert np.array_equal(trace.residuals_y, full.residuals_y[: trace.n_steps + 1])


def test_inner_failure_at_start_propagates():
    entry = make_discs3d()
    failing = FeasibilityProblem(FailingOracle(entry.problem.X, fail_at=1), entry.problem.Y)
    with pytest.raises(ConvergenceError):
        run(failing, SolverConfig(), entry.suggested_z0)
    nan_y = FeasibilityProblem(entry.problem.X, FailingOracle(entry.problem.Y, 1, nan=True))
    with pytest.raises(NonFiniteError):
        run(nan_y, SolverConfig(), entry.suggested_z0)


def test_run_trace_residuals_consistent():
    entry = make_discs3d()
    X, Y = entry.problem.X, entry.problem.Y
    for method in METHODS:
        trace = run(entry.problem, SolverConfig(method=method), entry.suggested_z0)
        assert trace.residuals[-1] <= 1e-12
        for k, z in enumerate(trace.iterates):
            assert trace.residuals_x[k] == X.distance(z), (method, k)
            if method != "map" or k == 0:
                assert trace.residuals_y[k] == Y.distance(z), (method, k)
        if method == "map":  # taken from the step, which lands in Y
            assert np.all(trace.residuals_y[1:] == 0.0)


@pytest.mark.parametrize("selector", corpus.SELECTORS)
def test_map_iterates_lie_in_y(selector):
    # A MAP iterate's Y residual is recorded as 0 without a projection; the
    # projection that the trace no longer makes must find it within
    # rounding of Y at every iterate from every start of the trace corpus.
    entry = catalog.resolve(selector)
    for z0 in corpus.starts_of(entry).values():
        trace = run(entry.problem, SolverConfig(method="map"), z0)
        assert trace.n_steps > 0
        assert np.all(trace.residuals_y[1:] == 0.0)
        measured = [entry.problem.Y.distance(z) for z in trace.iterates[1:]]
        assert np.all(measured <= 4 * EPS * (1.0 + _row_norms(trace.iterates[1:])))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="newton")
    with pytest.raises(ValueError):
        SolverConfig(tol_feas=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol_feas=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(tol_feas=float("inf"))
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


@pytest.mark.parametrize("max_iter", [2.5, "3", None, -1], ids=["float", "string", "none", "negative"])
def test_config_max_iter_must_be_an_integer_of_at_least_one(max_iter):
    # 2.5 was accepted and run() died in range() with a TypeError; "3"
    # raised a TypeError from the comparison.
    with pytest.raises(ValueError, match="max_iter must be"):
        SolverConfig(max_iter=max_iter)


def test_config_max_iter_takes_any_integer_type():
    config = SolverConfig(max_iter=np.int64(3))
    assert config.max_iter == 3 and type(config.max_iter) is int
    entry = make_discs3d()
    assert run(entry.problem, config, entry.suggested_z0).n_steps <= 3


# --- Fejer-type step inequalities -------------------------------------------

def test_fejer_decrease_and_chain_on_disc_problem():
    entry = make_discs3d()
    prob = entry.problem
    rng = np.random.default_rng(61)
    s15 = np.sqrt(15.0)
    centers = (np.array([0.0, 0.0, 0.0]), np.array([s15, 0.0, 0.0]))
    for _ in range(100):
        z = rng.normal(size=3) * 3.0 + np.array([s15 / 2.0, 0.0, 0.0])
        s = sample_lens_point(rng, centers, 2.0)
        w = prob.X.project(z)
        yw = prob.Y.project(w)
        z_next, z_c = ccrm_step(prob, z)
        dz, dc, dy, dn = (
            np.linalg.norm(z - s),
            np.linalg.norm(z_c - s),
            np.linalg.norm(yw - s),
            np.linalg.norm(z_next - s),
        )
        step = np.linalg.norm(z - z_next)
        assert dn**2 <= dz**2 - 0.125 * step**2 + 1e-9
        assert dn <= dc + 1e-9
        assert dc <= dy + 1e-9
        assert dy <= dz + 1e-9


# --- isometry reduction -----------------------------------------------------

def test_isometry_reduce_requires_hull():
    with pytest.raises(UnsupportedOperation):
        isometry_reduce(complementary_halfplanes())


def test_isometry_reduce_refuses_sets_with_different_hulls():
    # a whole-space ball against a disc of {z_3 = 0}: aff(X) != aff(Y)
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.0])
    problem = FeasibilityProblem(Ball([0.0, 0.0, 1.0], 2.0), Ball([3.0, 0.0, 0.0], 2.0, plane))
    assert problem.common_hull is None
    with pytest.raises(UnsupportedOperation):
        isometry_reduce(problem)


def test_isometry_reduce_returns_native_oracles_where_it_can():
    # A ball of the hull is a whole-space ball of its coordinates, and an
    # embedded oracle on the hull's frame is its inner oracle; a spectral
    # set with a trace has no such form and projects through the hull.
    discs = make_discs3d().problem
    red = isometry_reduce(discs)
    for ambient, local in ((discs.X, red.X), (discs.Y, red.Y)):
        assert type(local) is Ball and local.subspace is None
        assert np.array_equal(local.center, discs.common_hull.to_local(ambient.in_plane_center))
        assert local.radius == ambient.in_plane_radius
    socp = make_socp().problem
    red = isometry_reduce(socp)
    assert red.X is socp.X.inner and type(red.Y) is Ball and red.Y.subspace is None
    sdp = make_sdp_feasibility().problem
    red = isometry_reduce(sdp)
    assert isinstance(red.X, IsometricImage) and red.X.inner is sdp.X
    assert type(red.Y) is Ball and red.Y.dim == 5


def test_in_hull_coordinates_keeps_an_embedded_oracle_of_another_frame_wrapped():
    # The same plane with a rotated basis: the inner oracle's coordinates
    # are not the hull's, so it goes through the round trip.
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.0], basis=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    turned = AffineSubspace([[0.0, 0.0, 1.0]], [0.0], basis=[[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    ellipse = Ellipsoid(np.diag([0.25, 1.0]))
    assert in_hull_coordinates(EmbeddedOracle(ellipse, plane), plane) is ellipse
    same = AffineSubspace(plane.A, plane.b, basis=plane.basis)
    assert in_hull_coordinates(EmbeddedOracle(ellipse, same), plane) is ellipse
    image = in_hull_coordinates(EmbeddedOracle(ellipse, turned), plane)
    assert isinstance(image, IsometricImage)
    v = np.array([3.0, 0.5])
    assert np.allclose(image.project(v), plane.to_local(EmbeddedOracle(ellipse, turned).project(plane.from_local(v))))
    assert np.allclose(image.project(v), ellipse.project(v[::-1])[::-1])


def test_isometry_reduce_disc_traces_agree():
    entry = make_discs3d()
    red, hull = isometry_reduce(entry.problem), entry.problem.common_hull
    assert red.dim == 2
    ambient = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    z1 = ambient.iterates[1]
    reduced = run(red, SolverConfig(method="ccrm"), hull.to_local(z1))
    for k in range(1, min(ambient.iterates.shape[0] - 1, reduced.iterates.shape[0])):
        back = hull.from_local(reduced.iterates[k - 1])
        assert np.linalg.norm(back - ambient.iterates[k]) <= 1e-10


def test_isometry_reduce_fixed_trace_dimension_count():
    entry = make_fixed_trace()
    red = isometry_reduce(entry.problem)
    n = 4
    assert red.dim == n * (n + 1) // 2 - 1


def test_isometry_round_trip_on_hull():
    entry = make_discs3d()
    hull = entry.problem.common_hull
    rng = np.random.default_rng(67)
    for _ in range(20):
        z = np.array([rng.normal(), rng.normal(), 0.0])
        assert np.linalg.norm(hull.from_local(hull.to_local(z)) - z) <= 1e-12


# --- scalar epigraph recurrence ----------------------------------------------

def test_scalar_step_structure():
    # the centralized point lies on the curve normal at (v, v^alpha), so the
    # epigraph projection abscissa p equals v and the step contracts v by
    # exactly 1 - 1/alpha; ratios approach that limit from below
    x_next, internals = epigraph_scalar_step(2.0, 0.5)
    assert internals.u > internals.v > 0.0
    assert internals.h == 0.5 * internals.v**2.0
    assert abs(internals.p - internals.v) <= 1e-12
    assert abs(x_next - 0.5 * internals.v) <= 1e-12
    ratios = []
    for x in (0.5, 0.1, 0.01, 1e-3):
        xn, _ = epigraph_scalar_step(2.0, x)
        ratios.append(xn / x)
    assert all(r1 < r2 <= 0.5 + 1e-12 for r1, r2 in zip(ratios, ratios[1:]))


def test_scalar_step_limit_ratio():
    # ratio tends to 1 - 1/alpha as the abscissa shrinks
    for alpha in (2.0, 3.0):
        x = 10.0 ** (-10.0 / (2.0 * alpha - 2.0))
        x_next, _ = epigraph_scalar_step(alpha, x)
        assert abs(x_next / x - (1.0 - 1.0 / alpha)) <= 1e-3


def test_scalar_step_matches_full_solver():
    rng = np.random.default_rng(71)
    for _ in range(20):
        alpha = 1.0 + 3.0 * rng.random()
        x = 0.05 + 0.95 * rng.random()
        entry = make_epigraph(alpha, 0.0)
        x_next, _ = epigraph_scalar_step(alpha, x)
        z_next, _ = ccrm_step(entry.problem, np.array([x, 0.0]))
        assert abs(z_next[0] - x_next) <= 1e-10
        assert abs(z_next[1]) <= 1e-10


def test_scalar_step_input_validation():
    with pytest.raises(ValueError):
        epigraph_scalar_step(1.0, 0.5)
    with pytest.raises(ValueError):
        epigraph_scalar_step(2.0, 0.0)


# --- hull trapping ------------------------------------------------------------

def test_iterates_trapped_in_hull():
    # projections land in the hull, so cCRM and MAP are trapped from any
    # start; CRM reflects an off-hull start out of the hull, so its
    # trapping only holds from starts inside it
    entry = make_discs3d()
    hull = entry.problem.common_hull
    rng = np.random.default_rng(73)
    for method in ("ccrm", "map"):
        z0 = rng.normal(size=3) * 2.0 + np.array([1.0, 1.0, 3.0])
        trace = run(entry.problem, SolverConfig(method=method, max_iter=30), z0)
        for z in trace.iterates[1:]:
            assert np.linalg.norm(hull.A @ z - hull.b) <= 1e-9
    z0 = np.array([6.0, 4.0, 0.0])
    trace = run(entry.problem, SolverConfig(method="crm", max_iter=30), z0)
    for z in trace.iterates:
        assert np.linalg.norm(hull.A @ z - hull.b) <= 1e-9
    z0 = np.array([6.0, 4.0, 2.0])
    trace = run(entry.problem, SolverConfig(method="crm", max_iter=2), z0)
    assert np.linalg.norm(hull.A @ trace.iterates[1] - hull.b) > 1e-3


@pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 1e8, 1e300])
def test_doubled_circumcenter_of_projections_is_the_reflections_circumcenter(scale):
    # The homothety of ratio 2 about z maps p and q to 2p - z and 2q - z.
    rng = np.random.default_rng(2303)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        z, p, q = rng.normal(size=(3, n)) * scale
        doubled = circumcenter([z, p, q])
        reflected = circumcenter([z, 2.0 * p - z, 2.0 * q - z])
        assert doubled.status == reflected.status
        assert doubled.condition == pytest.approx(reflected.condition, rel=1e-6)
        diameter = 2.0 * max(np.linalg.norm((a - b) / scale) for a in (z, p, q) for b in (z, p, q))
        gap = np.linalg.norm((2.0 * doubled.center - z - reflected.center) / scale)
        assert gap <= 1e-13 * diameter
    z = rng.normal(size=3) * scale  # collinear: neither triple has a circumcenter
    for triple in ([z, 2.0 * z, 3.0 * z], [z, 3.0 * z, 5.0 * z]):
        with pytest.raises(GeometryError):
            circumcenter(triple)


@pytest.mark.parametrize("selector", corpus.SELECTORS)
def test_ccrm_step_matches_the_reflection_form(selector):
    entry = catalog.resolve(selector)
    for z0 in corpus.starts_of(entry).values():
        z_next, z_c = ccrm_step(entry.problem, z0)
        ref_next, ref_c = reflection_ccrm_step(entry.problem, z0)
        assert np.array_equal(z_c, ref_c)
        assert np.linalg.norm(z_next - ref_next) <= 1e-12 * max(1.0, np.linalg.norm(z0))


@pytest.mark.parametrize("method", ["ccrm", "crm"])
@pytest.mark.parametrize("selector", ["discs3d", "socp", "epigraph:a=2,b=0"])
def test_one_circumcenter_call_per_recorded_status(method, selector, monkeypatch):
    # perfbench counts circumcenter calls and statuses through this name;
    # every call passes three lists of Python floats of the problem's
    # dimension, which the solve takes without converting them
    calls = []
    entry = catalog.resolve(selector)

    def counted(*points):
        for p in points:
            assert type(p) is list and len(p) == entry.problem.dim
            assert all(type(v) is float for v in p)
        calls.append(len(points))
        return circumcenter(list(points))

    monkeypatch.setattr(ccrm.solvers, "circumcenter", counted)
    trace = run(entry.problem, SolverConfig(method=method), entry.suggested_z0)
    assert trace.termination == TERMINATION_FEASIBLE
    assert calls == [3] * len(trace.circum_statuses) and calls
