import numpy as np
import pytest

from ccrm.catalog import (
    _ellipsoid_from_ball,
    _ellipsoid_within,
    _eq_ellipsoids_leaves,
    ellipse_boundary_curvature,
    make_discs3d,
    make_ellipses,
    make_epigraph,
    make_eq_constrained_ellipsoids,
    make_fixed_trace,
    make_sdp_feasibility,
    make_socp,
    problem_names,
    resolve,
)
from ccrm.diagnostics import curvature, rate_report, trace_reference_distances
from ccrm.errors import RegularityError
from ccrm.linalg import sym_to_vec, vec_to_sym
from ccrm.sets import AffineSubspace, Ball, Ellipsoid, Hyperplane, SpectralSet, dykstra_project
from ccrm.solvers import FeasibilityProblem, SolverConfig, run


def all_entries():
    return [
        make_discs3d(),
        make_ellipses(),
        make_epigraph(2.0, 0.0),
        make_epigraph(3.0, 1.0),
        make_eq_constrained_ellipsoids(),
        make_socp(),
        make_sdp_feasibility(),
        make_fixed_trace(),
    ]


def test_references_are_feasible():
    for entry in all_entries():
        zbar = entry.problem.reference_solution
        if zbar is None:
            continue
        assert entry.problem.max_distance(zbar) <= 1e-10, entry.name


def test_projections_land_in_common_hull():
    rng = np.random.default_rng(97)
    for entry in all_entries():
        hull = entry.problem.common_hull
        if hull is None:
            continue
        for _ in range(5):
            z = hull.anchor + rng.normal(size=hull.dim)
            for oracle in (entry.problem.X, entry.problem.Y):
                p = oracle.project(z)
                assert np.linalg.norm(hull.A @ p - hull.b) <= 1e-9, entry.name


def test_fixed_trace_empty_spectral_set_rejected():
    with pytest.raises(ValueError):
        make_fixed_trace(a=0.2)


def test_discs_reference_on_both_circles():
    entry = make_discs3d()
    zbar = entry.problem.reference_solution
    s15 = np.sqrt(15.0)
    assert np.isclose(zbar[0] ** 2 + zbar[1] ** 2, 4.0)
    assert np.isclose((zbar[0] - s15) ** 2 + zbar[1] ** 2, 4.0)
    # the midpoint of the lens is strictly inside both discs
    mid = np.array([s15 / 2.0, 0.0, 0.0])
    assert np.linalg.norm(mid[:2]) < 2.0
    assert np.linalg.norm(mid[:2] - [s15, 0.0]) < 2.0


def test_ellipses_interior_point():
    entry = make_ellipses()
    p = np.array([0.5, 0.0, 0.0])
    # strict interior of both: margins 1/16 and 1/4 under the level one
    gx = entry.problem.X._boundary(p)[0]
    gy = entry.problem.Y._boundary(p)[0]
    assert gx < -0.5 and gy < -0.5
    assert entry.problem.max_distance(p) == 0.0


def test_ellipse_curvature_formula_matches_operator():
    entry = make_ellipses()
    for t in np.linspace(0.1, 2.0 * np.pi, 20, endpoint=False):
        z = np.array([2.0 * np.cos(t), np.sin(t), 0.0])
        got = curvature(entry.problem.X, z).kappa
        assert abs(got - ellipse_boundary_curvature(t)) <= 1e-8


@pytest.mark.parametrize(
    "make, which",
    [(make_ellipses, "Y"), (make_eq_constrained_ellipsoids, "X")],
    ids=["ellipses", "eq_ellipsoids"],
)
def test_one_step_limit_strictly_inside_one_set(make, which):
    # the limit lies strictly inside one set, so no rate tail exists and
    # the entry claims none
    entry = make()
    trace = run(entry.problem, SolverConfig(method="ccrm", tol_feas=1e-14), entry.suggested_z0)
    assert trace.termination == "feasible"
    assert trace.n_steps == 1
    assert getattr(entry.problem, which)._boundary(trace.final)[0] < -0.1
    assert entry.reference.expected_rate is None


def test_eq_ellipsoids_has_a_common_point_strictly_inside_both_ellipsoids():
    # Slater's condition for the fixed instance: a Dykstra probe within L
    # lands strictly inside both ambient ellipsoids
    e1, e2, L = _eq_ellipsoids_leaves()
    probe = dykstra_project([e1, e2, L], L.project(0.5 * (e1.center + e2.center)), tol=1e-10)
    assert np.linalg.norm(L.A @ probe - L.b) <= 1e-9
    assert max(e1._boundary(probe)[0], e2._boundary(probe)[0]) <= -1e-8


def test_ellipses_converge_finitely():
    # the lens wedge is wide, so the centralized step lands inside at once
    entry = make_ellipses()
    trace = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    assert trace.termination == "feasible"
    assert trace.n_steps <= 3


def test_epigraph_rejects_bad_exponent():
    with pytest.raises(ValueError):
        make_epigraph(1.0, 0.0)
    with pytest.raises(ValueError):
        make_epigraph(0.5, 1.0)


def test_epigraph_variants():
    halfplane = make_epigraph(2.0, 1.0, y_variant="halfplane")
    line = make_epigraph(2.0, 1.0, y_variant="line")
    assert halfplane.problem.Y.project([0.3, 2.0])[1] == 0.0
    assert line.problem.Y.project([0.3, -2.0])[1] == 0.0
    with pytest.raises(ValueError):
        make_epigraph(2.0, 1.0, y_variant="parabola")


def test_epigraph_reference_data():
    entry = make_epigraph(2.0, 0.0)
    assert entry.reference.isolated
    assert entry.reference.expected_rate == "linear"
    assert entry.reference.expected_constant == pytest.approx(0.5)
    entry = make_epigraph(2.0, 1.0)
    assert entry.reference.expected_rate == "quadratic"
    assert np.allclose(entry.problem.reference_solution, [1.0, 0.0])
    k = entry.problem.known_constants.kappa_x
    assert k == pytest.approx(2.0 / 5.0**1.5)
    # the curvature operator agrees at the corner
    assert curvature(entry.problem.X, entry.problem.reference_solution).kappa == pytest.approx(k)


def test_eq_ellipsoids_construction_and_run():
    entry = make_eq_constrained_ellipsoids()
    hull = entry.problem.common_hull
    trace = run(entry.problem, SolverConfig(method="ccrm", tol_feas=1e-10), entry.suggested_z0)
    assert trace.termination == "feasible"
    for z in trace.iterates[1:]:
        assert np.linalg.norm(hull.A @ z - hull.b) <= 1e-9


def test_socp_runs_and_respects_hull():
    entry = make_socp()
    trace = run(entry.problem, SolverConfig(method="ccrm", tol_feas=1e-10), entry.suggested_z0)
    assert trace.termination == "feasible"
    final = trace.final
    assert np.linalg.norm(final[1:]) <= final[0] + 1e-9
    hull = entry.problem.common_hull
    assert np.linalg.norm(hull.A @ final - hull.b) <= 1e-9


def test_socp_apex_curvature_refused():
    entry = make_socp()
    cone = entry.problem.X.inner
    with pytest.raises(RegularityError):
        curvature(cone, np.zeros(cone.dim))


def test_socp_smooth_boundary_away_from_apex():
    entry = make_socp()
    cone = entry.problem.X.inner
    z = np.array([1.0, 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
    val = curvature(cone, z)
    assert val.kappa == pytest.approx(1.0 / (np.sqrt(2.0) * 1.0), rel=1e-8)


def test_sdp_limit_is_rank_deficient_psd():
    entry = make_sdp_feasibility()
    trace = run(entry.problem, SolverConfig(method="ccrm", tol_feas=1e-10), entry.suggested_z0)
    assert trace.termination == "feasible"
    limit = vec_to_sym(trace.final)
    w = np.linalg.eigvalsh(limit)
    assert abs(np.trace(limit) - 1.0) <= 1e-9
    assert w[0] >= -1e-9
    assert w[0] <= 1e-6  # PSD constraint active: smallest eigenvalue at zero


def test_sdp_trace_constraint_gives_spectral_set():
    # X is the PSD cone capped by {tr = 1}, sharing Y's hull
    entry = make_sdp_feasibility()
    X, L = entry.problem.X, entry.problem.common_hull
    assert isinstance(X, SpectralSet)
    assert X.affine_hull is L and entry.problem.Y.affine_hull is L


def test_fixed_trace_limit_feasible():
    entry = make_fixed_trace()
    trace = run(entry.problem, SolverConfig(method="ccrm", tol_feas=1e-10), entry.suggested_z0)
    assert trace.termination == "feasible"
    limit = vec_to_sym(trace.final)
    w = np.linalg.eigvalsh(limit)
    assert abs(np.trace(limit) - 1.0) <= 1e-9
    assert w[-1] <= 0.5 + 1e-9


def _fixed_trace_problem(Sigma_hat, r):
    """2 x 2: tr = 1, lambda_max <= 1 and a Frobenius ball within the trace plane."""
    X = SpectralSet(2, hi=1.0, trace=1.0)
    L = X.affine_hull
    return FeasibilityProblem(X, Ball(sym_to_vec(Sigma_hat), r, L), common_hull=L)


def test_fixed_trace_custom_small_instance():
    Sh = np.diag([2.0, -1.0]) / 2.0
    problem = _fixed_trace_problem(Sh, 2.0)
    trace = run(problem, SolverConfig(method="ccrm", tol_feas=1e-10), problem.common_hull.anchor)
    assert trace.termination == "feasible"
    limit = vec_to_sym(trace.final)
    assert abs(np.trace(limit) - 1.0) <= 1e-9
    assert np.linalg.eigvalsh(limit).max() <= 1.0 + 1e-9


def test_fixed_trace_feasible_target_one_step():
    # the target matrix itself satisfies every constraint: trace of length one
    Sh = np.diag([0.6, 0.4])
    trace = run(_fixed_trace_problem(Sh, 1.0), SolverConfig(method="ccrm"), sym_to_vec(Sh))
    assert trace.termination == "feasible"
    assert trace.iterates.shape[0] == 1


def test_eq_ellipsoids_reduction_rejects_degenerate_sets():
    disc = _ellipsoid_from_ball(np.eye(2), np.zeros(2), 1.0)
    # a constraint line that misses the first disc's interior
    with pytest.raises(ValueError):
        _ellipsoid_within(disc, Hyperplane([1.0, 0.0], 1.0))
    # two rows leave a single point, with no room for an ellipsoid
    with pytest.raises(ValueError):
        _ellipsoid_within(disc, AffineSubspace(np.eye(2), [0.1, 0.0]))


def test_eq_ellipsoids_without_constraints():
    # zero-row equality block: the problem lives in the full space
    hull = AffineSubspace(np.zeros((0, 3)), np.zeros(0))
    X = _ellipsoid_from_ball(np.eye(3), np.array([0.0, 0.0, 0.0]), 1.0)
    Y = _ellipsoid_from_ball(np.eye(3), np.array([1.0, 0.0, 0.0]), 1.0)
    problem = FeasibilityProblem(X, Y, common_hull=hull)
    assert problem.common_hull.subspace_dim == 3
    assert type(problem.X) is Ellipsoid and type(problem.Y) is Ellipsoid
    trace = run(problem, SolverConfig(method="ccrm", tol_feas=1e-10), np.array([3.0, 2.0, 1.0]))
    assert trace.termination == "feasible"


def test_concentric_balls_in_hyperplane_limit():
    # nested sets: one centralized step lands on the projection onto the
    # smaller ball within the hyperplane, computable in closed form
    H = Hyperplane([0.0, 0.0, 1.0], 0.5)
    center = np.array([0.2, -0.1, 0.5])
    X, Y = (_ellipsoid_within(_ellipsoid_from_ball(np.eye(3), center, r), H) for r in (1.0, 2.0))
    z0 = np.array([3.0, 1.5, 2.0])
    trace = run(FeasibilityProblem(X, Y, common_hull=H), SolverConfig(method="ccrm", tol_feas=1e-10), z0)
    assert trace.termination == "feasible"
    expected = Ball(center, 1.0, AffineSubspace([[0.0, 0.0, 1.0]], [0.5])).project(z0)
    assert np.linalg.norm(trace.final - expected) <= 1e-9


def test_sdp_without_linear_constraints(monkeypatch):
    # cone-versus-ball problem in the full flattened space
    L = AffineSubspace(np.zeros((0, 6)), np.zeros(0))
    problem = FeasibilityProblem(
        SpectralSet(3, lo=0.0), Ball(sym_to_vec(np.diag([1.0, 1.0, -1.0])), 1.2, L), common_hull=L
    )
    from ccrm import sets

    eighs, projections = [0], [0]

    def counting_eigh(S, _eigh=sets.symmetric_eigh):
        eighs[0] += 1
        return _eigh(S)

    def counting_project(z, _project=problem.X.project):
        projections[0] += 1
        return _project(z)

    monkeypatch.setattr(sets, "symmetric_eigh", counting_eigh)
    problem.X.project = counting_project
    trace = run(
        problem, SolverConfig(method="ccrm", tol_feas=1e-10),
        sym_to_vec(np.diag([2.0, 1.0, -2.0])),
    )
    assert trace.termination == "feasible"
    assert np.linalg.eigvalsh(vec_to_sym(trace.final)).min() >= -1e-9
    # X is the PSD cone itself: one eigensolve per projection, no Dykstra
    assert projections[0] > 0
    assert eighs[0] == projections[0]


def test_sdp_small_custom_instance_trace_one():
    X = SpectralSet(2, lo=0.0, trace=1.0)
    L = X.affine_hull
    problem = FeasibilityProblem(X, Ball(sym_to_vec(np.eye(2)), 1.5, L), common_hull=L)
    trace = run(
        problem, SolverConfig(method="ccrm", tol_feas=1e-10),
        sym_to_vec(np.diag([2.0, -1.0])),
    )
    assert trace.termination == "feasible"
    limit = vec_to_sym(trace.final)
    assert abs(np.trace(limit) - 1.0) <= 1e-9
    assert np.linalg.eigvalsh(limit).min() >= -1e-9


def test_expected_rates_observed():
    # entries with analytic references and a measurable tail
    entry = make_epigraph(2.0, 0.0)
    trace = run(
        entry.problem, SolverConfig(method="ccrm", max_iter=300, tol_feas=1e-300),
        entry.suggested_z0,
    )
    d = trace_reference_distances(trace, entry.problem)
    floor = 30.0 * (np.finfo(float).eps / 4.0) ** 0.5
    report = rate_report(d, floor=floor)
    assert report.classification == "linear"
    assert abs(report.constant - entry.reference.expected_constant) <= 1e-2

    entry = make_epigraph(2.0, 1.0)
    trace = run(
        entry.problem, SolverConfig(method="ccrm", max_iter=100, tol_feas=1e-13),
        entry.suggested_z0,
    )
    report = rate_report(trace_reference_distances(trace, entry.problem), scale=2.0)
    assert report.classification == entry.reference.expected_rate == "quadratic"


def test_resolver_names_and_params():
    assert set(problem_names()) >= {
        "discs3d", "ellipses", "epigraph", "eq_ellipsoids", "socp", "sdp", "fixed_trace",
    }
    entry = resolve("epigraph:a=2,b=0")
    assert entry.problem.X.alpha == 2.0
    assert entry.problem.X.beta == 0.0
    entry = resolve("epigraph:alpha=2.5,beta=1,variant=line")
    assert entry.problem.X.alpha == 2.5
    entry = resolve("fixed_trace:a=0.6")
    assert entry.problem.X.hi == 0.6


def test_resolver_errors():
    with pytest.raises(ValueError):
        resolve("torus")
    with pytest.raises(ValueError):
        resolve("discs3d:r=3")
    with pytest.raises(ValueError):
        resolve("epigraph:a=2,speed=fast")
    with pytest.raises(ValueError):
        resolve("epigraph:a2")
    with pytest.raises(ValueError):
        resolve("epigraph")  # exponent required
