import numpy as np
import pytest

from ccrm import sets
from ccrm.catalog import (
    _ellipsoid_from_ball,
    _ellipsoid_within,
    _eq_ellipsoids_leaves,
    _soc_within,
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
from ccrm.cli import main
from ccrm.diagnostics import curvature, rate_report, trace_reference_distances
from ccrm.errors import RegularityError
from ccrm.linalg import sym_to_vec, vec_to_sym
from ccrm.serialize import problem_to_dict
from ccrm.sets import (
    AffineSubspace,
    Ball,
    Ellipsoid,
    Hyperplane,
    SecondOrderCone,
    SpectralSet,
    boundary_eval,
)
from ccrm.solvers import FeasibilityProblem, SolverConfig, run

from helpers import big_norm, cap_socp, dykstra_project, tool_module


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


def test_common_hull_is_read_from_the_sets():
    for entry in all_entries():
        X, Y = entry.problem.X, entry.problem.Y
        if entry.name == "epigraph":
            assert entry.problem.common_hull is None
        else:
            assert entry.problem.common_hull is X.affine_hull is not None, entry.name
            assert np.array_equal(Y.affine_hull.A, X.affine_hull.A), entry.name
    line = make_epigraph(3.0, 1.0, "line").problem
    assert line.Y.affine_hull is line.Y and line.common_hull is None


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


def ellipse_boundary_curvature(t) -> float:
    """Curvature of the boundary of {x^2/4 + y^2 <= 1} at (2 cos t, sin t)."""
    return 2.0 / (4.0 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5


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


@pytest.mark.filterwarnings("error")
def test_socp_x_lands_on_its_hyperplane_and_in_the_cone_at_every_scale():
    # As a cap of the cone by L, X returned a point 0.023 off L for the first
    # z below, which a second projection moved by 0.027, and 3-8 wrong
    # outputs of 40 at each scale from 1e10 on.
    entry = make_socp()
    X, cap = entry.problem.X, cap_socp()[0].X
    a = np.array([0.0, 1.0, 1.0, 1.0]) / np.sqrt(3.0)

    def check(z):
        x = X.project(z)
        tol = 1e-9 * max(1.0, big_norm(x))
        assert abs(a @ x - 1.5 / np.sqrt(3.0)) <= tol
        assert big_norm(x[1:]) - x[0] <= tol
        assert big_norm(X.project(x) - x) <= tol
        return x

    check(1e15 * np.array([-0.721, -0.52, 0.16, -0.38]))
    rng = np.random.default_rng(5)
    for k in (-3, 0, 3, 10, 15, 20, 50, 100, 150, 300):
        for _ in range(40):
            z = entry.suggested_z0 + 10.0**k * rng.normal(size=4)
            x = check(z)
            if k <= 3:
                assert big_norm(x - cap.project(z)) <= 1e-12 * max(1.0, big_norm(z))


def test_socp_x_descriptor_is_the_cones_within_its_hyperplane():
    # On L the sheet's h(||w||) - t is the cone's ||u|| - t, so boundary_eval
    # agrees with the cap's (the cone's descriptor restricted to L), and
    # kappa_X at the cCRM limit is the same number.
    entry = make_socp()
    X, cap = entry.problem.X, cap_socp()[0].X
    limit = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
    assert curvature(X, limit).kappa == pytest.approx(curvature(cap, limit).kappa, rel=1e-12)
    rng = np.random.default_rng(6)
    for z in entry.suggested_z0 + rng.normal(size=(20, 4)):
        x = X.project(z)
        for got, want in zip(boundary_eval(X, x), boundary_eval(cap, x)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_soc_within_refuses_a_hyperplane_across_the_cone_axis():
    with pytest.raises(ValueError, match="cone-axis component"):
        _soc_within(Hyperplane([0.5, 1.0, 1.0, 1.0], 1.5))


def test_socp_apex_curvature_refused():
    cone = SecondOrderCone(4)
    with pytest.raises(RegularityError):
        curvature(cone, np.zeros(cone.dim))


def test_socp_smooth_boundary_away_from_apex():
    cone = SecondOrderCone(4)
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
    return FeasibilityProblem(X, Ball(sym_to_vec(Sigma_hat), r, L))


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
    # full-dimensional sets: the problem lives in the full space, with no common hull
    X = _ellipsoid_from_ball(np.eye(3), np.array([0.0, 0.0, 0.0]), 1.0)
    Y = _ellipsoid_from_ball(np.eye(3), np.array([1.0, 0.0, 0.0]), 1.0)
    problem = FeasibilityProblem(X, Y)
    assert problem.common_hull is None
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
    trace = run(FeasibilityProblem(X, Y), SolverConfig(method="ccrm", tol_feas=1e-10), z0)
    assert trace.termination == "feasible"
    expected = Ball(center, 1.0, AffineSubspace([[0.0, 0.0, 1.0]], [0.5])).project(z0)
    assert np.linalg.norm(trace.final - expected) <= 1e-9


def test_sdp_without_linear_constraints(monkeypatch):
    # cone-versus-ball problem in the full flattened space
    L = AffineSubspace(np.zeros((0, 6)), np.zeros(0))
    problem = FeasibilityProblem(
        SpectralSet(3, lo=0.0), Ball(sym_to_vec(np.diag([1.0, 1.0, -1.0])), 1.2, L)
    )
    eighs, projections = [0], [0]

    def counting_eigh(S, _eigh=sets._eigh):
        eighs[0] += 1
        return _eigh(S)

    def counting_project(z, _project=problem.X.project):
        projections[0] += 1
        return _project(z)

    monkeypatch.setattr(sets, "_eigh", counting_eigh)
    problem.X.project = counting_project
    trace = run(
        problem, SolverConfig(method="ccrm", tol_feas=1e-10),
        sym_to_vec(np.diag([2.0, 1.0, -2.0])),
    )
    assert trace.termination == "feasible"
    assert np.linalg.eigvalsh(vec_to_sym(trace.final)).min() >= -1e-9
    # X is the PSD cone itself: one eigensolve per projection, no Dykstra
    assert eighs[0] == projections[0] > 0


def test_fixed_trace_takes_one_eigensolve_per_projection(monkeypatch):
    # the traced spectral set with only an upper bound, driven by cCRM
    entry = make_fixed_trace()
    X = entry.problem.X
    assert (X.n, X.lo, X.hi, X.trace) == (4, -np.inf, 0.5, 1.0)
    eighs, projections = [0], [0]

    def counting_eigh(S, _eigh=sets._eigh):
        eighs[0] += 1
        return _eigh(S)

    def counting_project(z, _project=X.project):
        projections[0] += 1
        return _project(z)

    monkeypatch.setattr(sets, "_eigh", counting_eigh)
    X.project = counting_project
    trace = run(entry.problem, SolverConfig(method="ccrm", tol_feas=1e-10), entry.suggested_z0)
    assert trace.termination == "feasible"
    assert eighs[0] == projections[0] > 0


def test_sdp_small_custom_instance_trace_one():
    X = SpectralSet(2, lo=0.0, trace=1.0)
    L = X.affine_hull
    problem = FeasibilityProblem(X, Ball(sym_to_vec(np.eye(2)), 1.5, L))
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


# Each selector form in use (the catalog names, tools/write_traces.py's
# y= form, perfbench's float and %g forms, the docs' examples), with the
# direct call it must equal.
SELECTOR_CALLS = {
    "discs3d": (make_discs3d, {}),
    "ellipses": (make_ellipses, {}),
    "eq_ellipsoids": (make_eq_constrained_ellipsoids, {}),
    "socp": (make_socp, {}),
    "sdp": (make_sdp_feasibility, {}),
    "fixed_trace": (make_fixed_trace, {}),
    "fixed_trace:a=0.6": (make_fixed_trace, {"a": 0.6}),
    "epigraph:a=2,b=0,y=halfplane": (make_epigraph, {"alpha": 2.0, "beta": 0.0}),
    "epigraph:a=2,b=0,y=line": (make_epigraph, {"alpha": 2.0, "beta": 0.0, "y_variant": "line"}),
    "epigraph:a=3,b=1,y=halfplane": (make_epigraph, {"alpha": 3.0, "beta": 1.0}),
    "epigraph:a=3,b=1,y=line": (make_epigraph, {"alpha": 3.0, "beta": 1.0, "y_variant": "line"}),
    "epigraph:a=1.5,b=1.0,variant=line": (make_epigraph, {"alpha": 1.5, "beta": 1.0, "y_variant": "line"}),
    "epigraph:a=2,b=1": (make_epigraph, {"alpha": 2.0, "beta": 1.0}),
    "epigraph:a=2,b=0": (make_epigraph, {"alpha": 2.0}),
    "epigraph:alpha=2.5,beta=1,variant=line": (make_epigraph, {"alpha": 2.5, "beta": 1.0, "y_variant": "line"}),
    "epigraph: a = 3 , variant = line ": (make_epigraph, {"alpha": 3.0, "y_variant": "line"}),
}


def _entry_dict(entry):
    return (
        entry.name,
        problem_to_dict(entry.problem, entry.suggested_z0),
        repr(entry.reference),
    )


@pytest.mark.parametrize("selector", list(SELECTOR_CALLS))
def test_resolve_builds_what_the_direct_call_builds(selector):
    make, kwargs = SELECTOR_CALLS[selector]
    assert _entry_dict(resolve(selector)) == _entry_dict(make(**kwargs))


def test_selector_calls_cover_the_selectors_in_use():
    assert set(tool_module("write_traces").SELECTORS) <= set(SELECTOR_CALLS)
    assert {s.partition(":")[0] for s in SELECTOR_CALLS} == set(problem_names())


@pytest.mark.parametrize(
    "selector, message",
    [
        ("torus", "unknown problem 'torus'; known: discs3d, ellipses, epigraph, eq_ellipsoids, fixed_trace, sdp, socp"),
        ("epigraph:a2", "malformed parameter 'a2'; expected key=value"),
        # every item is read before any key is checked
        ("sdp:a=1,bad", "malformed parameter 'bad'; expected key=value"),
        ("epigraph:a=2,speed=fast", "unknown epigraph parameter 'speed'"),
        ("fixed_trace:b=1", "unknown fixed_trace parameter 'b'"),
        ("discs3d:r=3", "problem 'discs3d' takes no parameters"),
        ("epigraph", "epigraph needs an exponent, e.g. epigraph:a=2,b=0"),
        ("epigraph:b=1,y=line", "epigraph needs an exponent, e.g. epigraph:a=2,b=0"),
        ("fixed_trace:a=half", "could not convert string to float: 'half'"),
        ("epigraph:a=2,b=x", "could not convert string to float: 'x'"),
        ("epigraph:a=1", "exponent must exceed 1"),
        ("epigraph:a=2,b=-1", "shift must be nonnegative"),
        ("epigraph:a=2,variant=circle", "unknown variant 'circle'; expected one of ('halfplane', 'line')"),
    ],
)
def test_resolve_errors_keep_their_message(selector, message):
    with pytest.raises(ValueError) as info:
        resolve(selector)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "selector, message",
    [
        ("epigraph:a=2,alpha=3", "epigraph parameter 'alpha' sets alpha a second time"),
        ("epigraph:a=2,b=0,y=line,variant=halfplane",
         "epigraph parameter 'variant' sets y_variant a second time"),
        ("fixed_trace:a=0.6,a=0.7", "fixed_trace parameter 'a' sets a a second time"),
    ],
    ids=["alias-exponent", "alias-variant", "same-key"],
)
def test_resolve_refuses_a_repeated_key(selector, message, capsys):
    # The last value was kept: alpha = 3, and the halfspace Y.
    with pytest.raises(ValueError) as info:
        resolve(selector)
    assert str(info.value) == message
    assert main(["solve", "--problem", selector]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
