"""The exact cap oracle: a set cut by one hyperplane or one ball."""

import math

import numpy as np
import pytest

import ccrm.sets

from ccrm.catalog import (
    make_discs3d,
    make_epigraph,
    make_eq_constrained_ellipsoids,
    make_fixed_trace,
    make_sdp_feasibility,
    make_socp,
)
from ccrm.diagnostics import curvature, intersection_oracle, tangent_bound_check
from ccrm.errors import ConvergenceError
from ccrm.linalg import EPS
from ccrm.sets import (
    Ball,
    BallLens,
    Cap,
    DykstraIntersection,
    Ellipsoid,
    EmbeddedOracle,
    Halfspace,
    Hyperplane,
    SecondOrderCone,
    boundary_eval,
    dykstra_project,
)
from ccrm.solvers import FeasibilityProblem, SolverConfig, run

from helpers import cap_eq_ellipsoids, cap_socp, general_sdp


def _catalog(make):
    def build():
        entry = make()
        return entry.problem, entry.suggested_z0

    return build


# (name, problem builder, the cap under test); hyperplane caps are the
# problem's X, ball caps the exact X & Y of intersection_oracle (for
# discs3d the lens of its two discs in the hull's coordinates). The socp
# cap is its cone cut by its hull, and the eq_ellipsoids caps are its
# ambient ellipsoids cut by its hull.
HYPERPLANE_CAPS = [
    ("socp", cap_socp),
    ("eq_ellipsoids", cap_eq_ellipsoids),
    ("general_sdp", general_sdp),
]
BALL_CAPS = [
    ("discs3d", _catalog(make_discs3d)),
    ("sdp", _catalog(make_sdp_feasibility)),
    ("fixed_trace", _catalog(make_fixed_trace)),
]
ALL_CAPS = [(name, build, "X") for name, build in HYPERPLANE_CAPS] + [
    (name, build, "X&Y") for name, build in BALL_CAPS
]


def _cap(problem, which):
    """(the cap under test, the map of ambient points into its coordinates).
    discs3d's X & Y is a lens of the common hull's coordinates, embedded."""
    cap = problem.X if which == "X" else intersection_oracle(problem)
    if isinstance(cap, EmbeddedOracle):
        hull = problem.common_hull
        assert cap.subspace is hull and isinstance(cap.inner, BallLens)
        return cap.inner, hull.to_local
    assert isinstance(cap, Cap)
    return cap, lambda z: z


def _assert_lens_kkt(lens, z, tol):
    # x is the projection onto the lens iff it lies in both balls and z - x
    # is a nonnegative combination of the outward normals x - c_i of the
    # balls whose boundary it is on.
    x = lens.project(z)
    balls = (lens.inner, lens.cut)
    g = [np.linalg.norm(x - b.center) - b.radius for b in balls]
    assert max(g) <= tol
    normals = np.column_stack([x - b.center for b, gi in zip(balls, g) if gi >= -tol] or [0.0 * x])
    lam = np.linalg.lstsq(normals, z - x, rcond=None)[0]
    assert np.all(lam >= -tol)
    assert np.linalg.norm(normals @ lam - (z - x)) <= tol


def _around(center, rng, radii, per_radius):
    for rho in radii:
        for _ in range(per_radius):
            s = rng.normal(size=center.shape[0])
            yield center + rho * s / np.linalg.norm(s)


@pytest.mark.parametrize("name,build,which", ALL_CAPS, ids=[c[0] for c in ALL_CAPS])
def test_cap_agrees_with_tight_dykstra_near_the_limit(name, build, which):
    problem, z0 = build()
    cap, _ = _cap(problem, which)
    oracle = problem.X if which == "X" else intersection_oracle(problem)
    limit = run(problem, SolverConfig(method="ccrm"), z0).final
    rng = np.random.default_rng(71)
    leaves = [cap.inner, cap.cut] if which == "X" else [problem.X, problem.Y]
    for z in _around(limit, rng, (1e-1, 1e-2, 1e-3, 1e-4), 8):
        reference = dykstra_project(leaves, z, tol=1e-15)
        assert np.linalg.norm(oracle.project(z) - reference) <= 1e-12, name


@pytest.mark.parametrize("name,build,which", ALL_CAPS, ids=[c[0] for c in ALL_CAPS])
def test_cap_kkt_certificate_at_far_points(name, build, which):
    # x = P_inner(shifted(z, s)) with x on the cut is the optimality system
    # of the projection onto inner & cut, so it certifies x without a
    # reference solver.
    problem, z0 = build()
    cap, to_local = _cap(problem, which)
    cut, scale = cap.cut, 1e3
    rng = np.random.default_rng(72)
    for _ in range(16):
        z = to_local(z0 + scale * rng.normal(size=z0.shape[0]))
        if isinstance(cap, BallLens):
            _assert_lens_kkt(cap, z, 1e-12 * scale)
            continue
        x, s = cap.project_dual(z)
        if isinstance(cut, Hyperplane):
            shifted = z - s * cut.normal
        else:
            shifted = (1.0 - s) * z + s * cut.center
        assert np.array_equal(x, cap.inner.project(shifted))
        assert np.linalg.norm(cap.inner.project(x) - x) <= 1e-12 * scale
        if isinstance(cut, Hyperplane):
            on_cut = abs(cut.normal @ x - cut.offset) / np.linalg.norm(cut.normal)
        else:
            assert 0.0 <= s < 1.0
            on_cut = abs(np.linalg.norm(x - cut.center) - cut.radius)
            if s == 0.0:
                on_cut = max(0.0, np.linalg.norm(x - cut.center) - cut.radius)
        assert on_cut <= 1e-12 * scale, name


def test_eq_ellipsoids_embedded_sets_agree_with_their_caps():
    # The catalog's X and Y are e1 & L and e2 & L reduced into L's
    # coordinates; the caps of e1 and e2 by L are the same sets.
    entry = make_eq_constrained_ellipsoids()
    caps, z0 = cap_eq_ellipsoids()
    limit = run(entry.problem, SolverConfig(method="ccrm"), z0).final
    rng = np.random.default_rng(73)
    near = list(_around(limit, rng, (1e-1, 1e-2, 1e-3, 1e-4), 8))
    far = [z0 + 1e3 * rng.normal(size=z0.shape[0]) for _ in range(16)]
    for z in near + far:
        for cap, embedded in ((caps.X, entry.problem.X), (caps.Y, entry.problem.Y)):
            gap = np.linalg.norm(cap.project(z) - embedded.project(z))
            assert gap <= 1e-12 * max(1.0, np.linalg.norm(z))


def test_socp_far_start_projects_into_the_cone():
    # Dykstra over [cone, L] stalled at [0, 0.5, 0.5, 0.5] from this start,
    # 0.61 outside the cone: the cone step kept returning the apex.
    X = make_socp().problem.X
    z = np.array([-8.608, 1.847, -2.812, -2.508])
    x = X.project(z)
    assert np.linalg.norm(x[1:]) - x[0] <= 1e-12
    assert abs(x[1:].sum() - 1.5) <= 1e-12
    assert np.linalg.norm(z - x) == pytest.approx(10.508, abs=1e-3)


@pytest.mark.parametrize(
    "inner,cut",
    [
        (Ball([0.0, 0.0], 1.0), Ball([3.0, 0.0], 1.0)),  # disjoint balls
        (Ball([0.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0)),  # balls touching at (1, 0)
        (Ball([0.0, 0.0], 1.0), Hyperplane([1.0, 0.0], 2.0)),  # line missing the disc
        (Ball([0.0, 0.0], 1.0), Hyperplane([1.0, 0.0], 1.0)),  # tangent line
        (SecondOrderCone(3), Hyperplane([1.0, 0.0, 0.0], -1.0)),  # plane below the apex
    ],
    ids=["ball-empty", "ball-tangent", "hyperplane-empty", "hyperplane-tangent", "cone-empty"],
)
def test_empty_or_tangent_cut_raises(inner, cut):
    z = np.zeros(inner.dim)
    z[1] = 2.0
    with pytest.raises(ConvergenceError):
        Cap(inner, cut).project(z)


def test_ball_cut_centered_at_the_point_raises_a_typed_error():
    # z is the cut's center and P_inner(z) lies outside the cut ball, so
    # every shifted point is z: the first dual step divided by ||z - c|| = 0.
    with pytest.raises(ConvergenceError):
        Cap(Ball([0.0, 0.0], 1.0), Ball([3.0, 0.0], 1.0)).project([3.0, 0.0])


def test_cap_rejects_other_cuts():
    with pytest.raises(ValueError):
        Cap(Ball([0.0, 0.0], 1.0), Ellipsoid(np.eye(2)))
    with pytest.raises(ValueError):
        Cap(Ball([0.0, 0.0], 1.0), Hyperplane([1.0, 0.0, 0.0], 0.0))
    disc = Ball([1.0, 0.0, 0.0], 1.0, Hyperplane([0.0, 0.0, 1.0], 0.0))
    with pytest.raises(ValueError):
        Cap(Ball([0.0, 0.0, 0.0], 2.0), disc)


def test_cap_point_inside_is_fixed():
    cap = Cap(Ball([0.0, 0.0, 0.0], 1.0), Hyperplane([0.0, 0.0, 1.0], 0.5))
    z = np.array([0.1, -0.2, 0.5])
    x, s = cap.project_dual(z)
    assert np.array_equal(x, z) and s == 0.0


def test_cap_descriptor_gives_curvature_of_catalog_x():
    # socp: the cone boundary within the hyperplane; eq_ellipsoids: the
    # limit sits on Y's ellipsoid. Both refused the curvature when they
    # were Dykstra-backed.
    for make, which in ((make_socp, "X"), (make_eq_constrained_ellipsoids, "Y")):
        entry = make()
        oracle = getattr(entry.problem, which)
        limit = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
        value = curvature(oracle, limit)
        assert np.isfinite(value.kappa) and value.kappa > 0.0
        hull = oracle.affine_hull
        assert hull is entry.problem.common_hull
        # tangent samples within the hull obey dist <= 1.1 kappa r^2
        tangent = value.maximizing_direction
        offsets = [tangent * h for h in (1e-3, -1e-3, 1e-2 / value.kappa, -1e-2 / value.kappa)]
        report = tangent_bound_check(oracle, limit, [limit + o for o in offsets])
        assert report.passed


def test_intersection_oracle_is_exact_where_y_is_a_ball_in_the_hull(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Dykstra ran")

    monkeypatch.setattr(ccrm.sets, "dykstra_project", refuse)
    for make in (make_discs3d, make_socp, make_sdp_feasibility, make_fixed_trace):
        entry = make()
        problem, hull = entry.problem, entry.problem.common_hull
        oracle = intersection_oracle(problem)
        y = problem.Y
        if make in (make_discs3d, make_socp):
            # X has a native form in the hull's coordinates: the pair is
            # solved there, a lens of two discs or the sheet capped by Y.
            assert isinstance(oracle, EmbeddedOracle) and oracle.subspace is hull
            pair = oracle.inner
            assert isinstance(pair, BallLens if make is make_discs3d else Cap)
            assert pair.inner.dim == pair.cut.dim == hull.subspace_dim
            center = hull.to_local(y.in_plane_center)
        else:
            # a spectral set with a trace: the ambient cap by Y's in-plane ball
            pair = oracle
            assert isinstance(pair, Cap) and pair.inner is problem.X
            center = y.in_plane_center
        assert type(pair.cut) is Ball and pair.cut.subspace is None
        assert np.array_equal(pair.cut.center, center) and pair.cut.radius == y.in_plane_radius
        assert oracle.distance(entry.suggested_z0) > 0.0
    # Y is an ellipsoid within the hull, not a ball, so X & Y stays with Dykstra
    assert isinstance(intersection_oracle(make_eq_constrained_ellipsoids().problem), DykstraIntersection)


def test_intersection_oracle_cuts_x_by_a_hyperplane_halfspace_or_ball_y(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Dykstra ran")

    monkeypatch.setattr(ccrm.sets, "dykstra_project", refuse)
    for variant in ("halfplane", "line"):
        entry = make_epigraph(2.0, 1.0, variant)
        oracle = intersection_oracle(entry.problem)
        assert isinstance(oracle, Cap)
        assert oracle.inner is entry.problem.X and oracle.cut is entry.problem.Y
        assert oracle.distance(entry.suggested_z0) > 0.0
    # two whole-space balls are a lens, as in the hull's coordinates
    for Y in (Ball([2.5, 0.0], 1.0), Halfspace([1.0, 0.0], 1.5), Hyperplane([1.0, 0.0], 1.5)):
        problem = FeasibilityProblem(Ball([0.0, 0.0], 2.0), Y)
        oracle = intersection_oracle(problem)
        assert isinstance(oracle, BallLens if type(Y) is Ball else Cap) and oracle.cut is Y
        assert oracle.distance([3.0, 1.0]) > 0.0


def test_intersection_oracle_of_two_whole_space_balls_is_their_lens():
    # The pair rule of the hull's coordinates holds in the whole space: a
    # lens 1e-9 from tangency gets the closed form, not the cap's rim search.
    X, Y = Ball([0.0, 0.0, 0.0], 1.0), Ball([2.0 - 1e-9, 0.0, 0.0], 1.0)
    oracle = intersection_oracle(FeasibilityProblem(X, Y))
    assert isinstance(oracle, BallLens) and oracle.inner is X and oracle.cut is Y
    # two intervals are not a lens
    assert isinstance(intersection_oracle(FeasibilityProblem(Ball([0.0], 1.0), Ball([1.5], 1.0))), Cap)


def _lens_projection(z):
    """Closed-form projection onto {||x|| <= 1, x_1 <= -0.2}: the first
    of z, the disc's and the line's projection that lies in both sets,
    else the corner on z's side."""
    corner = math.sqrt(1.0 - 0.2**2)
    if np.linalg.norm(z) <= 1.0 and z[0] <= -0.2:
        return z
    on_disc = z / max(1.0, np.linalg.norm(z))
    if on_disc[0] <= -0.2:
        return on_disc
    if abs(z[1]) <= corner:
        return np.array([-0.2, z[1]])
    return np.array([-0.2, math.copysign(corner, z[1])])


@pytest.mark.parametrize("k", range(16))
def test_halfspace_cap_is_the_lens_projection_at_every_scale(k):
    # Dykstra over the disc and the halfplane, at tol 1e-13, returns
    # (-0.2, 0.9578) for [3e15, 1e16]; the projection is the corner
    # (-0.2, 0.9798). The residual's own rounding at x, not the far
    # point's, decides where the cap stops.
    cap = Cap(Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], -0.2))
    assert cap.affine_hull is None
    points = 10.0**k * np.random.default_rng(74 + k).normal(size=(50, 2))
    for z in np.vstack([points, [[3e15, 1e16]]]):
        assert np.linalg.norm(cap.project(z) - _lens_projection(z)) <= 1e-13


def test_halfspace_cap_keeps_an_inner_projection_that_meets_the_cut():
    cap = Cap(Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], -0.2))
    x, s = cap.project_dual(np.array([-3.0, 0.5]))
    assert s == 0.0 and np.array_equal(x, Ball([0.0, 0.0], 1.0).project([-3.0, 0.5]))


def test_cap_takes_the_inner_projection_it_is_given():
    # project_dual(z, inner_z=P_inner(z)) is project_dual(z), bitwise, and
    # makes one inner projection fewer. socp's cap is in its hull's coordinates.
    entry = make_socp()
    oracle, hull = intersection_oracle(entry.problem), entry.problem.common_hull
    assert isinstance(oracle, EmbeddedOracle) and oracle.subspace is hull
    cap = oracle.inner
    assert isinstance(cap, Cap)
    limit = hull.to_local(run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0).final)
    calls = []
    inner_project = cap.inner.project
    cap.inner.project = lambda z: calls.append(1) or inner_project(z)
    for z in _around(limit, np.random.default_rng(75), (1e-1, 1e-3), 8):
        del calls[:]
        x, s = cap.project_dual(z)
        plain = len(calls)
        px = inner_project(z)
        del calls[:]
        x_given, s_given = cap.project_dual(z, inner_z=px)
        assert np.array_equal(x, x_given) and s == s_given
        assert len(calls) == plain - 1


def test_socp_far_points_take_a_bounded_number_of_cone_projections():
    # Far from the apex P_SOC returns 0 over a range of the dual value, so
    # the residual repeats exactly (-1.5) there. The regula falsi crept in
    # from that flat side: up to 39 cone projections for one X projection.
    problem, z0 = cap_socp()
    X = problem.X
    cone_project, counts = X.inner.project, []
    X.inner.project = lambda z: counts.append(1) or cone_project(z)
    rng = np.random.default_rng(2)
    per_call = []
    for _ in range(200):
        z = z0 + 1e3 * rng.normal(size=4)
        del counts[:]
        x = X.project(z)
        per_call.append(len(counts))
        scale = np.linalg.norm(z)
        assert np.linalg.norm(x[1:]) - x[0] <= 1e-12 * scale
        assert abs(x[1:].sum() - 1.5) <= 1e-12 * scale
    assert max(per_call) <= 20
    assert np.median(per_call) <= 7


# -- the two-ball lens ------------------------------------------------------------


def _discs3d_lens():
    oracle = intersection_oracle(make_discs3d().problem)
    assert isinstance(oracle, EmbeddedOracle) and isinstance(oracle.inner, BallLens)
    return oracle.inner


def _lenses():
    c = np.array([0.3, -0.2, 0.1])
    e = np.array([2.0, 1.0, -2.0]) / 3.0
    return {
        "discs3d": _discs3d_lens(),
        "zoo": BallLens(Ball([0.2, -0.1, 0.3], 1.0), Ball([1.1, 0.4, 0.0], 0.8)),
        "thin": BallLens(Ball(c, 1.0), Ball(c + (2.0 - 1e-9) * e, 1.0)),
        "unequal": BallLens(Ball(c, 0.2), Ball(c + 3.0 * e, 3.1)),
    }


def _lens_points(lens, rng, count=200):
    """Points of the lens drawn independently of its projection: rim points,
    the rim center and the poles, and rejection samples from the inner ball."""
    (c1, r1), (c2, r2) = (lens.inner.center, lens.inner.radius), (lens.cut.center, lens.cut.radius)
    n, e = c1.shape[0], (c2 - c1) / np.linalg.norm(c2 - c1)
    D = np.linalg.norm(c2 - c1)
    a = (D**2 + r1**2 - r2**2) / (2.0 * D)
    m, rho = c1 + a * e, np.sqrt(max(r1**2 - a**2, 0.0))
    points = [m, c1 + r1 * e, c2 - r2 * e]
    for _ in range(count):
        u = rng.normal(size=n)
        u -= (u @ e) * e
        points.append(m + rho * u / np.linalg.norm(u))
        s = rng.normal(size=n)
        y = c1 + r1 * rng.random() ** (1.0 / n) * s / np.linalg.norm(s)
        if np.linalg.norm(y - c2) <= r2:
            points.append(y)
    return points


@pytest.mark.parametrize("name", ["discs3d", "zoo", "thin", "unequal"])
def test_lens_is_exact_at_every_scale(name):
    # Membership of both balls and the variational inequality
    # <z - x, y - x> <= 0 at points y of the lens, for draws at 1e-3 ... 1e300
    # around the lens; the variational inequality is scaled by ||z - x||.
    lens = _lenses()[name]
    rng = np.random.default_rng(76)
    points = _lens_points(lens, rng)
    size = lens.inner.radius + np.linalg.norm(lens.inner.center)
    for k in range(-3, 301, 3):
        for _ in range(8):
            z = lens.inner.center + 10.0**k * rng.normal(size=lens.dim)
            x = lens.project(z)
            assert np.all(np.isfinite(x))
            for ball in (lens.inner, lens.cut):
                assert np.linalg.norm(x - ball.center) - ball.radius <= 8.0 * EPS * size, (name, k)
            r = z - x
            s = np.max(np.abs(r))
            if s == 0.0:
                continue
            u = (r / s) / np.linalg.norm(r / s)
            for y in points:
                assert u @ (y - x) <= 1e-12 * max(np.linalg.norm(y - x), 1.0), (name, k)


@pytest.mark.parametrize("name", ["discs3d", "zoo", "unequal"])
def test_lens_agrees_with_the_cap_of_its_balls(name):
    # Not the thin lens: there the cap's dual value places its rim point
    # only to about 5e-12 along the rim, which a rim of radius 4.5e-5
    # magnifies; the lens passes the variational inequality there.
    lens = _lenses()[name]
    cap = Cap(lens.inner, lens.cut)
    rng = np.random.default_rng(77)
    for scale in (1e-2, 1.0, 1e2):
        for _ in range(20):
            z = lens.inner.center + scale * rng.normal(size=lens.dim)
            assert np.linalg.norm(lens.project(z) - cap.project(z)) <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("name", ["discs3d", "zoo", "thin", "unequal"])
def test_lens_takes_the_inner_projection_it_is_given(name):
    # project_given(z, P_inner(z)) is project(z), bitwise, and makes no
    # inner projection; project(z) makes exactly one.
    lens = _lenses()[name]
    calls = []
    inner_project = lens.inner.project
    lens.inner.project = lambda z: calls.append(1) or inner_project(z)
    rng = np.random.default_rng(78)
    for _ in range(40):
        z = lens.inner.center + 3.0 * rng.normal(size=lens.dim)
        del calls[:]
        x = lens.project(z)
        assert len(calls) == 1
        px = inner_project(z)
        assert np.array_equal(lens.project_given(z, px), x) and len(calls) == 1


@pytest.mark.parametrize("name", ["discs3d", "zoo", "thin", "unequal"])
def test_lens_boundary_descriptor_is_its_inner_balls(name):
    lens = _lenses()[name]
    rng = np.random.default_rng(80)
    for z in [lens.project(lens.inner.center + 3.0 * rng.normal(size=lens.dim)) for _ in range(10)]:
        for got, want in zip(boundary_eval(lens, z), boundary_eval(lens.inner, z)):
            assert np.array_equal(got, want)


def test_lens_of_nested_balls_is_the_smaller_ball():
    big, small = Ball([0.0, 0.0], 2.0), Ball([0.5, 0.3], 1.0)
    touching = Ball([1.0, 0.0], 1.0)  # inside big, touching it at (2, 0)
    rng = np.random.default_rng(79)
    for inner, cut, smaller in ((big, small, small), (small, big, small), (big, touching, touching),
                                (small, Ball([0.5, 0.3], 1.0), small)):
        lens = BallLens(inner, cut)
        for _ in range(20):
            z = 3.0 * rng.normal(size=2)
            assert np.array_equal(lens.project(z), smaller.project(z))
            assert np.array_equal(lens.project_given(z, inner.project(z)), smaller.project(z))


@pytest.mark.parametrize(
    "second",
    [Ball([3.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), Ball([2.0 - 1e-16, 0.0], 1.0)],
    ids=["disjoint", "tangent", "tangent-to-rounding"],
)
def test_lens_of_tangent_or_disjoint_balls_raises_when_built(second):
    # The cap of one ball by the other raises at its first projection.
    with pytest.raises(ConvergenceError):
        Cap(Ball([0.0, 0.0], 1.0), second).project([0.0, 2.0])
    with pytest.raises(ConvergenceError, match="tangent or disjoint"):
        BallLens(Ball([0.0, 0.0], 1.0), second)


def test_lens_rejects_other_sets():
    plane = Hyperplane([0.0, 0.0, 1.0], 0.0)
    for inner, cut in ((Ball([0.0], 1.0), Ball([1.0], 1.0)),
                       (Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0, 0.0], 1.0)),
                       (Ball([0.0, 0.0, 0.0], 1.0), Ball([1.0, 0.0, 0.0], 1.0, plane)),
                       (Ball([0.0, 0.0], 1.0), Ellipsoid(np.eye(2), center=[1.0, 0.0]))):
        with pytest.raises(ValueError):
            BallLens(inner, cut)


def test_lens_on_the_axis_of_the_centres():
    # Beyond either pole the answer is that pole; between them, the point.
    lens = BallLens(Ball([0.0, 0.0, 0.0], 1.0), Ball([1.5, 0.0, 0.0], 1.0))
    for t, want in ((10.0, 1.0), (1e300, 1.0), (-10.0, 0.5), (-1e300, 0.5), (0.75, 0.75), (0.6, 0.6)):
        assert np.array_equal(lens.project([t, 0.0, 0.0]), [want, 0.0, 0.0])
    # the rim's center lies on the axis inside the lens
    thin = _lenses()["thin"]
    center = thin._rim_center
    assert np.array_equal(thin.project(center), center)
    # The rim branch at a point of the axis, reached here through a given
    # inner projection that misses the cut: every rim point is as near as
    # any other, and the lens returns one, not 0 / 0.
    z = lens.cut.center + 5.0 * lens._axis
    x = lens.project_given(z, lens.inner.center - lens._axis)
    for ball in (lens.inner, lens.cut):
        assert abs(np.linalg.norm(x - ball.center) - ball.radius) <= 4.0 * EPS
    # points just off the axis beyond the thin lens's rim go to the rim
    e = thin._axis
    off = center + 1e-3 * thin._across
    x = thin.project(off)
    assert abs(np.linalg.norm(x - thin.inner.center) - 1.0) <= 4.0 * EPS
    assert abs(np.linalg.norm(x - thin.cut.center) - 1.0) <= 4.0 * EPS
    assert abs((x - center) @ e) <= 4.0 * EPS
