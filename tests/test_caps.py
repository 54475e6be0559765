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
from ccrm.sets import (
    Ball,
    Cap,
    DykstraIntersection,
    Ellipsoid,
    Halfspace,
    Hyperplane,
    SecondOrderCone,
    dykstra_project,
)
from ccrm.solvers import FeasibilityProblem, SolverConfig, run

from helpers import cap_eq_ellipsoids, general_sdp


def _catalog(make):
    def build():
        entry = make()
        return entry.problem, entry.suggested_z0

    return build


# (name, problem builder, the cap under test); hyperplane caps are the
# problem's X, ball caps the exact X & Y of intersection_oracle. The
# eq_ellipsoids caps are its ambient ellipsoids cut by its hull.
HYPERPLANE_CAPS = [
    ("socp", _catalog(make_socp)),
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
    cap = problem.X if which == "X" else intersection_oracle(problem)
    assert isinstance(cap, Cap)
    return cap


def _around(center, rng, radii, per_radius):
    for rho in radii:
        for _ in range(per_radius):
            s = rng.normal(size=center.shape[0])
            yield center + rho * s / np.linalg.norm(s)


@pytest.mark.parametrize("name,build,which", ALL_CAPS, ids=[c[0] for c in ALL_CAPS])
def test_cap_agrees_with_tight_dykstra_near_the_limit(name, build, which):
    problem, z0 = build()
    cap = _cap(problem, which)
    limit = run(problem, SolverConfig(method="ccrm"), z0).final
    rng = np.random.default_rng(71)
    leaves = [cap.inner, cap.cut] if which == "X" else [problem.X, problem.Y]
    for z in _around(limit, rng, (1e-1, 1e-2, 1e-3, 1e-4), 8):
        reference = dykstra_project(leaves, z, tol=1e-15)
        assert np.linalg.norm(cap.project(z) - reference) <= 1e-12, name


@pytest.mark.parametrize("name,build,which", ALL_CAPS, ids=[c[0] for c in ALL_CAPS])
def test_cap_kkt_certificate_at_far_points(name, build, which):
    # x = P_inner(shifted(z, s)) with x on the cut is the optimality system
    # of the projection onto inner & cut, so it certifies x without a
    # reference solver.
    problem, z0 = build()
    cap = _cap(problem, which)
    cut, scale = cap.cut, 1e3
    rng = np.random.default_rng(72)
    for _ in range(16):
        z = z0 + scale * rng.normal(size=z0.shape[0])
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
        oracle = intersection_oracle(entry.problem)
        assert isinstance(oracle, Cap)
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
    for Y in (Ball([2.5, 0.0], 1.0), Halfspace([1.0, 0.0], 1.5), Hyperplane([1.0, 0.0], 1.5)):
        problem = FeasibilityProblem(Ball([0.0, 0.0], 2.0), Y)
        oracle = intersection_oracle(problem)
        assert isinstance(oracle, Cap) and oracle.cut is Y
        assert oracle.distance([3.0, 1.0]) > 0.0


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
    # makes one inner projection fewer.
    entry = make_socp()
    cap = intersection_oracle(entry.problem)
    limit = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
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
    entry = make_socp()
    X = entry.problem.X
    cone_project, counts = X.inner.project, []
    X.inner.project = lambda z: counts.append(1) or cone_project(z)
    rng = np.random.default_rng(2)
    per_call = []
    for _ in range(200):
        z = entry.suggested_z0 + 1e3 * rng.normal(size=4)
        del counts[:]
        x = X.project(z)
        per_call.append(len(counts))
        scale = np.linalg.norm(z)
        assert np.linalg.norm(x[1:]) - x[0] <= 1e-12 * scale
        assert abs(x[1:].sum() - 1.5) <= 1e-12 * scale
    assert max(per_call) <= 20
    assert np.median(per_call) <= 7
