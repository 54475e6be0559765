"""The exact cap oracle: a set cut by one hyperplane or one ball."""

import numpy as np
import pytest

import ccrm.sets

from ccrm.catalog import (
    make_discs3d,
    make_eq_constrained_ellipsoids,
    make_fixed_trace,
    make_sdp_feasibility,
    make_socp,
)
from ccrm.diagnostics import curvature, intersection_distance, intersection_oracle, tangent_bound_check
from ccrm.errors import ConvergenceError
from ccrm.sets import (
    Ball,
    Cap,
    DykstraIntersection,
    Ellipsoid,
    Hyperplane,
    SecondOrderCone,
    dykstra_project,
)
from ccrm.solvers import SolverConfig, run

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


def test_cap_rejects_other_cuts():
    with pytest.raises(ValueError):
        Cap(Ball([0.0, 0.0], 1.0), Ellipsoid(np.eye(2)))
    with pytest.raises(ValueError):
        Cap(Ball([0.0, 0.0], 1.0), Hyperplane([1.0, 0.0, 0.0], 0.0))


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
        assert isinstance(intersection_oracle(entry.problem), Cap)
        assert intersection_distance(entry.problem, entry.suggested_z0) > 0.0
    # Y is an ellipsoid within the hull, not a ball, so X & Y stays with Dykstra
    assert isinstance(intersection_oracle(make_eq_constrained_ellipsoids().problem), DykstraIntersection)
