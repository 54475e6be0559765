"""The exact cap oracle: a set cut by one hyperplane or one ball."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ccrm import catalog, cli, diagnostics, sets, solvers

from ccrm.catalog import (
    make_discs3d,
    make_ellipses,
    make_epigraph,
    make_eq_constrained_ellipsoids,
    make_fixed_trace,
    make_sdp_feasibility,
    make_socp,
    resolve,
)
from ccrm.diagnostics import curvature, intersection_oracle
from ccrm.errors import ConvergenceError, NonFiniteError
from ccrm.linalg import EPS, sym_to_vec
from ccrm.sets import (
    Ball,
    BallLens,
    Cap,
    Ellipsoid,
    EllipsoidLens,
    EmbeddedOracle,
    Halfspace,
    Hyperplane,
    PowerEpigraph,
    SecondOrderCone,
    SpectralSet,
    boundary_eval,
)
from ccrm.solvers import FeasibilityProblem, SolverConfig, run

from helpers import cap_eq_ellipsoids, cap_socp, dykstra_project, general_sdp, tangent_bound_check


def _catalog(make):
    def build():
        entry = make()
        return entry.problem, entry.suggested_z0

    return build


# (name, problem builder, the cap under test); hyperplane caps are the
# problem's X, ball caps the exact X & Y of intersection_oracle (for
# discs3d the lens of its two discs in the hull's coordinates). The socp
# cap is its cone cut by its hull, and the eq_ellipsoids caps are its
# ambient ellipsoids cut by its hull. The ellipse pairs are the lenses of
# their two ellipsoids in the hull's coordinates.
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
ELLIPSOID_PAIRS = [
    ("ellipses", _catalog(make_ellipses)),
    ("eq_ellipsoids-lens", _catalog(make_eq_constrained_ellipsoids)),
]
ALL_CAPS = [(name, build, "X") for name, build in HYPERPLANE_CAPS] + [
    (name, build, "X&Y") for name, build in BALL_CAPS + ELLIPSOID_PAIRS
]


def _cap(problem, which):
    """(the cap under test, the map of ambient points into its coordinates).
    The X & Y of discs3d and of the ellipse pairs is a lens of the common
    hull's coordinates, embedded."""
    cap = problem.X if which == "X" else intersection_oracle(problem)
    if isinstance(cap, EmbeddedOracle):
        hull = problem.common_hull
        assert cap.subspace is hull and isinstance(cap.inner, (BallLens, EllipsoidLens))
        return cap.inner, hull.to_local
    assert isinstance(cap, Cap)
    return cap, lambda z: z


def _assert_lens_kkt(lens, z, tol):
    # x is the projection onto the lens iff it lies in both sets and z - x
    # is a nonnegative combination of the outward normals of the sets whose
    # boundary it is on: x - c_i for a ball, Q_i (x - c_i) for an ellipsoid,
    # whose g_i is (x - c_i)^T Q_i (x - c_i) - 1.
    x = lens.project(z)
    sets = (lens.inner, lens.cut)
    if isinstance(lens, BallLens):
        g = [np.linalg.norm(x - b.center) - b.radius for b in sets]
        normals = [x - b.center for b in sets]
    else:
        normals = [e.Q @ (x - e.center) for e in sets]
        g = [(x - e.center) @ a - 1.0 for e, a in zip(sets, normals)]
    assert max(g) <= tol
    normals = np.column_stack([n for n, gi in zip(normals, g) if gi >= -tol] or [0.0 * x])
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
        if isinstance(cap, (BallLens, EllipsoidLens)):
            _assert_lens_kkt(cap, z, 1e-12 * scale)
            continue
        x, s = cap.project_dual(z)
        if isinstance(cut, Hyperplane):  # s is per the cut's stored unit normal
            shifted = z - s * np.array(cut._unit)
        else:
            shifted = cut.center + (z - cut.center) / (1.0 + s)
        assert np.array_equal(x, cap.inner.project(shifted))
        assert np.linalg.norm(cap.inner.project(x) - x) <= 1e-12 * scale
        if isinstance(cut, Hyperplane):
            on_cut = abs(cut.normal @ x - cut.offset) / np.linalg.norm(cut.normal)
        else:
            assert s >= 0.0
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


def test_no_module_has_a_dykstra_path():
    # Every pair oracle is exact: Dykstra is a reference of the tests only.
    for module in (sets, diagnostics, solvers, catalog, cli):
        assert not [name for name in vars(module) if "dykstra" in name.lower()], module.__name__


def test_intersection_oracle_is_exact_where_y_is_a_ball_in_the_hull():
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
    # Y is an ellipsoid within the hull, not a ball: X & Y is the lens of
    # the two ellipsoids in the hull's coordinates
    entry = make_eq_constrained_ellipsoids()
    oracle, hull = intersection_oracle(entry.problem), entry.problem.common_hull
    assert isinstance(oracle, EmbeddedOracle) and oracle.subspace is hull
    assert isinstance(oracle.inner, EllipsoidLens)
    assert oracle.inner.inner is entry.problem.X.inner and oracle.inner.cut is entry.problem.Y.inner
    assert oracle.distance(entry.suggested_z0) > 0.0


@pytest.mark.parametrize("make", [make_ellipses, make_eq_constrained_ellipsoids], ids=["ellipses", "eq_ellipsoids"])
def test_ellipsoid_pair_is_exact_at_every_scale(make):
    # 40 draws z0 + 10^k N(0, I) per scale from 1e0 to 1e300: the output
    # lies in X and in Y, and a second projection keeps it, to 1e-9 max(1,
    # ||x||). Dykstra took 639 ms (ellipses) and 1.58 s (eq_ellipsoids) per
    # call at 1e3.
    entry = make()
    problem, oracle = entry.problem, intersection_oracle(entry.problem)
    rng = np.random.default_rng(5)
    for k in range(0, 301, 10):
        for _ in range(40):
            x = oracle.project(entry.suggested_z0 + 10.0**k * rng.normal(size=problem.dim))
            error = max(problem.X.distance(x), problem.Y.distance(x), np.linalg.norm(oracle.project(x) - x))
            assert error <= 1e-9 * max(1.0, np.linalg.norm(x)), k


def _far_pair(name):
    """(problem, its X & Y oracle, the center of the draws): a catalog
    selector's, or the zoo's PSD cone cut by a ball."""
    if name == "zoo-ball-cap":
        X, Y = SpectralSet(3, lo=0.0), Ball(sym_to_vec(np.diag([1.0, 0.5, -0.3])), 1.0)
        return FeasibilityProblem(X, Y), Cap(X, Y), np.zeros(X.dim)
    entry = resolve(name)
    return entry.problem, intersection_oracle(entry.problem), entry.suggested_z0


@pytest.mark.parametrize("name", ["discs3d", "socp", "sdp", "fixed_trace", "epigraph:a=2,b=1", "zoo-ball-cap"])
def test_pair_oracle_is_exact_or_raises_at_every_scale(name):
    # 40 draws z0 + 10^k N(0, I) per scale from 1e0 to 1e300: the output
    # lies in X and in Y, and a second projection keeps it, to
    # 1e-9 max(1, ||x||), or the call raises ConvergenceError. A ball cut's
    # shifted point formed as (1 - t) z + t c carries the rounding of ||z||,
    # and was wrong from 1e8 on (socp, sdp, fixed_trace, the zoo cap). The
    # ellipse pairs are tested above.
    problem, oracle, z0 = _far_pair(name)
    rng = np.random.default_rng(5)
    for k in (0, 3, 6, 8, 10, 12, 15, 20, 30, 50, 100, 300):
        for _ in range(40):
            z = z0 + 10.0**k * rng.normal(size=problem.dim)
            try:
                x = oracle.project(z)
            except ConvergenceError:
                continue
            error = max(problem.X.distance(x), problem.Y.distance(x), np.linalg.norm(oracle.project(x) - x))
            assert error <= 1e-9 * max(1.0, np.linalg.norm(x)), k


def test_cap_never_returns_a_flat_end_off_the_cut():
    # Over a range of s the inner set projects the shifted point to its
    # apex, and the residual repeats; the secant through the other side
    # then repeated its last step, and the cap returned the apex, off the
    # cut: 0.158 outside the zoo cap's ball, and 1.5 off cap_socp's plane.
    ball_cap = _far_pair("zoo-ball-cap")[1]
    plane_cap = cap_socp()[0].X
    for cap, z in ((ball_cap, 1e59 * np.array([-3.16, -0.248, 0.408, -5.87, 0.079, -2.37])),
                   (plane_cap, 1e21 * np.array([-2.37, 0.61, -0.99, -0.76]))):
        try:
            x = cap.project(z)
        except ConvergenceError:
            continue
        assert max(cap.inner.distance(x), cap.cut.distance(x)) <= 1e-9 * max(1.0, np.linalg.norm(x))


def test_tangent_ball_cut_raises_within_18_inner_projections():
    # A creeping secant doubles its step, and a flat residual widens the
    # search geometrically in log scale: 17 inner projections, where a
    # search that only grew by its secant took 31.
    cap, calls = Cap(Ball([0.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0)), []
    inner_project = cap.inner.project
    cap.inner.project = lambda z: calls.append(1) or inner_project(z)
    with pytest.raises(ConvergenceError, match="tangent"):
        cap.project([0.0, 2.0])
    assert len(calls) <= 18


@pytest.mark.parametrize("name", ["sdp", "fixed_trace"])
def test_spectral_pair_is_exact_at_1e300(name):
    # The bounded inner set leaves the ball cut's residual flat from s = 1
    # to s = ||z - c|| / r: a bracket grown 16 times a step raised "not
    # bracketed" on all 40 draws.
    problem, oracle, z0 = _far_pair(name)
    rng = np.random.default_rng(5)
    for _ in range(40):
        x = oracle.project(z0 + 1e300 * rng.normal(size=problem.dim))
        error = max(problem.X.distance(x), problem.Y.distance(x), np.linalg.norm(oracle.project(x) - x))
        assert error <= 1e-9 * max(1.0, np.linalg.norm(x))


@pytest.mark.parametrize("name", ["sdp", "fixed_trace"])
def test_spectral_pair_at_1e100_takes_few_eigensolves(name, monkeypatch):
    # A bracket grown at most 16 times a step from s = 1 took a median of
    # 94 (sdp) and 96 (fixed_trace) eigensolves.
    eighs, eigh = [0], sets._eigh
    monkeypatch.setattr(sets, "_eigh", lambda S: eighs.__setitem__(0, eighs[0] + 1) or eigh(S))
    problem, oracle, z0 = _far_pair(name)
    rng = np.random.default_rng(5)
    per_call = []
    for _ in range(40):
        eighs[0] = 0
        oracle.project(z0 + 1e100 * rng.normal(size=problem.dim))
        per_call.append(eighs[0])
    assert min(per_call) > 0
    assert np.median(per_call) <= 30


def test_zoo_ball_cap_is_exact_on_a_far_ray():
    # From the flat end at the PSD cone's apex the secant repeated its
    # step: "not resolved" on 20 of these 80 multiples, 1e50 ... 1e69.75.
    problem, oracle, _ = _far_pair("zoo-ball-cap")
    direction = np.array([-3.16, -0.248, 0.408, -5.87, 0.079, -2.37])
    for k in range(80):
        x = oracle.project(10.0 ** (50.0 + 0.25 * k) * direction)
        error = max(problem.X.distance(x), problem.Y.distance(x), np.linalg.norm(oracle.project(x) - x))
        assert error <= 1e-9 * max(1.0, np.linalg.norm(x)), k


@pytest.mark.parametrize("build", [cap_socp, general_sdp], ids=["cap_socp", "general_sdp"])
def test_hyperplane_cap_meets_its_cut_or_raises(build):
    # Far out the dual shift z - s a cancels; without a check on the output
    # the cap returned points up to 1.5 off the hyperplane (cap_socp 1-6 of
    # 40 per scale from 1e8, general_sdp 34-40 of 40). An output meets its
    # cut to 1e-9 max(1, ||x||), or the cap raises.
    problem, z0 = build()
    cap = problem.X
    rng = np.random.default_rng(5)
    for k in (6, 8, 10, 12, 15, 50, 100):
        for _ in range(40):
            try:
                x = cap.project(z0 + 10.0**k * rng.normal(size=z0.shape[0]))
            except ConvergenceError:
                continue
            assert cap.cut.distance(x) <= 1e-9 * max(1.0, np.linalg.norm(x)), k


def test_ellipsoid_lens_takes_the_inner_projection_it_is_given():
    # project_given(z, P_inner(z)) is project(z), bitwise, and makes no
    # inner projection; project(z) makes exactly one.
    # The hook is the inner kernel, which the lens calls on the point it has
    # validated, and which the inner set's own project calls too.
    lens = _discs_as_ellipsoids()
    calls = []
    inner_project = lens.inner._project
    lens.inner._project = lambda z, x: calls.append(1) or inner_project(z, x)
    rng = np.random.default_rng(81)
    for _ in range(40):
        z = 3.0 * rng.normal(size=2)
        px = lens.inner.project(z)
        del calls[:]
        x = lens.project(z)
        assert len(calls) == 1
        assert np.array_equal(lens.project_given(z, px), x) and len(calls) == 1


def _discs_as_ellipsoids():
    # the discs3d lens, in its plane, as two ellipsoids
    ball_lens = _discs3d_lens()
    return EllipsoidLens(*(Ellipsoid(np.eye(2) / b.radius**2, b.center) for b in (ball_lens.inner, ball_lens.cut)))


def test_ellipsoid_lens_of_two_discs_is_their_ball_lens():
    ball_lens, lens = _discs3d_lens(), _discs_as_ellipsoids()
    rng = np.random.default_rng(82)
    for scale in (1e-2, 1.0, 1e2, 1e100):
        for _ in range(20):
            z = ball_lens.inner.center + scale * rng.normal(size=2)
            assert np.linalg.norm(lens.project(z) - ball_lens.project(z)) <= 1e-12 * max(1.0, scale)


# Overlapping pairs (Q_1, Q_2, c_2, a direction of z; c_1 = 0) drawn at
# random, on which Newton without its safeguards raised ConvergenceError:
# without the dual-ascent test it cycled on the first, quartering lam_1
# and overshooting lam_2; without the active set it stalled on the others
# with one multiplier crawling to 0.
HARD_PAIRS = {
    "cycling": (
        [[2.145874063188807, 0.021600753638147153], [0.021600753638147153, 0.24709296304247044]],
        [[0.24519796430581067, 0.43294941715579005], [0.43294941715579005, 1.3989731694648484]],
        [0.13423994708633882, -0.11078013611159404], [0.2246385236493769, 2.5500346363079057],
    ),
    "active-set-2d": (
        [[1.0143593814675143, 1.624093399799265], [1.624093399799265, 4.369675727969125]],
        [[0.6219451580366302, -0.3614701235080561], [-0.3614701235080561, 0.4075513453473928]],
        [0.5252379357769884, -2.851557667416043], [-0.06923463825462314, -1.6688536473865703],
    ),
    "active-set-3d": (
        [[4.689144757321516, -1.529063579101911, -0.5387926043180514],
         [-1.529063579101911, 1.757357394929563, -1.639832932074148],
         [-0.5387926043180514, -1.639832932074148, 3.908098406955054]],
        [[2.704134389401691, 1.3661989005457262, 0.5165425926241088],
         [1.3661989005457262, 3.7076200207536645, 0.5067703264834285],
         [0.5165425926241088, 0.5067703264834285, 0.26557340170276317]],
        [-1.0093714925914228, -1.933574425684407, -0.23323282085238398],
        [0.2543144827704248, -1.189256233676433, 0.23966781175697333],
    ),
}


@pytest.mark.parametrize("scale", [1e3, 1e50, 1e120, 1e166, 1e181])
@pytest.mark.parametrize("name", list(HARD_PAIRS))
def test_ellipsoid_lens_converges_on_hard_pairs(name, scale):
    # The output lies on both boundaries, or in the set whose multiplier is
    # 0, and z - x is a nonnegative combination of the normals Q_i (x - c_i)
    # of the sets it lies on, which certifies it.
    Q1, Q2, c2, direction = HARD_PAIRS[name]
    inner, cut = Ellipsoid(Q1), Ellipsoid(Q2, center=c2)
    z = scale * np.array(direction)
    x = EllipsoidLens(inner, cut).project(z)
    normals = np.column_stack([e.Q @ (x - e.center) for e in (inner, cut)])
    g = np.array([(x - e.center) @ n - 1.0 for e, n in zip((inner, cut), normals.T)])
    assert np.all(g <= 1e-14)
    r = (z - x) / scale
    lam = np.linalg.lstsq(normals[:, g >= -1e-14], r, rcond=None)[0]  # the multipliers over scale
    assert np.all(lam >= 0.0)
    assert np.linalg.norm(normals[:, g >= -1e-14] @ lam - r) <= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "center", [[3.0, 0.0], [2.0, 0.0]], ids=["disjoint", "tangent"]
)
def test_ellipsoid_lens_of_tangent_or_disjoint_ellipsoids_raises(center):
    # from near and far points, with no warning on the way
    lens = EllipsoidLens(Ellipsoid(np.eye(2)), Ellipsoid(np.eye(2), center=center))
    for z in ([1.0, 2.0], [1e200, 3e200], [1.0, -1e-3]):
        with pytest.raises(ConvergenceError, match="tangent or disjoint"):
            lens.project(z)


@pytest.mark.filterwarnings("error")
def test_ellipsoid_lens_refuses_disjoint_ellipsoids_whose_multipliers_overflow():
    # Newton's trial points leave the finite range on the way; that is the
    # same refusal, not a NonFiniteError.
    cut = Ellipsoid(np.diag([0.7580509454996001, 1.4103419001695447]), center=[4.292521918673152, 0.0])
    with pytest.raises(ConvergenceError, match="tangent or disjoint"):
        EllipsoidLens(Ellipsoid(np.eye(2)), cut).project([73917808711155.03, -51133383894709.44])


def test_ellipsoid_lens_rejects_other_sets():
    for inner, cut in ((Ellipsoid(np.eye(2)), Ellipsoid(np.eye(3))),
                       (Ellipsoid(np.eye(2)), Ball([1.0, 0.0], 1.0)),
                       (Ball([0.0, 0.0], 1.0), Ellipsoid(np.eye(2)))):
        with pytest.raises(ValueError):
            EllipsoidLens(inner, cut)


def test_intersection_oracle_cuts_x_by_a_hyperplane_halfspace_or_ball_y():
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [Halfspace, Hyperplane])
@pytest.mark.parametrize("a", [1e-300, 1e-200, 1e200, 1e300])
def test_cap_reads_its_cut_at_every_normal_scale(kind, a):
    # The cap reads the cut's unit normal and level, so a normal past the
    # square's overflow, or below its underflow, is the unit one's cut.
    inner = PowerEpigraph(2.0, 0.5)
    want = Cap(inner, kind([0.0, 1.0], 0.0)).project([1.0, 2.0])
    got = Cap(inner, kind([0.0, a], 0.0)).project([1.0, 2.0])
    assert got.tobytes() == want.tobytes()


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


def _exact_rim(lens):
    """The rim center and radius of a lens from its float centers and radii
    in 60-digit Decimal arithmetic, each rounded once to float."""
    (c1, r1), (c2, r2) = (lens.inner.center, lens.inner.radius), (lens.cut.center, lens.cut.radius)
    with localcontext() as ctx:
        ctx.prec = 60
        d = [Decimal(b) - Decimal(a) for a, b in zip(c1.tolist(), c2.tolist())]
        D = sum(x * x for x in d).sqrt()
        a = (D * D + Decimal(r1) ** 2 - Decimal(r2) ** 2) / (2 * D)
        m = [Decimal(c) + a * x / D for c, x in zip(c1.tolist(), d)]
        return np.array([float(x) for x in m]), float((Decimal(r1) ** 2 - a * a).sqrt())


def _lens_points(lens, rng, count=200):
    """Points of the lens drawn independently of its projection: rim points,
    the rim center and the poles, and rejection samples from the inner ball."""
    (c1, r1), (c2, r2) = (lens.inner.center, lens.inner.radius), (lens.cut.center, lens.cut.radius)
    n, e = c1.shape[0], (c2 - c1) / np.linalg.norm(c2 - c1)
    m, rho = _exact_rim(lens)
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


def test_thin_lens_rim_radius_is_within_four_ulps():
    # With D rounded once, its half-ulp error over the gap r1 + r2 - D of
    # about 1e-9 put this rim radius 4.6e-8 relative off.
    lens = _lenses()["thin"]
    rho = _exact_rim(lens)[1]
    assert abs(lens._rim_radius - rho) <= 4.0 * math.ulp(rho)


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
    # The hook is the inner kernel, which the lens calls on the point it has
    # validated, and which the inner set's own project calls too.
    lens = _lenses()[name]
    calls = []
    inner_project = lens.inner._project
    lens.inner._project = lambda z, x: calls.append(1) or inner_project(z, x)
    rng = np.random.default_rng(78)
    for _ in range(40):
        z = lens.inner.center + 3.0 * rng.normal(size=lens.dim)
        px = lens.inner.project(z)
        del calls[:]
        x = lens.project(z)
        assert len(calls) == 1
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


@pytest.mark.filterwarnings("error")
def test_lens_of_centers_whose_distance_overflows_raises_when_built():
    with pytest.raises(NonFiniteError, match="distance between the centers overflows"):
        BallLens(Ball([-1e308, 0.0], 1e308), Ball([1e308, 0.0], 1.5e308))
    # each difference is a float, their norm is not
    with pytest.raises(NonFiniteError, match="distance between the centers overflows"):
        BallLens(Ball([-0.7e308, -0.7e308], 1e308), Ball([0.7e308, 0.7e308], 1e308))


@pytest.mark.filterwarnings("error")
def test_lens_of_radii_whose_sum_overflows_raises_when_built():
    # The exact gap quotient overflowed (a bare OverflowError), and an
    # infinite r1 + r2 took a lens whose radii sum past D for tangent.
    for inner, cut in (
        (Ball([0.0, 0.0], 1.5e308), Ball([1.0, 0.0], 1.5e308)),
        (Ball([0.0, 0.0], 1e308), Ball([1e308, 1e308], 1e308)),
    ):
        with pytest.raises(NonFiniteError, match="sum of the radii overflows"):
            BallLens(inner, cut)


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
