import numpy as np
import pytest

from ccrm.circumcenter import (
    COINCIDENT_ALL,
    NONDEGENERATE,
    REDUCED_RANK,
    CircumResult,
    circumcenter,
)
from ccrm.errors import GeometryError

from helpers import circumcenter_loop, random_orthogonal


def equidistance_spread(center, points):
    d = [np.linalg.norm(center - p) for p in points]
    return max(d) - min(d)


def test_right_triangle():
    r = circumcenter([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(r.center, [1.0, 1.0])
    assert r.status == NONDEGENERATE


def test_equilateral():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]
    r = circumcenter(pts)
    assert np.allclose(r.center, [0.5, np.sqrt(3.0) / 6.0], atol=1e-12)


def test_all_coincident():
    p = np.array([0.3, -0.7, 2.0])
    r = circumcenter([p, p, p])
    assert np.allclose(r.center, p)
    assert r.status == COINCIDENT_ALL


def test_single_point():
    r = circumcenter_loop([[1.0, 2.0]])
    assert np.allclose(r.center, [1.0, 2.0])


def test_two_distinct_points_midpoint():
    r = circumcenter_loop([[0.0, 0.0, 0.0], [2.0, 4.0, 0.0]])
    assert np.allclose(r.center, [1.0, 2.0, 0.0])


def test_two_coincide_reduces_to_bisector():
    # duplicated vertex: the solve reduces to the two distinct points
    r = circumcenter([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    assert np.allclose(r.center, [1.0, 0.0])
    assert r.status == REDUCED_RANK


def test_random_triple_high_dimension_equidistant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = rng.normal(size=(3, 5))
        r = circumcenter(pts)
        scale = 1.0 + max(
            np.linalg.norm(a - b) for a in pts for b in pts
        )
        assert equidistance_spread(r.center, pts) <= 1e-9 * scale


def test_center_lies_in_affine_hull():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(3, 6))
    r = circumcenter(pts)
    V = (pts[1:] - pts[0]).T
    resid = r.center - pts[0]
    coeffs, *_ = np.linalg.lstsq(V, resid, rcond=None)
    assert np.linalg.norm(V @ coeffs - resid) <= 1e-10


def test_collinear_distinct_points_raise():
    with pytest.raises(GeometryError):
        circumcenter([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])


def test_isometry_equivariance():
    rng = np.random.default_rng(21)
    for _ in range(200):
        pts = rng.normal(size=(3, 4))
        Q = random_orthogonal(rng, 4)
        t = rng.normal(size=4)
        base = circumcenter(pts).center
        moved = circumcenter(pts @ Q.T + t).center
        scale = 1.0 + max(np.linalg.norm(a - b) for a in pts for b in pts)
        assert np.linalg.norm(moved - (Q @ base + t)) <= 1e-9 * scale


def test_near_coincident_triple_is_stable():
    # collapse pattern near convergence of circumcenter iterations
    base = np.array([0.7, -0.2])
    pts = [base, base + np.array([1e-13, 2e-13]), base + np.array([-2e-13, 1e-13])]
    r = circumcenter(pts)
    assert np.linalg.norm(r.center - base) <= 1e-11


# Pairwise distances overflow past ~1e154; such points are solved at unit scale.
@pytest.mark.filterwarnings("error")
def test_circumcenter_past_distance_overflow():
    r = circumcenter([[1e155, 0.0], [-1e155, 0.0], [0.0, 1e155]])
    assert r.status == NONDEGENERATE
    assert np.all(np.abs(r.center) <= 1e-15 * 1e155)
    rng = np.random.default_rng(23)
    for scale in (1e151, 1e160, 1e200, 1e300):
        pts = rng.normal(size=(3, 4))
        unit = circumcenter(pts)
        big = circumcenter(pts * scale)
        assert big.status == unit.status
        assert np.allclose(big.center / scale, unit.center, rtol=1e-12, atol=1e-12)
        assert equidistance_spread(big.center / scale, pts) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_circumcenter_past_overflow_stays_typed():
    with pytest.raises(GeometryError):  # collinear at any scale
        circumcenter([[1e300, 0.0], [-1e300, 0.0], [0.0, 1e-300]])
    with pytest.raises(GeometryError):  # the center itself, ~5e308, is not a float
        circumcenter([[1e300, 0.0], [-1e300, 0.0], [0.0, 1e291]])
    with pytest.raises(ValueError):
        circumcenter_loop([[1e300, 0.0], [np.inf, 0.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-300, -200, -160, -100, 0, 90, 100, 140, 150, 200, 300])
def test_circumcenter_exact_at_every_scale(k):
    # The squared residual overflowed from about 1e77 on, and distances
    # underflowed below about 1e-160; the solve now runs at unit scale.
    rng = np.random.default_rng(400 + k)
    scale = 10.0**k
    for m, n in [(3, 2), (3, 5), (4, 3), (4, 6)] * 10:  # triangles and tetrahedra
        pts = rng.normal(size=(m, n))
        solve = circumcenter if m == 3 else circumcenter_loop
        unit = solve(pts)
        big = solve(pts * scale)
        assert big.status == unit.status == NONDEGENERATE
        gap = np.linalg.norm(big.center / scale - unit.center)
        assert gap <= 1e-12 * np.linalg.norm(unit.center)
    right = circumcenter(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]) * scale)
    assert right.status == NONDEGENERATE
    assert np.all(np.abs(right.center) <= 1e-15 * scale)


@pytest.mark.parametrize(
    "points",
    [[], np.zeros((2, 2, 2)), np.zeros((3, 0)), [np.zeros(2), np.zeros(2), np.zeros(3)]],
    ids=["empty", "three-axis", "no-coordinates", "unequal-lengths"],
)
def test_circumcenter_rejects_malformed_input(points):
    with pytest.raises(ValueError):
        circumcenter(points)


@pytest.mark.parametrize(
    "points",
    [
        [[1, 1]] * 3,
        [[True, False]] * 3,
        [[2**53 + 1, 3]] * 3,
        [[0, 0], [2, 0], [0, 2]],
        [[2**53 + 1, 0], [2**53 + 5, 1], [2**53 - 3, 7]],
        [[0.5, True], [0.5, 1.0], [0.5, 1]],
        [[0.0, "2"], [2.0, 0.0], [0.0, 0.0]],
    ],
    ids=["coincident-ints", "coincident-bools", "coincident-past-2**53", "int-triangle",
         "triangle-past-2**53", "mixed-floats-and-ints", "string-entry"],
)
def test_circumcenter_of_nested_lists_is_that_of_their_float_array(points):
    # Nested lists give the center of their float64 array, bit for bit and
    # as float64: a list path that skipped the conversion would return the
    # coincident ints themselves, an int64 center.
    expected = circumcenter(np.asarray(points, dtype=float))
    result = circumcenter(points)
    assert result.center.dtype == np.float64
    assert result.center.tobytes() == expected.center.tobytes()
    assert result.status == expected.status


@pytest.mark.parametrize("m", [1, 2, 4, 5])
def test_circumcenter_takes_exactly_three_points(m):
    # Other counts are the reference loop's; the refusal is the count's,
    # not a NonFiniteError, in every form the three points are taken in.
    pts = np.random.default_rng(m).normal(size=(m, 3))
    for form in (list(pts), pts, pts.tolist()):
        with pytest.raises(ValueError, match="three points") as info:
            circumcenter(form)
        assert type(info.value) is ValueError


def _lstsq_reference(pts):
    """The min-norm least-squares u of 2 V^T u = (|d_i|^2), which lies in
    the span of V, as the center p_0 + u; the singular values of V relative
    to its largest; and the system's residual relative to diameter^2."""
    V = (pts[1:] - pts[0]).T
    rhs = np.sum(V * V, axis=0)
    u, *_ = np.linalg.lstsq(2.0 * V.T, rhs, rcond=1e-10)
    sig = np.linalg.svd(V, compute_uv=False)
    diameter = max(np.linalg.norm(a - b) for a in pts for b in pts)
    residual = np.linalg.norm(2.0 * V.T @ u - rhs) / diameter**2
    return pts[0] + u, sig / sig[0], residual


def _reference_draws():
    rng = np.random.default_rng(31)
    for _ in range(60):  # generic: 2..5 points in general position
        n = int(rng.integers(2, 11))
        yield "generic", rng.normal(size=(int(rng.integers(2, min(5, n + 1) + 1)), n))
    for _ in range(60):
        n = int(rng.integers(2, 11))
        a, b, u = rng.normal(size=(3, n))
        t, offset = rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-14, -2)
        yield "near_collinear", np.array([a, b, a + t * (b - a) + offset * u])
        yield "near_duplicate", np.array([a, a + 10.0 ** rng.uniform(-16, -9) * u, b])
        spread = 10.0 ** rng.uniform(-14, -6)
        yield "collapsed", a + spread * rng.normal(size=(3, n))


def test_circumcenter_matches_lstsq_reference():
    checked = dict.fromkeys(["generic", "near_collinear", "near_duplicate", "collapsed"], 0)
    for kind, pts in _reference_draws():
        ref, ratios, residual = _lstsq_reference(pts)
        if ((ratios > 1e-12) & (ratios < 1e-3)).any():
            continue  # ill-conditioned, or near the rank threshold
        checked[kind] += 1
        diameter = max(np.linalg.norm(a - b) for a in pts for b in pts)
        solve = circumcenter if len(pts) == 3 else circumcenter_loop
        if residual > 1e-5:
            with pytest.raises(GeometryError):
                solve(pts)
            continue
        # the center itself is rounded to its own magnitude
        tol = 1e-9 * diameter + 4.0 * np.finfo(float).eps * np.abs(ref).max()
        assert np.linalg.norm(solve(pts).center - ref) <= tol
    assert min(checked.values()) >= 10, checked


def test_circumcenter_status_classes_on_constructed_cases():
    rng = np.random.default_rng(32)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        a, b, u = rng.normal(size=(3, n))
        scale = np.linalg.norm(b - a)
        merged = circumcenter([a, a + 10.0 ** rng.uniform(-16, -13) * scale * u, b])
        assert merged.status == REDUCED_RANK
        assert np.linalg.norm(merged.center - 0.5 * (a + b)) <= 1e-12 * scale
        assert circumcenter([a, a, a]).status == COINCIDENT_ALL
        with pytest.raises(GeometryError):  # distinct and collinear
            circumcenter([a, b, a + rng.choice([-1.5, 0.25, 3.0]) * (b - a)])
