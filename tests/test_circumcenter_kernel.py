"""The scalar circumcenter against its numpy restatement, against the
general loop of ``helpers.circumcenter_loop`` bit for bit, and its
condition. Other point counts than three check the loop itself."""

import numpy as np
import pytest

from ccrm.circumcenter import COINCIDENT_ALL, NONDEGENERATE, REDUCED_RANK, circumcenter
from ccrm.errors import GeometryError, NonFiniteError
from ccrm.linalg import EPS, RANK_RTOL

from helpers import DEDUPE_RTOL, circumcenter_loop, numpy_circumcenter

SCALES = [10.0**k for k in (-300, -150, -8, 0, 8, 150, 300)]
DIMS = list(range(2, 11)) + [16, 36]


def _outcome(solve, pts):
    try:
        result = solve(pts)
    except GeometryError:
        return None, "inconsistent"
    return result.center, result.status


def _draws(rng):
    """(kind, points) at unit scale: 1-5 points, and three degenerate kinds."""
    for n in DIMS:
        for m in range(1, 6):
            yield "generic", rng.normal(size=(m, n))
        a, b, u = rng.normal(size=(3, n))
        t, offset = rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-14, -2)
        yield "near_collinear", np.array([a, b, a + t * (b - a) + offset * u])
        yield "near_duplicate", np.array([a, a + 10.0 ** rng.uniform(-16, -9) * u, b])
        yield "collapsed", a + 10.0 ** rng.uniform(-14, -6) * rng.normal(size=(3, n))


def _three_point_draws(rng):
    """The three-point draws of every kind, rounded to integers (exact ties
    and signed zeros), and the coincident pairs and triple."""
    for _, unit in _draws(rng):
        if len(unit) == 3:
            yield unit
            yield np.round(unit)
    for n in DIMS:
        a, b = rng.normal(size=(2, n))
        yield from (np.array(p) for p in ([a, a, b], [a, b, b], [a, a, a], [a, b, a]))
        # p0 = -0.0 where the differences round to signed zeros in the offset
        tiny = np.round(rng.normal(size=(3, n)))
        tiny[:, 0] = [-0.0, *rng.choice([-1e-323, -5e-324, 0.0, 5e-324], size=2)]
        yield tiny
        yield tiny[[0, 1, 1]]


def _bits(solve, pts):
    """Center bytes (signed zeros included), status and condition bytes, or
    the error raised with its message."""
    try:
        result = solve(pts)
    except (GeometryError, ValueError) as exc:  # NonFiniteError is a ValueError
        return type(exc), str(exc)
    return result.center.shape, result.center.tobytes(), result.status, np.float64(result.condition).tobytes()


def _near_a_threshold(pts):
    """Whether a singular-value or distance ratio (to the diameter) lies
    within 10x of RANK_RTOL or DEDUPE_RTOL, where rounding may flip a status."""
    gaps = [np.linalg.norm(a - b) for i, a in enumerate(pts) for b in pts[:i]]
    diameter = max(gaps)
    ratios = np.concatenate([np.linalg.svd(pts[1:] - pts[0], compute_uv=False), gaps]) / diameter
    return any(((0.1 * t <= ratios) & (ratios <= 10.0 * t)).any() for t in (RANK_RTOL, DEDUPE_RTOL))


@pytest.mark.filterwarnings("error")
def test_scalar_circumcenter_agrees_with_the_numpy_restatement():
    rng = np.random.default_rng(2301)
    statuses = dict.fromkeys(["generic", "near_collinear", "near_duplicate", "collapsed"], 0)
    centers = dict.fromkeys(statuses, 0)
    for kind, unit in _draws(rng):
        for scale in SCALES:
            pts = unit * scale
            ref, ref_status = _outcome(numpy_circumcenter, pts)
            got, status = _outcome(circumcenter if len(pts) == 3 else circumcenter_loop, pts)
            if len(pts) == 1:
                assert status == ref_status == NONDEGENERATE
                assert np.array_equal(got, pts[0])
                continue
            if _near_a_threshold(unit):
                continue
            assert status == ref_status, (kind, scale, pts.shape)
            statuses[kind] += 1
            if ref is None:
                continue
            # radius and singular values at unit scale, where they cannot overflow
            radius = np.linalg.norm((ref - pts[0]) / scale)
            if radius > 1e3 * np.linalg.svd(unit[1:] - unit[0], compute_uv=False).min():
                continue
            diameter = max(np.linalg.norm(a - b) for a in unit for b in unit) * scale
            # the center itself is rounded to its own magnitude
            tol = 1e-12 * diameter + 2.0 * EPS * np.abs(ref).max()
            assert np.abs(got - ref).max() <= tol, (kind, scale, pts.shape)
            centers[kind] += 1
    assert min(statuses.values()) >= 20, statuses
    # near-collinear and near-duplicate sets have R / sigma_min far above 1e3
    assert min(centers["generic"], centers["collapsed"]) >= 20, centers


def _triangle(rng, n, angle, ratio):
    """p0 and two sides from it of lengths 1 and ratio at the given angle,
    rotated into R^n."""
    q, _ = np.linalg.qr(rng.normal(size=(n, 2)))
    d1 = q[:, 0]
    d2 = ratio * (np.cos(angle) * q[:, 0] + np.sin(angle) * q[:, 1])
    p0 = rng.normal(size=n)
    return np.array([p0, p0 + d1, p0 + d2]), np.array([d1, d2])


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_condition_brackets_the_singular_value_ratio(scale):
    # With sides d1, d2 from p0, the smallest Gram-Schmidt height lies in
    # [sigma_min, sigma_min * sqrt(|d1|^2 + |d2|^2) / |d1|]: the condition
    # R / h_min is at most R / sigma_min and at least that over the factor.
    rng = np.random.default_rng(2302)
    for angle in (1e-7, 1e-4, 0.1, 1.0, np.pi / 2, 3.0, np.pi - 1e-5):
        for ratio in (0.1, 1.0, 10.0):
            n = int(rng.integers(2, 11))
            pts, sides = _triangle(rng, n, angle, ratio)
            pts = pts * scale
            result = circumcenter(pts)
            assert result.status == NONDEGENERATE
            sigma = np.linalg.svd(sides, compute_uv=False)
            # the circumradius of sides d1, d2 at angle t is |d1 - d2| / (2 sin t)
            radius = np.linalg.norm(sides[0] - sides[1]) / (2.0 * np.sin(angle))
            svd_ratio = radius / sigma.min()
            factor = np.sqrt(1.0 + ratio**2)
            assert svd_ratio / factor * (1.0 - 1e-6) <= result.condition
            assert result.condition <= svd_ratio * (1.0 + 1e-6)


def test_condition_of_a_point_and_of_reduced_sets():
    assert circumcenter_loop([[1.0, 2.0]]).condition == 0.0
    assert circumcenter([[1.0, 2.0]] * 3).status == COINCIDENT_ALL
    assert circumcenter([[1.0, 2.0]] * 3).condition == 0.0
    # two points: the radius is half the distance, the one height all of it
    assert circumcenter_loop([[0.0, 0.0], [3.0, 4.0]]).condition == 0.5
    # a duplicate adds no height
    assert circumcenter([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]).condition == 0.5
    # a right isosceles triangle: R = 1/sqrt(2) over a height of 1
    assert circumcenter([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).condition == pytest.approx(2**-0.5)


@pytest.mark.filterwarnings("error")
def test_center_beyond_the_float_range_is_a_geometry_error():
    # the scaled offset, about -5e308, overflows when it is scaled back
    with pytest.raises(GeometryError, match="beyond the float range"):
        circumcenter([[1e300, 0.0], [-1e300, 0.0], [0.0, 1e291]])
    # the offset, 5e307, is a float; the center p_0 + offset, 2e308, is not
    with pytest.raises(GeometryError, match="beyond the float range"):
        circumcenter([[1.5e308, 0.0], [1.5612e308, 0.23971e308], [1.5612e308, -0.23971e308]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (2, 0)])
def test_non_finite_entry_anywhere_is_refused(bad, where):
    # max() passes over a NaN that is not first; the sum of the halves keeps it
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    pts[where] = bad
    with pytest.raises(NonFiniteError):
        circumcenter(pts)
    with pytest.raises(NonFiniteError):
        circumcenter_loop(pts[where[0] : where[0] + 1])


@pytest.mark.filterwarnings("error")
def test_three_point_path_matches_the_loop_bit_for_bit():
    # The loop is the reference for m = 3; the path is reached from a list
    # of three arrays (as the steps pass them), an array and nested lists.
    rng = np.random.default_rng(2303)
    draws = [unit * scale for unit in _three_point_draws(rng) for scale in SCALES]
    for n in DIMS:
        for row in range(3):
            for bad in (np.nan, np.inf, -np.inf):
                pts = rng.normal(size=(3, n))
                pts[row, rng.integers(n)] = bad
                draws.append(pts)
    draws += [
        np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 1e291]]),
        np.array([[1.5e308, 0.0], [1.5612e308, 0.23971e308], [1.5612e308, -0.23971e308]]),
    ]
    seen = set()
    for pts in draws:
        want = _bits(circumcenter_loop, pts)
        for form in (list(pts), pts, pts.tolist()):
            assert _bits(circumcenter, form) == want, pts
        seen.add(want[0] if len(want) == 2 else want[2])
    assert seen == {NONDEGENERATE, REDUCED_RANK, COINCIDENT_ALL, GeometryError, NonFiniteError}
