"""Shared test utilities: independent brute-force oracles, reference checks and samplers."""

import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ccrm.sets import (
    AffineSubspace,
    Ball,
    BallLens,
    Cap,
    Ellipsoid,
    EllipsoidLens,
    EmbeddedOracle,
    Halfspace,
    HyperboloidSheet,
    Hyperplane,
    IsometricImage,
    PowerEpigraph,
    SecondOrderCone,
    SpectralSet,
    _as_point,
    _check_count,
    _norm,
    _power_normal_root,
    boundary_eval,
)
from ccrm import catalog
from ccrm.circumcenter import (
    COINCIDENT_ALL,
    CONSISTENCY_RTOL,
    NONDEGENERATE,
    REDUCED_RANK,
    CircumResult,
    _center,
    _inconsistent,
    circumcenter,
)
from ccrm.errors import ConvergenceError, GeometryError, NonFiniteError
from ccrm.catalog import make_eq_constrained_ellipsoids, make_socp
from ccrm.diagnostics import CHECK_MARGIN, OMEGA_EXCLUDE_TOL, curvature, intersection_oracle
from ccrm.linalg import RANK_RTOL, sym_to_vec
from ccrm.solvers import FeasibilityProblem, SolveTrace

# Absolute slack of the Fejer-type bound ||z - z_bar|| <= 2 dist(z, X&Y).
FEJER_SLACK = 1e-9


def tool_module(name):
    """Import ``tools/<name>.py`` as a module."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def big_norm(x):
    """||x||, past the square's overflow."""
    s = float(np.max(np.abs(x)))
    return s * float(np.linalg.norm(x / s)) if s > 0.0 else 0.0


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def oracle_zoo(rng):
    """A representative oracle of every kind, with its dimension."""
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.25])
    tilted = AffineSubspace([[1.0, 1.0, 1.0]], [1.0])
    zoo = [
        (Halfspace(rng.normal(size=3), 0.4), 3),
        (Hyperplane([1.0, -2.0, 0.5], 1.0), 3),
        (AffineSubspace([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 2.0]], [1.0, 0.5]), 4),
        (Ball([0.5, -0.5, 1.0], 1.5), 3),
        (Ellipsoid([[1.0, 0.2], [0.2, 0.5]], center=[0.3, -0.2]), 2),
        (SecondOrderCone(4), 4),
        (PowerEpigraph(2.0, 0.5), 2),
        (PowerEpigraph(1.5, 0.0), 2),
        (SpectralSet(3, lo=0.0), 6),
        (SpectralSet(3, hi=0.6, trace=1.0), 6),
        (SpectralSet(3, lo=0.0, trace=1.0), 6),
        (Ball([0.1, 0.2, 0.7], 1.0, plane), 3),
        (
            EllipsoidLens(
                Ellipsoid(np.diag([1.0, 0.5, 2.0])),
                Ellipsoid([[0.8, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 0.6]], center=[0.9, 0.3, -0.2]),
            ),
            3,
        ),
        (Cap(SecondOrderCone(3), Hyperplane([1.0, 0.3, 0.0], 1.0)), 3),
        (Cap(SpectralSet(3, lo=0.0), Ball(sym_to_vec(np.diag([1.0, 0.5, -0.3])), 1.0)), 6),
        (EmbeddedOracle(Ellipsoid(np.diag([0.25, 1.0]), center=[0.2, -0.1]), tilted), 3),
        (IsometricImage(Ball([0.6, 0.3, 0.4], 1.2, tilted), tilted), 2),
        (HyperboloidSheet([1.0, 0.5, -0.5], 0.8), 3),
        (BallLens(Ball([0.2, -0.1, 0.3], 1.0), Ball([1.1, 0.4, 0.0], 0.8)), 3),
    ]
    return zoo


def eq_ellipsoid_leaves():
    """(entry, e1, e2, L): the catalog's eq_ellipsoids entry, its two ambient
    ellipsoids and its hull instance L; the entry's X is e1 & L and its Y
    is e2 & L."""
    entry = make_eq_constrained_ellipsoids()
    e1, e2, _ = catalog._eq_ellipsoids_leaves()
    return entry, e1, e2, entry.problem.common_hull


def cap_eq_ellipsoids():
    """The catalog's eq_ellipsoids problem with X = Cap(e1, L) and
    Y = Cap(e2, L), sharing the hull instance L, and its suggested start."""
    entry, e1, e2, L = eq_ellipsoid_leaves()
    problem = FeasibilityProblem(Cap(e1, L), Cap(e2, L))
    return problem, entry.suggested_z0


def cap_socp():
    """The catalog's socp problem with X = Cap(SecondOrderCone(4), L), L
    the catalog's hull instance, and its suggested start."""
    entry = make_socp()
    L = entry.problem.common_hull
    problem = FeasibilityProblem(Cap(SecondOrderCone(4), L), entry.problem.Y)
    return problem, entry.suggested_z0


def general_sdp():
    """A 2x2 sdp whose X is the PSD cone cut by <diag(1, 2), Sigma> = 1,
    and a start at Y's center: beyond the PSD boundary, it puts the
    limit on that boundary."""
    H = Hyperplane(sym_to_vec(np.diag([1.0, 2.0])), 1.0)
    Y = Ball(sym_to_vec(np.array([[1.5, 0.1], [0.1, -0.5]])), 0.73, H)
    problem = FeasibilityProblem(Cap(SpectralSet(2, lo=0.0), H), Y)
    return problem, problem.Y.in_plane_center


def sample_lens_point(rng, centers, radius):
    """Rejection-sample a point in the intersection of two discs (in-plane)."""
    c1, c2 = centers
    lo = np.array([c2[0] - radius, -radius])
    hi = np.array([c1[0] + radius, radius])
    for _ in range(10000):
        p = lo + (hi - lo) * rng.random(2)
        if np.linalg.norm(p - c1[:2]) <= radius and np.linalg.norm(p - c2[:2]) <= radius:
            return np.array([p[0], p[1], 0.0])
    raise RuntimeError("lens sampling failed")


def sample_epigraph_lens(rng, alpha, beta):
    """A point of {y >= |x|^alpha - beta} intersected with {y <= 0}, beta > 0."""
    for _ in range(10000):
        x = (2.0 * rng.random() - 1.0) * beta ** (1.0 / alpha)
        lo = abs(x) ** alpha - beta
        y = lo + (0.0 - lo) * rng.random()
        if lo <= y <= 0.0:
            return np.array([x, y])
    raise RuntimeError("epigraph lens sampling failed")


@dataclass(frozen=True)
class EpigraphScalarInternals:
    u: float
    v: float
    a: float
    h: float
    p: float


def epigraph_scalar_step(alpha: float, x: float):
    """Analytic one-dimensional cCRM recurrence for the power epigraph.

    For the pair {y >= |x|^alpha, y <= 0} started on the x-axis, the
    iteration never leaves the axis, and the next abscissa follows from
    the circumcenter equidistance relation
    (x' - p)(p - a) = p^alpha (p^alpha - h), with u, v the two alternating
    projection abscissae, (a, h) the centralized point, and p the abscissa
    of its projection onto the epigraph. All scalar roots are resolved to
    machine precision (within the 1e-14 contract).

    Returns:
        (x_next, internals) with the intermediate scalars.
    """
    if alpha <= 1.0:
        raise ValueError("exponent must exceed 1")
    if x <= 0.0:
        raise ValueError("abscissa must be positive")
    u = _power_normal_root(alpha, x, 0.0)
    v = _power_normal_root(alpha, u, 0.0)
    a = 0.5 * (u + v)
    h = 0.5 * v**alpha
    p = _power_normal_root(alpha, a, h)
    if p == a:
        raise GeometryError(
            "scalar circumcenter is degenerate: projection corrections "
            "underflow at this abscissa"
        )
    pa = p**alpha
    x_next = p + pa * (pa - h) / (p - a)
    return x_next, EpigraphScalarInternals(u=u, v=v, a=a, h=h, p=p)


def projection_by_scan(points, z):
    """Nearest point of a sampled boundary/set cloud; independent oracle."""
    i = np.argmin(np.linalg.norm(points - z, axis=1))
    return points[i]


def spectral_box_enumeration(v, lo=-np.inf, hi=np.inf, trace=None):
    """Projection of v onto {lo <= w <= hi, sum w = trace} by active-set enumeration.

    Every entry is either held at lo, held at hi, or free; free entries
    share one shift that meets the trace (no shift without a trace). The
    nearest feasible candidate is the projection.
    """
    n = v.shape[0]
    best = None
    for code in range(3**n):
        states = [code // 3**i % 3 for i in range(n)]  # 0 free, 1 at lo, 2 at hi
        cand = np.where(np.array(states) == 1, lo, hi).astype(float)
        free = [i for i in range(n) if states[i] == 0]
        if any(not np.isfinite(cand[i]) for i in range(n) if states[i]):
            continue
        fixed_sum = sum(cand[i] for i in range(n) if states[i])
        if free:
            shift = 0.0
            if trace is not None:
                shift = (trace - fixed_sum - v[free].sum()) / len(free)
            cand[free] = v[free] + shift
        elif trace is not None and abs(fixed_sum - trace) > 1e-12:
            continue
        if cand.min() < lo - 1e-12 or cand.max() > hi + 1e-12:
            continue
        d = np.linalg.norm(cand - v)
        if best is None or d < best[0]:
            best = (d, cand)
    return best[1]


def ordered_box_enumeration(v, lo=-np.inf, hi=np.inf, trace=None):
    """:func:`spectral_box_enumeration` for ascending v, over the states that keep its order.

    The projection keeps the order of v, so its entries at lo are a prefix
    and those at hi a suffix: the (n + 1)(n + 2) / 2 such states replace the
    3^n ones, and orders such as 16 are in reach.
    """
    n = v.shape[0]
    best = None
    for i in range(n + 1):  # v[:i] at lo, v[i:j] free, v[j:] at hi
        for j in range(i, n + 1):
            if (i and lo == -np.inf) or (j < n and hi == np.inf):
                continue
            cand = np.concatenate([np.full(i, lo), v[i:j], np.full(n - j, hi)])
            if i < j and trace is not None:
                cand[i:j] += (trace - cand.sum()) / (j - i)
            elif i == j and trace is not None and abs(cand.sum() - trace) > 1e-12:
                continue
            if cand.min() < lo - 1e-12 or cand.max() > hi + 1e-12:
                continue
            d = np.linalg.norm(cand - v)
            if best is None or d < best[0]:
                best = (d, cand)
    return best[1]


def numpy_project_eigs(v, lo, hi, trace):
    """The traced eigenvalue projection as whole-array numpy operations.

    The same breakpoint search as ``ccrm.sets._project_eigs``, in the same
    operation order, with numpy's sort, row sums and clip: the library's
    scalar loop must equal it bit for bit where numpy sums a row of fewer
    than 8 entries in sequence (matrix order n <= 7).
    """
    if trace is None:
        return np.clip(v, lo, hi)
    n = v.shape[0]
    if hi == np.inf:
        rank = 0
    elif lo == -np.inf or hi == lo:
        rank = n - 1
    else:
        rank = min(max(int((trace - n * lo) / (hi - lo)), 0), n - 1)
    u = v - v[n - 1 - rank]
    bps = np.sort(np.concatenate([u - b for b in (lo, hi) if np.isfinite(b)]))
    sums = (u - bps[:, None]).clip(lo, hi).sum(axis=1)
    k = int(np.count_nonzero(sums >= trace))
    b0 = bps[k - 1] if k else -np.inf
    b1 = bps[k] if k < bps.shape[0] else np.inf
    m = int(np.count_nonzero((u - hi <= b0) & (u - lo >= b1)))
    if k and (k == bps.shape[0] or sums[k - 1] - trace <= trace - sums[k]):
        b, s = b0, sums[k - 1]
    else:
        b, s = b1, sums[k]
    return ((u - b) - ((s - trace) / m if m else 0.0)).clip(lo, hi)


def scatter_project_eigs(v, lo, hi, trace):
    """``ccrm.sets._project_eigs`` as first written: the shift by the
    reference entry is one numpy subtraction, the rest the same scalar loop."""
    if trace is None:
        return np.clip(v, lo, hi)
    n = v.shape[0]
    if hi == np.inf:
        rank = 0
    elif lo == -np.inf or hi == lo:
        rank = n - 1
    else:
        rank = min(max(int((trace - n * lo) / (hi - lo)), 0), n - 1)
    u = (v - v[n - 1 - rank]).tolist()
    bps = sorted([x - b for b in (lo, hi) if math.isfinite(b) for x in u])
    sums = []
    for b in bps:
        s = 0.0
        for x in u:
            t = x - b
            s += lo if t < lo else hi if t > hi else t
        sums.append(s)
        if s < trace:
            break
    k = len(sums) - (sums[-1] < trace)
    b0 = bps[k - 1] if k else -np.inf
    b1 = bps[k] if k < len(bps) else np.inf
    m = sum(x - hi <= b0 and x - lo >= b1 for x in u)
    near_b0 = k and (k == len(bps) or sums[k - 1] - trace <= trace - sums[k])
    b, s = (b0, sums[k - 1]) if near_b0 else (b1, sums[k])
    shift = (s - trace) / m if m else 0.0
    return np.array([min(max((x - b) - shift, lo), hi) for x in u])


def scatter_spectral_project(S, z):
    """``SpectralSet.project`` as first written, the bitwise reference of its
    kernel: the matrix built by two fancy-index scatters into ``np.empty``,
    the projected one read back by a two-array gather of its upper triangle."""
    rows, cols = np.triu_indices(S.n)
    scale = np.where(rows == cols, 1.0, np.sqrt(2.0))
    M = np.empty((S.n, S.n))
    M[rows, cols] = M[cols, rows] = _as_point(z, S.dim) / scale
    w, V = np.linalg.eigh(M)
    w = scatter_project_eigs(w, S.lo, S.hi, S.trace)
    return ((V * w) @ V.T)[rows, cols] * scale


# Points closer than DEDUPE_RTOL times the set diameter are treated as one.
DEDUPE_RTOL = 1e-12


def _dot(u, v) -> float:
    return sum([a * b for a, b in zip(u, v)])


def circumcenter_loop(points) -> CircumResult:
    """Circumcenter of any number of points by the general loop, the
    bitwise reference of ``ccrm.circumcenter.circumcenter`` on three.

    The same halving, power-of-two scaling and modified Gram-Schmidt on
    Python floats, summed in sequence, for m >= 1 points given as an
    (m, n) array or a list of m points; points within ``DEDUPE_RTOL`` of
    the diameter are merged first. One point is its own center
    (``NONDEGENERATE``, condition 0).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError(f"expected a non-empty (m, n) array, got shape {pts.shape}")
    rows = pts.tolist()
    p0 = rows[0]
    # Halved differences cannot overflow, and any non-finite entry shows
    # in them (a NaN shows in their sum); a power-of-two scale is exact.
    half = [0.5 * a - 0.5 * b for row in rows for a, b in zip(row, p0)]
    top = max(map(abs, half))
    if not math.isfinite(top) or math.isnan(sum(half)):
        raise NonFiniteError("points have non-finite entries")
    if top == 0.0:
        return CircumResult(pts[0].copy(), COINCIDENT_ALL if len(rows) > 1 else NONDEGENERATE)
    exp = math.frexp(top)[1]
    flat, n = [math.ldexp(v, -exp) for v in half], len(p0)
    d = [flat[k : k + n] for k in range(0, len(flat), n)]  # rows (p_i - p_0) / 2**(exp + 1)
    # sq[i][j] = |p_i - p_j|^2 for j < i, in the scaled units
    sq = [[sum([(a - b) * (a - b) for a, b in zip(u, v)]) for v in d[:i]] for i, u in enumerate(d)]
    diameter = math.sqrt(max(map(max, sq[1:])))

    # Greedy dedupe: keep the first representative of each cluster.
    keep, merge = [0], (DEDUPE_RTOL * diameter) ** 2
    for i in range(1, len(d)):
        if all(sq[i][j] > merge for j in keep):
            keep.append(i)

    dirs = []  # (w_k, |w_k|, x_k): direction q_k = w_k / |w_k|, coefficient x_k
    for i in keep[1:]:
        w, known = d[i], 0.0  # known = sum_k R_ik x_k over the directions so far
        for v, h, x in dirs:
            r = _dot(v, w) / h
            s = r / h
            w = [a - s * b for a, b in zip(w, v)]
            known += r * x
        height = math.sqrt(_dot(w, w))
        if height > RANK_RTOL * diameter:
            dirs.append((w, height, (0.5 * sq[i][0] - known) / height))
            continue
        residual = abs(2.0 * known - sq[i][0])
        if residual > CONSISTENCY_RTOL * diameter * diameter:
            raise _inconsistent(residual, diameter)

    # c = p_0 + 2**(exp + 1) sum_k (x_k / |w_k|) w_k; the radius is |x|
    offset = [0.0] * n
    for w, h, x in dirs:
        s = x / h
        offset = [o + s * a for o, a in zip(offset, w)]
    status = NONDEGENERATE if len(dirs) == len(d) - 1 else REDUCED_RANK
    condition = math.hypot(*[x for _, _, x in dirs]) / min([h for _, h, _ in dirs])
    return CircumResult(_center(p0, offset, exp), status, condition)


def numpy_circumcenter(points):
    """The circumcenter as whole-array numpy operations.

    The same halving, power-of-two scaling, dedupe and modified
    Gram-Schmidt as :func:`circumcenter_loop`, with numpy's dot
    products; the scalar loop sums in sequence, so the two
    agree up to rounding. Returns a ``CircumResult`` without a condition.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError(f"expected a non-empty (m, n) array, got shape {pts.shape}")
    half = 0.5 * pts - 0.5 * pts[0]
    top = float(np.abs(half).max())
    if not math.isfinite(top):
        raise NonFiniteError("points have non-finite entries")
    p0 = pts[0]
    if top == 0.0:
        return CircumResult(p0.copy(), COINCIDENT_ALL if len(pts) > 1 else NONDEGENERATE)
    exp = math.frexp(top)[1]
    d = np.ldexp(half, -exp)
    sq = [[float(np.dot(d[i] - d[j], d[i] - d[j])) for j in range(i)] for i in range(len(d))]
    diameter = math.sqrt(max(map(max, sq[1:])))
    keep = [0]
    for i in range(1, len(d)):
        if all(sq[i][j] > (DEDUPE_RTOL * diameter) ** 2 for j in keep):
            keep.append(i)
    dirs = []
    for i in keep[1:]:
        w, known = d[i], 0.0
        for v, h, x in dirs:
            r = float(np.dot(v, w)) / h
            w = w - (r / h) * v
            known += r * x
        height = math.sqrt(float(np.dot(w, w)))
        if height > RANK_RTOL * diameter:
            dirs.append((w, height, (0.5 * sq[i][0] - known) / height))
            continue
        residual = abs(2.0 * known - sq[i][0])
        if residual > CONSISTENCY_RTOL * diameter * diameter:
            raise GeometryError("equidistance system is inconsistent")
    offset = np.dot([x / h for _, h, x in dirs], [w for w, _, _ in dirs])
    with np.errstate(over="ignore"):
        center = p0 + np.ldexp(offset, exp + 1)
    if not np.isfinite(center).all():
        raise GeometryError("the circumcenter lies beyond the float range")
    return CircumResult(center, NONDEGENERATE if len(dirs) == len(d) - 1 else REDUCED_RANK)


def reflection_ccrm_step(problem, z):
    """One cCRM step in its reflection form: (circ{z_C, R_X z_C, R_Y z_C}, z_C)."""
    px = problem.X.project(z)
    yw = problem.Y.project(px)
    z_c = 0.5 * (yw + problem.X.project(yw))
    rx, ry = problem.X.reflect(z_c), problem.Y.reflect(z_c)
    return circumcenter([z_c, rx, ry]).center, z_c


def cap_projection_kkt(center, radius, cut, offset, z):
    """Projection onto ball(center, radius) cap {x_0 <= offset}, by case analysis."""
    z = np.asarray(z, dtype=float)
    p_ball = Ball(center, radius).project(z)
    if p_ball[0] <= offset + 1e-14:
        return p_ball
    p_half = z.copy()
    p_half[0] = min(p_half[0], offset)
    if np.linalg.norm(p_half - center) <= radius + 1e-14:
        return p_half
    # corner: fix the first coordinate, renormalize the rest onto the rim
    p = z.copy()
    p[0] = offset
    rest = p[1:] - center[1:]
    rim = np.sqrt(radius**2 - (offset - center[0]) ** 2)
    p[1:] = center[1:] + rest * (rim / np.linalg.norm(rest))
    return p


def random_symmetric(rng, n, scale=1.0):
    W = rng.normal(size=(n, n)) * scale
    return 0.5 * (W + W.T)


def random_psd_vec(rng, n):
    W = rng.normal(size=(n, n))
    return sym_to_vec(W @ W.T / n)


def dykstra_project(oracles, z, tol=1e-12, max_iter=100_000) -> np.ndarray:
    """Projection onto the intersection of ``oracles`` by Dykstra's cyclic
    scheme (Boyle & Dykstra 1986), a slow but independent reference for tests.

    Stops when the iterate moves less than ``tol`` between successive
    cycles; the intersection must be nonempty. Raises ValueError for no
    oracle, a ``tol`` that is not finite and positive or a ``max_iter``
    that is not an integer >= 1, and ``ConvergenceError``, with the last
    cycle-to-cycle change as its residual, when the cycles run out or the
    result lies over 1e-9 max(1, ||x||) from a member. A result inside
    every member can still be off the projection, near a tangency.
    """
    if not oracles:
        raise ValueError("need at least one oracle")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    max_iter = _check_count("max_iter", max_iter)
    x = _as_point(z, oracles[0].dim)
    corrections = [np.zeros_like(x) for _ in oracles]
    for _ in range(max_iter):
        prev = x
        for i, oracle in enumerate(oracles):
            shifted = x + corrections[i]
            x = oracle.project(shifted)
            corrections[i] = shifted - x
        change = float(np.linalg.norm(x - prev))
        if change <= tol:
            off = max(oracle.distance(x) for oracle in oracles)
            if off > 1e-9 * max(1.0, _norm(x)):
                raise ConvergenceError(f"Dykstra stopped {off:.3g} outside a member", residual=off)
            return x
    raise ConvergenceError(
        f"Dykstra did not converge within {max_iter} cycles", residual=change
    )


@dataclass
class TangentBoundReport:
    kappa: float
    worst_ratio: float
    bound: float
    n_samples: int
    passed: bool


def tangent_bound_check(oracle, p, w_samples) -> TangentBoundReport:
    """Check dist(w, C) <= (1 + CHECK_MARGIN) * kappa * ||w - p||^2 on tangent samples.

    Samples must lie on the tangent hyperplane at the boundary point p
    (and in the affine hull); the guarantee covers offsets up to about
    a tenth of the curvature radius, so larger offsets are rejected.
    """
    p = np.asarray(p, dtype=float)
    _, grad, _ = boundary_eval(oracle, p)
    kappa = curvature(oracle, p).kappa
    hull = oracle.affine_hull

    worst = 0.0
    count = 0
    for w in w_samples:
        w = np.asarray(w, dtype=float)
        offset = w - p
        if hull is not None:
            if np.linalg.norm(hull.A @ w - hull.b) > 1e-10 * (1.0 + np.linalg.norm(hull.b)):
                raise ValueError("sample is not in the affine hull")
            offset_h = hull.basis.T @ offset
        else:
            offset_h = offset
        if abs(float(grad @ offset_h)) > 1e-10 * (1.0 + np.linalg.norm(grad)):
            raise ValueError("sample is not on the tangent hyperplane")
        r2 = float(offset @ offset)
        if kappa > 0.0 and r2 > (0.1 / kappa) ** 2:
            raise ValueError("sample offset exceeds the validity radius 0.1 / kappa")
        dist = oracle.distance(w)
        if r2 > 0.0:
            worst = max(worst, dist / r2)
        elif dist > 1e-12:
            worst = np.inf
        count += 1

    bound = (1.0 + CHECK_MARGIN) * kappa
    passed = worst <= bound + 1e-12
    return TangentBoundReport(
        kappa=kappa, worst_ratio=worst, bound=bound, n_samples=count, passed=passed
    )


@dataclass
class FejerBoundReport:
    worst_violation: float
    worst_factor: float
    passed: bool
    n_checked: int


def fejer_bound_check(
    trace: SolveTrace,
    solution_set_projector: Callable,
    reference=None,
) -> FejerBoundReport:
    """Check ||z^k - z_bar|| <= 2 dist(z^k, X&Y) + FEJER_SLACK along a trace.

    ``solution_set_projector`` maps a point to its projection onto the
    intersection; the reference limit defaults to the final iterate.
    """
    z_bar = np.asarray(reference, dtype=float) if reference is not None else trace.final
    worst_violation = -np.inf
    worst_factor = 0.0
    checked = 0
    for z in trace.iterates:
        gap = float(np.linalg.norm(z - z_bar))
        dist = float(np.linalg.norm(z - solution_set_projector(z)))
        worst_violation = max(worst_violation, gap - 2.0 * dist)
        if dist > FEJER_SLACK:
            worst_factor = max(worst_factor, gap / dist)
        checked += 1
    return FejerBoundReport(
        worst_violation=worst_violation,
        worst_factor=worst_factor,
        passed=worst_violation <= FEJER_SLACK,
        n_checked=checked,
    )


def per_radius_estimate_omega(problem, z_bar, radii=(1e-1, 1e-2, 1e-3, 1e-4), samples_per_radius=200, seed=0):
    """``estimate_omega``'s sampler in its former form, the reference of its
    one-draw form: a draw and a normalization per radius, and each sample
    moved to and from the pair's hull coordinates by lambdas. Returns inf
    when every sample lies in X & Y."""
    pair, local, embed = intersection_oracle(problem), (lambda z: z), (lambda v: v)
    if isinstance(pair, EmbeddedOracle):
        pair, a, B = pair.inner, pair.subspace.anchor, pair.subspace.basis
        local, embed = (lambda z: B.T @ (z - a)), (lambda v: a + B @ v)
    rng = np.random.default_rng(seed)
    best = np.inf
    for rho in radii:
        directions = rng.normal(size=(samples_per_radius, z_bar.shape[0]))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        for s in directions:
            z = z_bar + rho * s
            v = local(z)
            pv = pair.inner.project(v)
            px, x = embed(pv), embed(pair.project_given(v, pv))
            zl = z.tolist()
            di = math.dist(x.tolist(), zl)
            if di > OMEGA_EXCLUDE_TOL:
                best = min(best, max(math.dist(px.tolist(), zl), problem.Y.distance(z)) / di)
    return float(best)


def numpy_ball_project(ball, z):
    """``Ball.project`` in its former numpy form: the subspace's array
    projection, then the radial clamp as array arithmetic."""
    z = np.asarray(z, dtype=float)
    p = z.copy() if ball.subspace is None else ball.subspace.project(z)
    c, r = ball.in_plane_center, ball.in_plane_radius
    nd = math.dist(p.tolist(), c.tolist())
    return p if nd <= r else c + (p - c) * (r / nd)
