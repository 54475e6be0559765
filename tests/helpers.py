"""Shared test utilities: independent brute-force oracles and samplers."""

import importlib.util
import os

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
)
from ccrm import catalog
from ccrm.catalog import make_eq_constrained_ellipsoids, make_socp
from ccrm.linalg import sym_to_vec
from ccrm.solvers import FeasibilityProblem


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
