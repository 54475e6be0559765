"""Closed convex sets with exact projections and optional boundary calculus.

Every oracle exposes ``project`` (exact, or within a stated tolerance for
the iterative kinds), ``reflect``, membership helpers, and optionally a
smooth boundary descriptor: ``_boundary(z)`` gives (g, grad g, Hess g)
together, which :func:`boundary_eval` restricts to the set's affine hull.
The descriptor feeds the curvature and tangent-bound diagnostics; oracles
without one simply refuse those operations.

All oracles are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ConvergenceError, NonFiniteError, RegularityError, UnsupportedOperation
from .linalg import (
    EPS,
    _sym_layout,
    least_squares_min_norm,
    orthonormal_nullspace,
    sym_dim,
    sym_to_vec,
    symmetric_eigh,
    vec_to_sym,
)

MEMBERSHIP_TOL = 1e-10

# Bound on the duality residual |f(lam)| of the ellipsoid projection's Newton.
ELLIPSOID_TOL = 1e-12

# Relative gap under which an extreme eigenvalue counts as repeated, so a
# spectral set's boundary descriptor is not C^2 there.
EIG_GAP_TOL = 1e-8

# Budget of the scalar Newton solves (ellipsoid dual, hyperboloid-sheet and
# power-epigraph normals).
NEWTON_MAX_ITER = 200

# A cap's dual solve: the budget of each phase, and the multiple of the
# displacement past which any cut's multiplier times ||grad|| means a
# tangent or missing cut (an intersection angle under about 1e-6).
CAP_MAX_ITER, CAP_TANGENT_RATIO = 200, 1e6


def _as_point(z, dim=None):
    z = np.asarray(z, dtype=float)  # no copy for a float64 array
    if z.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {z.shape}")
    if dim is not None and z.shape[0] != dim:
        raise ValueError(f"dimension mismatch: point has {z.shape[0]}, set has {dim}")
    # A Python float sum carries inf and nan through without a warning; a
    # finite point whose sum overflows falls through to the exact test.
    if not math.isfinite(sum(z.tolist())) and not np.isfinite(z).all():
        raise NonFiniteError("point has non-finite entries")
    return z


def _check_finite(**params):
    """Raise ValueError naming the first scalar parameter that is not finite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_count(name, value) -> int:
    """``value`` as an int (through ``operator.index``); ValueError unless it is an integer >= 1."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return count


def _norm(d) -> float:
    """Euclidean norm of a finite vector: numpy's own sqrt(d . d), with
    ``vdot`` (which does not warn on overflow), rescaled by max|d_i| when
    the sum of squares overflows (entries past ~1e154)."""
    nd = math.sqrt(np.vdot(d, d))
    if not math.isfinite(nd):
        s = float(np.max(np.abs(d)))
        nd = s * math.sqrt(np.vdot(d / s, d / s))
    return nd


def _row_norms(D) -> np.ndarray:
    """Euclidean norms of the rows of a finite 2-d array: numpy's, with each
    row whose sum of squares overflows taken by :func:`_norm`."""
    with np.errstate(over="ignore"):
        out = np.linalg.norm(D, axis=1)
    far = ~np.isfinite(out)
    if far.any():
        out[far] = [_norm(d) for d in D[far]]
    return out


class SetOracle:
    """Base class: a closed convex set with an exact projection.

    ``affine_hull`` is the :class:`AffineSubspace` the set is confined to,
    or None for a full-dimensional set; each constructor sets it once.
    """

    affine_hull = None

    def __init__(self, dim):
        self.dim = int(dim)

    def project(self, z) -> np.ndarray:
        raise NotImplementedError

    # ``project`` validates z, so these two do not validate it again.
    def reflect(self, z) -> np.ndarray:
        return 2.0 * self.project(z) - z

    def distance(self, z) -> float:
        return _norm(self.project(z) - z)

    def contains(self, z, tol=MEMBERSHIP_TOL) -> bool:
        return self.distance(z) <= tol

    # Smooth-boundary descriptor (g, grad g, Hess g) at z, in ambient
    # coordinates. Subclasses with smooth relative boundaries override it.
    def _boundary(self, z):
        raise UnsupportedOperation(f"{type(self).__name__} has no smooth boundary descriptor")


class AffineSubspace(SetOracle):
    """Affine subspace {z : A z = b} with an orthonormal direction basis.

    ``basis`` spans null(A); ``anchor`` is the minimal-norm solution of
    A z = b. A zero-row A describes the whole space.
    """

    def __init__(self, A, b, basis=None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]} entries")
        if not np.isfinite(b).all():
            raise ValueError(f"b must be finite, got {b.tolist()}")
        super().__init__(A.shape[1])
        self.A = A
        self.b = b
        self.affine_hull = self
        if A.shape[0] == 0:
            self.anchor = np.zeros(self.dim)
        else:
            self.anchor = least_squares_min_norm(A, b)
            residual = np.linalg.norm(A @ self.anchor - b)
            if residual > 1e-9 * (1.0 + np.linalg.norm(b)):
                raise ValueError(f"system A z = b is inconsistent (residual {residual:.3e})")
        if basis is None:
            basis = orthonormal_nullspace(A)
        else:
            # A caller-chosen frame pins local coordinates (the SVD basis is
            # deterministic but not canonical); it must still span null(A).
            basis = np.atleast_2d(np.asarray(basis, dtype=float))
            expected = orthonormal_nullspace(A).shape[1]
            if basis.shape != (self.dim, expected):
                raise ValueError(f"basis must be {self.dim} x {expected}, got {basis.shape}")
            if np.linalg.norm(basis.T @ basis - np.eye(expected)) > 1e-10:
                raise ValueError("basis columns are not orthonormal")
            if A.shape[0] and np.linalg.norm(A @ basis) > 1e-10 * (1.0 + np.linalg.norm(A)):
                raise ValueError("basis columns do not span null(A)")
        self.basis = basis

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[1]

    def project(self, z) -> np.ndarray:
        z = _as_point(z, self.dim)
        return self.anchor + self.basis @ (self.basis.T @ (z - self.anchor))

    def to_local(self, z) -> np.ndarray:
        """Isometric coordinates of a hull point: B^T (z - anchor)."""
        z = _as_point(z, self.dim)
        return self.basis.T @ (z - self.anchor)

    def from_local(self, v) -> np.ndarray:
        v = _as_point(v, self.subspace_dim)
        return self.anchor + self.basis @ v


def same_subspace(a, b) -> bool:
    """Whether two affine hulls (subspaces or None) are one object or have equal A and b."""
    return a is b or (
        a is not None and b is not None and np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
    )


class Hyperplane(AffineSubspace):
    """{z : <normal, z> = offset}."""

    def __init__(self, normal, offset):
        normal = _as_point(normal)
        if np.linalg.norm(normal) == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        _check_finite(offset=offset)
        super().__init__(normal[None, :], [float(offset)])
        self.normal = normal
        self.offset = float(offset)


class Halfspace(SetOracle):
    """{z : <normal, z> <= offset}."""

    def __init__(self, normal, offset):
        normal = _as_point(normal)
        nn = np.linalg.norm(normal)
        if nn == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        _check_finite(offset=offset)
        super().__init__(normal.shape[0])
        self.normal = normal
        self.offset = float(offset)
        self._nn2 = float(nn * nn)

    def project(self, z) -> np.ndarray:
        z = _as_point(z, self.dim)
        excess = float(self.normal @ z) - self.offset
        if excess <= 0.0:
            return z.copy()
        return z - (excess / self._nn2) * self.normal

    def _boundary(self, z):
        g = float(self.normal @ _as_point(z, self.dim)) - self.offset
        return g, self.normal.copy(), np.zeros((self.dim, self.dim))


class Ball(SetOracle):
    """{z in L : ||z - center|| <= radius}, L the ``subspace`` or the whole space.

    Within a subspace the set is a ball of L, centered at the projected
    center with the chordal radius (``in_plane_center``, ``in_plane_radius``;
    without one these are ``center`` and ``radius``); projection goes to L
    first, then clamps radially inside it. The descriptor is
    g = ||z - c||^2 - r^2 in those in-plane terms. On flattened
    symmetric-matrix coordinates this realizes Frobenius-norm balls within
    linear matrix constraints.
    """

    def __init__(self, center, radius, subspace: AffineSubspace | None = None):
        center = _as_point(center, None if subspace is None else subspace.dim)
        _check_finite(radius=radius)
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        super().__init__(center.shape[0])
        self.center, self.radius = center, float(radius)
        self.subspace = self.affine_hull = subspace
        self.in_plane_center, self.in_plane_radius = center, self.radius
        if subspace is not None:
            q = subspace.project(center)
            chord2 = radius**2 - float(np.sum((center - q) ** 2))
            if chord2 <= 0.0:
                raise ValueError("empty set: the ball does not reach the subspace")
            self.in_plane_center, self.in_plane_radius = q, float(np.sqrt(chord2))

    def project(self, z) -> np.ndarray:
        L = self.subspace
        p = _as_point(z, self.dim) if L is None else L.project(z)
        d = p - self.in_plane_center
        nd = _norm(d)
        if nd <= self.in_plane_radius:
            return p.copy() if L is None else p
        return self.in_plane_center + d * (self.in_plane_radius / nd)

    def _boundary(self, z):
        d = _as_point(z, self.dim) - self.in_plane_center
        return float(d @ d) - self.in_plane_radius**2, 2.0 * d, 2.0 * np.eye(self.dim)


class Ellipsoid(SetOracle):
    """{z : (z - c)^T Q (z - c) <= 1} for symmetric positive definite Q.

    Projection solves the scalar dual equation sum_i d_i w_i^2 / (1 + lam
    d_i)^2 = 1 (eigenbasis of Q) by Newton with a bisection safeguard;
    no closed form exists. Newton starts at the root's lower bound
    (sqrt(sum_i d_i w_i^2) - 1) / max_i d_i, from which a far point's root
    is a few steps away, and stops once the duality residual |f(lam)| is
    at most ``ELLIPSOID_TOL``; a last step aims n * EPS inside, deeper until
    the output projects to itself. Points far past 1e154 project without
    overflow.
    """

    def __init__(self, Q, center=None):
        Q = np.asarray(Q, dtype=float)
        eig = symmetric_eigh(Q)
        if not eig.eigenvalues.size or eig.eigenvalues[0] <= 0.0:
            raise ValueError("shape matrix must be nonempty and positive definite")
        n = Q.shape[0]
        super().__init__(n)
        self.Q = 0.5 * (Q + Q.T)
        self.center = np.zeros(n) if center is None else _as_point(center, n)
        self._d = eig.eigenvalues
        self._sqrt_d = np.sqrt(self._d)
        self._U = eig.eigenvectors

    def project(self, z) -> np.ndarray:
        z = _as_point(z, self.dim)
        w = self._U.T @ (z - self.center)
        # sqrt(sum_i d_i w_i^2), past the square's overflow too.
        r = _norm(self._sqrt_d * w)
        if r <= 1.0:
            return z.copy()
        # 1 + lam d_i <= r there, so f(lam) >= 0. The iterate's point t
        # and f, f' are formed from w / (1 + lam d), which cannot overflow.
        lam = lo = (r - 1.0) / float(self._d[-1])
        hi = None
        for _ in range(NEWTON_MAX_ITER):
            den = 1.0 + lam * self._d
            t = w / den
            dt = self._d * t
            f = float(dt @ t) - 1.0
            slope = 2.0 * float(dt @ (dt / den))  # -f'(lam)
            if abs(f) <= ELLIPSOID_TOL:
                # Newton nears the root from f > 0, outside the set: aim inside,
                # twice as deep on each retry, until the test above passes.
                for k in range(60):
                    t = w / (1.0 + (lam + (f + self.dim * EPS * 2.0**k) / slope) * self._d)
                    x = self.center + self._U @ t
                    if _norm(self._sqrt_d * (self._U.T @ (x - self.center))) <= 1.0:
                        return x
                break
            if f > 0.0:
                lo = lam
            else:
                hi = lam
            step = lam + f / slope
            if hi is None:
                lam = step if step > lo else 2.0 * lo + 1.0
            else:
                lam = step if lo < step < hi else 0.5 * (lo + hi)
        raise ConvergenceError("ellipsoid dual Newton did not converge", residual=abs(f))

    def _boundary(self, z):
        d = _as_point(z, self.dim) - self.center
        return float(d @ (self.Q @ d)) - 1.0, 2.0 * self.Q @ d, 2.0 * self.Q


def _sheet_root(t, r, d):
    """Root in (0, r) of phi(rho) = 2 rho - r - t rho / h(rho), h = hypot(d, rho).

    phi is convex for t > 0, and Newton descends to the root from the
    upper bound min(r, (r + t) / 2). It is concave and increasing for
    t <= 0, and Newton climbs from the lower bound max(r / (2 - t / d),
    (r + t) / 2), under the upper bounds r / 2 and, for q = r / -t < 1,
    d q / sqrt(1 - q^2). A step past the bracket stops at its end; a step
    that cannot move, or is over half the step before last, becomes a
    bisection, geometric across a wide bracket: for a far point with t
    close to -r, Newton climbs by a factor of about 1.5 per step. The
    residual test accepts any rho whose error is below the rounding of
    r and t, and every term is a ratio to h, so nothing overflows. At
    d = 0 (the second-order cone) the root is max((r + t) / 2, 0).
    """
    if d == 0.0:
        return max(0.5 * (r + t), 0.0)
    if t > 0.0:
        lo, hi = 0.0, min(r, 0.5 * (r + t))
        rho = hi
    else:
        lo, hi = max(r / (2.0 - t / d), 0.5 * (r + t)), 0.5 * r
        if r < -t:
            q = r / -t
            hi = min(hi, d * q / math.sqrt((1.0 - q) * (1.0 + q)))
        rho = lo
    last = older = hi - lo
    for _ in range(NEWTON_MAX_ITER):
        h = math.hypot(d, rho)
        q = rho / h
        f = 2.0 * rho - r - t * q
        if abs(f) <= 4.0 * EPS * (2.0 * rho + r + abs(t) * q):
            return rho
        if f > 0.0:
            hi = rho
        else:
            lo = rho
        slope = 2.0 - (t / h) * (d / h) ** 2  # phi'(rho); below 0 only left of a t > 0 root
        nxt = min(max(rho - f / slope, lo), hi) if slope > 0.0 else rho
        if nxt == rho or 2.0 * abs(nxt - rho) > older:
            nxt = math.sqrt(lo) * math.sqrt(hi) if 0.0 < 4.0 * lo < hi else 0.5 * (lo + hi)
        older, last = last, abs(nxt - rho)
        if nxt == rho:
            return rho
        rho = nxt
    raise ConvergenceError("hyperboloid-sheet normal equation did not converge", residual=abs(f))


class HyperboloidSheet(SetOracle):
    """{v : <e, v> >= sqrt(d^2 + ||v - <e, v> e||^2)}: the region above one
    sheet of a hyperboloid, e = axis / ||axis||, d >= 0 the vertex height.

    d = 0 is the second-order cone about e; a cone cut by a hyperplane
    parallel to its axis is a d > 0 sheet in the hyperplane's coordinates.
    With t = <e, v>, w = v - t e and r = ||w||, the projection is h(rho) e
    + (rho / r) w, h(rho) = sqrt(d^2 + rho^2), at the root rho of the
    one-dimensional normal equation (see :func:`_sheet_root`); w = 0
    projects to the vertex d e. The descriptor g = h(||w||) - t is smooth
    everywhere for d > 0; at d = 0 it is refused at the apex.
    """

    def __init__(self, axis, d):
        axis = _as_point(axis)
        na = _norm(axis)
        if na == 0.0:
            raise ValueError("hyperboloid axis must be nonzero")
        _check_finite(d=d)
        if d < 0.0:
            raise ValueError("vertex height d must be nonnegative")
        super().__init__(axis.shape[0])
        self.axis, self.d = axis / na, float(d)

    def _split(self, z):
        v = _as_point(z, self.dim)
        t = float(self.axis @ v)
        w = v - t * self.axis
        return v, t, w, _norm(w)

    def project(self, z) -> np.ndarray:
        v, t, w, r = self._split(z)
        if t >= math.hypot(self.d, r):
            return v.copy()
        if r == 0.0:
            return self.d * self.axis
        rho = _sheet_root(t, r, self.d)
        return math.hypot(self.d, rho) * self.axis + (rho / r) * w

    def _boundary(self, z):
        _, t, w, r = self._split(z)
        h = math.hypot(self.d, r)
        if self.d == 0.0 and h <= 1e-12 * (1.0 + abs(t)):
            raise RegularityError("second-order cone boundary is not a manifold at the apex")
        P = np.eye(self.dim) - np.outer(self.axis, self.axis)
        return h - t, w / h - self.axis, (P - np.outer(w / h, w / h)) / h


class SecondOrderCone(HyperboloidSheet):
    """{(t, u) : ||u|| <= t}, the first coordinate the cone height: the
    hyperboloid sheet of axis e_1 and vertex height 0."""

    def __init__(self, dim):
        if operator.index(dim) < 2:
            raise ValueError("second-order cone needs dimension >= 2")
        super().__init__(np.eye(dim)[0], 0.0)


def _power_normal_root(alpha, x0, y0):
    """Root of (u - x0) + alpha u^(alpha-1) (u^alpha - y0) = 0 on u >= 0.

    This is the normal equation for projecting (x0, y0) with x0 > 0 onto
    the epigraph {y >= x^alpha}; the root is bracketed in
    [max(y0, 0)^(1/alpha), x0], where the equation is monotone. Newton is
    started at min(x0, 1) and safeguarded by bisection; the root is
    resolved to machine precision (well inside the 1e-14 contract).
    """
    lo = y0 ** (1.0 / alpha) if y0 > 0.0 else 0.0
    hi = x0

    def f_df(u):
        ua1 = u ** (alpha - 1.0)
        ua = ua1 * u
        f = (u - x0) + alpha * ua1 * (ua - y0)
        df = 1.0
        if u > 0.0:
            df += alpha * (alpha - 1.0) * u ** (alpha - 2.0) * (ua - y0)
        df += alpha * alpha * ua1 * ua1
        return f, df

    u = min(max(min(x0, 1.0), lo), hi)
    for _ in range(NEWTON_MAX_ITER):
        f, df = f_df(u)
        if f > 0.0:
            hi = u
        else:
            lo = u
        nxt = u - f / df if df > 0.0 else 0.5 * (lo + hi)
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - u) <= 2.0 * EPS * (1.0 + abs(u)):
            return nxt
        u = nxt
    raise ConvergenceError("power-epigraph normal equation did not converge", residual=abs(f))


class PowerEpigraph(SetOracle):
    """{(x, y) : y >= |x|^alpha - beta} in the plane, alpha > 1, beta >= 0.

    For beta > 0 the projection reuses the beta = 0 solver on shifted
    coordinates. The boundary is C^1 everywhere; its second derivative
    alpha (alpha-1) |x|^(alpha-2) blows up at x = 0 when alpha < 2, so the
    Hessian refuses there. A point whose powers overflow a float raises
    ``ConvergenceError``.
    """

    def __init__(self, alpha, beta=0.0):
        _check_finite(alpha=alpha, beta=beta)
        if alpha <= 1.0:
            raise ValueError("exponent must exceed 1")
        if beta < 0.0:
            raise ValueError("shift must be nonnegative")
        super().__init__(2)
        self.alpha = float(alpha)
        self.beta = float(beta)

    def project(self, z) -> np.ndarray:
        z = _as_point(z, 2)
        x0, y0 = z.tolist()
        y0 += self.beta
        ax = abs(x0)
        try:
            if y0 >= ax**self.alpha:
                return z.copy()
            if ax == 0.0:
                return np.array([0.0, -self.beta])
            u = _power_normal_root(self.alpha, ax, y0)
            return np.array([math.copysign(u, x0), u**self.alpha - self.beta])
        except OverflowError as exc:
            raise ConvergenceError(f"power-epigraph projection overflows at {z.tolist()}") from exc

    def _boundary(self, z):
        z = _as_point(z, 2)
        ax = abs(z[0])
        if ax == 0.0:
            if self.alpha < 2.0:
                raise RegularityError("boundary is C^1 but not C^2 at the vertex")
            gxx = 2.0 if self.alpha == 2.0 else 0.0
        else:
            gxx = self.alpha * (self.alpha - 1.0) * ax ** (self.alpha - 2.0)
        gx = np.copysign(self.alpha * ax ** (self.alpha - 1.0), z[0])
        hess = np.array([[gxx, 0.0], [0.0, 0.0]])
        return ax**self.alpha - self.beta - z[1], np.array([gx, -1.0]), hess


def _project_eigs(v, lo, hi, trace=None):
    """Projection of ascending v onto {lo <= x_i <= hi, sum x_i = trace}; a clip without a trace.

    The projection is clip(v - mu, lo, hi) for the mu at which the clipped
    sum, nonincreasing and piecewise linear in mu with breakpoints at the
    finite v_i - lo and v_i - hi, equals ``trace``: the sums at the sorted
    breakpoints bracket mu in one linear piece (cf. Condat 2016), whose
    slope is minus the count m of entries free on it. Past the last
    breakpoint on an infinite bound's side every entry is free.

    No cancellation at any scale of v: the work is relative to an entry
    that ends free or borders the free ones (the top one with only lo, the
    bottom one with only hi, else the one of descending rank floor((trace
    - n lo) / (hi - lo)), the count at hi); mu - b = (sum at b - trace) / m,
    from the bracket end b nearer to it, enters as clip((v - b) - (mu - b)).

    A scalar loop on lists, since numpy's per-call overhead dominates at
    2n <= 16 breakpoints. Each clipped sum is sequential, as numpy's row
    sum is below 8 entries, so only at n >= 8 can the last bit differ.
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
    u = (v - v[n - 1 - rank]).tolist()
    bps = sorted([x - b for b in (lo, hi) if math.isfinite(b) for x in u])
    sums = []
    for b in bps:  # the sums fall with b, rounded too: the first under the trace is sums[k]
        s = 0.0
        for x in u:
            t = x - b
            s += lo if t < lo else hi if t > hi else t  # np.clip(t, lo, hi), inlined
        sums.append(s)
        if s < trace:
            break
    k = len(sums) - (sums[-1] < trace)  # sums[:k] >= trace > sums[k]
    b0 = bps[k - 1] if k else -np.inf
    b1 = bps[k] if k < len(bps) else np.inf
    m = sum(x - hi <= b0 and x - lo >= b1 for x in u)
    near_b0 = k and (k == len(bps) or sums[k - 1] - trace <= trace - sums[k])
    b, s = (b0, sums[k - 1]) if near_b0 else (b1, sums[k])
    shift = (s - trace) / m if m else 0.0
    return np.array([min(max((x - b) - shift, lo), hi) for x in u])


class SpectralSet(SetOracle):
    """{Sigma : lo <= lambda_i(Sigma) <= hi, and tr(Sigma) = trace if given}.

    Points are symmetric matrices flattened isometrically (off-diagonals
    scaled by sqrt(2)), so the ambient dimension is n(n+1)/2 and the
    Euclidean norm equals the Frobenius norm. The set is spectral, so a
    projection is one validation of the point, one eigendecomposition and
    the exact projection of the eigenvalues (Lewis 1996); see
    :func:`_project_eigs`. One bound may be infinite. With a trace the
    affine hull is the trace hyperplane. The PSD cone is
    ``SpectralSet(n, lo=0)``, the fixed-trace box ``SpectralSet(n, hi=a, trace=1)``.

    The boundary descriptor is lo - lambda_min or lambda_max - hi, for the
    more violated finite bound (the active end); it is C^2 wherever that
    extreme eigenvalue is simple, i.e. set apart from its neighbour by
    more than ``EIG_GAP_TOL`` relative.
    """

    def __init__(self, n, lo=-np.inf, hi=np.inf, trace=None):
        n = operator.index(n)
        if n < 1:
            raise ValueError("matrix order must be at least 1")
        lo, hi = float(lo), float(hi)
        if not (lo <= hi and lo < np.inf and hi > -np.inf) or (lo, hi) == (-np.inf, np.inf):
            raise ValueError("need lo <= hi with at least one finite bound")
        if trace is not None:
            _check_finite(trace=trace)
            if not n * lo <= trace <= n * hi:
                raise ValueError("empty set: need n * lo <= trace <= n * hi")
        super().__init__(sym_dim(n))
        self.n = n
        self.lo, self.hi = lo, hi
        self.trace = None if trace is None else float(trace)
        if self.trace is not None:
            self.affine_hull = AffineSubspace(sym_to_vec(np.eye(self.n))[None, :], [self.trace])

    def project(self, z) -> np.ndarray:
        rows, cols, scale = _sym_layout(self.n)
        S = np.empty((self.n, self.n))
        S[rows, cols] = S[cols, rows] = _as_point(z, self.dim) / scale
        eig = symmetric_eigh(S)
        w = _project_eigs(eig.eigenvalues, self.lo, self.hi, self.trace)
        V = eig.eigenvectors
        return ((V * w) @ V.T)[rows, cols] * scale

    def _boundary(self, z):
        # One eigendecomposition gives all three. The active end is lambda_min
        # (k = 0, s = -1) against lo or lambda_max (k = -1, s = +1) against hi.
        eig = symmetric_eigh(vec_to_sym(_as_point(z, self.dim)))
        w, V = eig.eigenvalues, eig.eigenvectors
        low = self.hi == np.inf or (self.lo > -np.inf and self.lo - w[0] >= w[-1] - self.hi)
        k, s = (0, -1.0) if low else (-1, 1.0)
        if self.n > 1 and s * (w[k] - w[k - int(s)]) <= EIG_GAP_TOL * (1.0 + abs(w[k])):
            raise RegularityError("extreme eigenvalue is not simple; boundary is not C^2 here")
        g = float(s * (w[k] - (self.hi if s > 0 else self.lo)))
        q = V[:, k]
        # M[i, l] = q^T smat(e_i) q_l over the other eigenvectors q_l.
        others = np.delete(V, k, axis=1)
        M = np.stack([q @ vec_to_sym(e) @ others for e in np.eye(self.dim)])
        return g, s * sym_to_vec(np.outer(q, q)), 2.0 * (M / (s * (w[k] - np.delete(w, k)))) @ M.T


class EmbeddedOracle(SetOracle):
    """A lower-dimensional oracle placed inside an affine subspace.

    ``inner`` lives in the subspace's local orthonormal coordinates; the
    embedded set is {anchor + B v : v in inner}. Projection splits
    orthogonally: restrict to the subspace, project inside, embed back.
    """

    def __init__(self, inner: SetOracle, subspace: AffineSubspace):
        if inner.dim != subspace.subspace_dim:
            raise ValueError(
                f"inner oracle dimension {inner.dim} does not match "
                f"subspace dimension {subspace.subspace_dim}"
            )
        super().__init__(subspace.dim)
        self.inner = inner
        self.subspace = self.affine_hull = subspace

    def project(self, z) -> np.ndarray:
        a, B = self.subspace.anchor, self.subspace.basis
        return a + B @ self.inner.project(B.T @ (_as_point(z, self.dim) - a))

    def _boundary(self, z):
        a, B = self.subspace.anchor, self.subspace.basis
        g, grad, hess = self.inner._boundary(B.T @ (_as_point(z, self.dim) - a))
        return g, B @ grad, B @ hess @ B.T


class IsometricImage(SetOracle):
    """The image of a hull-confined oracle under the hull's isometry to R^d.

    Inverse of :class:`EmbeddedOracle`: for a set contained in the
    subspace, projection commutes with the isometry, so the image oracle
    projects by round-tripping through ambient coordinates.
    """

    def __init__(self, inner: SetOracle, subspace: AffineSubspace):
        if inner.dim != subspace.dim:
            raise ValueError("oracle and subspace live in different ambient dimensions")
        super().__init__(subspace.subspace_dim)
        self.inner = inner
        self.subspace = subspace

    def project(self, v) -> np.ndarray:
        a, B = self.subspace.anchor, self.subspace.basis
        return B.T @ (self.inner.project(a + B @ _as_point(v, self.dim)) - a)

    def _boundary(self, v):
        a, B = self.subspace.anchor, self.subspace.basis
        g, grad, hess = self.inner._boundary(a + B @ _as_point(v, self.dim))
        return g, B.T @ grad, B.T @ hess @ B


def in_hull_coordinates(oracle: SetOracle, hull: AffineSubspace) -> SetOracle:
    """``oracle``, a set within ``hull``, as an oracle of the hull's
    orthonormal coordinates v (z = anchor + B v).

    An :class:`EmbeddedOracle` on the hull's own frame is its ``inner``, and
    a :class:`Ball` of the hull is the whole-space ball of its in-plane
    center and radius; both then project without a round trip through
    ambient coordinates. Anything else becomes an :class:`IsometricImage`.
    """
    if isinstance(oracle, EmbeddedOracle):
        frame = oracle.subspace
        if frame is hull or (
            same_subspace(frame, hull)
            and np.array_equal(frame.anchor, hull.anchor)
            and np.array_equal(frame.basis, hull.basis)
        ):
            return oracle.inner
    if type(oracle) is Ball and oracle.subspace is not None and same_subspace(oracle.subspace, hull):
        return Ball(hull.to_local(oracle.in_plane_center), oracle.in_plane_radius)
    return IsometricImage(oracle, hull)


class _Pair:
    """A pair oracle, ``inner`` cut by ``cut``: ``project_given(z, inner_z)`` takes
    ``inner_z`` = P_inner(z), or None; the boundary descriptor is ``inner``'s."""

    def project(self, z) -> np.ndarray:
        return self.project_given(z, None)

    def _boundary(self, z):
        return self.inner._boundary(z)


class Cap(_Pair, SetOracle):
    """``inner`` cut by a :class:`Hyperplane` {<a, x> = b}, a :class:`Halfspace`
    {<a, x> <= b} or a whole-space :class:`Ball` B(c, r).

    The cut's one-parameter Lagrangian dual gives P(z) = P_inner(z - s a),
    or P_inner(c + (z - c) / (1 + s)), at the root of <a, x> - b, or
    ||x - c|| - r, nonincreasing in the cut's multiplier s; a halfspace or
    ball is active unless P_inner(z) meets it. A bracketed regula falsi
    (Illinois type, Anderson-Bjorck weights) finds the root to the rounding
    level of the residual or of the shifted point, which for a ball is
    that of the set's own scale; while an end lies where P_inner is
    constant (a cone's apex), it steps by the secant through the other
    side's last two points, or bisects. A multiplier past
    ``CAP_TANGENT_RATIO`` times the displacement (an empty or tangent cut),
    an end there off the cut, or an exhausted ``CAP_MAX_ITER`` budget
    raises ``ConvergenceError``. The boundary descriptor is the inner
    set's; the affine hull is the hyperplane, or the inner set's hull.
    """

    def __init__(self, inner: SetOracle, cut):
        ball = isinstance(cut, Ball) and cut.subspace is None
        if not (ball or isinstance(cut, (Hyperplane, Halfspace))) or cut.dim != inner.dim:
            raise ValueError(
                "a cap's cut is a Hyperplane, Halfspace or whole-space Ball of the inner dimension"
            )
        super().__init__(inner.dim)
        self.inner, self.cut, self._ball = inner, cut, ball
        v = cut.center if self._ball else cut.normal
        self._size, self._a_sq = _norm(v), float(v @ v)  # ||c||, or ||a|| and a . a
        self.affine_hull = cut if isinstance(cut, Hyperplane) else inner.affine_hull

    def _residual(self, z, s, x=None):
        # (f, x) at the multiplier s; x, when given, is P_inner there.
        cut, ball = self.cut, self._ball
        if x is None:
            x = self.inner.project(cut.center + (z - cut.center) / (1.0 + s) if ball else z - s * cut.normal)
        return _norm(x - cut.center) - cut.radius if ball else float(cut.normal @ x) - cut.offset, x

    def _settled(self, f, x, tol):
        # |f| within tol, the shifted point's rounding level, and within the
        # rounding of its own evaluation at x, which can be far smaller.
        if abs(f) > tol:
            return False
        cut, size = self.cut, self._size  # a ball's ||x|| <= ||x - c|| + ||c|| = f + r + ||c||
        own = 2.0 * (cut.radius + size) + f if self._ball else abs(cut.offset) + size * _norm(x)
        return abs(f) <= 4.0 * EPS * own

    def _check_tangent(self, z, s, x):
        # |s| ||grad||, r or ||a||, is ||z - x|| where the inner set is inactive.
        if abs(s) * (self.cut.radius if self._ball else self._size) > CAP_TANGENT_RATIO * _norm(z - x):
            raise ConvergenceError("the cut is tangent to the set or misses it")

    def project_given(self, z, inner_z) -> np.ndarray:
        return self.project_dual(z, inner_z)[0]

    def project_dual(self, z, inner_z=None):
        """(P(z), s): the projection and its multiplier; ``inner_z`` is P_inner(z), if known."""
        z = _as_point(z, self.dim)
        cut, ball, size, nz = self.cut, self._ball, self._size, _norm(z)
        tol = 4.0 * EPS * (cut.radius + size + nz if ball else abs(cut.offset) + size * nz)
        # at s = 0, P_inner of z itself: c + (z - c) need not be z
        fa, xb = self._residual(z, 0.0, self.inner.project(z) if inner_z is None else inner_z)
        if (fa <= 0.0 and not isinstance(cut, Hyperplane)) or self._settled(fa, xb, tol):
            return xb, 0.0
        # The search starts at the root the cut alone has at P_inner(z) and,
        # testing each multiplier for tangency, steps 5% past the secant's
        # root, at most 16 times as far, taking the secant where the cut alone
        # has a linear residual: in s, or in 1 / (1 + s) for a ball. A step
        # under ``close`` moves the shifted point by less than its rounding:
        # z - s a moves by ||a|| ds, c + (z - c) / (1 + s) only as 1 + s does.
        b = fa / (cut.radius if ball else self._a_sq)
        ulp = 4.0 * EPS * (1.0 if ball else nz / size)
        a, flat = 0.0, None
        seen = ([], [(0.0, fa)]) if fa > 0.0 else ([(0.0, fa)], [])  # (s, f) by f > 0
        for _ in range(CAP_MAX_ITER):
            fb, xb = self._residual(z, b)
            seen[fb > 0.0].append((b, fb))
            if (fb > 0.0) != (fa > 0.0) or self._settled(fb, xb, tol):
                break
            self._check_tangent(z, b, xb)
            flat = fb if fb == fa else flat
            grow = fb / (fa - fb) * (1.0 - a / b) if abs(fb) < abs(fa) else np.inf
            if ball:  # the secant in 1 / (1 + s)
                grow = grow * (1.0 + b) / (1.0 + a - b * grow) if b * grow < 1.0 + a else np.inf
            a, fa, b = b, fb, b * (1.0 + min(1.05 * grow, 15.0))
        for _ in range(CAP_MAX_ITER):
            if self._settled(fb, xb, tol):
                break
            if (fa > 0.0) == (fb > 0.0):
                raise ConvergenceError("cap dual root not bracketed", residual=abs(fb))
            s, close = b - fb * (b - a) / (fb - fa), ulp + 4.0 * EPS * abs(b)
            if flat is not None and flat in (fb, seen[fa > 0.0][-1][1]):
                # The secant through a flat end creeps; a's side's last point
                # is a. A lone point on the other side pairs with itself.
                (s1, f1), (s2, f2) = (seen[flat < 0.0] * 2)[-2:]
                t = s2 - f2 * (s2 - s1) / (f2 - f1) if f1 != f2 else np.nan
                s = t if min(a, b) < t < max(a, b) or abs(t - b) <= close else 0.5 * (a + b)
            if abs(s - b) <= close or not min(a, b) < s < max(a, b):
                break
            fs, xs = self._residual(z, s)
            seen[fs > 0.0].append((s, fs))
            flat = fs if fs == fb else flat
            if (fs > 0.0) != (fb > 0.0):
                a, fa = b, fb
            else:
                m = 1.0 - fs / fb
                fa *= m if m > 0.0 else 0.5
            b, fb, xb = s, fs, xs
        else:
            raise ConvergenceError("cap dual root not converged", residual=abs(fb))
        if fb == flat and not self._settled(fb, xb, tol):  # a flat end off the cut
            raise ConvergenceError("cap dual root not resolved", residual=abs(fb))
        self._check_tangent(z, b, xb)
        return xb, b


class BallLens(_Pair, SetOracle):
    """The intersection of two whole-space balls, ``inner`` B(c1, r1) cut by
    ``cut`` B(c2, r2), projected in closed form.

    P(z) is P_inner(z) if that lies in ``cut``, else P_cut(z) if that lies
    in ``inner``, else the nearest point of the rim, the sphere where the
    two boundaries meet: with both constraints active the projection lies
    on the rim, and z projects onto the rim radially about its center. The
    rim lies in the hyperplane <x - c1, e> = a, e the unit axis from c1 to
    c2 at distance D, a = D / 2 + (r1 - r2)(r1 + r2) / (2 D); its radius
    is twice the area of the triangle of sides r1, r2, D over D, taken by
    Heron's formula, which neither cancels for a thin lens nor overflows.
    A point on the axis is as near to every rim point as to any other and
    takes one of them. A ball inside the other is the lens itself. Balls
    that are disjoint or tangent (r1 + r2 - D within the rounding of
    r1 + r2) raise ``ConvergenceError`` when the lens is built, the error a
    :class:`Cap` of one by the other raises at its first projection.
    """

    def __init__(self, inner: Ball, cut: Ball):
        if not all(type(b) is Ball and b.subspace is None for b in (inner, cut)) or (
            inner.dim != cut.dim or inner.dim < 2
        ):
            raise ValueError("a lens is two whole-space Balls of one dimension >= 2")
        super().__init__(inner.dim)
        self.inner, self.cut = inner, cut
        (c1, r1), (c2, r2) = (inner.center, inner.radius), (cut.center, cut.radius)
        D = _norm(c2 - c1)
        if r1 + r2 - D <= 4.0 * EPS * (r1 + r2):
            raise ConvergenceError("the balls are tangent or disjoint")
        self._nested = inner if D + r1 <= r2 else cut if D + r2 <= r1 else None
        if self._nested is not None:
            return
        e = (c2 - c1) / D
        self._axis, self._rim_center = e, c1 + (0.5 * D + (r1 - r2) * ((r1 + r2) / (2.0 * D))) * e
        sides = (r1 + r2 - D, D + r2 - r1, D + r1 - r2, D + r1 + r2)
        self._rim_radius = math.prod(math.sqrt(f) for f in sides) / (2.0 * D)
        k = int(np.argmin(np.abs(e)))
        u = -e[k] * e
        u[k] += 1.0
        self._across = u / _norm(u)  # a unit vector orthogonal to the axis

    def project_given(self, z, inner_z) -> np.ndarray:
        z = _as_point(z, self.dim)
        if self._nested is not None:
            return inner_z if inner_z is not None and self._nested is self.inner else self._nested.project(z)
        inner, cut = self.inner, self.cut
        x = inner.project(z) if inner_z is None else inner_z
        if _norm(x - cut.center) <= cut.radius:
            return x
        y = cut.project(z)
        if _norm(y - inner.center) <= inner.radius:
            return y
        q = z - self._rim_center
        w = q - float(self._axis @ q) * self._axis
        nw = _norm(w)
        if nw == 0.0:
            w, nw = self._across, 1.0
        return self._rim_center + w * (self._rim_radius / nw)


class EllipsoidLens(_Pair, SetOracle):
    """Two :class:`Ellipsoid` s, ``inner`` cut by ``cut``, g_i(x) = (x - c_i)^T Q_i (x - c_i) - 1 <= 0.

    P(z) is P_inner(z) if that lies in ``cut``, else P_cut(z) if that lies
    in ``inner``, else x(lam) = (I + lam_1 Q_1 + lam_2 Q_2)^-1 (z + lam_1
    Q_1 c_1 + lam_2 Q_2 c_2) at the lam > 0 where g(x(lam)) = 0, the
    maximizer of the concave two-multiplier dual (Boyd & Vandenberghe 2004,
    ch. 5). Projected Newton (Bertsekas 1982) starts at half of each single
    ellipsoid's multiplier, halves a step that neither raises the dual nor
    lowers ||g||, and stops once both residuals are at their rounding level
    at x, so the output lies in both sets; its systems are divided by
    max(1, lam_1 + lam_2), so far points do not overflow. A pull lam_i ||Q_i
    (x - c_i)|| past ``CAP_TANGENT_RATIO`` ||z - x|| (tangent ellipsoids), a
    singular system or ``NEWTON_MAX_ITER`` evaluations raise ``ConvergenceError``.
    """

    def __init__(self, inner: Ellipsoid, cut: Ellipsoid):
        if not (type(inner) is type(cut) is Ellipsoid and inner.dim == cut.dim):
            raise ValueError("an ellipsoid lens is two Ellipsoids of one dimension")
        super().__init__(inner.dim)
        self.inner, self.cut = inner, cut

    @staticmethod
    def _residual(e, x):
        # g(x), grad g(x) = 2 Q (x - c), and the rounding level of g at x.
        g, grad, _ = e._boundary(x)
        return g, grad, 4.0 * EPS * (e.dim + _norm(grad) * (_norm(x) + _norm(e.center)))

    @np.errstate(over="ignore", invalid="ignore")  # a trial step far past the root
    def project_given(self, z, inner_z) -> np.ndarray:
        z = _as_point(z, self.dim)
        x1 = self.inner.project(z) if inner_z is None else inner_z
        g, _, tol = self._residual(self.cut, x1)
        if g <= tol:
            return x1
        x2 = self.cut.project(z)
        g, _, tol = self._residual(self.inner, x2)
        if g <= tol:
            return x2
        lam = np.array([_norm(z - x) / _norm(e._boundary(x)[1]) for e, x in ((self.inner, x1), (self.cut, x2))])
        (Q1, c1), (Q2, c2) = (self.inner.Q, self.inner.center), (self.cut.Q, self.cut.center)
        step, s, merit = np.zeros(2), 1.0, np.inf
        try:
            for _ in range(NEWTON_MAX_ITER):
                new = np.maximum(lam + s * step, 0.0)
                t = max(1.0, new[0] + new[1])
                m1, m2 = new / t
                M = np.eye(self.dim) / t + m1 * Q1 + m2 * Q2
                x = np.linalg.solve(M, z / t + m1 * (Q1 @ c1) + m2 * (Q2 @ c2))
                (g1, n1, tol1), (g2, n2, tol2) = (self._residual(e, x) for e in (self.inner, self.cut))
                g = np.array([g1, g2])
                # The dual d is concave, so d(new) >= d(lam) + g . (new - lam) / 2.
                ascent = float(g @ (new - lam))
                if not math.isfinite(ascent) or (ascent < 0.0 and math.hypot(g1, g2) >= merit):
                    s *= 0.5
                    continue
                if abs(g1) <= tol1 and abs(g2) <= tol2:
                    if max(new[0] * _norm(n1), new[1] * _norm(n2)) > 2.0 * CAP_TANGENT_RATIO * _norm(z - x):
                        break
                    return x
                lam, s, merit = new, 1.0, math.hypot(g1, g2)
                free = (lam > 0.0) | (g > 0.0)  # a multiplier at 0 whose constraint holds stays there
                N = np.column_stack([n1, n2])[:, free]
                step = np.zeros(2)
                step[free] = 2.0 * t * np.linalg.solve(N.T @ np.linalg.solve(M, N), g[free])
        except (np.linalg.LinAlgError, NonFiniteError):  # normals parallel, or multipliers overflowed
            pass
        raise ConvergenceError("the ellipsoids are tangent or disjoint, or Newton did not converge")


def dykstra_project(oracles, z, tol=1e-12, max_iter=100_000) -> np.ndarray:
    """Projection onto the intersection of ``oracles`` by Dykstra's cyclic
    scheme (Boyle & Dykstra 1986), a slow but independent reference for tests.

    Stops when the iterate moves less than ``tol`` between successive
    cycles; the intersection must be nonempty. Raises ValueError for no
    oracle, a ``tol`` that is not finite and positive or a ``max_iter``
    that is not an integer >= 1, and ``ConvergenceError``, with the last
    cycle-to-cycle change as its residual, when the cycles run out.
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
            return x
    raise ConvergenceError(
        f"Dykstra did not converge within {max_iter} cycles", residual=change
    )


def boundary_eval(oracle: SetOracle, z):
    """Boundary descriptor (g, grad, hess) restricted to the affine hull.

    When the oracle carries an affine hull, the gradient and Hessian are
    expressed in the hull's orthonormal basis coordinates; otherwise they
    are ambient.

    Raises:
        UnsupportedOperation: the oracle has no smooth descriptor.
        RegularityError: z is outside the descriptor's chart domain, or
            g, grad or hess is not finite there.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g, grad, hess = oracle._boundary(z)
    if not (np.isfinite(g) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise RegularityError("boundary descriptor is not finite at this point")
    hull = oracle.affine_hull
    if hull is None:
        return g, grad, hess
    B = hull.basis
    return g, B.T @ grad, B.T @ hess @ B
