"""Closed convex sets with exact projections and optional boundary calculus.

Every oracle exposes ``project`` (exact, or within a stated tolerance for
the iterative kinds), ``reflect``, membership helpers, and optionally a
smooth boundary descriptor (g, grad g, Hess g) restricted to the set's
affine hull. The descriptor feeds the curvature and tangent-bound
diagnostics; oracles without one simply refuse those operations.

All oracles are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, RegularityError, UnsupportedOperation
from .linalg import (
    EPS,
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

# Dykstra defaults; the inner tolerance is kept two orders tighter than
# any outer solver tolerance that consumes these projections.
DYKSTRA_TOL = 1e-12
DYKSTRA_MAX_ITER = 100_000

# A cap's dual solve: the budget of each phase, and the multiple of the
# displacement past which a hyperplane multiplier means a tangent or
# missing cut (an intersection angle under about 1e-6).
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
        raise ValueError("point has non-finite entries")
    return z


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
    """Base class: a closed convex set with an exact projection."""

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

    @property
    def affine_hull(self):
        return None

    # Smooth-boundary descriptor, in ambient coordinates. Subclasses with
    # smooth relative boundaries implement _g/_grad/_hess.
    def _g(self, z) -> float:
        raise UnsupportedOperation(f"{type(self).__name__} has no smooth boundary descriptor")

    def _grad(self, z) -> np.ndarray:
        raise UnsupportedOperation(f"{type(self).__name__} has no smooth boundary descriptor")

    def _hess(self, z) -> np.ndarray:
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
        super().__init__(A.shape[1])
        self.A = A
        self.b = b
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

    @property
    def affine_hull(self):
        return self

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


class Hyperplane(AffineSubspace):
    """{z : <normal, z> = offset}."""

    def __init__(self, normal, offset):
        normal = _as_point(normal)
        if np.linalg.norm(normal) == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
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

    def _g(self, z):
        return float(self.normal @ _as_point(z, self.dim)) - self.offset

    def _grad(self, z):
        return self.normal.copy()

    def _hess(self, z):
        return np.zeros((self.dim, self.dim))


class Ball(SetOracle):
    """{z : ||z - center|| <= radius}, described by g = ||z-c||^2 - r^2."""

    def __init__(self, center, radius):
        center = _as_point(center)
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        super().__init__(center.shape[0])
        self.center = center
        self.radius = float(radius)

    def project(self, z) -> np.ndarray:
        z = _as_point(z, self.dim)
        d = z - self.center
        nd = _norm(d)
        if nd <= self.radius:
            return z.copy()
        return self.center + d * (self.radius / nd)

    def _g(self, z):
        d = _as_point(z, self.dim) - self.center
        return float(d @ d) - self.radius**2

    def _grad(self, z):
        return 2.0 * (_as_point(z, self.dim) - self.center)

    def _hess(self, z):
        return 2.0 * np.eye(self.dim)


class Ellipsoid(SetOracle):
    """{z : (z - c)^T Q (z - c) <= 1} for symmetric positive definite Q.

    Projection solves the scalar dual equation sum_i d_i w_i^2 / (1 + lam
    d_i)^2 = 1 (eigenbasis of Q) by Newton with a bisection safeguard;
    no closed form exists. Newton starts at the root's lower bound
    (sqrt(sum_i d_i w_i^2) - 1) / max_i d_i, from which a far point's root
    is a few steps away, and stops once the duality residual |f(lam)| is
    at most ``ELLIPSOID_TOL``. Points far past 1e154 project without
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
        for _ in range(200):
            den = 1.0 + lam * self._d
            t = w / den
            dt2 = self._d * t * t
            f = float(np.sum(dt2)) - 1.0
            if abs(f) <= ELLIPSOID_TOL:
                break
            if f > 0.0:
                lo = lam
            else:
                hi = lam
            fp = -2.0 * float(np.sum(self._d * dt2 / den))
            step = lam - f / fp
            if hi is None:
                lam = step if step > lo else 2.0 * lo + 1.0
            else:
                lam = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            raise ConvergenceError("ellipsoid dual Newton did not converge", residual=abs(f))
        return self.center + self._U @ t

    def _g(self, z):
        d = _as_point(z, self.dim) - self.center
        return float(d @ (self.Q @ d)) - 1.0

    def _grad(self, z):
        return 2.0 * self.Q @ (_as_point(z, self.dim) - self.center)

    def _hess(self, z):
        return 2.0 * self.Q.copy()


class SecondOrderCone(SetOracle):
    """{(t, u) : ||u|| <= t}; the first coordinate is the cone height.

    The boundary descriptor g = ||u|| - t is smooth away from the apex;
    boundary calculus refuses at the apex, where the boundary is not a
    manifold.
    """

    def __init__(self, dim):
        if dim < 2:
            raise ValueError("second-order cone needs dimension >= 2")
        super().__init__(dim)

    def project(self, z) -> np.ndarray:
        z = _as_point(z, self.dim)
        t, u = z[0], z[1:]
        nu = _norm(u)
        if nu <= t:
            return z.copy()
        if nu <= -t:
            return np.zeros(self.dim)
        s = 0.5 * (t + nu)
        out = np.empty(self.dim)
        out[0] = s
        out[1:] = u * (s / nu)
        return out

    def _check_chart(self, z):
        z = _as_point(z, self.dim)
        nu = float(np.linalg.norm(z[1:]))
        if nu <= 1e-12 * (1.0 + abs(z[0])):
            raise RegularityError("second-order cone boundary is not a manifold at the apex")
        return z, nu

    def _g(self, z):
        z = _as_point(z, self.dim)
        return float(np.linalg.norm(z[1:])) - z[0]

    def _grad(self, z):
        z, nu = self._check_chart(z)
        g = np.empty(self.dim)
        g[0] = -1.0
        g[1:] = z[1:] / nu
        return g

    def _hess(self, z):
        z, nu = self._check_chart(z)
        uhat = z[1:] / nu
        H = np.zeros((self.dim, self.dim))
        H[1:, 1:] = (np.eye(self.dim - 1) - np.outer(uhat, uhat)) / nu
        return H


def _power_normal_root(alpha, x0, y0, max_iter=200):
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
    for _ in range(max_iter):
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
        if alpha <= 1.0:
            raise ValueError("exponent must exceed 1")
        if beta < 0.0:
            raise ValueError("shift must be nonnegative")
        super().__init__(2)
        self.alpha = float(alpha)
        self.beta = float(beta)

    def project(self, z) -> np.ndarray:
        z = _as_point(z, 2)
        x0, y0 = float(z[0]), float(z[1]) + self.beta
        ax = abs(x0)
        try:
            if y0 >= ax**self.alpha:
                return z.copy()
            if ax == 0.0:
                return np.array([0.0, -self.beta])
            u = _power_normal_root(self.alpha, ax, y0)
            return np.array([np.copysign(u, x0), u**self.alpha - self.beta])
        except OverflowError as exc:
            raise ConvergenceError(f"power-epigraph projection overflows at {z.tolist()}") from exc

    def _g(self, z):
        z = _as_point(z, 2)
        return abs(z[0]) ** self.alpha - self.beta - z[1]

    def _grad(self, z):
        z = _as_point(z, 2)
        ax = abs(z[0])
        gx = self.alpha * ax ** (self.alpha - 1.0)
        return np.array([np.copysign(gx, z[0]), -1.0])

    def _hess(self, z):
        z = _as_point(z, 2)
        ax = abs(z[0])
        if ax == 0.0:
            if self.alpha < 2.0:
                raise RegularityError("boundary is C^1 but not C^2 at the vertex")
            gxx = 2.0 if self.alpha == 2.0 else 0.0
        else:
            gxx = self.alpha * (self.alpha - 1.0) * ax ** (self.alpha - 2.0)
        return np.array([[gxx, 0.0], [0.0, 0.0]])


def _project_eigs(v, lo, hi, trace=None):
    """Projection of ascending v onto {lo <= x_i <= hi, sum x_i = trace}; a clip without a trace.

    The projection is clip(v - mu, lo, hi) for the mu at which the clipped
    sum, nonincreasing and piecewise linear in mu with breakpoints at the
    finite v_i - lo and v_i - hi, equals ``trace``: the sums at the sorted
    breakpoints bracket mu in one linear piece (cf. Condat 2016), whose
    slope is minus the count m of entries free on it. Past the last
    breakpoint on an infinite bound's side every entry is free.

    At any scale of v the result is formed without cancellation. The
    work is relative to the entry that ends free, or next to the free
    ones: the top entry with only lo, the bottom one with only hi, and
    else the one whose descending rank is the count of entries at hi,
    floor((trace - n lo) / (hi - lo)). Entries far from it end clipped.
    mu is then solved from the bracket end b nearer to it, mu - b =
    (sum at b - trace) / m, and clip(v - mu) is formed as clip((v - b) -
    (mu - b)), so no large mu is ever rounded.
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
    bps = np.sort(np.concatenate([u - b for b in (lo, hi) if math.isfinite(b)]))
    sums = (u - bps[:, None]).clip(lo, hi).sum(axis=1)
    k = int(np.count_nonzero(sums >= trace))  # sums[:k] >= trace > sums[k:]
    b0 = bps[k - 1] if k else -np.inf
    b1 = bps[k] if k < bps.shape[0] else np.inf
    m = int(np.count_nonzero((u - hi <= b0) & (u - lo >= b1)))
    if k and (k == bps.shape[0] or sums[k - 1] - trace <= trace - sums[k]):
        b, s = b0, sums[k - 1]
    else:
        b, s = b1, sums[k]
    return ((u - b) - ((s - trace) / m if m else 0.0)).clip(lo, hi)


class SpectralSet(SetOracle):
    """{Sigma : lo <= lambda_i(Sigma) <= hi, and tr(Sigma) = trace if given}.

    Points are symmetric matrices flattened isometrically (off-diagonals
    scaled by sqrt(2)), so the ambient dimension is n(n+1)/2 and the
    Euclidean norm equals the Frobenius norm. The set is spectral, so one
    eigendecomposition reduces its projection to the exact projection of
    the eigenvalue vector (Lewis 1996); see :func:`_project_eigs`. One
    bound may be infinite. With a trace the affine hull is the trace
    hyperplane.

    The PSD cone is ``SpectralSet(n, lo=0)`` and the fixed-trace box
    ``SpectralSet(n, hi=a, trace=1)``.

    The boundary descriptor is lo - lambda_min or lambda_max - hi, for the
    more violated finite bound (the active end); it is C^2 wherever that
    extreme eigenvalue is simple, i.e. set apart from its neighbour by
    more than ``EIG_GAP_TOL`` relative.
    """

    def __init__(self, n, lo=-np.inf, hi=np.inf, trace=None):
        if n < 1:
            raise ValueError("matrix order must be at least 1")
        lo, hi = float(lo), float(hi)
        if not (lo <= hi and lo < np.inf and hi > -np.inf) or (lo, hi) == (-np.inf, np.inf):
            raise ValueError("need lo <= hi with at least one finite bound")
        if trace is not None and not n * lo <= trace <= n * hi:
            raise ValueError("empty set: need n * lo <= trace <= n * hi")
        super().__init__(sym_dim(n))
        self.n = int(n)
        self.lo, self.hi = lo, hi
        self.trace = None if trace is None else float(trace)
        self._hull = None
        if self.trace is not None:
            self._hull = AffineSubspace(sym_to_vec(np.eye(self.n))[None, :], [self.trace])

    @property
    def affine_hull(self):
        return self._hull

    def project(self, z) -> np.ndarray:
        z = _as_point(z, self.dim)
        eig = symmetric_eigh(vec_to_sym(z))
        w = _project_eigs(eig.eigenvalues, self.lo, self.hi, self.trace)
        V = eig.eigenvectors
        return sym_to_vec((V * w) @ V.T)

    def _eig_end(self, z):
        """(w, V, k, s): eigenpairs at z and the active end, lambda_min (k = 0,
        s = -1) against lo or lambda_max (k = -1, s = +1) against hi."""
        eig = symmetric_eigh(vec_to_sym(_as_point(z, self.dim)))
        w, V = eig.eigenvalues, eig.eigenvectors
        if self.hi == np.inf or (self.lo > -np.inf and self.lo - w[0] >= w[-1] - self.hi):
            return w, V, 0, -1.0
        return w, V, -1, 1.0

    def _eig_simple(self, z):
        w, V, k, s = self._eig_end(z)
        if self.n > 1 and s * (w[k] - w[k - int(s)]) <= EIG_GAP_TOL * (1.0 + abs(w[k])):
            raise RegularityError("extreme eigenvalue is not simple; boundary is not C^2 here")
        return w, V, k, s

    def _g(self, z):
        w, _, k, s = self._eig_end(z)
        return float(s * (w[k] - (self.hi if s > 0 else self.lo)))

    def _grad(self, z):
        w, V, k, s = self._eig_simple(z)
        q = V[:, k]
        return s * sym_to_vec(np.outer(q, q))

    def _hess(self, z):
        w, V, k, s = self._eig_simple(z)
        q = V[:, k]
        # M[i, l] = q^T smat(e_i) q_l over the other eigenvectors q_l.
        others = np.delete(V, k, axis=1)
        M = np.stack([q @ vec_to_sym(e) @ others for e in np.eye(self.dim)])
        return 2.0 * (M / (s * (w[k] - np.delete(w, k)))) @ M.T


class BallInAffine(SetOracle):
    """A norm ball intersected with an affine subspace, in closed form.

    The intersection is a ball within the subspace, centered at the
    projected center with the chordal radius; projection goes to the
    subspace first, then clamps radially inside it. On flattened
    symmetric-matrix coordinates this realizes Frobenius-norm balls
    within linear matrix constraints.
    """

    def __init__(self, center, radius, subspace: AffineSubspace):
        center = _as_point(center, subspace.dim)
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        super().__init__(subspace.dim)
        self.center = center
        self.radius = float(radius)
        self.subspace = subspace
        q = subspace.project(center)
        chord2 = radius**2 - float(np.sum((center - q) ** 2))
        if chord2 <= 0.0:
            raise ValueError("empty set: the ball does not reach the subspace")
        self.in_plane_center = q
        self.in_plane_radius = float(np.sqrt(chord2))

    @property
    def affine_hull(self):
        return self.subspace

    def project(self, z) -> np.ndarray:
        p = self.subspace.project(z)
        d = p - self.in_plane_center
        nd = _norm(d)
        if nd <= self.in_plane_radius:
            return p
        return self.in_plane_center + d * (self.in_plane_radius / nd)

    def _g(self, z):
        d = _as_point(z, self.dim) - self.in_plane_center
        return float(d @ d) - self.in_plane_radius**2

    def _grad(self, z):
        return 2.0 * (_as_point(z, self.dim) - self.in_plane_center)

    def _hess(self, z):
        return 2.0 * np.eye(self.dim)


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
        self.subspace = subspace

    @property
    def affine_hull(self):
        return self.subspace

    def project(self, z) -> np.ndarray:
        v = self.subspace.to_local(_as_point(z, self.dim))
        return self.subspace.from_local(self.inner.project(v))

    def _g(self, z):
        return self.inner._g(self.subspace.to_local(_as_point(z, self.dim)))

    def _grad(self, z):
        B = self.subspace.basis
        return B @ self.inner._grad(self.subspace.to_local(_as_point(z, self.dim)))

    def _hess(self, z):
        B = self.subspace.basis
        return B @ self.inner._hess(self.subspace.to_local(_as_point(z, self.dim))) @ B.T


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
        z = self.subspace.from_local(_as_point(v, self.dim))
        return self.subspace.to_local(self.inner.project(z))

    def _g(self, v):
        return self.inner._g(self.subspace.from_local(_as_point(v, self.dim)))

    def _grad(self, v):
        B = self.subspace.basis
        return B.T @ self.inner._grad(self.subspace.from_local(_as_point(v, self.dim)))

    def _hess(self, v):
        B = self.subspace.basis
        return B.T @ self.inner._hess(self.subspace.from_local(_as_point(v, self.dim))) @ B


class Cap(SetOracle):
    """``inner`` cut by a :class:`Hyperplane` {<a, x> = b} or a :class:`Ball` B(c, r).

    The cut's one-parameter Lagrangian dual gives P(z) = P_inner(z - mu a),
    or P_inner((1 - t) z + t c) with t in [0, 1], at the root of <a, x> - b,
    or ||x - c|| - r, nonincreasing in the dual value s = mu or t. A
    bracketed regula falsi (Illinois type, Anderson-Bjorck weights) finds
    it to double precision. The cut must meet the relative interior of
    ``inner``: an empty or tangent cut, or an exhausted ``CAP_MAX_ITER``
    budget, raises ``ConvergenceError``. The boundary descriptor is the
    inner set's; the affine hull is the hyperplane, or the inner set's hull.
    """

    def __init__(self, inner: SetOracle, cut):
        if not isinstance(cut, (Hyperplane, Ball)) or cut.dim != inner.dim:
            raise ValueError("a cap's cut is a Hyperplane or a Ball of the inner set's dimension")
        super().__init__(inner.dim)
        self.inner, self.cut = inner, cut

    @property
    def affine_hull(self):
        return self.cut if isinstance(self.cut, Hyperplane) else self.inner.affine_hull

    _g = property(lambda self: self.inner._g)
    _grad = property(lambda self: self.inner._grad)
    _hess = property(lambda self: self.inner._hess)

    def _residual(self, z, s):
        cut = self.cut
        if isinstance(cut, Ball):
            x = self.inner.project((1.0 - s) * z + s * cut.center)
            return _norm(x - cut.center) - cut.radius, x
        x = self.inner.project(z - s * cut.normal)
        if abs(s) * _norm(cut.normal) > CAP_TANGENT_RATIO * _norm(z - x):
            raise ConvergenceError("hyperplane cut is tangent to the set or misses it")
        return float(cut.normal @ x) - cut.offset, x

    def project(self, z) -> np.ndarray:
        return self.project_dual(z)[0]

    def project_dual(self, z):
        """(P(z), s): the projection and its dual value."""
        z = _as_point(z, self.dim)
        cut, ball = self.cut, isinstance(self.cut, Ball)
        nz = _norm(z)
        scale = cut.radius + _norm(cut.center) + nz if ball else abs(cut.offset) + _norm(cut.normal) * nz
        tol = 4.0 * EPS * scale
        fa, xb = self._residual(z, 0.0)
        if (fa if ball else abs(fa)) <= tol:
            return xb, 0.0
        # P_inner is nonexpansive, so the root lies past the uncut case's
        # root. The search starts there and, until the root is bracketed,
        # steps to the secant's extrapolation, kept 2 to 16 times as far.
        a, b = 0.0, fa / (_norm(z - cut.center) if ball else float(cut.normal @ cut.normal))
        for _ in range(CAP_MAX_ITER):
            b = min(b, 1.0) if ball else b
            fb, xb = self._residual(z, b)
            if ball and b == 1.0 and fb >= -tol:
                raise ConvergenceError("ball cut is tangent to the set or misses it")
            if (fb > 0.0) != (fa > 0.0) or abs(fb) <= tol:
                break
            grow = fb / (fa - fb) * (1.0 - a / b) if fa != fb else np.inf
            a, fa, b = b, fb, b * (1.0 + min(max(grow, 1.0), 15.0))
        for _ in range(CAP_MAX_ITER):
            if abs(fb) <= tol:
                return xb, b
            if (fa > 0.0) == (fb > 0.0):
                break
            s = b - fb * (b - a) / (fb - fa)
            if not min(a, b) < s < max(a, b):  # the bracket is down to rounding
                return xb, b
            fs, xs = self._residual(z, s)
            if (fs > 0.0) != (fb > 0.0):
                a, fa = b, fb
            else:
                m = 1.0 - fs / fb
                fa *= m if m > 0.0 else 0.5
            b, fb, xb = s, fs, xs
        raise ConvergenceError("cap dual root not bracketed or not converged", residual=abs(fb))


def dykstra_project(oracles, z, tol=DYKSTRA_TOL, max_iter=DYKSTRA_MAX_ITER) -> np.ndarray:
    """Projection onto an intersection by Dykstra's cyclic scheme.

    The cycle runs over leaf sets only: every :class:`DykstraIntersection`
    in ``oracles`` is replaced by its members, recursively, and a set that
    is the same instance as an earlier one is dropped, so [X, Y] with
    X = [e1, L] and Y = [e2, L] cycles over [e1, L, e2]. Dykstra's scheme
    converges to the projection onto the intersection of any finite family
    of closed convex sets (Boyle & Dykstra 1986), so the flat cycle
    computes the same projection as nesting, without an inner Dykstra run
    per outer step. ``tol`` and ``max_iter`` govern the flat cycle; a
    nested intersection's own ``tol`` and ``max_iter`` apply only to its
    standalone ``project``.

    Stops when the iterate moves less than ``tol`` between successive
    cycles. The intersection must be nonempty; that is the caller's
    responsibility.

    Raises:
        ConvergenceError: cycle budget exhausted; carries the last
            cycle-to-cycle change as the residual.
    """
    if not oracles:
        raise ValueError("need at least one oracle")
    leaves, pending = [], list(oracles)[::-1]
    while pending:
        oracle = pending.pop()
        if isinstance(oracle, DykstraIntersection):
            pending.extend(oracle.members[::-1])
        elif not any(oracle is leaf for leaf in leaves):
            leaves.append(oracle)
    x = _as_point(z, leaves[0].dim).copy()
    if len(leaves) == 1:
        return leaves[0].project(x)
    corrections = [np.zeros_like(x) for _ in leaves]
    prev = None
    change = np.inf
    for _ in range(max_iter):
        for i, oracle in enumerate(leaves):
            shifted = x + corrections[i]
            x = oracle.project(shifted)
            corrections[i] = shifted - x
        if prev is not None:
            change = float(np.linalg.norm(x - prev))
            if change <= tol:
                return x
        prev = x.copy()
    raise ConvergenceError(
        f"Dykstra did not converge within {max_iter} cycles", residual=change
    )


class DykstraIntersection(SetOracle):
    """Intersection of oracles without a closed-form joint projection.

    ``project`` is :func:`dykstra_project` over the members at this
    intersection's ``tol`` and ``max_iter``. Nested intersections are
    flattened there into one cycle over their leaf sets, under the outer
    call's tolerance and budget.
    """

    def __init__(self, members, tol=DYKSTRA_TOL, max_iter=DYKSTRA_MAX_ITER, hull=None):
        members = list(members)
        if not members:
            raise ValueError("need at least one member oracle")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError(f"member dimensions differ: {sorted(dims)}")
        super().__init__(members[0].dim)
        self.members = members
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self._hull = hull

    @property
    def affine_hull(self):
        return self._hull

    def project(self, z) -> np.ndarray:
        return dykstra_project(self.members, z, tol=self.tol, max_iter=self.max_iter)


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
        g, grad, hess = oracle._g(z), oracle._grad(z), oracle._hess(z)
    if not (np.isfinite(g) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise RegularityError("boundary descriptor is not finite at this point")
    hull = oracle.affine_hull
    if hull is None:
        return g, grad, hess
    B = hull.basis
    return g, B.T @ grad, B.T @ hess @ B
