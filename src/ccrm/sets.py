"""Closed convex sets with exact projections and optional boundary calculus.

Every oracle exposes ``project`` (exact, or within a stated tolerance for
the iterative kinds; the base class validates the point once and hands it,
with its entries as a list, to the class's kernel ``_project(z, x)``),
``reflect``, ``distance``, and optionally a
smooth boundary descriptor: ``_boundary(z)`` gives (g, grad g, Hess g)
together, which :func:`boundary_eval` restricts to the set's affine hull.
The descriptor feeds the curvature diagnostic; oracles without one simply
refuse it.

All oracles are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import contextlib
import math
import operator

import numpy as np

from .errors import ConvergenceError, NonFiniteError, RegularityError, UnsupportedOperation
from .linalg import (
    EPS,
    _eigh,
    _sym_layout,
    least_squares_min_norm,
    orthonormal_nullspace,
    sym_dim,
    sym_to_vec,
    symmetric_eigh,
    vec_to_sym,
)

# Bound on the duality residual |f(lam)| of the ellipsoid projection's Newton.
ELLIPSOID_TOL = 1e-12

# Relative gap under which an extreme eigenvalue counts as repeated, so a
# spectral set's boundary descriptor is not C^2 there.
EIG_GAP_TOL = 1e-8

# Budget of the scalar root searches (cap and ellipsoid duals,
# hyperboloid-sheet and power-epigraph normals).
NEWTON_MAX_ITER = 200

# A cut's multiplier times ||grad|| past this multiple of the displacement
# means a tangent or missing cut (an intersection angle under about 1e-6).
CAP_TANGENT_RATIO = 1e6

# Off its own constraint by this times the point's scale, an input or an
# output is wrong, not rounded.
WRONG_OUTPUT_TOL = 1e-9


_FLOAT = np.dtype(np.float64)


def _point(z, dim=None):
    """(z, x): z as a finite 1-d float64 array (not copied if it is one) of
    dimension ``dim``, if given, and x its entries as a list of Python floats;
    ValueError for another shape or dimension, NonFiniteError for inf or nan."""
    if type(z) is not np.ndarray or z.dtype is not _FLOAT:
        z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {z.shape}")
    if dim is not None and z.shape[0] != dim:
        raise ValueError(f"dimension mismatch: point has {z.shape[0]}, set has {dim}")
    x = z.tolist()
    # A Python float sum carries inf and nan through without a warning; a
    # finite point whose sum overflows falls through to the exact test.
    if not math.isfinite(sum(x)) and not np.isfinite(z).all():
        raise NonFiniteError("point has non-finite entries")
    return z, x


def _finite(z):
    """:func:`_point`'s finiteness test alone (inlined there, which saves a
    call per projection), for an affine image of a validated point."""
    x = z.tolist()
    if not math.isfinite(sum(x)) and not np.isfinite(z).all():
        raise NonFiniteError("point has non-finite entries")
    return z, x


def _as_point(z, dim=None):
    return _point(z, dim)[0]


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
    """Euclidean norm of a finite 1-d float array: ``math.hypot`` of its
    entries, one C call within 1 ulp of the exact norm that does not
    overflow for any vector whose norm is finite (Python >= 3.10). ``math.dist``
    of the lists of a and b is bit for bit ``_norm(a - b)``, with no temporary."""
    return math.hypot(*d.tolist())


def _ulps(x) -> int:
    """A float as an exact integer multiple of 2**-1074; a quotient of two
    such integers is rounded once."""
    n, d = float(x).as_integer_ratio()
    return (n << 1074) // d


def _row_norms(D) -> np.ndarray:
    """Euclidean norms of the rows of a finite 2-d array: numpy's, with each
    row whose sum of squares overflows taken by :func:`_norm`."""
    with np.errstate(over="ignore"):
        out = np.linalg.norm(D, axis=1)
    far = ~np.isfinite(out)
    if far.any():
        out[far] = [_norm(d) for d in D[far]]
    return out


def _root(residual, lo, hi, x0, settled, slope=None):
    """(x, f, data) at a root of a monotone ``residual(x)`` = (f, data) between lo and hi.

    f is evaluated at lo, where it is nonzero, then from the trial x0 (x0 =
    lo starts at lo), never at hi: 0 or an infinity. A step is Newton's if
    ``slope(x, data)`` gives f'(x), else a secant: through the bracket's
    ends with Anderson-Bjorck weights, or through the last two points on
    one side while the root is open or an end is flat (f repeats exactly,
    as at a cone's apex, or is too flat for a step to leave x). While the
    root is open, a secant aims 5% past its root and, after three steps
    that each cut |f| by less than 4, at least doubles its step; a step
    scales x by at most ``grow`` (16, squared whenever it binds), so a flat
    f reaches 1e300 in about ten steps. A bracket of one sign over a factor
    of 4 wide is bisected geometrically, a step out of a narrower one
    arithmetically. Returns where ``settled(x, f, data, step)`` holds, step
    the bracketed step's length (inf while the root is open), or where no
    float is left to step to; raises ``ConvergenceError`` at hi or after
    ``NEWTON_MAX_ITER`` evaluations.
    """
    fb, data = residual(lo)
    a = b = c = lo  # the bracket's other end, the latest point, the point before it on its side
    fa = ra = fc = fb  # ra is fa without its Anderson-Bjorck weights
    up = abs(hi) > abs(lo)  # x grows toward hi, or shrinks toward 0
    nxt, step, grow, creep, flat = x0, math.inf, 16.0, 0, None
    for _ in range(NEWTON_MAX_ITER):
        bracketed = (fa > 0.0) != (fb > 0.0)
        if nxt == b:
            if slope:
                df = slope(b, data)
            elif bracketed and fb != flat != ra:
                df = (fb - fa) / (b - a)
            else:
                df = (fb - fc) / (b - c) if (fb > 0.0) == (fc > 0.0) and b != c else 0.0
            nxt = b - fb / df if df else math.nan
            if bracketed:
                p, q = (a, b) if a < b else (b, a)
                if 0.0 < 4.0 * p < q or p < 4.0 * q < 0.0:
                    nxt = math.copysign(math.sqrt(abs(p)) * math.sqrt(abs(q)), b)
                elif not (p < nxt < q or nxt == b):
                    nxt = 0.5 * (a + b)
                step = abs(nxt - b)
            else:
                t = nxt if slope else b + 1.05 * (nxt - b)  # a secant aims 5% past its root
                flat = fb if t == b else flat  # f too flat for a step to leave b
                if not slope:
                    creep = creep + 1 if c != lo and abs(fb) > 0.25 * abs(fc) else 0
                    if creep > 2 and abs(t - b) < 2.0 * abs(b - c):
                        t = b + 2.0 * (b - c)
                ratio = (t / b if up else b / t) if t and b else math.inf
                if not 1.0 < ratio < grow:
                    ratio, grow = grow, grow * grow
                nxt = b * ratio if up else b / ratio
        if settled(b, fb, data, step) or nxt == a or nxt == b:
            return b, fb, data
        if not 0.0 < abs(nxt) < math.inf:  # past hi, 0 or an infinity
            raise ConvergenceError("root not bracketed", residual=abs(fb))
        fs, ds = residual(nxt)
        crossed = (fs > 0.0) != (fb > 0.0)
        c, fc = (a, ra) if crossed else (b, fb)
        flat = fs if fs == fc else flat
        if not bracketed or crossed:
            a, fa, ra = b, fb, fb
        else:  # Anderson-Bjorck: the end kept again has its residual scaled down
            m = 1.0 - fs / fb
            fa *= m if m > 0.0 else 0.5
        b, fb, data = nxt, fs, ds
    raise ConvergenceError("root search did not converge", residual=abs(fb))


class SetOracle:
    """Base class: a closed convex set with an exact projection.

    ``affine_hull`` is the :class:`AffineSubspace` the set is confined to,
    or None for a full-dimensional set; each constructor sets it once.
    """

    affine_hull = None

    def __init__(self, dim):
        self.dim = int(dim)

    def project(self, z) -> np.ndarray:
        """P(z): z is validated once, by :func:`_point`, for ``_project``."""
        z, x = _point(z, self.dim)
        return self._project(z, x)

    def _project(self, z, x) -> np.ndarray:
        """P(z) of a finite float64 point z of the set's dimension, x its entries as a list."""
        raise NotImplementedError

    # ``project`` validates z, so these two do not validate it again.
    def reflect(self, z) -> np.ndarray:
        return 2.0 * self.project(z) - z

    def distance(self, z) -> float:
        return math.dist(self.project(z).tolist(), np.asarray(z, dtype=float).tolist())

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
            residual = _norm(A @ self.anchor - b)
            if residual > WRONG_OUTPUT_TOL * (1.0 + _norm(b)):
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
        self.basis, self._Bt = basis, basis.T  # a view, formed once

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[1]

    def _project(self, z, x) -> np.ndarray:
        return self.anchor + self.basis @ (self._Bt @ (z - self.anchor))

    def _project_list(self, z, x) -> list:  # P(z) as a list, for a Ball's clamp
        return self._project(z, x).tolist()

    def to_local(self, z) -> np.ndarray:
        """Isometric coordinates of a hull point: B^T (z - anchor)."""
        return self._Bt @ (_as_point(z, self.dim) - self.anchor)

    def from_local(self, v) -> np.ndarray:
        v = _as_point(v, self.subspace_dim)
        return self.anchor + self.basis @ v


def same_subspace(a, b) -> bool:
    """Whether two affine hulls (subspaces or None) are one object or have equal A and b."""
    return a is b or (
        a is not None and b is not None and np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
    )


def _unit_normal(normal, offset, kind):
    """(normal, u, c): the normal as a point, and {<normal, z> = offset} as
    {<u, z> = c}, u a unit vector as a list. The normal is scaled by a power
    of two to a largest entry in [0.5, 1) before ``math.hypot``, so u is
    exact to rounding at every scale, subnormal normals included."""
    normal = _as_point(normal)
    _check_finite(offset=offset)
    big = float(np.max(np.abs(normal), initial=0.0))
    if big == 0.0:
        raise ValueError(f"{kind} normal must be nonzero")
    e = math.frexp(big)[1]
    s = [math.ldexp(a, -e) for a in normal.tolist()]
    h = math.hypot(*s)
    try:
        c = math.ldexp(offset, -e) / h
    except OverflowError:
        raise ValueError(f"{kind} offset / ||normal|| overflows") from None
    return normal, [a / h for a in s], c


class _Level:
    """The kernel of :class:`Hyperplane` and :class:`Halfspace`: z, whose
    entries are the list x, moved along the unit normal u = ``_unit`` onto
    {<u, y> = c}, c = ``_level``, by one sequential dot product on Python
    floats: at n <= 10 numpy's per-call overhead costs more than the
    arithmetic; ``_project_list`` is that list. A halfspace {<u, y> <= c}
    returns a copy of a z inside it (the list x itself)."""

    def _project(self, z, x) -> np.ndarray:
        p = self._project_list(z, x)
        return z.copy() if p is x else np.array(p)

    def _project_list(self, z, x) -> list:
        u = self._unit
        excess = sum(map(operator.mul, u, x)) - self._level
        if self._halfspace and excess <= 0.0:
            return x
        if not math.isfinite(excess):
            raise NonFiniteError("the point's distance to the hyperplane overflows")
        return [a - excess * b for a, b in zip(x, u)]


class Hyperplane(_Level, AffineSubspace):
    """{z : <normal, z> = offset}, projected by :class:`_Level`; the inherited
    ``anchor`` and ``basis``, a given ``basis`` if any, serve ``to_local`` and ``from_local``."""

    _halfspace = False

    def __init__(self, normal, offset, basis=None):
        self.normal, self._unit, self._level = _unit_normal(normal, offset, "hyperplane")
        self.offset = float(offset)
        super().__init__(self.normal[None, :], [self.offset], basis=basis)


class Halfspace(_Level, SetOracle):
    """{z : <normal, z> <= offset}, projected by :class:`_Level`."""

    _halfspace = True

    def __init__(self, normal, offset):
        self.normal, self._unit, self._level = _unit_normal(normal, offset, "halfspace")
        self.offset = float(offset)
        super().__init__(self.normal.shape[0])

    def _boundary(self, z):
        # In the unit normal's terms, so no normal scale over- or underflows.
        g = sum(map(operator.mul, self._unit, _point(z, self.dim)[1])) - self._level
        return g, np.array(self._unit), np.zeros((self.dim, self.dim))


class Ball(SetOracle):
    """{z in L : ||z - center|| <= radius}, L the ``subspace`` or the whole space.

    Within a subspace the set is a ball of L, centered at the projected
    center with the chordal radius (``in_plane_center``, ``in_plane_radius``;
    without one these are ``center`` and ``radius``); projection goes to L
    first (L's ``_project_list``), then clamps radially inside it on Python
    floats. The descriptor is g = ||z - c||^2 - r^2 in those in-plane terms.
    On flattened symmetric-matrix coordinates this realizes Frobenius-norm
    balls within linear matrix constraints.
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
            off = math.dist(center.tolist(), q.tolist())
            # Every square in the normal float range: r^2 - ||center - q||^2.
            normal = 2.0**-511 <= self.radius and max(self.radius, off) <= 2.0**511
            chord2 = radius**2 - float(np.sum((center - q) ** 2)) if normal else 0.0
            if chord2 > 0.0:
                chord = float(np.sqrt(chord2))
            else:
                # A square leaves the normal range, or center - q is within its
                # rounding (that of q, a few ulps of ||center||) of the radius:
                # the chord in factors, clamped at 0 there.
                if off > self.radius + 8.0 * EPS * _norm(center):
                    raise ValueError("empty set: the ball does not reach the subspace")
                chord = math.sqrt(max(self.radius - off, 0.0)) * math.sqrt(self.radius + off)
            self.in_plane_center, self.in_plane_radius = q, chord
        self._c = self.in_plane_center.tolist()  # for math.dist, bit for bit _norm(p - c)

    def _project(self, z, x) -> np.ndarray:
        p = x if self.subspace is None else self.subspace._project_list(z, x)
        nd = math.dist(p, self._c)
        if nd <= self.in_plane_radius:
            return np.array(p)
        t = self.in_plane_radius / nd
        return np.array([c + (a - c) * t for a, c in zip(p, self._c)])

    def _boundary(self, z):
        d = _as_point(z, self.dim) - self.in_plane_center
        try:
            r2 = self.in_plane_radius**2
        except OverflowError:  # inf, which boundary_eval refuses as non-finite
            r2 = math.inf
        return float(d @ d) - r2, 2.0 * d, 2.0 * np.eye(self.dim)


class Ellipsoid(SetOracle):
    """{z : (z - c)^T Q (z - c) <= 1} for symmetric positive definite Q.

    Projection solves the scalar dual equation sum_i d_i w_i^2 / (1 + lam
    d_i)^2 = 1 (eigenbasis of Q) by Newton in :func:`_root`, safeguarded
    by bisection; no closed form exists. Newton starts at the root's lower
    bound (sqrt(sum_i d_i w_i^2) - 1) / max_i d_i, from which a far point's
    root is a few steps away, and stops once the duality residual |f(lam)|
    is at most ``ELLIPSOID_TOL``; a last step aims n * EPS inside, deeper
    until the output projects to itself. Points far past 1e154 project
    without overflow.
    """

    def __init__(self, Q, center=None):
        Q = np.asarray(Q, dtype=float)
        d, U = symmetric_eigh(Q)
        if not d.size or d[0] <= 0.0:
            raise ValueError("shape matrix must be nonempty and positive definite")
        n = Q.shape[0]
        super().__init__(n)
        self.Q = 0.5 * (Q + Q.T)
        self.center = np.zeros(n) if center is None else _as_point(center, n)
        self._d, self._U = d, U
        self._sqrt_d = np.sqrt(d)

    def _project(self, z, x) -> np.ndarray:
        w = self._U.T @ (z - self.center)
        # sqrt(sum_i d_i w_i^2), past the square's overflow too.
        r = _norm(self._sqrt_d * w)
        if r <= 1.0:
            return z.copy()
        # 1 + lam d_i <= r there, so f(lam) >= 0. The iterate's point t
        # and f, f' are formed from w / (1 + lam d), which cannot overflow.
        d = self._d

        def residual(lam):  # (f(lam), -f'(lam))
            den = 1.0 + lam * d
            t = w / den
            dt = d * t
            return float(dt @ t) - 1.0, 2.0 * float(dt @ (dt / den))

        lo = (r - 1.0) / float(d[-1])
        lam, f, slope = _root(residual, lo, math.inf, lo, lambda lam, f, slope, step: abs(f) <= ELLIPSOID_TOL,
                              lambda lam, slope: -slope)
        # Newton nears the root from f > 0, outside the set: aim inside, twice
        # as deep on each retry, until the output passes the opening test.
        for k in range(60):
            t = w / (1.0 + (lam + (f + self.dim * EPS * 2.0**k) / slope) * d)
            x = self.center + self._U @ t
            if _norm(self._sqrt_d * (self._U.T @ (x - self.center))) <= 1.0:
                return x
        raise ConvergenceError("ellipsoid projection did not reach the set", residual=abs(f))

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
        self._e, self.given_axis = self.axis.tolist(), axis  # given_axis rebuilds the sheet bit for bit

    def _split(self, x):
        t = sum(map(operator.mul, self._e, x))
        w = [a - t * b for a, b in zip(x, self._e)]
        return t, w, math.hypot(*w)

    def _project(self, v, x) -> np.ndarray:
        t, w, r = self._split(x)
        if t >= math.hypot(self.d, r):
            return v.copy()
        if r == 0.0:
            return self.d * self.axis
        rho = _sheet_root(t, r, self.d)
        h, k = math.hypot(self.d, rho), rho / r
        return np.array([h * a + k * b for a, b in zip(self._e, w)])

    def _boundary(self, z):
        t, w, r = self._split(_point(z, self.dim)[1])
        w, h = np.array(w), math.hypot(self.d, r)
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
    resolved to machine precision (well inside the 1e-14 contract). A far
    point, from which Newton overshoots and then descends by (2 alpha - 1) /
    (2 alpha - 2) per step, spends that budget: the search restarts once in
    its bracket from the smaller root of the far field's two leading terms,
    and stops there also at f's rounding level.
    """
    lo = y0 ** (1.0 / alpha) if y0 > 0.0 else 0.0
    hi = x0
    a1, a2, aa1, aa, tol = alpha - 1.0, alpha - 2.0, alpha * (alpha - 1.0), alpha * alpha, 2.0 * EPS
    u, level = min(x0, 1.0), 0.0
    while True:
        u = min(max(u, lo), hi)
        for _ in range(NEWTON_MAX_ITER):
            ua1 = u**a1
            ua = ua1 * u
            d = ua - y0
            f = (u - x0) + alpha * ua1 * d
            if level and abs(f) <= level * (u + x0 + alpha * ua1 * (ua + abs(y0))):
                return u
            df = (1.0 + aa1 * u**a2 * d if u > 0.0 else 1.0) + aa * ua1 * ua1
            if f > 0.0:
                hi = u
            else:
                lo = u
            nxt = u - f / df if df > 0.0 else 0.5 * (lo + hi)
            if not lo <= nxt <= hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - u) <= tol * (1.0 + abs(u)):
                return nxt
            u = nxt
        if level:
            raise ConvergenceError("power-epigraph normal equation did not converge", residual=abs(f))
        u = (x0 / alpha) ** (1.0 / (2.0 * alpha - 1.0))
        with contextlib.suppress(OverflowError):  # the second root overflows, so the first is the smaller
            u = min(u, (x0 / (alpha * -y0)) ** (1.0 / a1) if y0 < 0.0 else hi)
        level = 4.0 * EPS


class PowerEpigraph(SetOracle):
    """{(x, y) : y >= |x|^alpha - beta} in the plane, alpha > 1, beta >= 0.

    For beta > 0 the projection reuses the beta = 0 solver on shifted
    coordinates. The boundary is C^1 everywhere; its second derivative
    alpha (alpha-1) |x|^(alpha-2) blows up at x = 0 when alpha < 2, so the
    Hessian refuses there. A point whose |x|^alpha overflows a float lies
    outside; where Newton's powers overflow too, ``ConvergenceError`` is
    raised.
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

    def _project(self, z, x) -> np.ndarray:
        x0, y0 = x
        y0 += self.beta
        ax = abs(x0)
        try:
            power = ax**self.alpha
        except OverflowError:  # past the float range, so above any y0: the point is outside
            power = math.inf
        try:
            if y0 >= power:
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
    v = v.tolist()
    n = len(v)
    if hi == np.inf:
        rank = 0
    elif lo == -np.inf or hi == lo:
        rank = n - 1
    else:
        rank = min(max(int((trace - n * lo) / (hi - lo)), 0), n - 1)
    ref = v[n - 1 - rank]
    u = [x - ref for x in v]
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
    m = len([x for x in u if x - hi <= b0 and x - lo >= b1])
    near_b0 = k and (k == len(bps) or sums[k - 1] - trace <= trace - sums[k])
    b, s = (b0, sums[k - 1]) if near_b0 else (b1, sums[k])
    shift = (s - trace) / m if m else 0.0
    return np.array([lo if t < lo else hi if t > hi else t for t in [(x - b) - shift for x in u]])


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
        self.n, self._layout = n, _sym_layout(n)
        self.lo, self.hi = lo, hi
        self.trace = None if trace is None else float(trace)
        if self.trace is not None:
            self.affine_hull = Hyperplane(sym_to_vec(np.eye(self.n)), self.trace)

    def _project(self, z, x) -> np.ndarray:
        gather, upper, scale = self._layout
        # The matrix is finite and exactly symmetric (both triangles gathered
        # from one vector), as in _boundary, so neither needs symmetric_eigh's checks.
        w, V = _eigh((z / scale).take(gather))
        return ((V * _project_eigs(w, self.lo, self.hi, self.trace)) @ V.T).take(upper) * scale

    def _boundary(self, z):
        # One eigendecomposition gives all three. The active end is lambda_min
        # (k = 0, s = -1) against lo or lambda_max (k = -1, s = +1) against hi.
        w, V = _eigh(vec_to_sym(_as_point(z, self.dim)))
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

    def _project(self, z, x) -> np.ndarray:
        a, B, Bt = self.subspace.anchor, self.subspace.basis, self.subspace._Bt
        return a + B @ self.inner._project(*_finite(Bt @ (z - a)))

    def _boundary(self, z):
        a, B, Bt = self.subspace.anchor, self.subspace.basis, self.subspace._Bt
        g, grad, hess = self.inner._boundary(Bt @ (_as_point(z, self.dim) - a))
        return g, B @ grad, B @ hess @ Bt


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

    def _project(self, v, x) -> np.ndarray:
        a, B, Bt = self.subspace.anchor, self.subspace.basis, self.subspace._Bt
        return Bt @ (self.inner._project(*_finite(a + B @ v)) - a)

    def _boundary(self, v):
        a, B, Bt = self.subspace.anchor, self.subspace.basis, self.subspace._Bt
        g, grad, hess = self.inner._boundary(a + B @ _as_point(v, self.dim))
        return g, Bt @ grad, Bt @ hess @ B


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
    ``inner_z`` = P_inner(z), or None; the boundary descriptor is ``inner``'s.
    ``_given`` is its kernel on a validated point z of entries zl."""

    def _project(self, z, x) -> np.ndarray:
        return self._given(z, x, None)

    def project_given(self, z, inner_z) -> np.ndarray:
        return self._given(*_point(z, self.dim), inner_z)

    def _boundary(self, z):
        return self.inner._boundary(z)


class Cap(_Pair, SetOracle):
    """``inner`` cut by a :class:`Hyperplane` {<a, x> = b}, a :class:`Halfspace`
    {<a, x> <= b} or a whole-space :class:`Ball` B(c, r). A hyperplane or
    halfspace is read as the cut stores it, a the unit normal and b the
    level, so no normal scale over- or underflows.

    The cut's one-parameter Lagrangian dual gives P(z) = P_inner(z - s a),
    or P_inner(c + (z - c) / (1 + s)), at the root of <a, x> - b, or
    ||x - c|| - r, nonincreasing in the cut's multiplier s; a halfspace or
    ball is active unless P_inner(z) meets it. :func:`_root` solves in s,
    or in 1 / (1 + s) for a ball (where the ball alone is linear), from the
    cut's own root at P_inner(z). A multiplier past ``CAP_TANGENT_RATIO``
    times the displacement short of the root (a tangent or missing cut),
    an output over ``WRONG_OUTPUT_TOL`` max(1, ||x||) off its cut (where
    z - s a cancels far out) or a failed search raises ``ConvergenceError``.
    The boundary descriptor is the inner set's; the affine hull is the
    hyperplane, or the inner set's hull.
    """

    def __init__(self, inner: SetOracle, cut):
        ball = isinstance(cut, Ball) and cut.subspace is None
        if not (ball or isinstance(cut, (Hyperplane, Halfspace))) or cut.dim != inner.dim:
            raise ValueError(
                "a cap's cut is a Hyperplane, Halfspace or whole-space Ball of the inner dimension"
            )
        super().__init__(inner.dim)
        self.inner, self.cut, self._ball = inner, cut, ball
        if ball:
            self._size = _norm(cut.center)  # ||c||
        else:
            self._unit, self._level = np.array(cut._unit), cut._level
        self.affine_hull = cut if isinstance(cut, Hyperplane) else inner.affine_hull

    def _given(self, z, zl, inner_z) -> np.ndarray:
        return self._dual(z, zl, inner_z)[0]

    def _dual(self, z, zl, inner_z):
        inner, cut, ball, nz = self.inner, self.cut, self._ball, math.hypot(*zl)
        if ball:
            c, r, size = cut._c, cut.radius, self._size
        else:
            a, b = self._unit, self._level
        x0 = inner.project(z) if inner_z is None else inner_z
        f0 = math.dist(x0.tolist(), c) - r if ball else float(a @ x0) - b
        if f0 <= 0.0 and not isinstance(cut, Hyperplane):
            return x0, 0.0
        zc = z - cut.center if ball else None
        # The search variable v is 1 / (1 + s) for a ball, else s; v = start is s = 0.
        start, d0 = (1.0 if ball else 0.0), math.dist(zl, x0.tolist())
        tol = 4.0 * EPS * (r + size + nz if ball else abs(b) + nz)
        close = 0.0 if ball else nz

        def residual(v):  # at s = 0, P_inner of z itself: c + (z - c) need not be z
            if v == start:
                return f0, x0
            x = inner.project(cut.center + zc / (1.0 + (1.0 / v - 1.0)) if ball else z - v * a)
            return (math.dist(x.tolist(), c) - r if ball else float(a @ x) - b), x

        def tangent(v, x):  # |s| ||grad|| is ||z - x|| >= ||z - x0|| where the inner set is inactive
            pull = abs(1.0 / v - 1.0) * r if ball else abs(v)
            return pull > CAP_TANGENT_RATIO * d0 and pull > CAP_TANGENT_RATIO * math.dist(zl, x.tolist())

        def settled(v, f, x, step):
            # f at the rounding of the shifted point and of its own evaluation
            # at x (a ball's ||x|| <= f + r + ||c||); a step under the shifted
            # point's (z - s a moves by ds, c + (z - c) v by ||z - c|| dv);
            # or a tangent multiplier short of the root.
            if abs(f) <= tol and abs(f) <= 4.0 * EPS * (
                2.0 * (r + size) + f if ball else abs(b) + _norm(x)
            ):
                return True
            return step <= 4.0 * EPS * (abs(v) + close) or (f > 0.0) == (f0 > 0.0) and tangent(v, x)

        first = r / (r + f0) if ball else f0  # the root the cut alone has at P_inner(z)
        v, f, x = _root(residual, start, 0.0 if ball else math.copysign(math.inf, f0), first, settled)
        if tangent(v, x):
            raise ConvergenceError("the cut is tangent to the set or misses it")
        if abs(f) > WRONG_OUTPUT_TOL * max(1.0, _norm(x)):
            raise ConvergenceError("cap dual root not resolved", residual=abs(f))
        return x, (1.0 / v - 1.0 if ball else v)


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
    Heron's formula. Its sides r1 + r2 - D and D - |r1 - r2|, which cancel
    for a thin or nearly nested lens, are each rounded once from the exact
    squared distance of the float centers, not from a rounded D.
    A point on the axis is as near to every rim point as to any other and
    takes one of them. A ball inside the other is the lens itself. Balls
    that are disjoint or tangent (r1 + r2 - D within the rounding of
    r1 + r2) raise ``ConvergenceError`` when the lens is built, the error a
    :class:`Cap` of one by the other raises at its first projection; centers
    whose distance, or radii whose sum, overflows raise ``NonFiniteError``.
    """

    def __init__(self, inner: Ball, cut: Ball):
        if not all(type(b) is Ball and b.subspace is None for b in (inner, cut)) or (
            inner.dim != cut.dim or inner.dim < 2
        ):
            raise ValueError("a lens is two whole-space Balls of one dimension >= 2")
        super().__init__(inner.dim)
        self.inner, self.cut = inner, cut
        (c1, r1), (c2, r2) = (inner.center, inner.radius), (cut.center, cut.radius)
        # Python floats overflow to inf without numpy's warning.
        D = math.hypot(*[b - a for a, b in zip(c1.tolist(), c2.tolist())])
        if D == math.inf:
            raise NonFiniteError("the distance between the centers overflows")
        if r1 + r2 == math.inf:
            raise NonFiniteError("the sum of the radii overflows")
        d2 = sum((b - a) ** 2 for a, b in zip(map(_ulps, c1.tolist()), map(_ulps, c2.tolist())))
        s, t, dd = _ulps(r1) + _ulps(r2), _ulps(r1) - _ulps(r2), _ulps(D)
        gap = (s * s - d2) / ((s + dd) << 1074)  # r1 + r2 - D
        if gap <= 4.0 * EPS * (r1 + r2):
            raise ConvergenceError("the balls are tangent or disjoint")
        self._nested = None if d2 > t * t else inner if t <= 0 else cut
        if self._nested is not None:
            return
        e = (c2 - c1) / D
        self._axis, self._rim_center = e, c1 + (0.5 * D + (r1 - r2) * ((r1 + r2) / (2.0 * D))) * e
        sides = (gap, D + abs(r1 - r2), (d2 - t * t) / ((dd + abs(t)) << 1074), D + r1 + r2)
        self._rim_radius = math.prod(math.sqrt(f) for f in sides) / (2.0 * D)
        k = int(np.argmin(np.abs(e)))
        u = -e[k] * e
        u[k] += 1.0
        self._across = u / _norm(u)  # a unit vector orthogonal to the axis

    def _given(self, z, zl, inner_z) -> np.ndarray:
        if self._nested is not None:
            return inner_z if inner_z is not None and self._nested is self.inner else self._nested._project(z, zl)
        inner, cut = self.inner, self.cut
        x = inner._project(z, zl) if inner_z is None else inner_z
        if math.dist(x.tolist(), cut._c) <= cut.radius:
            return x
        y = cut._project(z, zl)
        if math.dist(y.tolist(), inner._c) <= inner.radius:
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
    def _constraint(e, x):
        # g(x), grad g(x) = 2 Q (x - c), and the rounding level of g at x.
        g, grad, _ = e._boundary(x)
        return g, grad, 4.0 * EPS * (e.dim + _norm(grad) * (_norm(x) + _norm(e.center)))

    @np.errstate(over="ignore", invalid="ignore")  # a trial step far past the root
    def _given(self, z, zl, inner_z) -> np.ndarray:
        x1 = self.inner._project(z, zl) if inner_z is None else inner_z
        g, _, tol = self._constraint(self.cut, x1)
        if g <= tol:
            return x1
        x2 = self.cut._project(z, zl)
        g, _, tol = self._constraint(self.inner, x2)
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
                (g1, n1, tol1), (g2, n2, tol2) = (self._constraint(e, x) for e in (self.inner, self.cut))
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
    if not (math.isfinite(g) and np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise RegularityError("boundary descriptor is not finite at this point")
    hull = oracle.affine_hull
    if hull is None:
        return g, grad, hess
    B = hull.basis
    return g, B.T @ grad, B.T @ hess @ B
