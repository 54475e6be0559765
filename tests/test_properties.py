"""Property tests of the oracles whose projections run on Python floats:
``Halfspace``, ``Hyperplane``, ``HyperboloidSheet`` (the second-order
cone at d = 0) and ``PowerEpigraph``, at magnitudes 1e-150 ... 1e150 of
the points, the offsets and the sheet's axis and vertex height; an affine
set's normal ranges over 1e-300 ... 1e300, where its squared norm under-
or overflows. An epigraph projection may raise ``ConvergenceError`` (where
Newton's powers overflow, from |x| about 2e155 at alpha = 3); any
other output must pass every check. The same checks cover the oracles of
the hull path: ``SpectralSet`` (the zoo's three and the catalog's sdp and
fixed_trace X, their bounds and trace scaled by 10^j), ``AffineSubspace``,
a ``Ball`` of a subspace or of a ``Hyperplane`` (whose clamp runs on
Python floats), ``EmbeddedOracle`` (a ball or a hyperboloid
sheet in the subspace's coordinates) and ``IsometricImage`` (of a ball
of the subspace), each also against an independent numpy membership test,
and the whole-space ``Ball``, ``BallLens`` and ``Ellipsoid``, whose
center, radius or semi-axes and points each take their own scale.

Each drawn set and point pair is checked for membership, idempotence,
nonexpansiveness and the variational inequality <z - Pz, y - Pz> <= 0 over
points y of the set, each scaled by the magnitude M of the data, and for
``reflect``: an isometry onto an affine set, nonexpansive onto the others.
The checks compute with numpy on the unscaled data, independently of the
oracles' kernels. Examples are derandomized, so a run is reproducible.

The distance of two points, ``math.dist`` of their lists, is checked to
be bit for bit ``_norm`` of their numpy difference, directly and through
``SetOracle.distance``, at dimensions 1-12 and magnitudes 1e-300 ...
1e300, and with entries near the float range (a difference that
overflows is inf on both sides) or inf or nan.
"""

import math
import struct
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from ccrm import catalog  # noqa: E402
from ccrm.errors import ConvergenceError  # noqa: E402
from ccrm.linalg import vec_to_sym  # noqa: E402
from ccrm.sets import (  # noqa: E402
    AffineSubspace,
    Ball,
    BallLens,
    Ellipsoid,
    EmbeddedOracle,
    Halfspace,
    HyperboloidSheet,
    Hyperplane,
    IsometricImage,
    PowerEpigraph,
    SetOracle,
    SpectralSet,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# Bounds on each check, relative to M (to M^2 for the variational inequality):
# the affine kernels and the ball's clamp round a few times per coordinate,
# the sheet's Newton stops at its residual's rounding level, and so does the
# epigraph's.
AFFINE_TOL = BALL_TOL = 1e-12
SHEET_TOL = EPIGRAPH_TOL = 1e-9
# An eigendecomposition and its reconstruction, or a least-squares anchor
# and an orthonormal basis of a well-conditioned A, round a few times per entry.
SPECTRAL_TOL = SUBSPACE_TOL = 1e-11
# The ellipsoid's dual Newton, in Q's eigenbasis, stops once
# (x - c)^T Q (x - c) - 1 is within 1e-12, then steps inside.
ELLIPSOID_TOL = 1e-11

exponents = st.integers(-150, 150)
unit_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def vectors(n):
    return st.lists(unit_floats, min_size=n, max_size=n).map(np.array)


@st.composite
def affine_cases(draw):
    """(a, q, z, w, i): the unscaled normal a, a boundary point q and two
    points z, w, with the set's normal 10^i a and offset 10^i <a, q>."""
    n = draw(st.integers(2, 6))
    a = draw(vectors(n))
    assume(np.max(np.abs(a)) > 1e-3)
    i, j = draw(st.integers(-300, 300)), draw(exponents)
    q = 10.0**j * draw(vectors(n))
    z = q + 10.0 ** draw(exponents) * draw(vectors(n))
    w = q + 10.0 ** draw(exponents) * draw(vectors(n))
    return a, q, z, w, i


@st.composite
def sheet_cases(draw):
    """(axis, d, z, w): an axis at any scale, d = 0 or 10^j times a number
    in [0, 1], and two points."""
    n = draw(st.integers(2, 6))
    axis = 10.0 ** draw(exponents) * draw(vectors(n))
    assume(np.max(np.abs(axis)) > 0.0)
    d = draw(st.floats(0.0, 1.0)) * 10.0 ** draw(exponents) if draw(st.booleans()) else 0.0
    z = 10.0 ** draw(exponents) * draw(vectors(n))
    w = 10.0 ** draw(exponents) * draw(vectors(n))
    return axis, d, z, w


@st.composite
def epigraph_cases(draw):
    """(alpha, beta, z, w): a power epigraph and two points in the plane."""
    alpha, beta = draw(st.sampled_from([1.5, 2.0, 3.0])), draw(st.sampled_from([0.0, 1.0]))
    z = 10.0 ** draw(exponents) * draw(vectors(2))
    w = 10.0 ** draw(exponents) * draw(vectors(2))
    return alpha, beta, z, w


@st.composite
def point_pairs(draw):
    """Two points of one dimension 1-12, each 10^i times a vector of [-1, 1],
    with up to two entries each replaced by a float past 1e307, inf or nan."""
    n = draw(st.integers(1, 12))
    far = st.floats(1e307, sys.float_info.max) | st.floats(-sys.float_info.max, -1e307)
    points = []
    for _ in range(2):
        p = 10.0 ** draw(st.integers(-300, 300)) * draw(vectors(n))
        for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            p[k] = draw(st.one_of(far, st.sampled_from([math.inf, -math.inf, math.nan])))
        points.append(p)
    return points


def _norm(v):
    return math.hypot(*v.tolist())


def _offset(a, q, i):
    """10^i <a, q>, drawn again when it overflows or rounds to a subnormal
    (which would move the set off q)."""
    aq = float(a @ q)
    offset = 10.0**i * aq
    assume(math.isfinite(offset) and (aq == 0.0 or abs(offset) >= sys.float_info.min))
    return offset


def _check_projection(S, z, w, M, tol, isometry):
    """The checks common to every oracle, on data of magnitude M."""
    pz, pw = S.project(z), S.project(w)
    assert np.isfinite(pz).all() and np.isfinite(pw).all()
    assert _norm(S.project(pz) - pz) <= tol * M
    assert _norm(pz - pw) <= _norm(z - w) + tol * M
    # <z - Pz, y - Pz> <= 0 at y = Pw and at y = Pz + (Pw - Pz) / 2, in units of M.
    for y in (pw, 0.5 * (pz + pw)):
        assert float(((z - pz) / M) @ ((y - pz) / M)) <= tol
    rz, rw = S.reflect(z), S.reflect(w)
    gap = _norm(rz - rw) - _norm(z - w)
    assert (abs(gap) if isometry else gap) <= tol * M
    return pz


@SETTINGS
@given(affine_cases())
def test_halfspace_projection_properties(case):
    a, q, z, w, i = case
    S = Halfspace(10.0**i * a, _offset(a, q, i))
    M = max(_norm(q), _norm(z), _norm(w), 1e-300)
    pz = _check_projection(S, z, w, M, AFFINE_TOL, isometry=False)
    na = _norm(a)
    assert float(a @ (pz - q)) <= AFFINE_TOL * M * na
    if float(a @ (z - q)) <= -AFFINE_TOL * M * na:  # well inside: P is the identity
        assert np.array_equal(pz, z)


@SETTINGS
@given(affine_cases())
def test_hyperplane_projection_properties(case):
    a, q, z, w, i = case
    S = Hyperplane(10.0**i * a, _offset(a, q, i))
    M = max(_norm(q), _norm(z), _norm(w), 1e-300)
    pz = _check_projection(S, z, w, M, AFFINE_TOL, isometry=True)
    assert abs(float(a @ (pz - q))) <= AFFINE_TOL * M * _norm(a)


@SETTINGS
@given(sheet_cases())
def test_hyperboloid_sheet_projection_properties(case):
    axis, d, z, w = case
    S = HyperboloidSheet(axis, d)
    M = max(d, _norm(z), _norm(w), 1e-300)
    pz = _check_projection(S, z, w, M, SHEET_TOL, isometry=False)
    e = axis / _norm(axis)
    t = float(e @ pz)
    assert t >= math.hypot(d, _norm(pz - t * e)) - SHEET_TOL * M


@SETTINGS
@given(epigraph_cases())
def test_power_epigraph_projection_properties(case):
    alpha, beta, z, w = case
    S = PowerEpigraph(alpha, beta)
    M = max(beta, _norm(z), _norm(w), 1e-300)
    try:
        pz = _check_projection(S, z, w, M, EPIGRAPH_TOL, isometry=False)
    except ConvergenceError:
        return
    x, y = pz.tolist()
    assert abs(x) ** alpha - beta - y <= EPIGRAPH_TOL * M


@st.composite
def ball_cases(draw):
    """(center, radius, z, w): a whole-space ball and two points, the
    center, the radius and each point at its own scale 10^j."""
    n = draw(st.integers(1, 6))
    center = 10.0 ** draw(exponents) * draw(vectors(n))
    radius = draw(st.floats(0.1, 1.0)) * 10.0 ** draw(exponents)
    z = 10.0 ** draw(exponents) * draw(vectors(n))
    w = 10.0 ** draw(exponents) * draw(vectors(n))
    return center, radius, z, w


@st.composite
def ellipsoid_cases(draw):
    """(B, s, center, z, w): the ellipsoid {(x - c)^T (B / s^2) (x - c) <= 1}
    of semi-axes s times those of B (eigenvalues 0.5 ... n + 0.5), and two
    points, s, the center and each point at its own scale 10^j."""
    n = draw(st.integers(1, 6))
    G = np.array([draw(vectors(n)) for _ in range(n)])
    B = G @ G.T / n + 0.5 * np.eye(n)
    s = 10.0 ** draw(exponents)
    center = 10.0 ** draw(exponents) * draw(vectors(n))
    z = 10.0 ** draw(exponents) * draw(vectors(n))
    w = 10.0 ** draw(exponents) * draw(vectors(n))
    return B, s, center, z, w


@SETTINGS
@given(ball_cases())
def test_ball_projection_properties(case):
    center, radius, z, w = case
    S = Ball(center, radius)
    M = max(_norm(center), radius, _norm(z), _norm(w))
    pz = _check_projection(S, z, w, M, BALL_TOL, isometry=False)
    assert _norm(pz - center) <= radius + BALL_TOL * M
    if _norm(z - center) <= radius * (1.0 - BALL_TOL):  # well inside: P is the identity
        assert np.array_equal(pz, z)


@SETTINGS
@given(ellipsoid_cases())
def test_ellipsoid_projection_properties(case):
    B, s, center, z, w = case
    S = Ellipsoid(B / s**2, center=center)
    M = max(s, _norm(center), _norm(z), _norm(w))
    pz = _check_projection(S, z, w, M, ELLIPSOID_TOL, isometry=False)
    # y = (Pz - c) / s has B-norm at most 1, up to a move of ELLIPSOID_TOL M
    # in Pz, which changes it by at most sqrt(max eig B) times that over s.
    y = (pz - center) / s
    eigs = np.linalg.eigvalsh(B)
    slack = ELLIPSOID_TOL * math.sqrt(eigs[-1]) * (M / s)
    norm_y = math.sqrt(float(y @ B @ y))
    assert norm_y <= 1.0 + slack
    # z outside: Pz on the boundary, z - Pz along the outer normal B y
    # (where the ellipsoid is not lost in the rounding of Pz, slack < 0.1)
    if not np.array_equal(pz, z) and slack < 0.1:
        assert norm_y >= 1.0 - slack
        g = B @ y / _norm(B @ y)  # turned by at most 2 (max eig / min eig) slack by that move
        d = (z - pz) / M
        along = float(d @ g)
        assert along >= -ELLIPSOID_TOL - 2.0 * eigs[-1] / eigs[0] * slack
        assert _norm(d - along * g) <= ELLIPSOID_TOL + 2.0 * eigs[-1] / eigs[0] * slack


@SETTINGS
@given(affine_cases(), exponents, st.floats(0.1, 1.0), st.integers(0, 2**31))
def test_ball_of_a_hyperplane_projection_properties(case, j, spare, seed):
    # The clamp on Python floats from the hyperplane's projection as a list;
    # the ball's center lies s = 10^j off q, the hyperplane's point, or
    # 1e-8 ||q|| off it, above the rounding of its projection onto the hyperplane.
    a, q, z, w, i = case
    s = max(10.0**j, 1e-8 * _norm(q))
    u = s * np.random.default_rng(seed).uniform(-1.0, 1.0, size=q.shape[0])
    radius = _norm(u) + spare * s  # past the center's distance to the hyperplane
    S = Ball(q + u, radius, Hyperplane(10.0**i * a, _offset(a, q, i)))
    M = max(s, _norm(q), _norm(z), _norm(w))
    pz = _check_projection(S, z, w, M, BALL_TOL, isometry=False)
    na = _norm(a)
    assert abs(float(a @ (pz - q))) <= BALL_TOL * M * na
    off = float(a @ u) / na  # the center's signed distance to the hyperplane
    assert _norm(pz - (q + u - off * a / na)) <= math.sqrt(radius**2 - off**2) + BALL_TOL * M


@st.composite
def lens_cases(draw):
    """(c1, r1, c2, r2, z, w): two whole-space balls of dimension 2-6 whose
    centers lie a fraction f < 0.99 of r1 + r2 apart, at one scale 10^j,
    and two points, each at its own scale."""
    n = draw(st.integers(2, 6))
    s = 10.0 ** draw(exponents)
    r1, r2 = (s * draw(st.floats(0.1, 1.0)) for _ in range(2))
    e = draw(vectors(n))
    assume(_norm(e) > 1e-3)
    c1 = s * draw(vectors(n))
    c2 = c1 + draw(st.floats(0.0, 0.99)) * (r1 + r2) * e / _norm(e)
    z = 10.0 ** draw(exponents) * draw(vectors(n))
    w = 10.0 ** draw(exponents) * draw(vectors(n))
    return c1, r1, c2, r2, z, w


@SETTINGS
@given(lens_cases())
def test_ball_lens_projection_properties(case):
    c1, r1, c2, r2, z, w = case
    S = BallLens(Ball(c1, r1), Ball(c2, r2))
    M = max(_norm(c1), _norm(c2), r1, r2, _norm(z), _norm(w))
    pz = _check_projection(S, z, w, M, BALL_TOL, isometry=False)
    assert _norm(pz - c1) <= r1 + BALL_TOL * M and _norm(pz - c2) <= r2 + BALL_TOL * M


class _Fixed(SetOracle):
    """A stand-in oracle that projects every point to ``p``."""

    def __init__(self, p):
        super().__init__(p.shape[0])
        self.p = p

    def project(self, z):
        return self.p


@SETTINGS
@given(point_pairs())
def test_distance_is_the_norm_of_the_difference_bit_for_bit(pair):
    a, b = pair
    with np.errstate(over="ignore", invalid="ignore"):
        expected = struct.pack("<d", _norm(a - b))
    assert struct.pack("<d", math.dist(a.tolist(), b.tolist())) == expected
    assert struct.pack("<d", _Fixed(b).distance(a)) == expected



# --- spectral sets and the hull-path oracles ----------------------------------

# (n, lo, hi, trace) of the zoo's three spectral sets and the catalog's sdp
# and fixed_trace X; each is drawn with its bounds and trace scaled by 10^j.
SPECTRAL_SPECS = [(3, 0.0, math.inf, None), (3, -math.inf, 0.6, 1.0), (3, 0.0, math.inf, 1.0)] + [
    (X.n, X.lo, X.hi, X.trace) for X in (catalog.resolve(s).problem.X for s in ("sdp", "fixed_trace"))
]


@st.composite
def spectral_cases(draw):
    """(X, z, w, M): a spectral set at scale 10^j and two points."""
    n, lo, hi, trace = draw(st.sampled_from(SPECTRAL_SPECS))
    s = 10.0 ** draw(exponents)
    X = SpectralSet(n, lo * s, hi * s, None if trace is None else trace * s)
    z = 10.0 ** draw(exponents) * draw(vectors(X.dim))
    w = 10.0 ** draw(exponents) * draw(vectors(X.dim))
    return X, z, w, max(s, _norm(z), _norm(w))


@st.composite
def subspace_cases(draw):
    """(A, q, s, z, w): m < n rows A of singular values above 0.05, a point
    q of scale s = 10^j, and two points around q."""
    n = draw(st.integers(2, 6))
    A = np.array([draw(vectors(n)) for _ in range(draw(st.integers(1, n - 1)))])
    assume(np.linalg.svd(A, compute_uv=False)[-1] > 0.05)
    s = 10.0 ** draw(exponents)
    q = s * draw(vectors(n))
    z = q + 10.0 ** draw(exponents) * draw(vectors(n))
    w = q + 10.0 ** draw(exponents) * draw(vectors(n))
    return A, q, s, z, w


def _onto_rows(A, b, x):
    """x moved onto {A y = b} by numpy's least squares, independently of the oracles."""
    return x - np.linalg.lstsq(A, A @ x - b, rcond=None)[0]


def _in_subspace(A, b, p, M, tol):
    assert _norm(A @ (p / M) - b / M) <= tol * _norm(A.ravel())


@SETTINGS
@given(spectral_cases())
def test_spectral_set_projection_properties(case):
    X, z, w, M = case
    pz = _check_projection(X, z, w, M, SPECTRAL_TOL, isometry=False)
    eigs = np.linalg.eigvalsh(vec_to_sym(pz / M))
    assert eigs[0] >= X.lo / M - SPECTRAL_TOL and eigs[-1] <= X.hi / M + SPECTRAL_TOL
    if X.trace is not None:
        assert abs(eigs.sum() - X.trace / M) <= X.n * SPECTRAL_TOL


@SETTINGS
@given(subspace_cases())
def test_affine_subspace_projection_properties(case):
    A, q, s, z, w = case
    b = A @ q
    S = AffineSubspace(A, b)
    M = max(s, _norm(z), _norm(w), 1e-300)
    pz = _check_projection(S, z, w, M, SUBSPACE_TOL, isometry=True)
    _in_subspace(A, b, pz, M, SUBSPACE_TOL)
    assert _norm(pz - _onto_rows(A, b, z)) <= SUBSPACE_TOL * M


@SETTINGS
@given(subspace_cases(), st.floats(0.1, 1.0), st.integers(0, 2**31))
def test_ball_of_a_subspace_projection_properties(case, spare, seed):
    A, q, s, z, w = case
    b = A @ q
    u = s * np.random.default_rng(seed).uniform(-1.0, 1.0, size=q.shape[0])
    radius = _norm(u) + spare * s  # past the center's distance to the subspace
    S = Ball(q + u, radius, AffineSubspace(A, b))
    M = max(s, _norm(z), _norm(w), 1e-300)
    pz = _check_projection(S, z, w, M, SUBSPACE_TOL, isometry=False)
    _in_subspace(A, b, pz, M, SUBSPACE_TOL)
    c = _onto_rows(A, b, q + u)
    r = math.sqrt(radius**2 - _norm(q + u - c) ** 2)
    assert _norm(pz - c) <= r + SUBSPACE_TOL * M


@SETTINGS
@given(subspace_cases(), st.booleans(), st.floats(0.1, 1.0), st.integers(0, 2**31))
def test_embedded_oracle_projection_properties(case, sheet, size, seed):
    A, q, s, z, w = case
    b = A @ q
    L = AffineSubspace(A, b)
    c = s * np.random.default_rng(seed).uniform(-1.0, 1.0, size=L.subspace_dim)
    inner = HyperboloidSheet(c, size * s) if sheet and _norm(c) > 0.0 else Ball(c, size * s)
    S = EmbeddedOracle(inner, L)
    M = max(s, _norm(z), _norm(w), 1e-300)
    pz = _check_projection(S, z, w, M, SUBSPACE_TOL, isometry=False)
    _in_subspace(A, b, pz, M, SUBSPACE_TOL)
    v = L.basis.T @ (pz - L.anchor)
    if type(inner) is Ball:
        assert _norm(v - c) <= size * s + SUBSPACE_TOL * M
    else:
        e = c / _norm(c)
        t = float(e @ v)
        assert t >= math.hypot(size * s, _norm(v - t * e)) - SUBSPACE_TOL * M


@SETTINGS
@given(subspace_cases(), st.floats(0.1, 1.0), st.integers(0, 2**31))
def test_isometric_image_projection_properties(case, spare, seed):
    A, q, s, _, _ = case
    b = A @ q
    L = AffineSubspace(A, b)
    rng = np.random.default_rng(seed)
    u = s * rng.uniform(-1.0, 1.0, size=q.shape[0])
    radius = _norm(u) + spare * s
    S = IsometricImage(Ball(q + u, radius, L), L)
    scales = 10.0 ** rng.integers(-150, 151, size=2)
    z, w = (k * rng.uniform(-1.0, 1.0, size=S.dim) for k in scales)
    M = max(s, _norm(z), _norm(w), 1e-300)
    pz = _check_projection(S, z, w, M, SUBSPACE_TOL, isometry=False)
    c = _onto_rows(A, b, q + u)
    r = math.sqrt(radius**2 - _norm(q + u - c) ** 2)
    assert _norm(L.anchor + L.basis @ pz - c) <= r + SUBSPACE_TOL * M
