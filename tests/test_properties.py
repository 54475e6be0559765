"""Property tests of the oracles whose projections run on Python floats:
``Halfspace``, ``Hyperplane``, ``HyperboloidSheet`` (the second-order
cone at d = 0) and ``PowerEpigraph``, at magnitudes 1e-150 ... 1e150 of
the points, the offsets and the sheet's axis and vertex height; an affine
set's normal ranges over 1e-300 ... 1e300, where its squared norm under-
or overflows. An epigraph projection may raise ``ConvergenceError`` (its
Newton gives up on far points, from about 1e25 at alpha = 3, and powers
of far points overflow); any other output must pass every check.

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

from ccrm.errors import ConvergenceError  # noqa: E402
from ccrm.sets import Halfspace, HyperboloidSheet, Hyperplane, PowerEpigraph, SetOracle  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# Bounds on each check, relative to M (to M^2 for the variational inequality):
# the affine kernels round a few times per coordinate, the sheet's Newton
# stops at its residual's rounding level, and so does the epigraph's.
AFFINE_TOL = 1e-12
SHEET_TOL = EPIGRAPH_TOL = 1e-9

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

