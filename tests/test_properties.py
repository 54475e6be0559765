"""Property tests of the oracles whose projections run on Python floats:
``Halfspace``, ``Hyperplane`` and ``HyperboloidSheet`` (the second-order
cone at d = 0), at magnitudes 1e-150 ... 1e150 of the points, the offsets
and the sheet's axis and vertex height; an affine set's normal ranges over
1e-300 ... 1e300, where its squared norm under- or overflows.

Each drawn set and point pair is checked for membership, idempotence,
nonexpansiveness and the variational inequality <z - Pz, y - Pz> <= 0 over
points y of the set, each scaled by the magnitude M of the data, and for
``reflect``: an isometry onto an affine set, nonexpansive onto the others.
The checks compute with numpy on the unscaled data, independently of the
oracles' kernels. Examples are derandomized, so a run is reproducible.
"""

import math
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from ccrm.sets import Halfspace, HyperboloidSheet, Hyperplane  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# Bounds on each check, relative to M (to M^2 for the variational inequality):
# the affine kernels round a few times per coordinate, the sheet's Newton
# stops at its residual's rounding level.
AFFINE_TOL = 1e-12
SHEET_TOL = 1e-9

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
