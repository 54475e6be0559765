"""Circumcenter of three points with degeneracy handling.

The circumcenter is the point of the affine hull of the inputs that is
equidistant from all of them: with d_i = p_i - p_0, it solves
2 d_i . (c - p_0) = |d_i|^2. Modified Gram-Schmidt over the d_i gives unit
directions q_k with d_i = sum_k R_ik q_k, and c = p_0 + sum_k x_k q_k
where R x = (|d_i|^2 / 2) is solved by forward substitution. The solve
runs on the differences scaled by a power of two to unit size, so no
input scale over- or underflows their squares.

The cCRM and CRM steps pass three points of dimension 2-10, where numpy's
per-call overhead would cost more than the arithmetic, so the solve,
:func:`_circumcenter3`, is straight-line code on lists of Python floats,
with every sum taken in sequence. The steps form their points as such
lists and call it directly; :func:`circumcenter` converts its input once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import GeometryError, NonFiniteError
from .linalg import RANK_RTOL

NONDEGENERATE = "nondegenerate"
REDUCED_RANK = "reduced_rank"
COINCIDENT_ALL = "coincident_all"

# Relative residual (against diameter^2) above which the reduced
# equidistance system is declared inconsistent.
CONSISTENCY_RTOL = 1e-7


@dataclass(frozen=True)
class CircumResult:
    """The center, its status, and the circumradius over the smallest kept
    Gram-Schmidt height (0 when no direction was kept): a bound on how much
    the rounding of the differences is amplified in the center."""

    center: np.ndarray
    status: str
    condition: float = 0.0


def circumcenter(points) -> CircumResult:
    """Circumcenter of three points, given as anything ``np.asarray`` makes
    a (3, n) float64 array, n >= 1; the center is always float64.

    A difference at most ``RANK_RTOL`` times the diameter from the span of
    the earlier ones adds no direction, and its equation must already
    hold. The result is the minimal-norm equidistant point of the hull.

    Raises:
        ValueError: points that are not a finite (3, n) array, n >= 1
            (``NonFiniteError`` for a non-finite entry).
        GeometryError: distinct points whose equidistance system is
            inconsistent (e.g. three distinct collinear points), or a
            center beyond the float range.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) != 3 or pts.size == 0:
        raise ValueError(f"expected three points as a (3, n) array, got shape {pts.shape}")
    return _circumcenter3(*pts.tolist())


def _circumcenter3(p0, p1, p2) -> CircumResult:
    """The solve on three points, lists of floats. Halved differences
    cannot overflow, and any non-finite entry shows in them (a NaN in their
    sum; p0's in every row); a power-of-two scale is exact."""
    n = len(p0)
    half = [0.5 * a - 0.5 * b for row in (p1, p2) for a, b in zip(row, p0)]
    top = max(map(abs, half))
    if not math.isfinite(top) or math.isnan(sum(half)):
        raise NonFiniteError("points have non-finite entries")
    if top == 0.0:
        return CircumResult(np.array(p0), COINCIDENT_ALL)
    exp = math.frexp(top)[1]
    flat = [math.ldexp(v, -exp) for v in half]
    d1, d2 = flat[:n], flat[n:]
    d21 = [a - b for a, b in zip(d2, d1)]
    sq1, sq2, sq21 = sum(map(mul, d1, d1)), sum(map(mul, d2, d2)), sum(map(mul, d21, d21))
    diameter = math.sqrt(max(sq1, sq2, sq21))
    floor, slack = RANK_RTOL * diameter, CONSISTENCY_RTOL * diameter * diameter

    # p1 gives a direction when its height |d1| clears RANK_RTOL; else its
    # residual, at most floor**2, is far below slack. A p2 near p0 or p1
    # leaves a residual of about |d2| |d2 - d1|, again far below slack, so
    # a near-duplicate point needs no merge.
    dirs = []
    height = math.sqrt(sq1)
    if height > floor:
        dirs.append((d1, height, 0.5 * sq1 / height))
    w, known = d2, 0.0
    if dirs:  # one Gram-Schmidt step against q_1
        v, h, x = dirs[0]
        r = sum(map(mul, v, w)) / h
        s = r / h
        w = [a - s * b for a, b in zip(w, v)]
        known += r * x
    height = math.sqrt(sum(map(mul, w, w)))
    if height > floor:
        dirs.append((w, height, (0.5 * sq2 - known) / height))
    elif abs(2.0 * known - sq2) > slack:
        raise _inconsistent(abs(2.0 * known - sq2), diameter)

    # c = p_0 + 2**(exp + 1) sum_k (x_k / |w_k|) w_k, summed from 0.0
    if len(dirs) == 2:
        (w1, h1, x1), (w2, h2, x2) = dirs
        s1, s2 = x1 / h1, x2 / h2
        offset = [0.0 + s1 * a + s2 * b for a, b in zip(w1, w2)]
        status, condition = NONDEGENERATE, math.hypot(x1, x2) / min(h1, h2)
    else:
        ((w1, h1, x1),) = dirs
        s1 = x1 / h1
        offset = [0.0 + s1 * a for a in w1]
        status, condition = REDUCED_RANK, x1 / h1  # x1 > 0
    return CircumResult(_center(p0, offset, exp), status, condition)


def _inconsistent(residual, diameter) -> GeometryError:
    return GeometryError(
        "equidistance system is inconsistent: no circumcenter exists "
        f"in the affine hull (relative residual {residual / diameter**2:.3e})"
    )


def _center(p0, offset, exp) -> np.ndarray:
    """p_0 + 2**(exp + 1) offset, or GeometryError past the float range."""
    try:
        center = [a + math.ldexp(o, exp + 1) for a, o in zip(p0, offset)]
        if not all(map(math.isfinite, center)):
            raise OverflowError
    except OverflowError:
        raise GeometryError("the circumcenter lies beyond the float range") from None
    return np.array(center)
