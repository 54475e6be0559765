"""Circumcenter of a finite point set with degeneracy handling.

The circumcenter is the point of the affine hull of the inputs that is
equidistant from all of them: with d_i = p_i - p_0, it solves
2 d_i . (c - p_0) = |d_i|^2. Modified Gram-Schmidt over the d_i gives unit
directions q_k with d_i = sum_k R_ik q_k, and c = p_0 + sum_k x_k q_k
where R x = (|d_i|^2 / 2) is solved by forward substitution. The solve
runs on the differences scaled by a power of two to unit size, so no
input scale over- or underflows their squares.

The solve is a scalar loop on Python floats after one conversion: the
steps pass three points of dimension 2-10, where numpy's per-call
overhead would cost more than the arithmetic. Every sum is taken in
sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, NonFiniteError
from .linalg import RANK_RTOL

NONDEGENERATE = "nondegenerate"
REDUCED_RANK = "reduced_rank"
COINCIDENT_ALL = "coincident_all"

# Points closer than DEDUPE_RTOL times the set diameter are treated as one.
DEDUPE_RTOL = 1e-12
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


def _dot(u, v) -> float:
    return sum([a * b for a, b in zip(u, v)])


def circumcenter(points) -> CircumResult:
    """Circumcenter of one or more points, given as an (m, n) array.

    Coincident points (within ``DEDUPE_RTOL`` of the diameter) are merged.
    A difference at most ``RANK_RTOL`` times the diameter from the span of
    the earlier ones adds no direction, and its equation must already
    hold. The result is the minimal-norm equidistant point of the hull.

    Raises:
        ValueError: points that are not a non-empty finite (m, n) array.
        GeometryError: distinct points whose equidistance system is
            inconsistent (e.g. three distinct collinear points), or a
            center beyond the float range.
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
            raise GeometryError(
                "equidistance system is inconsistent: no circumcenter exists "
                f"in the affine hull (relative residual {residual / diameter**2:.3e})"
            )

    # c = p_0 + 2**(exp + 1) sum_k (x_k / |w_k|) w_k; the radius is |x|
    offset = [0.0] * n
    for w, h, x in dirs:
        s = x / h
        offset = [o + s * a for o, a in zip(offset, w)]
    try:
        center = [a + math.ldexp(o, exp + 1) for a, o in zip(p0, offset)]
        if not all(map(math.isfinite, center)):
            raise OverflowError
    except OverflowError:
        raise GeometryError("the circumcenter lies beyond the float range") from None
    status = NONDEGENERATE if len(dirs) == len(d) - 1 else REDUCED_RANK
    condition = math.hypot(*[x for _, _, x in dirs]) / min([h for _, h, _ in dirs])
    return CircumResult(np.array(center), status, condition)
