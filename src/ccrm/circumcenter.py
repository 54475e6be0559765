"""Circumcenter of a finite point set with degeneracy handling.

The circumcenter is the point of the affine hull of the inputs that is
equidistant from all of them: with d_i = p_i - p_0, it solves
2 d_i . (c - p_0) = |d_i|^2. Modified Gram-Schmidt over the d_i gives unit
directions q_k with d_i = sum_k R_ik q_k, and c = p_0 + sum_k x_k q_k
where R x = (|d_i|^2 / 2) is solved by forward substitution. The solve
runs on the differences scaled by a power of two to unit size, so no
input scale over- or underflows their squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
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
    center: np.ndarray
    status: str


def _sq(v) -> float:
    return float(np.dot(v, v))


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
    # Halved differences cannot overflow, and any non-finite entry shows
    # in them; a power-of-two scale is exact.
    half = 0.5 * pts - 0.5 * pts[0]
    top = float(np.abs(half).max())
    if not math.isfinite(top):
        raise ValueError("points have non-finite entries")
    p0 = pts[0]
    if top == 0.0:
        return CircumResult(p0.copy(), COINCIDENT_ALL if len(pts) > 1 else NONDEGENERATE)
    exp = math.frexp(top)[1]
    d = np.ldexp(half, -exp)  # rows (p_i - p_0) / 2**(exp + 1), largest entry in [0.5, 1)
    sq = [[_sq(d[i] - d[j]) for j in range(i)] for i in range(len(d))]  # |p_i - p_j|^2
    diameter = math.sqrt(max(map(max, sq[1:])))

    # Greedy dedupe: keep the first representative of each cluster.
    keep = [0]
    for i in range(1, len(d)):
        if all(sq[i][j] > (DEDUPE_RTOL * diameter) ** 2 for j in keep):
            keep.append(i)

    dirs = []  # (w_k, |w_k|, x_k): direction q_k = w_k / |w_k|, coefficient x_k
    for i in keep[1:]:
        w, known = d[i], 0.0  # known = sum_k R_ik x_k over the directions so far
        for v, h, x in dirs:
            r = float(np.dot(v, w)) / h
            w = w - (r / h) * v
            known += r * x
        height = math.sqrt(_sq(w))
        if height > RANK_RTOL * diameter:
            dirs.append((w, height, (0.5 * sq[i][0] - known) / height))
            continue
        residual = abs(2.0 * known - sq[i][0])
        if residual > CONSISTENCY_RTOL * diameter * diameter:
            raise GeometryError(
                "equidistance system is inconsistent: no circumcenter exists "
                f"in the affine hull (relative residual {residual / diameter**2:.3e})"
            )

    offset = np.dot([x / h for _, h, x in dirs], [w for w, _, _ in dirs])
    with np.errstate(over="ignore"):  # scale back by 2 ** (exp + 1)
        center = p0 + np.ldexp(offset, exp + 1)
    if not np.isfinite(center).all():
        raise GeometryError("the circumcenter lies beyond the float range")
    return CircumResult(center, NONDEGENERATE if len(dirs) == len(d) - 1 else REDUCED_RANK)
