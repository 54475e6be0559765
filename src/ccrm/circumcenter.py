"""Circumcenter of a finite point set with degeneracy handling.

The circumcenter is the point of the affine hull of the inputs that is
equidistant from all of them. Writing the candidates as p_1 + V y with
V the matrix of difference vectors, equidistance reduces to the linear
system 2 V^T (center - p_1) = (||p_j - p_1||^2)_j, solved here through
the SVD of V so that near-collapsed point sets (which occur at
convergence of circumcenter iterations) stay well conditioned.
"""

from __future__ import annotations

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


def circumcenter(points) -> CircumResult:
    """Circumcenter of one or more points.

    Coincident points (within ``DEDUPE_RTOL`` of the diameter) are merged
    before solving; the solve then runs on the independent directions only,
    returning the minimal-norm equidistant point of the affine hull.

    Raises:
        GeometryError: distinct points whose equidistance system is
            inconsistent (e.g. three distinct collinear points).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points have non-finite entries")

    if pts.shape[0] == 1:
        return CircumResult(pts[0].copy(), NONDEGENERATE)

    diffs = pts[:, None, :] - pts[None, :, :]
    dists = np.linalg.norm(diffs, axis=2)
    diameter = float(dists.max())
    if diameter == 0.0:
        return CircumResult(pts[0].copy(), COINCIDENT_ALL)

    # Greedy dedupe: keep the first representative of each cluster.
    keep = []
    for i in range(pts.shape[0]):
        if all(dists[i, j] > DEDUPE_RTOL * diameter for j in keep):
            keep.append(i)
    merged = len(keep) < pts.shape[0]
    survivors = pts[keep]

    p0 = survivors[0]
    V = (survivors[1:] - p0).T  # (n, m)
    rhs = np.einsum("ij,ij->i", survivors[1:] - p0, survivors[1:] - p0)

    U, sig, Wt = np.linalg.svd(V, full_matrices=False)
    rank = int(np.sum(sig > RANK_RTOL * sig[0])) if sig[0] > 0 else 0
    if rank == 0:
        return CircumResult(p0.copy(), REDUCED_RANK)

    # Constraints become 2 (W_r diag(sig_r)) y = rhs with center = p0 + U_r y.
    y = (Wt[:rank] @ rhs) / (2.0 * sig[:rank])
    residual = np.linalg.norm(2.0 * (Wt[:rank].T * sig[:rank]) @ y - rhs)
    if residual > CONSISTENCY_RTOL * diameter * diameter:
        raise GeometryError(
            "equidistance system is inconsistent: no circumcenter exists "
            f"in the affine hull (residual {residual:.3e})"
        )
    center = p0 + U[:, :rank] @ y

    status = NONDEGENERATE
    if merged or rank < V.shape[1]:
        status = REDUCED_RANK
    return CircumResult(center, status)
