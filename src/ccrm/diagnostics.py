"""Quantitative convergence diagnostics.

Covers rate classification of distance sequences, boundary curvature
(the spectral radius of the shape operator, computed from the smooth
descriptor), the exact projection onto X & Y, empirical estimation of the
local error-bound constant, and the asymptotic-constant check for
quadratically convergent runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RegularityError, UnsupportedOperation
from .linalg import EPS, _eigh, orthonormal_nullspace
from .sets import Ball, BallLens, Cap, Ellipsoid, EllipsoidLens, EmbeddedOracle, Halfspace, Hyperplane
from .sets import IsometricImage, _as_point, _check_count, _norm, _row_norms, boundary_eval
from .sets import in_hull_coordinates
from .solvers import FeasibilityProblem, SolveTrace

RATE_LINEAR = "linear"
RATE_SUBLINEAR = "sublinear"
RATE_SUPERLINEAR = "superlinear"
RATE_QUADRATIC = "quadratic"

# Distances below 1e3 * machine epsilon (times the problem scale) carry no
# rate information in double precision and are excluded from ratios.
PRECISION_FLOOR_FACTOR = 1e3 * EPS

# estimate_omega skips samples this close to X & Y: their ratio is noise.
OMEGA_EXCLUDE_TOL = 1e-12

# Ratio geometric means at or above this value are reported as sublinear.
SUBLINEAR_THRESHOLD = 0.98

# Relative margin over the bound of the 4 kappa / omega check.
CHECK_MARGIN = 0.10


@dataclass
class RateReport:
    linear_ratios: np.ndarray
    quad_ratios: np.ndarray
    classification: str
    constant: Optional[float]
    usable_range: tuple
    order_estimate: Optional[float]

    def to_dict(self):
        return {
            "classification": self.classification,
            "constant": self.constant,
            "order_estimate": self.order_estimate,
            "usable_range": list(self.usable_range),
            "linear_ratios": [float(r) for r in self.linear_ratios],
            "quad_ratios": [float(r) for r in self.quad_ratios],
        }


def _geometric_mean(values):
    return float(np.exp(np.mean(np.log(values))))


def rate_report(distances, scale=1.0, floor=None) -> RateReport:
    """Classify the convergence rate of a positive distance sequence.

    Ratios are formed only on the leading window of entries above the
    precision floor. Classification combines ratio tests with a log-log
    order fit: quadratic sequences with small asymptotic constants
    collapse below the floor after two or three usable ratios, where the
    order fit is the reliable signal.

    Args:
        distances: per-iteration distances to the limit, nonnegative.
        scale: problem scale (typically 1 + ||limit||) for the floor.
        floor: explicit precision floor; overrides ``scale``.

    Returns:
        RateReport with ratios, classification, and the rate constant
        (the Q-linear factor, or the last usable quadratic ratio).
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1:
        raise ValueError("expected a 1-d sequence of distances")
    if np.any(d < 0.0) or not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite and nonnegative")
    if floor is None:
        floor = PRECISION_FLOOR_FACTOR * float(scale)

    above = d > floor
    start = int(np.argmax(above)) if above.any() else 0
    below = ~above[start:]
    stop = start + int(np.argmax(below)) if below.any() else d.shape[0]
    usable = d[start:stop]
    if usable.shape[0] < 3:
        raise ValueError(
            f"need at least 3 usable entries above the precision floor, got {usable.shape[0]}"
        )

    lr = usable[1:] / usable[:-1]
    qr = usable[1:] / usable[:-1] ** 2
    logs = np.log(usable)
    order = float(np.polyfit(logs[:-1], logs[1:], 1)[0])

    lr_small = lr[-1] < 0.1
    quad_stable = lr.shape[0] >= 2 and abs(qr[-1] - qr[-2]) <= 0.2 * max(qr[-1], qr[-2])

    if lr_small and (quad_stable or order >= 1.8):
        classification, constant = RATE_QUADRATIC, float(qr[-1])
    elif lr_small and order >= 1.25:
        classification, constant = RATE_SUPERLINEAR, None
    else:
        # Tail window: up to 30 ratios, but no more than the trailing half,
        # so slowly settling ratios are judged on their converged stretch.
        tail = min(30, max(3, lr.shape[0] // 2))
        c = _geometric_mean(lr[-tail:])
        if c >= SUBLINEAR_THRESHOLD:
            classification, constant = RATE_SUBLINEAR, c
        else:
            classification, constant = RATE_LINEAR, c

    return RateReport(
        linear_ratios=lr,
        quad_ratios=qr,
        classification=classification,
        constant=constant,
        usable_range=(start, stop),
        order_estimate=order,
    )


def trace_reference_distances(trace: SolveTrace, problem: Optional[FeasibilityProblem] = None):
    """Per-iterate distances to the limit, for rate classification.

    Uses the problem's analytic reference solution when present.
    Otherwise the final iterate (from a tightly converged run) stands in
    for the limit, and the last two iterates are dropped: they carry no
    independent information about their own limit.
    """
    if trace.distances_to_reference is not None:
        return trace.distances_to_reference
    if problem is not None and problem.reference_solution is not None:
        return _row_norms(trace.iterates - problem.reference_solution)
    if trace.iterates.shape[0] < 5:
        raise ValueError("trace is too short to self-reference")
    ref = trace.final
    return _row_norms(trace.iterates[:-2] - ref)


def _require_on_hull(hull, z, name):
    """Raise ValueError when z is off ``hull`` (None: the whole space) beyond rounding."""
    if hull is not None:
        off = hull.distance(z)
        if off > 1e-9 * (1.0 + _norm(_as_point(z))):
            raise ValueError(f"point is not on {name} (distance {off:.3e})")


@dataclass(frozen=True)
class CurvatureValue:
    kappa: float
    maximizing_direction: Optional[np.ndarray]


def curvature(oracle, z_bar) -> CurvatureValue:
    """Boundary curvature at a regular boundary point.

    Builds an orthonormal basis of the tangent space (the kernel of the
    boundary gradient within the affine hull), forms the reduced Hessian
    of the descriptor on it, and returns its spectral radius divided by
    the gradient norm. The value does not depend on which descriptor g
    represents the boundary.

    Raises:
        RegularityError: vanishing gradient (the boundary is not a
            regular hypersurface of the hull at this point).
        ValueError: z_bar is not on the boundary, or not on the oracle's
            affine hull (beyond rounding), where the descriptor would
            read the boundary at z_bar's projection onto the hull.
    """
    hull = oracle.affine_hull
    _require_on_hull(hull, z_bar, "the set's affine hull")
    g, grad, hess = boundary_eval(oracle, z_bar)
    grad_norm = math.sqrt(grad @ grad)  # np.linalg.norm(grad)'s formula
    if grad_norm <= 1e-10:
        raise RegularityError("boundary gradient vanishes; curvature undefined here")
    if abs(g) > 1e-6 * (1.0 + grad_norm):
        raise ValueError(f"point is not on the boundary (g = {g:.3e})")

    tangent = orthonormal_nullspace(grad[None, :])
    if tangent.shape[1] == 0:
        return CurvatureValue(0.0, None)
    reduced = tangent.T @ hess @ tangent
    w, V = _eigh(0.5 * (reduced + reduced.T))
    idx = int(abs(w).argmax())
    kappa = abs(float(w[idx])) / grad_norm
    direction = tangent @ V[:, idx]
    if hull is not None:
        direction = hull.basis @ direction
    return CurvatureValue(kappa, direction)


def intersection_oracle(problem: FeasibilityProblem):
    """X intersect Y as one pair oracle, by one rule: two whole-space balls
    of dimension >= 2 give a :class:`~ccrm.sets.BallLens`, two ellipsoids an
    :class:`~ccrm.sets.EllipsoidLens`, and a ``Hyperplane``, ``Halfspace``
    or whole-space ``Ball`` Y a :class:`~ccrm.sets.Cap` of X.

    With a common hull L, X & Y lies in L, so P_{X&Y}(z) = P_{X&Y}(P_L z),
    and the rule applies to the sets in L's coordinates
    (:func:`~ccrm.sets.in_hull_coordinates`), embedded back (discs3d, socp,
    ellipses, eq_ellipsoids). An X with no native form there and a ``Ball``
    Y of L (sdp, fixed_trace) give the ambient cap of X by B(in-plane
    center, in-plane radius) instead, which saves a round trip per inner
    projection. Otherwise the rule applies to X and Y (epigraph); a pair it
    does not cover, which only a problem file can build, raises
    ``UnsupportedOperation``.
    """
    def pair_rule(x, y):
        if type(x) is type(y) is Ball and x.subspace is y.subspace is None and x.dim > 1:
            return BallLens(x, y)
        if type(x) is type(y) is Ellipsoid:
            return EllipsoidLens(x, y)
        if type(y) in (Hyperplane, Halfspace) or (type(y) is Ball and y.subspace is None):
            return Cap(x, y)
        raise UnsupportedOperation(f"no exact projection onto {type(x).__name__} & {type(y).__name__}")

    X, Y, hull = problem.X, problem.Y, problem.common_hull
    if hull is not None:
        x = in_hull_coordinates(X, hull)
        if type(x) is IsometricImage and type(Y) is Ball:
            return Cap(X, Ball(Y.in_plane_center, Y.in_plane_radius))
        try:
            return EmbeddedOracle(pair_rule(x, in_hull_coordinates(Y, hull)), hull)
        except UnsupportedOperation:
            pass  # X and Y themselves may have a rule: Y the hyperplane that is the hull
    return pair_rule(X, Y)


def estimate_omega(
    problem: FeasibilityProblem,
    z_bar,
    radii=(1e-1, 1e-2, 1e-3, 1e-4),
    samples_per_radius=200,
    seed=0,
    projector=None,
) -> float:
    """Empirical local error-bound constant near z_bar.

    Samples points uniformly on spheres of the given radii around z_bar
    and returns the minimum of max(dist(z, X), dist(z, Y)) / dist(z, X&Y)
    over samples whose intersection distance exceeds ``OMEGA_EXCLUDE_TOL``.
    Deterministic under the seed. Each sample projects onto X once: that
    gives dist(z, X) and, through ``project_given``, the projection onto
    :func:`intersection_oracle`'s pair (in the common hull's coordinates v =
    B^T (z - a), if it works there), unless a ``projector`` onto X & Y is
    given. Raises ValueError unless ``radii`` is a non-empty sequence of
    finite radii > 0 and ``samples_per_radius`` an integer >= 1, when every
    sample lies in X & Y, or when z_bar is off the problem's common hull
    beyond rounding, where the samples would measure the hull.
    """
    radii = tuple(radii)
    if not radii or not all(isinstance(r, numbers.Real) and math.isfinite(r) and r > 0.0 for r in radii):
        raise ValueError(f"radii must be a non-empty sequence of finite numbers > 0, got {radii}")
    samples_per_radius = _check_count("samples_per_radius", samples_per_radius)
    z_bar = np.asarray(z_bar, dtype=float)
    _require_on_hull(problem.common_hull, z_bar, "the problem's common hull")
    pair = frame = None
    if projector is None:
        pair = intersection_oracle(problem)
        if isinstance(pair, EmbeddedOracle):
            pair, frame = pair.inner, pair.subspace
            a, B, Bt = frame.anchor, frame.basis, frame._Bt
    # One draw for all radii, row by row the numbers of one draw per radius.
    directions = np.random.default_rng(seed).normal(size=(len(radii), samples_per_radius, z_bar.shape[0]))
    directions /= np.linalg.norm(directions, axis=2, keepdims=True)
    best = np.inf
    for rho, block in zip(radii, directions):
        Z = z_bar + rho * block
        for z, zl in zip(Z, Z.tolist()):
            if frame is None:  # an ambient pair's inner set is X
                px = problem.X.project(z)
                x = projector(z) if pair is None else pair.project_given(z, px)
            else:
                v = Bt @ (z - a)
                pv = pair.inner.project(v)
                px, x = a + B @ pv, a + B @ pair.project_given(v, pv)
            di = math.dist(x.tolist(), zl)
            if di <= OMEGA_EXCLUDE_TOL:
                continue
            ratio = max(math.dist(px.tolist(), zl), problem.Y.distance(z)) / di
            best = min(best, ratio)
    if not np.isfinite(best):
        raise ValueError("all samples were inside the intersection; cannot estimate")
    return float(best)


@dataclass
class QuadConstantReport:
    observed: float
    bound: float
    sharper_bound: Optional[float]
    kappa: float
    omega: float
    passed: bool
    passed_sharper: Optional[bool]


def quad_constant_check(
    trace: SolveTrace,
    problem: FeasibilityProblem,
    kappa_x=None,
    kappa_y=None,
    omega=None,
    isolated=False,
) -> QuadConstantReport:
    """Compare observed quadratic ratios with 4 max(kappa) / omega.

    The intersection distances of the trace are classified first; the
    check requires a quadratic classification. When the limit is an
    isolated intersection point the sharper constant max(kappa) / omega
    applies and is reported as well. Constants default to the problem's
    known values.
    """
    known = problem.known_constants
    if kappa_x is None and known is not None:
        kappa_x = known.kappa_x
    if kappa_y is None and known is not None:
        kappa_y = known.kappa_y
    if omega is None and known is not None:
        omega = known.omega
    if kappa_x is None or kappa_y is None or omega is None:
        raise ValueError("kappa_x, kappa_y, and omega must be provided or known")

    distance = intersection_oracle(problem).distance
    dists = np.array([distance(z) for z in trace.iterates])
    limit = trace.iterates[-1]
    report = rate_report(dists, scale=1.0 + float(np.linalg.norm(limit)))
    if report.classification != RATE_QUADRATIC:
        raise ValueError(
            f"trace classifies as {report.classification}, not quadratic; "
            "the asymptotic-constant check does not apply"
        )

    observed = float(report.quad_ratios[-1])
    kappa = max(kappa_x, kappa_y)
    bound = 4.0 * kappa / omega
    sharper = kappa / omega if isolated else None
    passed = observed <= bound * (1.0 + CHECK_MARGIN)
    passed_sharper = observed <= sharper * (1.0 + CHECK_MARGIN) if isolated else None
    return QuadConstantReport(
        observed=observed,
        bound=bound,
        sharper_bound=sharper,
        kappa=kappa,
        omega=omega,
        passed=passed,
        passed_sharper=passed_sharper,
    )
