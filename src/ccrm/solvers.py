"""Iteration engines for two-set convex feasibility.

Three methods share one driver: alternating projections (MAP), the
circumcentered-reflection method (CRM), and its centralized variant
(cCRM), whose step is the circumcenter of the centralized point together
with its two reflections. The driver records a full per-iterate trace;
the isometry preprocessor rewrites a hull-confined problem in the hull's
orthonormal coordinates, which leaves the iteration invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .circumcenter import circumcenter
from .errors import GeometryError, UnsupportedOperation
from .sets import AffineSubspace, IsometricImage, SetOracle, _as_point, _power_normal_root

TERMINATION_FEASIBLE = "feasible"
TERMINATION_MAX_ITER = "max_iter"
TERMINATION_STAGNATION = "stagnation"

METHODS = ("ccrm", "map", "crm")

# Status of a cCRM step that returned its already feasible centralized point.
STATUS_CENTRALIZED_FEASIBLE = "centralized_feasible"


@dataclass(frozen=True)
class KnownConstants:
    """Curvatures of the two boundaries and the error-bound constant, if known."""

    kappa_x: Optional[float] = None
    kappa_y: Optional[float] = None
    omega: Optional[float] = None


@dataclass
class FeasibilityProblem:
    """Find a point in X intersect Y.

    ``common_hull`` is the shared affine hull when both sets are confined
    to one; ``reference_solution`` is an analytically known limit used by
    the rate diagnostics.
    """

    X: SetOracle
    Y: SetOracle
    common_hull: Optional[AffineSubspace] = None
    reference_solution: Optional[np.ndarray] = None
    known_constants: Optional[KnownConstants] = None

    def __post_init__(self):
        if self.X.dim != self.Y.dim:
            raise ValueError(f"set dimensions differ: {self.X.dim} vs {self.Y.dim}")
        if self.reference_solution is not None:
            self.reference_solution = _as_point(self.reference_solution, self.X.dim)

    @property
    def dim(self) -> int:
        return self.X.dim

    def max_distance(self, z) -> float:
        return max(self.X.distance(z), self.Y.distance(z))


@dataclass
class SolverConfig:
    method: str = "ccrm"
    max_iter: int = 10000
    tol_feas: float = 1e-12
    tol_step: float = 1e-15
    record_internals: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.tol_feas <= 0.0:
            raise ValueError("tol_feas must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveTrace:
    """Per-iteration record of a solver run.

    ``iterates[k]`` is z^k (row 0 is the start), with the residuals to
    each set evaluated at every iterate. Centralized points and
    circumcenter statuses are recorded for cCRM/CRM runs when requested;
    entry k belongs to the step producing iterate k+1.
    """

    method: str
    iterates: np.ndarray
    residuals_x: np.ndarray
    residuals_y: np.ndarray
    termination: str
    distances_to_reference: Optional[np.ndarray] = None
    centralized_points: Optional[np.ndarray] = None
    circum_statuses: Optional[list] = None

    @property
    def residuals(self) -> np.ndarray:
        return np.maximum(self.residuals_x, self.residuals_y)

    @property
    def n_steps(self) -> int:
        return self.iterates.shape[0] - 1

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def ccrm_step(problem: FeasibilityProblem, z):
    """One centralized circumcentered-reflection step.

    Computes w = P_X(z), the centralized point
    z_C = (P_Y(w) + P_X(P_Y(w))) / 2, and returns the circumcenter of
    {z_C, R_X(z_C), R_Y(z_C)} together with z_C.
    """
    z_next, z_c, _ = _ccrm_step_full(problem, z)
    return z_next, z_c


def _ccrm_step_full(problem, z, tol_feas=0.0):
    """cCRM step returning (z_next, z_C, status).

    A z_C within ``tol_feas`` of both sets can have reflections so close
    to it that the circumcenter system is inconsistent; z_C is then the
    step. Any other GeometryError propagates.
    """
    z = _as_point(z, problem.dim)
    w = problem.X.project(z)
    yw = problem.Y.project(w)
    z_c = 0.5 * (yw + problem.X.project(yw))
    px, py = problem.X.project(z_c), problem.Y.project(z_c)
    try:
        result = circumcenter([z_c, 2.0 * px - z_c, 2.0 * py - z_c])
    except GeometryError:
        if max(np.linalg.norm(z_c - px), np.linalg.norm(z_c - py)) > tol_feas:
            raise
        return z_c, z_c, STATUS_CENTRALIZED_FEASIBLE
    return result.center, z_c, result.status


def map_step(problem: FeasibilityProblem, z) -> np.ndarray:
    """One step of alternating projections: P_Y(P_X(z))."""
    z = _as_point(z, problem.dim)
    return problem.Y.project(problem.X.project(z))


def crm_step(problem: FeasibilityProblem, z) -> np.ndarray:
    """One circumcentered-reflection step: circum{z, R_X(z), R_Y(R_X(z))}."""
    z_next, _ = _crm_step_full(problem, z)
    return z_next


def _crm_step_full(problem, z):
    z = _as_point(z, problem.dim)
    rx = problem.X.reflect(z)
    result = circumcenter([z, rx, problem.Y.reflect(rx)])
    return result.center, result.status


def run(problem: FeasibilityProblem, config: SolverConfig, z0) -> SolveTrace:
    """Iterate the configured method from z0 and record the trace.

    Stops at feasibility (max residual below ``tol_feas``), at the
    iteration cap, or on stagnation. A circumcenter degeneracy at the
    double-precision floor (the step geometry collapses once projection
    corrections underflow) is treated as stagnation rather than an error.
    """
    z = _as_point(z0, problem.dim).copy()
    iterates = [z.copy()]
    res_x = [problem.X.distance(z)]
    res_y = [problem.Y.distance(z)]
    centers = [] if config.record_internals else None
    statuses = [] if config.record_internals else None

    termination = TERMINATION_MAX_ITER
    if max(res_x[0], res_y[0]) <= config.tol_feas:
        termination = TERMINATION_FEASIBLE
    else:
        for _ in range(config.max_iter):
            try:
                if config.method == "map":
                    z_next = map_step(problem, z)
                elif config.method == "crm":
                    z_next, status = _crm_step_full(problem, z)
                    if statuses is not None:
                        statuses.append(status)
                else:
                    z_next, z_c, status = _ccrm_step_full(problem, z, config.tol_feas)
                    if centers is not None:
                        centers.append(z_c)
                        statuses.append(status)
            except GeometryError:
                termination = TERMINATION_STAGNATION
                break
            iterates.append(z_next.copy())
            res_x.append(problem.X.distance(z_next))
            res_y.append(problem.Y.distance(z_next))
            if max(res_x[-1], res_y[-1]) <= config.tol_feas:
                termination = TERMINATION_FEASIBLE
                break
            if np.linalg.norm(z_next - z) <= config.tol_step * (1.0 + np.linalg.norm(z)):
                termination = TERMINATION_STAGNATION
                break
            z = z_next

    iterates = np.asarray(iterates)
    dist_ref = None
    if problem.reference_solution is not None:
        dist_ref = np.linalg.norm(iterates - problem.reference_solution, axis=1)
    return SolveTrace(
        method=config.method,
        iterates=iterates,
        residuals_x=np.asarray(res_x),
        residuals_y=np.asarray(res_y),
        termination=termination,
        distances_to_reference=dist_ref,
        centralized_points=np.asarray(centers) if centers else None,
        circum_statuses=statuses if statuses else None,
    )


@dataclass
class IsometryReduction:
    """A problem rewritten in its hull's orthonormal coordinates.

    ``embed`` maps reduced points back to ambient hull points and
    ``restrict`` is its inverse on the hull.
    """

    problem: FeasibilityProblem
    subspace: AffineSubspace
    embed: Callable[[np.ndarray], np.ndarray]
    restrict: Callable[[np.ndarray], np.ndarray]


def isometry_reduce(problem: FeasibilityProblem) -> IsometryReduction:
    """Rewrite a hull-confined problem in the hull's local coordinates.

    Isometries commute with projections and preserve circumcenters, so
    traces of the reduced problem embed back onto traces of the original
    (from the first iterate on, once the iterate has entered the hull).
    """
    hull = problem.common_hull
    if hull is None:
        raise UnsupportedOperation("problem has no common affine hull to reduce onto")
    reduced_ref = None
    if problem.reference_solution is not None:
        reduced_ref = hull.to_local(problem.reference_solution)
    reduced = FeasibilityProblem(
        X=IsometricImage(problem.X, hull),
        Y=IsometricImage(problem.Y, hull),
        common_hull=None,
        reference_solution=reduced_ref,
        known_constants=problem.known_constants,
    )
    return IsometryReduction(
        problem=reduced, subspace=hull, embed=hull.from_local, restrict=hull.to_local
    )


@dataclass(frozen=True)
class EpigraphScalarInternals:
    u: float
    v: float
    a: float
    h: float
    p: float


def epigraph_scalar_step(alpha: float, x: float):
    """Analytic one-dimensional cCRM recurrence for the power epigraph.

    For the pair {y >= |x|^alpha, y <= 0} started on the x-axis, the
    iteration never leaves the axis, and the next abscissa follows from
    the circumcenter equidistance relation
    (x' - p)(p - a) = p^alpha (p^alpha - h), with u, v the two alternating
    projection abscissae, (a, h) the centralized point, and p the abscissa
    of its projection onto the epigraph. All scalar roots are resolved to
    machine precision (within the 1e-14 contract).

    Returns:
        (x_next, internals) with the intermediate scalars.
    """
    if alpha <= 1.0:
        raise ValueError("exponent must exceed 1")
    if x <= 0.0:
        raise ValueError("abscissa must be positive")
    u = _power_normal_root(alpha, x, 0.0)
    v = _power_normal_root(alpha, u, 0.0)
    a = 0.5 * (u + v)
    h = 0.5 * v**alpha
    p = _power_normal_root(alpha, a, h)
    if p == a:
        raise GeometryError(
            "scalar circumcenter is degenerate: projection corrections "
            "underflow at this abscissa"
        )
    pa = p**alpha
    x_next = p + pa * (pa - h) / (p - a)
    return x_next, EpigraphScalarInternals(u=u, v=v, a=a, h=h, p=p)
