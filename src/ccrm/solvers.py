"""Iteration engines for two-set convex feasibility.

Three methods share one driver: alternating projections (MAP), the
circumcentered-reflection method (CRM), and its centralized variant
(cCRM), whose step is the circumcenter of the centralized point together
with its two reflections. The driver records a full per-iterate trace;
the isometry preprocessor rewrites a hull-confined problem in the hull's
orthonormal coordinates, which leaves the iteration invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# The steps pass their three lists of floats straight to the solve, under
# the name through which perfbench counts circumcenter calls.
from .circumcenter import _circumcenter3 as circumcenter
from .errors import ConvergenceError, GeometryError, NonFiniteError, UnsupportedOperation
from .sets import AffineSubspace, SetOracle, _as_point, _check_count, _point
from .sets import _row_norms, in_hull_coordinates, same_subspace

TERMINATION_FEASIBLE = "feasible"
TERMINATION_MAX_ITER = "max_iter"
TERMINATION_STAGNATION = "stagnation"
TERMINATION_INNER_FAILURE = "inner_failure"

# A step shorter than this, relative to 1 + ||z||, ends the run as stagnation.
STEP_TOL = 1e-15

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

    ``reference_solution`` is an analytically known limit used by the rate
    diagnostics.
    """

    X: SetOracle
    Y: SetOracle
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

    @property
    def common_hull(self) -> Optional[AffineSubspace]:
        """X's affine hull when Y's is the same subspace, else None."""
        hull = self.X.affine_hull
        return hull if same_subspace(hull, self.Y.affine_hull) else None

    def max_distance(self, z) -> float:
        return max(self.X.distance(z), self.Y.distance(z))


@dataclass
class SolverConfig:
    method: str = "ccrm"
    max_iter: int = 10000
    tol_feas: float = 1e-12

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 < self.tol_feas < np.inf:
            raise ValueError(f"tol_feas must be finite and positive, got {self.tol_feas}")
        self.max_iter = _check_count("max_iter", self.max_iter)


@dataclass
class SolveTrace:
    """Per-iteration record of a solver run.

    ``iterates[k]`` is z^k (row 0 is the start), with the residuals to
    each set at every iterate. They are measured by projection, except a
    MAP iterate's Y residual (k >= 1), which is 0 by construction: the
    iterate is P_Y's output. Circumcenter statuses (cCRM and
    CRM) and centralized points (cCRM) are always recorded; entry k
    belongs to the step producing iterate k+1. ``termination`` is
    ``feasible``, ``max_iter``, ``stagnation`` or ``inner_failure`` (see
    :func:`run`); ``termination_detail`` is the message of the error that
    ended the run, if one did.
    """

    method: str
    iterates: np.ndarray
    residuals_x: np.ndarray
    residuals_y: np.ndarray
    termination: str
    distances_to_reference: Optional[np.ndarray] = None
    centralized_points: Optional[np.ndarray] = None
    circum_statuses: Optional[list] = None
    termination_detail: Optional[str] = None

    @property
    def residuals(self) -> np.ndarray:
        return np.maximum(self.residuals_x, self.residuals_y)

    @property
    def n_steps(self) -> int:
        return self.iterates.shape[0] - 1

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


# Each step maps (problem, x, px, p, tol_feas), x the entries of the
# iterate z and p those of px = P_X(z) as lists of floats, to (z_next,
# x_next its entries, z_C or None, circumcenter status or None, the Y
# residual of z_next that the step guarantees, or None when the driver
# must measure it). Points are combined entry by entry on Python floats,
# the IEEE operations of numpy's elementwise arithmetic, and projected
# as arrays.
def _ccrm(problem, x, px, p, tol_feas):
    """cCRM: the circumcenter of {z_C, R_X(z_C), R_Y(z_C)}.

    The homothety of ratio 2 about z_C maps P_X(z_C) and P_Y(z_C) to the
    two reflections, so the step is 2 circ{z_C, P_X(z_C), P_Y(z_C)} - z_C
    and no reflection is formed; it is formed on Python floats, so a step
    past the float range raises GeometryError without a warning. A z_C
    within ``tol_feas`` of both sets can have projections so close to it
    that the circumcenter system is inconsistent; z_C is then the step.
    Any other GeometryError propagates.
    """
    yw = problem.Y.project(px)
    zc = [0.5 * (a + b) for a, b in zip(yw.tolist(), problem.X.project(yw).tolist())]
    z_c = np.array(zc)
    pxc, pyc = problem.X.project(z_c).tolist(), problem.Y.project(z_c).tolist()
    try:
        result = circumcenter(zc, pxc, pyc)
    except GeometryError:
        if max(math.dist(zc, pxc), math.dist(zc, pyc)) > tol_feas:
            raise
        return z_c, zc, z_c, STATUS_CENTRALIZED_FEASIBLE, None
    x_next = [2.0 * a - b for a, b in zip(result.center.tolist(), zc)]
    if not math.isfinite(sum(x_next)) and not all(map(math.isfinite, x_next)):
        raise GeometryError("the circumcenter lies beyond the float range")
    return np.array(x_next), x_next, z_c, result.status, None


def _crm(problem, x, px, p, tol_feas):
    """CRM: the circumcenter of {z, R_X(z), R_Y(R_X(z))}."""
    rx = [2.0 * a - b for a, b in zip(p, x)]
    ry = [2.0 * a - b for a, b in zip(problem.Y.project(np.array(rx)).tolist(), rx)]
    result = circumcenter(x, rx, ry)
    return result.center, result.center.tolist(), None, result.status, None


def _map(problem, x, px, p, tol_feas):
    """MAP: P_Y(P_X(z)), which lies in Y, so its Y residual is 0."""
    z_next = problem.Y.project(px)
    return z_next, z_next.tolist(), None, None, 0.0


STEPS = {"ccrm": _ccrm, "map": _map, "crm": _crm}
METHODS = tuple(STEPS)


def _step(method, problem, z):
    z, x = _point(z, problem.dim)
    px = problem.X.project(z)
    return STEPS[method](problem, x, px, px.tolist(), 0.0)


def ccrm_step(problem: FeasibilityProblem, z):
    """One cCRM step: (z_next, z_C) with z_C = (P_Y(w) + P_X(P_Y(w))) / 2, w = P_X(z).

    z_next = circ{z_C, R_X(z_C), R_Y(z_C)}, computed as the doubled
    circumcenter of the projections, 2 circ{z_C, P_X(z_C), P_Y(z_C)} - z_C.
    """
    z_next, _, z_c, *_ = _step("ccrm", problem, z)
    return z_next, z_c


def crm_step(problem: FeasibilityProblem, z) -> np.ndarray:
    """One circumcentered-reflection step: circum{z, R_X(z), R_Y(R_X(z))}."""
    return _step("crm", problem, z)[0]


def map_step(problem: FeasibilityProblem, z) -> np.ndarray:
    """One step of alternating projections: P_Y(P_X(z))."""
    return _step("map", problem, z)[0]


def run(problem: FeasibilityProblem, config: SolverConfig, z0) -> SolveTrace:
    """Iterate the configured method from z0 and record the trace.

    Each iterate is projected onto X once: that projection gives its X
    residual and is the next step's P_X(z). Its Y residual is the one the
    step guarantees (0 for MAP, whose iterate is P_Y's output), else it
    is measured. Stops at feasibility (max residual below ``tol_feas``),
    at the iteration cap, on stagnation, or on an inner-solver
    ``ConvergenceError`` or a non-finite iterate or residual
    (``inner_failure``). A circumcenter degeneracy at the double-precision
    floor (the step geometry collapses once projection corrections
    underflow) is stagnation rather than an error. Each of these keeps the
    iterates so far and its message as ``termination_detail``; one at z0
    propagates. Each iterate and its P_X(z) become lists of floats once,
    for the next step and for the residuals, step length and norm:
    ``math.dist`` and ``math.hypot`` on lists, bit for bit the norms of
    numpy differences.
    """
    step = STEPS[config.method]
    z, x = _point(z0, problem.dim)
    px = problem.X.project(z)
    p = px.tolist()
    iterates = [z.copy()]
    dist_x, dist_y = math.dist(x, p), math.dist(problem.Y.project(z).tolist(), x)
    if not (math.isfinite(dist_x) and math.isfinite(dist_y)):
        raise NonFiniteError("a residual is non-finite")
    res_x, res_y = [dist_x], [dist_y]
    centers, statuses = [], []

    termination, detail = TERMINATION_MAX_ITER, None
    if max(dist_x, dist_y) <= config.tol_feas:
        termination = TERMINATION_FEASIBLE
    else:
        for _ in range(config.max_iter):
            try:
                z_next, x_next, z_c, status, dist_y = step(problem, x, px, p, config.tol_feas)
                px = problem.X.project(z_next)
                p = px.tolist()
                dist_x = math.dist(x_next, p)
                if dist_y is None:
                    dist_y = math.dist(problem.Y.project(z_next).tolist(), x_next)
                if not (math.isfinite(dist_x) and math.isfinite(dist_y)):
                    raise NonFiniteError("a residual is non-finite")
            except GeometryError as exc:
                termination, detail = TERMINATION_STAGNATION, str(exc)
                break
            except ConvergenceError as exc:
                termination, detail = TERMINATION_INNER_FAILURE, str(exc)
                break
            except NonFiniteError as exc:
                termination = TERMINATION_INNER_FAILURE
                detail = f"iterate {len(iterates)}: {exc}"
                break
            iterates.append(z_next)
            res_x.append(dist_x)
            res_y.append(dist_y)
            if z_c is not None:
                centers.append(z_c)
            if status is not None:
                statuses.append(status)
            if max(dist_x, dist_y) <= config.tol_feas:
                termination = TERMINATION_FEASIBLE
                break
            if math.dist(x_next, x) <= STEP_TOL * (1.0 + math.hypot(*x)):
                termination = TERMINATION_STAGNATION
                break
            x = x_next

    iterates = np.asarray(iterates)
    dist_ref = None
    if problem.reference_solution is not None:
        dist_ref = _row_norms(iterates - problem.reference_solution)
    return SolveTrace(
        method=config.method,
        iterates=iterates,
        residuals_x=np.asarray(res_x),
        residuals_y=np.asarray(res_y),
        termination=termination,
        distances_to_reference=dist_ref,
        centralized_points=np.asarray(centers) if centers else None,
        circum_statuses=statuses if statuses else None,
        termination_detail=detail,
    )


def isometry_reduce(problem: FeasibilityProblem) -> FeasibilityProblem:
    """Rewrite a problem whose sets share an affine hull in its local coordinates.

    Isometries commute with projections and preserve circumcenters, so
    traces of the reduced problem embed back onto traces of the original
    (from the first iterate on, once the iterate has entered the hull).
    Each set is taken into the hull's coordinates by
    :func:`~ccrm.sets.in_hull_coordinates`: an embedded oracle becomes its
    inner oracle and a ball of the hull a whole-space ball, which project
    natively; any other set projects through an ambient round trip. Points
    map between the two with ``problem.common_hull.to_local`` and
    ``from_local``.
    """
    hull = problem.common_hull
    if hull is None:
        raise UnsupportedOperation("X and Y share no affine hull to reduce onto")
    ref = problem.reference_solution
    return FeasibilityProblem(
        X=in_hull_coordinates(problem.X, hull),
        Y=in_hull_coordinates(problem.Y, hull),
        reference_solution=None if ref is None else hull.to_local(ref),
        known_constants=problem.known_constants,
    )

