"""Constructors for the benchmark feasibility problems, with reference data.

Each entry packages the problem, a suggested starting point, and whatever
is known analytically about the limit: the reference solution, boundary
curvatures there, and the expected convergence rate of the centralized
method. Constructors are pure and deterministic; the parametric ones fix
default numeric data so downstream runs are reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import sym_dim, sym_to_vec
from .sets import (
    AffineSubspace,
    Ball,
    Cap,
    DykstraIntersection,
    Ellipsoid,
    EmbeddedOracle,
    Halfspace,
    Hyperplane,
    PowerEpigraph,
    SecondOrderCone,
    SpectralSet,
    dykstra_project,
)
from .solvers import FeasibilityProblem, KnownConstants


@dataclass(frozen=True)
class ReferenceData:
    """Analytic expectations for a catalog problem, where available.

    The reference solution and known curvatures live on the problem
    (``reference_solution``, ``known_constants``).
    """

    expected_rate: Optional[str] = None
    expected_constant: Optional[float] = None
    isolated: bool = False


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    problem: FeasibilityProblem
    suggested_z0: np.ndarray
    reference: Optional[ReferenceData] = None


def _plane_z3():
    """The coordinate plane {z_3 = 0} in R^3 with the canonical (x, y) frame."""
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    return AffineSubspace([[0.0, 0.0, 1.0]], [0.0], basis=basis)


def make_discs3d() -> CatalogEntry:
    """Two radius-2 discs in the plane {z_3 = 0}, overlapping in a thin lens.

    Centers sit sqrt(15) apart, so the boundary circles meet at
    (sqrt(15)/2, +-1/2, 0); the point between them lies in the relative
    interior of both discs. Both boundary curvatures equal 1/2.
    """
    plane = _plane_z3()
    s15 = np.sqrt(15.0)
    X = Ball([0.0, 0.0, 0.0], 2.0, plane)
    Y = Ball([s15, 0.0, 0.0], 2.0, plane)
    zbar = np.array([s15 / 2.0, 0.5, 0.0])
    problem = FeasibilityProblem(
        X,
        Y,
        common_hull=plane,
        reference_solution=zbar,
        known_constants=KnownConstants(kappa_x=0.5, kappa_y=0.5),
    )
    reference = ReferenceData(expected_rate="quadratic")
    return CatalogEntry("discs3d", problem, np.array([s15 / 2.0, 4.0, 0.5]), reference)


def ellipse_boundary_curvature(t) -> float:
    """Curvature of the boundary of {x^2/4 + y^2 <= 1} at (2 cos t, sin t)."""
    return 2.0 / (4.0 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5


def make_ellipses() -> CatalogEntry:
    """Two overlapping ellipses in the plane {z_3 = 0}.

    X has semi-axes (2, 1) at the origin, Y has semi-axes (1, 2) at
    (1, 0). The boundary curvature of X varies eightfold between the
    major-axis tips (2) and the minor-axis tips (1/4), so the quadratic
    constant depends on where the iteration lands.
    """
    plane = _plane_z3()
    X = EmbeddedOracle(Ellipsoid(np.diag([0.25, 1.0])), plane)
    Y = EmbeddedOracle(Ellipsoid(np.diag([1.0, 0.25]), center=[1.0, 0.0]), plane)
    problem = FeasibilityProblem(X, Y, common_hull=plane)
    reference = ReferenceData(expected_rate="quadratic")
    return CatalogEntry("ellipses", problem, np.array([2.5, 2.0, 1.0]), reference)


EPIGRAPH_VARIANTS = ("halfplane", "line")


def make_epigraph(alpha, beta=0.0, y_variant="halfplane") -> CatalogEntry:
    """The power epigraph {y >= |x|^alpha - beta} against {y <= 0} (or {y = 0}).

    For beta = 0 the sets touch tangentially at the origin (no relative
    interior overlap) and the centralized method is exactly linear with
    factor 1 - 1/alpha. For beta > 0 the suggested start lies on the
    x-axis right of the lens corner (beta^(1/alpha), 0); the iteration
    stays on the axis and converges to that corner.
    """
    if alpha <= 1.0:
        raise ValueError("exponent must exceed 1")
    if beta < 0.0:
        raise ValueError("shift must be nonnegative")
    if y_variant not in EPIGRAPH_VARIANTS:
        raise ValueError(f"unknown variant {y_variant!r}; expected one of {EPIGRAPH_VARIANTS}")

    X = PowerEpigraph(alpha, beta)
    if y_variant == "halfplane":
        Y = Halfspace([0.0, 1.0], 0.0)
    else:
        Y = Hyperplane([0.0, 1.0], 0.0)

    if beta == 0.0:
        zbar = np.zeros(2)
        z0 = np.array([0.5, 0.0])
        reference = ReferenceData(
            expected_rate="linear",
            expected_constant=1.0 - 1.0 / alpha,
            isolated=True,
        )
        constants = KnownConstants(kappa_y=0.0)
    else:
        corner = beta ** (1.0 / alpha)
        slope = alpha * corner ** (alpha - 1.0)
        kappa_x = alpha * (alpha - 1.0) * corner ** (alpha - 2.0) / (1.0 + slope**2) ** 1.5
        zbar = np.array([corner, 0.0])
        # Start far enough right of the corner that the quadratic collapse
        # leaves three-plus distances above the precision floor.
        z0 = np.array([corner + 2.0, 0.0])
        # C^2 fails only at the vertex (0, -beta), which lies interior to Y
        # and cannot be a non-finite limit; observed rates at the corner are
        # quadratic for every alpha > 1, superlinear being the guarantee.
        expected = "quadratic" if alpha >= 2.0 else "superlinear"
        reference = ReferenceData(expected_rate=expected)
        constants = KnownConstants(kappa_x=kappa_x, kappa_y=0.0)

    problem = FeasibilityProblem(
        X, Y, reference_solution=zbar, known_constants=constants
    )
    return CatalogEntry("epigraph", problem, z0, reference)


def _ellipsoid_from_ball(B, c, r):
    """{z : ||B z - c|| <= r} as an Ellipsoid, for nonsingular B."""
    B = np.asarray(B, dtype=float)
    c = np.asarray(c, dtype=float)
    center = np.linalg.solve(B, c)
    slack = r**2 - float(np.linalg.norm(B @ center - c) ** 2)
    if slack <= 0.0:
        raise ValueError("ball constraint has empty interior")
    return Ellipsoid(B.T @ B / slack, center)


def _subspace(A, b):
    """L = {A z = b}: a :class:`Hyperplane` for one row, so a cap can cut by it."""
    A, b = np.atleast_2d(np.asarray(A, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    return Hyperplane(A[0], b[0]) if A.shape[0] == 1 else AffineSubspace(A, b)


def _ellipsoid_within(e, L):
    """E & L as an ellipsoid in L's orthonormal coordinates v, z = anchor + B v.

    Substituting z into (z - c)^T Q (z - c) <= 1 and completing the square
    gives (v - c')^T Q' (v - c') <= slack with Q' = B^T Q B and
    c' = -Q'^-1 B^T Q (anchor - c). The descriptor is scaled by 1 / slack,
    which leaves the boundary and its curvature as they are.
    """
    B, d = L.basis, L.anchor - e.center
    Qp = B.T @ e.Q @ B
    cp = -np.linalg.solve(Qp, B.T @ (e.Q @ d))
    slack = 1.0 - float(d @ e.Q @ d) + float(cp @ Qp @ cp)
    if slack <= 0.0:
        raise ValueError("ellipsoid has no interior within the constraints")
    return EmbeddedOracle(Ellipsoid(Qp / slack, cp), L)


def _default_eq_ellipsoids():
    """(A, b, balls) of the default eq_ellipsoids instance."""
    A = np.array([[1.0, 1.0, 1.0, 1.0]])
    b = np.array([2.0])
    B1 = np.diag([1.0, 1.2, 0.9, 1.1])
    B2 = np.diag([1.1, 0.95, 1.05, 1.0])
    balls = [
        (B1, B1 @ np.array([1.0, 0.5, 0.25, 0.25]), 1.2),
        (B2, B2 @ np.array([0.0, 0.75, 0.75, 0.5]), 1.3),
    ]
    return A, b, balls


def make_eq_constrained_ellipsoids(A=None, b=None, balls=None) -> CatalogEntry:
    """Two ellipsoids intersected with L = {A z = b}, each reduced into L.

    With at least one row, E & L is itself an ellipsoid in L's orthonormal
    coordinates (see :func:`_ellipsoid_within`), so X and Y are
    :class:`~ccrm.sets.EmbeddedOracle` ellipsoids sharing L, each projected
    by one scalar Newton solve; with none they are the plain ellipsoids.
    An ellipsoid without interior points in L raises ``ValueError``. The
    default instance lives in R^4 with one equality constraint and two
    overlapping anisotropic balls whose common relative interior is
    verified by a Dykstra probe at construction; an infeasible probe
    degrades to a warning since the problem may still be usable.
    """
    if A is None:
        A, b, balls = _default_eq_ellipsoids()
    if len(balls) != 2:
        raise ValueError("need exactly two ball constraints")

    e1 = _ellipsoid_from_ball(*balls[0])
    e2 = _ellipsoid_from_ball(*balls[1])
    L = _subspace(A, b)
    X, Y = (_ellipsoid_within(e, L) for e in (e1, e2)) if L.A.shape[0] else (e1, e2)

    probe_start = L.project(0.5 * (e1.center + e2.center))
    probe = dykstra_project([e1, e2, L], probe_start, tol=1e-10)
    if max(e1._boundary(probe)[0], e2._boundary(probe)[0]) > -1e-8:
        warnings.warn(
            "Slater probe found no strictly interior common point; "
            "the problem may lack a relative interior intersection"
        )

    problem = FeasibilityProblem(X, Y, common_hull=L)
    z0 = L.anchor + 2.0 * (np.arange(L.dim) == 0)
    return CatalogEntry("eq_ellipsoids", problem, z0, ReferenceData(expected_rate="quadratic"))


def make_socp() -> CatalogEntry:
    """Second-order-cone feasibility within an affine subspace of R^4.

    X is the cone {||(z_2, z_3, z_4)|| <= z_1} cut by the hyperplane L =
    {z_2 + z_3 + z_4 = 1.5}, an exact :class:`~ccrm.sets.Cap`; Y is a ball
    within L (closed form).
    """
    L = Hyperplane([0.0, 1.0, 1.0, 1.0], 1.5)
    X = Cap(SecondOrderCone(4), L)
    Y = Ball([0.3, 0.7, 0.5, 0.3], 0.7, L)
    problem = FeasibilityProblem(X, Y, common_hull=L)
    z0 = np.array([0.2, 1.5, 0.4, 0.5])
    return CatalogEntry("socp", problem, z0, ReferenceData(expected_rate="quadratic"))


def make_sdp_feasibility(A_ops=None, b=None, Sigma_hat=None, r=None, n=3) -> CatalogEntry:
    """Semidefinite feasibility: A(Sigma) = b, Sigma >= 0, ||Sigma - hat||_F <= r.

    Operates on isometrically flattened symmetric matrices. X is the PSD
    cone within L: a closed-form spectral set when there is no constraint
    or the one constraint is a multiple of the trace, an exact cap of the
    cone by any other single constraint, Dykstra-backed for several. Y is
    the Frobenius ball within L (closed form). The default is the n = 3
    single-trace-constraint instance with a strictly feasible point.
    """
    if A_ops is None:
        if n != 3:
            raise ValueError("default data is defined for n = 3")
        A_ops = [np.eye(n)]
        b = np.array([1.0])
        # A negative direction in the target pulls the limit onto the cone
        # boundary (rank n-1); the radius barely clears the distance to
        # PSD within L, keeping the intersection thin enough that the
        # quadratic tail is observable.
        off = np.array([[0.0, 0.05, 0.02], [0.05, 0.0, 0.04], [0.02, 0.04, 0.0]])
        Sigma_hat = np.diag([1.0, 0.8, -0.8]) + off
        r = 1.02
        z0 = sym_to_vec(np.diag([2.0, 0.4, -1.4]) + 0.3 * off)
    else:
        z0 = None
    c = float(np.asarray(A_ops[0])[0, 0]) if len(A_ops) == 1 else 0.0
    if len(A_ops) == 0:
        # No constraint: X is the PSD cone and L the whole space.
        X = SpectralSet(n, lo=0.0)
        L = AffineSubspace(np.zeros((0, sym_dim(n))), np.zeros(0))
    elif c != 0.0 and np.array_equal(A_ops[0], c * np.eye(n)):
        # c tr(Sigma) = b alone: X = {lambda >= 0, tr = b / c}, projected in
        # closed form; its trace hyperplane is the common hull.
        X = SpectralSet(n, lo=0.0, trace=np.atleast_1d(np.asarray(b, dtype=float))[0] / c)
        L = X.affine_hull
    else:
        rows = np.stack([sym_to_vec(np.asarray(Ai, dtype=float)) for Ai in A_ops])
        L = _subspace(rows, b)
        cone = SpectralSet(n, lo=0.0)
        X = Cap(cone, L) if isinstance(L, Hyperplane) else DykstraIntersection([cone, L], hull=L)
    Y = Ball(sym_to_vec(np.asarray(Sigma_hat, dtype=float)), float(r), L)
    problem = FeasibilityProblem(X, Y, common_hull=L)
    if z0 is None:
        z0 = L.anchor.copy()
    return CatalogEntry("sdp", problem, z0, ReferenceData(expected_rate="quadratic"))


def make_fixed_trace(a=0.5, Sigma_hat=None, r=None, n=4) -> CatalogEntry:
    """Fixed-trace spectral feasibility: tr = 1, lambda_max <= a, Frobenius ball.

    The trace constraint is the common hull; the spectral constraint has a
    C^2 relative boundary wherever the leading eigenvalue is simple. The
    default target matrix pulls toward lambda_max > a so the limit lands
    on the spectral boundary.
    """
    if Sigma_hat is None:
        if n != 4:
            raise ValueError("default target matrix is defined for n = 4")
        # lambda_max of the target exceeds the bound, and the radius barely
        # clears the distance to the spectral set, so the limit sits on the
        # spectral boundary with a visible quadratic tail.
        Sigma_hat = np.array(
            [
                [1.5, 0.1, 0.0, 0.05],
                [0.1, 0.0, 0.08, 0.0],
                [0.0, 0.08, -0.2, 0.06],
                [0.05, 0.0, 0.06, -0.3],
            ]
        )
        r = 1.17
    X = SpectralSet(n, hi=a, trace=1.0)
    L = X.affine_hull
    Y = Ball(sym_to_vec(np.asarray(Sigma_hat, dtype=float)), float(r), L)
    problem = FeasibilityProblem(X, Y, common_hull=L)
    if n == 4:
        z0 = sym_to_vec(np.diag([2.2, -0.4, -0.4, -0.4]))
    else:
        z0 = L.anchor.copy()
    return CatalogEntry("fixed_trace", problem, z0, ReferenceData(expected_rate="quadratic"))


def _parse_epigraph_params(params):
    kwargs = {}
    for key, value in params.items():
        if key in ("a", "alpha"):
            kwargs["alpha"] = float(value)
        elif key in ("b", "beta"):
            kwargs["beta"] = float(value)
        elif key in ("variant", "y"):
            kwargs["y_variant"] = value
        else:
            raise ValueError(f"unknown epigraph parameter {key!r}")
    if "alpha" not in kwargs:
        raise ValueError("epigraph needs an exponent, e.g. epigraph:a=2,b=0")
    return make_epigraph(**kwargs)


def _parse_fixed_trace_params(params):
    kwargs = {}
    for key, value in params.items():
        if key == "a":
            kwargs["a"] = float(value)
        elif key == "n":
            kwargs["n"] = int(value)
        else:
            raise ValueError(f"unknown fixed_trace parameter {key!r}")
    return make_fixed_trace(**kwargs)


_BUILDERS = {
    "discs3d": lambda params: _no_params("discs3d", params, make_discs3d),
    "ellipses": lambda params: _no_params("ellipses", params, make_ellipses),
    "epigraph": _parse_epigraph_params,
    "eq_ellipsoids": lambda params: _no_params("eq_ellipsoids", params, make_eq_constrained_ellipsoids),
    "socp": lambda params: _no_params("socp", params, make_socp),
    "sdp": lambda params: _no_params("sdp", params, make_sdp_feasibility),
    "fixed_trace": _parse_fixed_trace_params,
}


def _no_params(name, params, builder):
    if params:
        raise ValueError(f"problem {name!r} takes no parameters")
    return builder()


def problem_names():
    return sorted(_BUILDERS)


def resolve(selector: str) -> CatalogEntry:
    """Build the catalog entry named by ``name`` or ``name:key=val,...``."""
    name, _, rest = selector.partition(":")
    if name not in _BUILDERS:
        raise ValueError(f"unknown problem {name!r}; known: {', '.join(problem_names())}")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed parameter {item!r}; expected key=value")
            params[key.strip()] = value.strip()
    return _BUILDERS[name](params)
