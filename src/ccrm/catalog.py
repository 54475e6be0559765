"""Constructors for the benchmark feasibility problems, with reference data.

Each entry packages the problem, a suggested starting point, and whatever
is known analytically about the limit: the reference solution, boundary
curvatures there, and the expected convergence rate of the centralized
method. Constructors are pure and deterministic, and each builds one fixed
instance; only the epigraph's shape and the fixed-trace bound are
parameters. Custom problems are built from :mod:`ccrm.sets` or loaded
from a problem file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import sym_to_vec
from .sets import (
    AffineSubspace,
    Ball,
    Ellipsoid,
    EmbeddedOracle,
    Halfspace,
    HyperboloidSheet,
    Hyperplane,
    PowerEpigraph,
    SpectralSet,
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
        X, Y, reference_solution=zbar, known_constants=KnownConstants(kappa_x=0.5, kappa_y=0.5)
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
    major-axis tips (2) and the minor-axis tips (1/4). No rate is expected:
    the lens wedge is wide, and from the suggested start cCRM lands at once
    on a point strictly inside Y (g_Y about -0.56), so there is no tail to
    classify.
    """
    plane = _plane_z3()
    X = EmbeddedOracle(Ellipsoid(np.diag([0.25, 1.0])), plane)
    Y = EmbeddedOracle(Ellipsoid(np.diag([1.0, 0.25]), center=[1.0, 0.0]), plane)
    problem = FeasibilityProblem(X, Y)
    reference = ReferenceData(expected_rate=None)
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
    X = PowerEpigraph(alpha, beta)
    if y_variant not in EPIGRAPH_VARIANTS:
        raise ValueError(f"unknown variant {y_variant!r}; expected one of {EPIGRAPH_VARIANTS}")
    Y = (Halfspace if y_variant == "halfplane" else Hyperplane)([0.0, 1.0], 0.0)

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


def _soc_within(L):
    """K & L as a :class:`~ccrm.sets.HyperboloidSheet` in L's orthonormal
    coordinates v, z = anchor + B v, for K = {(t, u) : ||u|| <= t} and a
    hyperplane L = {<a, z> = b} whose normal has no cone-axis component.

    The anchor b a / ||a||^2 then has t = 0, and B v has u orthogonal to
    the anchor, so t = <e, v> with e = B^T e_1 and ||u||^2 = d^2 +
    ||v - <e, v> e||^2 with d = |b| / ||a||: the region above one sheet of
    a hyperboloid. The descriptor h(||w||) - t is the cone's ||u|| - t
    restricted to L.
    """
    if L.normal[0] != 0.0:
        raise ValueError("the hyperplane's normal has a cone-axis component")
    d = abs(L.offset) / float(np.linalg.norm(L.normal))
    return EmbeddedOracle(HyperboloidSheet(L.basis[0], d), L)


def _eq_ellipsoids_leaves():
    """(e1, e2, L) of the eq_ellipsoids instance: the ambient ellipsoids
    {||B_i (z - c_i)|| <= r_i} in R^4 and L = {z_1 + z_2 + z_3 + z_4 = 2}."""
    B1 = np.diag([1.0, 1.2, 0.9, 1.1])
    B2 = np.diag([1.1, 0.95, 1.05, 1.0])
    e1 = _ellipsoid_from_ball(B1, B1 @ np.array([1.0, 0.5, 0.25, 0.25]), 1.2)
    e2 = _ellipsoid_from_ball(B2, B2 @ np.array([0.0, 0.75, 0.75, 0.5]), 1.3)
    return e1, e2, Hyperplane([1.0, 1.0, 1.0, 1.0], 2.0)


def make_eq_constrained_ellipsoids() -> CatalogEntry:
    """Two anisotropic balls of R^4 intersected with a hyperplane L, each reduced into L.

    E & L is itself an ellipsoid in L's orthonormal coordinates (see
    :func:`_ellipsoid_within`), so X and Y are
    :class:`~ccrm.sets.EmbeddedOracle` ellipsoids sharing L, each projected
    by one scalar Newton solve. No rate is expected: from the suggested
    start cCRM lands at once on a point strictly inside X (g_X about
    -0.97), so there is no tail to classify.
    """
    e1, e2, L = _eq_ellipsoids_leaves()
    problem = FeasibilityProblem(_ellipsoid_within(e1, L), _ellipsoid_within(e2, L))
    z0 = L.anchor + 2.0 * (np.arange(L.dim) == 0)
    return CatalogEntry("eq_ellipsoids", problem, z0, ReferenceData(expected_rate=None))


def make_socp() -> CatalogEntry:
    """Second-order-cone feasibility within an affine subspace of R^4.

    X is the cone {||(z_2, z_3, z_4)|| <= z_1} cut by the hyperplane L =
    {z_2 + z_3 + z_4 = 1.5}. L is parallel to the cone's axis, so X is
    the region above a hyperboloid sheet in L's coordinates (see
    :func:`_soc_within`), projected by one scalar Newton solve; Y is a
    ball within L (closed form).
    """
    L = Hyperplane([0.0, 1.0, 1.0, 1.0], 1.5)
    X = _soc_within(L)
    Y = Ball([0.3, 0.7, 0.5, 0.3], 0.7, L)
    problem = FeasibilityProblem(X, Y)
    z0 = np.array([0.2, 1.5, 0.4, 0.5])
    return CatalogEntry("socp", problem, z0, ReferenceData(expected_rate="quadratic"))


def make_sdp_feasibility() -> CatalogEntry:
    """Semidefinite feasibility: tr(Sigma) = 1, Sigma >= 0, ||Sigma - hat||_F <= r.

    Operates on isometrically flattened symmetric 3 x 3 matrices. X =
    {lambda >= 0, tr = 1} is a closed-form spectral set whose trace
    hyperplane L is the common hull; Y is the Frobenius ball within L
    (closed form). A negative direction in the target pulls the limit onto
    the cone boundary (rank 2); the radius barely clears the distance to
    PSD within L, keeping the intersection thin enough that the quadratic
    tail is observable.
    """
    off = np.array([[0.0, 0.05, 0.02], [0.05, 0.0, 0.04], [0.02, 0.04, 0.0]])
    X = SpectralSet(3, lo=0.0, trace=1.0)
    Y = Ball(sym_to_vec(np.diag([1.0, 0.8, -0.8]) + off), 1.02, X.affine_hull)
    problem = FeasibilityProblem(X, Y)
    z0 = sym_to_vec(np.diag([2.0, 0.4, -1.4]) + 0.3 * off)
    return CatalogEntry("sdp", problem, z0, ReferenceData(expected_rate="quadratic"))


def make_fixed_trace(a=0.5) -> CatalogEntry:
    """Fixed-trace spectral feasibility on 4 x 4 matrices: tr = 1, lambda_max <= a, Frobenius ball.

    The trace constraint is the common hull; the spectral constraint has a
    C^2 relative boundary wherever the leading eigenvalue is simple.
    lambda_max of the target exceeds the bound, and the radius barely
    clears the distance to the spectral set, so the limit sits on the
    spectral boundary with a visible quadratic tail.
    """
    Sigma_hat = np.array(
        [
            [1.5, 0.1, 0.0, 0.05],
            [0.1, 0.0, 0.08, 0.0],
            [0.0, 0.08, -0.2, 0.06],
            [0.05, 0.0, 0.06, -0.3],
        ]
    )
    X = SpectralSet(4, hi=a, trace=1.0)
    Y = Ball(sym_to_vec(Sigma_hat), 1.17, X.affine_hull)
    problem = FeasibilityProblem(X, Y)
    z0 = sym_to_vec(np.diag([2.2, -0.4, -0.4, -0.4]))
    return CatalogEntry("fixed_trace", problem, z0, ReferenceData(expected_rate="quadratic"))


_BUILDERS = {
    "discs3d": make_discs3d,
    "ellipses": make_ellipses,
    "epigraph": make_epigraph,
    "eq_ellipsoids": make_eq_constrained_ellipsoids,
    "socp": make_socp,
    "sdp": make_sdp_feasibility,
    "fixed_trace": make_fixed_trace,
}

# Selector keys by the builder argument they set; every value but the variant is a float.
_KEYS = {
    "epigraph": {"a": "alpha", "alpha": "alpha", "b": "beta", "beta": "beta",
                 "variant": "y_variant", "y": "y_variant"},
    "fixed_trace": {"a": "a"},
}


def problem_names():
    return sorted(_BUILDERS)


def resolve(selector: str) -> CatalogEntry:
    """Build the catalog entry named by ``name`` or ``name:key=val,...`` (keys in ``_KEYS``)."""
    name, _, rest = selector.partition(":")
    if name not in _BUILDERS:
        raise ValueError(f"unknown problem {name!r}; known: {', '.join(problem_names())}")
    params = {}
    for item in rest.split(",") if rest else ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"malformed parameter {item!r}; expected key=value")
        params[key.strip()] = value.strip()
    keys = _KEYS.get(name)
    if params and keys is None:
        raise ValueError(f"problem {name!r} takes no parameters")
    kwargs = {}
    for key, value in params.items():
        if key not in keys:
            raise ValueError(f"unknown {name} parameter {key!r}")
        kwargs[keys[key]] = value if keys[key] == "y_variant" else float(value)
    if name == "epigraph" and "alpha" not in kwargs:
        raise ValueError("epigraph needs an exponent, e.g. epigraph:a=2,b=0")
    return _BUILDERS[name](**kwargs)
