"""Convex feasibility via circumcentered reflections.

Solvers (cCRM, CRM, MAP), exact projection oracles for a catalog of
convex set families, and convergence-rate diagnostics: curvature of
smooth relative boundaries, local error-bound estimation, and
classification of linear / superlinear / quadratic tails.
"""

from .circumcenter import CircumResult, circumcenter
from .diagnostics import (
    CurvatureValue,
    QuadConstantReport,
    RateReport,
    curvature,
    estimate_omega,
    quad_constant_check,
    rate_report,
    trace_reference_distances,
)
from .errors import (
    ConvergenceError,
    GeometryError,
    NonFiniteError,
    RegularityError,
    UnsupportedOperation,
)
from .linalg import (
    least_squares_min_norm,
    orthonormal_nullspace,
    sym_to_vec,
    symmetric_eigh,
    vec_to_sym,
)
from .sets import (
    AffineSubspace,
    Ball,
    BallLens,
    Cap,
    Ellipsoid,
    EllipsoidLens,
    EmbeddedOracle,
    Halfspace,
    HyperboloidSheet,
    Hyperplane,
    IsometricImage,
    PowerEpigraph,
    SecondOrderCone,
    SetOracle,
    SpectralSet,
    boundary_eval,
    in_hull_coordinates,
)
from .solvers import (
    FeasibilityProblem,
    KnownConstants,
    SolveTrace,
    SolverConfig,
    ccrm_step,
    crm_step,
    epigraph_scalar_step,
    isometry_reduce,
    map_step,
    run,
)

__version__ = "0.1.0"
