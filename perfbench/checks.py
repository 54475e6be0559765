"""Independent checks of ccrm's outputs.

Every check recomputes what it needs with numpy from the problem
statement or from a property the method must have. None calls a ccrm
oracle, and none compares with a stored copy of an earlier output.
The problem statements below restate the catalog's default instances.
"""

from __future__ import annotations

import numpy as np

# Final iterates lie within 1e-12 of each set; constraint residuals in
# distance-like units get a hundredfold margin on top.
FEAS_TOL = 1e-10
# Relative slack for the Fejer inequalities, far above rounding (about
# 1e-16 of the squared distances) and far below a real violation.
FEJER_RTOL = 1e-12
CURVATURE_RTOL = 1e-8
LENS_OMEGA_RTOL = 1e-6
LINEAR_CONSTANT_TOL = 0.01
PRECISION_FLOOR_FACTOR = 1e3 * np.finfo(float).eps


class CheckError(AssertionError):
    """An output of the program fails an independent check."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


def unflatten(v):
    """Symmetric matrix from its isometric flattening (upper triangle,
    row-major, off-diagonals scaled by sqrt(2))."""
    v = np.asarray(v, dtype=float)
    n = int(round((np.sqrt(8 * v.size + 1) - 1) / 2))
    S = np.zeros((n, n))
    iu = np.triu_indices(n)
    S[iu] = v
    off = iu[0] != iu[1]
    S[iu[0][off], iu[1][off]] /= np.sqrt(2.0)
    return S + np.triu(S, 1).T


# -- problem statements: max constraint violation in distance-like units -----

S15 = np.sqrt(15.0)
DISC_CENTERS = (np.zeros(2), np.array([S15, 0.0]))
DISC_RADIUS = 2.0
LENS_CORNERS = (np.array([S15 / 2.0, 0.5]), np.array([S15 / 2.0, -0.5]))


def discs_violation(z):
    p = z[:2]
    return max(
        max(np.linalg.norm(p - c) - DISC_RADIUS for c in DISC_CENTERS),
        abs(z[2]),
    )


def ellipses_violation(z):
    x, y, w = z
    return max(
        np.sqrt(x * x / 4.0 + y * y) - 1.0,
        np.sqrt((x - 1.0) ** 2 + y * y / 4.0) - 1.0,
        abs(w),
    )


def epigraph_violation(z, alpha, beta, variant):
    x, y = z
    ax = abs(x)
    # g / |grad g| turns the epigraph residual into a distance estimate.
    g = (ax**alpha - beta - y) / np.hypot(1.0, alpha * ax ** (alpha - 1.0))
    return max(g, y if variant == "halfplane" else abs(y))


EQ_A, EQ_B = np.ones(4), 2.0
EQ_BALLS = (
    (np.diag([1.0, 1.2, 0.9, 1.1]), np.array([1.0, 0.5, 0.25, 0.25]), 1.2),
    (np.diag([1.1, 0.95, 1.05, 1.0]), np.array([0.0, 0.75, 0.75, 0.5]), 1.3),
)


def eq_ellipsoids_violation(z):
    balls = max(np.linalg.norm(B @ (z - m)) - r for B, m, r in EQ_BALLS)
    return max(balls, eq_ellipsoids_hull_residual(z))


def eq_ellipsoids_hull_residual(z):
    return abs(EQ_A @ z - EQ_B) / np.linalg.norm(EQ_A)


SOCP_A, SOCP_B = np.array([0.0, 1.0, 1.0, 1.0]), 1.5
SOCP_BALL = (np.array([0.3, 0.7, 0.5, 0.3]), 0.7)


def socp_violation(z):
    cone = (np.linalg.norm(z[1:]) - z[0]) / np.sqrt(2.0)
    ball = np.linalg.norm(z - SOCP_BALL[0]) - SOCP_BALL[1]
    return max(cone, ball, socp_hull_residual(z))


def socp_hull_residual(z):
    return abs(SOCP_A @ z - SOCP_B) / np.linalg.norm(SOCP_A)


_SDP_OFF = np.array([[0.0, 0.05, 0.02], [0.05, 0.0, 0.04], [0.02, 0.04, 0.0]])
SDP_TARGET, SDP_RADIUS = np.diag([1.0, 0.8, -0.8]) + _SDP_OFF, 1.02
FIXED_TRACE_TARGET = np.array(
    [
        [1.5, 0.1, 0.0, 0.05],
        [0.1, 0.0, 0.08, 0.0],
        [0.0, 0.08, -0.2, 0.06],
        [0.05, 0.0, 0.06, -0.3],
    ]
)
FIXED_TRACE_RADIUS, FIXED_TRACE_BOUND = 1.17, 0.5


def trace_residual(z):
    S = unflatten(z)
    return abs(np.trace(S) - 1.0) / np.sqrt(S.shape[0])


def sdp_violation(z):
    S = unflatten(z)
    return max(
        -np.linalg.eigvalsh(S)[0],
        np.linalg.norm(S - SDP_TARGET) - SDP_RADIUS,
        trace_residual(z),
    )


def fixed_trace_violation(z):
    S = unflatten(z)
    return max(
        np.linalg.eigvalsh(S)[-1] - FIXED_TRACE_BOUND,
        np.linalg.norm(S - FIXED_TRACE_TARGET) - FIXED_TRACE_RADIUS,
        trace_residual(z),
    )


HULL_STATEMENTS = {
    "eq_ellipsoids": (eq_ellipsoids_violation, eq_ellipsoids_hull_residual),
    "socp": (socp_violation, socp_hull_residual),
    "sdp": (sdp_violation, trace_residual),
    "fixed_trace": (fixed_trace_violation, trace_residual),
}


def check_feasible(violation, z, label):
    v = float(violation(np.asarray(z, dtype=float)))
    require(np.isfinite(v) and v <= FEAS_TOL, f"{label}: final iterate violates a constraint by {v:.3e}")


def check_in_hull(hull_residual, iterates, label):
    """Iterates k >= 1 lie in the common hull."""
    worst = max((float(hull_residual(z)) for z in iterates[1:]), default=0.0)
    require(worst <= FEAS_TOL, f"{label}: an iterate leaves the common hull by {worst:.3e}")


# -- method properties along a trace --------------------------------------------

def check_ccrm_fejer(iterates, s, label):
    """||z+ - s||^2 <= ||z - s||^2 - ||z - z+||^2 / 8 for s in X & Y."""
    Z = np.asarray(iterates, dtype=float)
    d2 = np.sum((Z - s) ** 2, axis=1)
    step2 = np.sum(np.diff(Z, axis=0) ** 2, axis=1)
    excess = d2[1:] + step2 / 8.0 - d2[:-1]
    slack = FEJER_RTOL * (1.0 + d2[:-1] + float(s @ s))
    bad = np.flatnonzero(excess > slack)
    require(bad.size == 0, f"{label}: cCRM decrease inequality fails at step {bad[:1]}")


def check_fejer_monotone(iterates, s, label):
    """||z+ - s|| <= ||z - s|| for s in X & Y."""
    Z = np.asarray(iterates, dtype=float)
    d2 = np.sum((Z - s) ** 2, axis=1)
    slack = FEJER_RTOL * (1.0 + d2[:-1] + float(s @ s))
    bad = np.flatnonzero(d2[1:] - d2[:-1] > slack)
    require(bad.size == 0, f"{label}: MAP is not Fejer monotone at step {bad[:1]}")


# -- rate classes ---------------------------------------------------------------

def check_rate_cell(alpha, beta, method, classification, constant, label):
    """The rate class the theory gives for one epigraph grid cell."""
    if beta == 0.0:
        if method == "map":
            require(classification == "sublinear", f"{label}: MAP at tangency is {classification}")
        else:
            expected = 1.0 - 1.0 / alpha
            require(
                classification == "linear"
                and constant is not None
                and abs(constant - expected) <= LINEAR_CONSTANT_TOL,
                f"{label}: expected linear with constant {expected:.4f}, "
                f"got {classification} ({constant})",
            )
    elif method == "map":
        require(classification == "linear", f"{label}: MAP with a Slater point is {classification}")
    elif method == "ccrm":
        allowed = ("quadratic",) if alpha >= 2.0 else ("superlinear", "quadratic")
        require(classification in allowed, f"{label}: cCRM is {classification}, expected {allowed}")


def check_same_report(a, b, label):
    """Halfplane and line variants give identical reports."""
    keys = ("classification", "constant", "order_estimate", "usable_range")
    for key in keys:
        require(getattr(a, key) == getattr(b, key), f"{label}: variants differ in {key}")
    for key in ("linear_ratios", "quad_ratios"):
        require(
            np.array_equal(getattr(a, key), getattr(b, key)), f"{label}: variants differ in {key}"
        )


# -- diagnosis ------------------------------------------------------------------

def check_omega(omega, label):
    require(np.isfinite(omega) and 0.0 < omega <= 1.0, f"{label}: omega {omega} is not in (0, 1]")


def check_curvature(kappa, expected, label):
    require(
        kappa is not None and abs(kappa - expected) <= CURVATURE_RTOL * max(expected, 1.0),
        f"{label}: curvature {kappa} differs from the analytic {expected}",
    )


def epigraph_corner_curvature(alpha, beta):
    c = beta ** (1.0 / alpha)
    return alpha * (alpha - 1.0) * c ** (alpha - 2.0) / (1.0 + alpha**2 * c ** (2 * alpha - 2)) ** 1.5


def socp_ball_curvature():
    """1 / in-plane radius of the socp ball within its hyperplane."""
    center, radius = SOCP_BALL
    offset = (SOCP_A @ center - SOCP_B) / np.linalg.norm(SOCP_A)
    return 1.0 / np.sqrt(radius**2 - offset**2)


def check_lens_omega(omega, omega_lens, label):
    require(
        abs(omega - omega_lens) <= LENS_OMEGA_RTOL * omega_lens,
        f"{label}: omega {omega} differs from the closed-form-lens value {omega_lens}",
    )


def lens_project(z):
    """Projection onto the discs3d intersection, in closed form.

    In the plane the nearest lens point is the point itself, the nearest
    point of one disc when it lies in the other, or else the nearer of the
    two corners, where both boundary circles meet.
    """
    p = np.asarray(z, dtype=float)[:2]
    inside = [np.linalg.norm(p - c) <= DISC_RADIUS for c in DISC_CENTERS]
    if all(inside):
        q = p
    else:
        q = None
        for i, c in enumerate(DISC_CENTERS):
            if inside[i]:
                continue
            cand = c + (p - c) * (DISC_RADIUS / np.linalg.norm(p - c))
            other = DISC_CENTERS[1 - i]
            if np.linalg.norm(cand - other) <= DISC_RADIUS * (1.0 + 1e-14):
                q = cand
                break
        if q is None:
            q = min(LENS_CORNERS, key=lambda corner: np.linalg.norm(p - corner))
    return np.array([q[0], q[1], 0.0])


def last_quad_ratio(iterates, limit, self_referenced):
    """Last ratio d_{k+1} / d_k^2 over the leading window above the
    double-precision floor; a self-referenced trace drops its last two
    iterates, which carry no information about their own limit."""
    Z = np.asarray(iterates, dtype=float)
    if self_referenced:
        Z = Z[:-2]
    d = np.linalg.norm(Z - limit, axis=1)
    floor = PRECISION_FLOOR_FACTOR * (1.0 + np.linalg.norm(limit))
    above = d > floor
    stop = int(np.argmin(above)) if not above.all() else d.size
    usable = d[:stop]
    require(usable.size >= 3, "trace has fewer than 3 distances above the precision floor")
    return float(usable[-1] / usable[-2] ** 2)


def check_quad_constant(observed, kappas, omega, label):
    kappa = max(k for k in kappas if k is not None)
    bound = 4.0 * kappa / omega
    require(observed <= bound, f"{label}: last quadratic ratio {observed:.4g} exceeds 4 kappa / omega = {bound:.4g}")
