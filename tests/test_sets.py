import inspect
import math
import re
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import ccrm.sets
from ccrm import catalog
from ccrm.diagnostics import curvature
from ccrm.errors import ConvergenceError, NonFiniteError, RegularityError, UnsupportedOperation
from ccrm.linalg import sym_to_vec, vec_to_sym
from ccrm.sets import (
    AffineSubspace,
    Ball,
    Cap,
    Ellipsoid,
    EmbeddedOracle,
    Halfspace,
    HyperboloidSheet,
    Hyperplane,
    IsometricImage,
    PowerEpigraph,
    SecondOrderCone,
    SpectralSet,
    _as_point,
    _project_eigs,
    boundary_eval,
)

from helpers import (
    big_norm,
    cap_projection_kkt,
    dykstra_project,
    numpy_ball_project,
    numpy_project_eigs,
    oracle_zoo,
    ordered_box_enumeration,
    random_orthogonal,
    random_symmetric,
    scatter_project_eigs,
    scatter_spectral_project,
    spectral_box_enumeration,
)


# --- basic closed forms ---------------------------------------------------

def test_ball_radial():
    ball = Ball([0.0, 0.0, 0.0], 2.0)
    assert np.allclose(ball.project([3.0, 0.0, 0.0]), [2.0, 0.0, 0.0])


def test_halfspace_inside_is_identity():
    hs = Halfspace([0.0, 1.0], 0.0)
    assert np.allclose(hs.project([1.0, -5.0]), [1.0, -5.0])


def test_halfspace_reflect_mirror():
    hs = Halfspace([0.0, 1.0], 0.0)
    assert np.allclose(hs.reflect([0.0, 3.0]), [0.0, -3.0])


def test_ball_reflect_through_center():
    ball = Ball([0.0, 0.0], 2.0)
    assert np.allclose(ball.reflect([4.0, 0.0]), [0.0, 0.0])


def test_reflect_inside_is_identity():
    ball = Ball([0.0, 0.0], 2.0)
    z = np.array([0.3, -0.4])
    assert np.allclose(ball.reflect(z), z)


def test_membership_iff_fixed_point():
    ball = Ball([0.0, 0.0], 1.0)
    assert ball.contains([0.5, 0.5])
    assert not ball.contains([1.2, 0.0])


# --- affine subspaces -----------------------------------------------------

def test_affine_projection_line():
    L = AffineSubspace([[1.0, 1.0]], [1.0])
    assert np.allclose(L.project([0.0, 0.0]), [0.5, 0.5])


def test_affine_identity_on_members():
    L = AffineSubspace([[1.0, 1.0]], [1.0])
    z = np.array([0.25, 0.75])
    assert np.allclose(L.project(z), z)


def test_affine_orthogonality_oracle():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(2, 5))
    b = rng.normal(size=2)
    L = AffineSubspace(A, b)
    z = rng.normal(size=5)
    p = L.project(z)
    assert np.linalg.norm(A @ p - b) <= 1e-10
    # residual is orthogonal to the direction space
    assert np.max(np.abs(L.basis.T @ (z - p))) <= 1e-10


def test_affine_inconsistent_system_rejected():
    with pytest.raises(ValueError):
        AffineSubspace([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])


def test_affine_local_coordinates_round_trip():
    L = AffineSubspace([[0.0, 0.0, 1.0]], [2.0])
    z = np.array([1.0, -3.0, 2.0])
    assert np.allclose(L.from_local(L.to_local(z)), z, atol=1e-12)


def test_affine_reflection_involution():
    rng = np.random.default_rng(4)
    L = AffineSubspace(rng.normal(size=(2, 4)), rng.normal(size=2))
    H = Hyperplane([1.0, -1.0, 2.0, 0.0], 0.3)
    for oracle in (L, H):
        for _ in range(100):
            z = rng.normal(size=4) * 3.0
            assert np.linalg.norm(oracle.reflect(oracle.reflect(z)) - z) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [5e-324, 1e-200, 1.0, 1e200])
def test_affine_sets_project_at_every_normal_scale(scale):
    # {x + y <= 0} and {x + y = 1} with the normal scaled: ||n||^2 under- or
    # overflows at 1e-200 and 1e200, and 5e-324 is the smallest subnormal.
    z = [1.0, 2.0]
    assert np.allclose(Halfspace([scale, scale], 0.0).project(z), [-0.5, 0.5], rtol=0, atol=1e-15)
    assert np.allclose(Hyperplane([scale, scale], 0.0).project(z), [-0.5, 0.5], rtol=0, atol=1e-15)
    assert np.allclose(Hyperplane([scale, scale], scale).project(z), [0.0, 1.0], rtol=0, atol=1e-15)
    assert Halfspace([scale, -scale], 0.0).contains(z)
    H = Hyperplane([scale, 2.0 * scale], scale)
    assert H.normal.tolist() == [scale, 2.0 * scale] and H.offset == scale


@pytest.mark.filterwarnings("error")
def test_affine_sets_refuse_an_offset_past_the_range_and_a_distance_that_overflows():
    Hyperplane([1e160, 1e160], 1e160)  # builds: its consistency residual is a hypot
    for cls in (Halfspace, Hyperplane):
        with pytest.raises(ValueError, match="nonzero"):
            cls([0.0, -0.0], 1.0)
        with pytest.raises(ValueError, match="overflows"):
            cls([1e-300, 1e-300], 1e300)
        with pytest.raises(NonFiniteError, match="overflows"):
            cls([1.0, 1.0], 0.0).project([1.5e308, 1.5e308])
    assert Halfspace([1.0, 1.0], 0.0).project([-1.5e308, -1.5e308]).tolist() == [-1.5e308, -1.5e308]


def test_affine_set_kernels_match_the_basis_form():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 7):
        normal, offset = rng.normal(size=n), float(rng.normal())
        H, L = Hyperplane(normal, offset), AffineSubspace(normal[None, :], [offset])
        hs = Halfspace(normal, offset)
        for _ in range(20):
            z = 3.0 * rng.normal(size=n)
            assert np.allclose(H.project(z), L.project(z), rtol=0, atol=1e-14)
            expected = L.project(z) if normal @ z > offset else z
            assert np.allclose(hs.project(z), expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("variant", catalog.EPIGRAPH_VARIANTS)
def test_epigraph_y_kernel_is_bitwise_the_numpy_formula(variant):
    # The Table 2 cells' Y, {y <= 0} or {y = 0}: the scalar kernel makes the
    # float operations of the numpy formulas it replaced, so the tables stay
    # byte-identical. Only the sign of a zero differs: the line's basis form
    # adds its anchor, which turns an input -0.0 into 0.0; adding 0.0 to both
    # sides does the same.
    Y = catalog.make_epigraph(2.0, 0.0, variant).problem.Y
    normal, offset = Y.normal, Y.offset
    L = AffineSubspace(normal[None, :], [offset])

    def numpy_formula(z):
        if variant != "halfplane":
            return L.anchor + L.basis @ (L.basis.T @ (z - L.anchor))
        excess = float(normal @ z) - offset
        return z.copy() if excess <= 0.0 else z - (excess / float(normal @ normal)) * normal

    rng = np.random.default_rng(9)
    points = [rng.normal(size=2) * 10.0 ** rng.integers(-150, 151) for _ in range(300)]
    points += [np.array(p) for p in ([0.0, 0.0], [-0.0, -0.0], [-0.0, 1.0], [1.0, -0.0], [-1e-320, 5e-324])]
    for z in points:
        assert (Y.project(z) + 0.0).tobytes() == (numpy_formula(z) + 0.0).tobytes(), z


def test_explicit_basis_validation():
    with pytest.raises(ValueError):
        AffineSubspace([[0.0, 0.0, 1.0]], [0.0], basis=np.eye(3)[:, :2] * 2.0)
    with pytest.raises(ValueError):
        AffineSubspace([[0.0, 0.0, 1.0]], [0.0], basis=np.eye(3)[:, 1:])


# --- ellipsoid ------------------------------------------------------------

def test_ellipsoid_interior_identity():
    E = Ellipsoid(np.diag([0.25, 1.0]))
    z = np.array([0.5, 0.5])
    assert np.allclose(E.project(z), z)


def test_ellipsoid_axis_point():
    E = Ellipsoid(np.diag([0.25, 1.0]))
    assert np.allclose(E.project([4.0, 0.0]), [2.0, 0.0], atol=1e-10)


def test_ellipsoid_matches_boundary_scan():
    E = Ellipsoid(np.diag([0.25, 1.0]))
    z = np.array([3.0, 2.0])
    p = E.project(z)
    # independent oracle: dense boundary scan plus golden-section refinement
    ts = np.linspace(0.0, 2.0 * np.pi, 400001)
    bd = np.column_stack([2.0 * np.cos(ts), np.sin(ts)])
    i = int(np.argmin(np.linalg.norm(bd - z, axis=1)))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    f = lambda t: np.linalg.norm(np.array([2.0 * np.cos(t), np.sin(t)]) - z)
    a, b = lo, hi
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(200):
        if f(c) < f(d):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
    t = 0.5 * (a + b)
    assert np.linalg.norm(p - [2.0 * np.cos(t), np.sin(t)]) <= 1e-6


def test_ellipsoid_kkt_alignment():
    rng = np.random.default_rng(8)
    W = rng.normal(size=(3, 3))
    Q = W @ W.T + np.eye(3)
    c = rng.normal(size=3)
    E = Ellipsoid(Q, c)
    z = c + rng.normal(size=3) * 5.0
    p = E.project(z)
    # on the boundary, with z - p parallel to Q (p - c)
    assert abs(float((p - c) @ Q @ (p - c)) - 1.0) <= 1e-10
    g = Q @ (p - c)
    cosang = (z - p) @ g / (np.linalg.norm(z - p) * np.linalg.norm(g))
    assert cosang >= 1.0 - 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", range(0, 151, 10))
def test_ellipsoid_projects_far_points(k):
    # Newton from lam = 0 grew lam about 1.5x per step, so this raised
    # ConvergenceError from k = 40 on.
    E = Ellipsoid([[1.0, 0.2], [0.2, 0.5]], center=[0.3, -0.2])
    z = np.array([1.0, -2.0]) * 10.0**k
    p = E.project(z)
    assert abs(E._boundary(p)[0]) <= 1e-12
    g, r = E.Q @ (p - E.center), (z - p) / 10.0**k
    assert r @ g >= (1.0 - 1e-12) * np.linalg.norm(r) * np.linalg.norm(g)
    assert np.linalg.norm(E.project(p) - p) <= 1e-12


def test_ellipsoid_outputs_project_to_themselves():
    # Newton stopped at |f| <= 1e-12 from the outside, so 1045 of these
    # 2000 outputs moved on a second projection (by up to ~1e-12).
    rng = np.random.default_rng(1)
    W, c = rng.normal(size=(4, 4)), rng.normal(size=4)
    E = Ellipsoid(W @ W.T / 4.0 + np.eye(4) / 2.0, c)
    for z in c + 3.0 * rng.normal(size=(2000, 4)):
        p = E.project(z)
        assert np.array_equal(E.project(p), p)
        assert E._boundary(p)[0] <= 1e-15


def test_ellipsoid_requires_spd():
    with pytest.raises(ValueError):
        Ellipsoid(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros((0, 0)))


# --- second-order cone ----------------------------------------------------

def test_soc_inside():
    K = SecondOrderCone(2)
    z = np.array([1.0, 0.5])
    assert np.allclose(K.project(z), z)


def test_soc_polar_maps_to_origin():
    K = SecondOrderCone(2)
    assert np.allclose(K.project([-2.0, 0.0]), [0.0, 0.0])


def test_soc_boundary_case():
    K = SecondOrderCone(2)
    p = K.project([0.0, 2.0])
    assert np.allclose(p, [1.0, 1.0])
    # independent oracle: minimize over a fine discretization of the cone
    ts = np.linspace(0.0, 3.0, 20001)
    cloud = np.concatenate(
        [np.column_stack([ts, s * ts]) for s in np.linspace(-1.0, 1.0, 801)]
    )
    i = np.argmin(np.linalg.norm(cloud - np.array([0.0, 2.0]), axis=1))
    assert np.linalg.norm(p - cloud[i]) <= 2e-3


def test_soc_apex_is_fixed():
    K = SecondOrderCone(3)
    assert np.allclose(K.project([0.0, 0.0, 0.0]), 0.0)


def _soc_points(rng, n):
    """Seeded points at 1e-300 ... 1e300: random draws, and draws moved
    inside, onto the polar cone and just off the cone's boundary."""
    for k in range(-300, 301, 50):
        for _ in range(4):
            z = 10.0**k * rng.normal(size=n)
            nu = big_norm(z[1:])
            yield z
            yield np.concatenate(([2.0 * nu], z[1:]))
            yield np.concatenate(([-2.0 * nu], z[1:]))
            yield np.concatenate(([0.999 * nu], z[1:]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", range(2, 11))
def test_soc_projection_is_its_closed_form_bitwise(n):
    # P(t, u) is (t, u) inside, 0 on the polar cone -K, and else s (1, u / ||u||)
    # with s = (t + ||u||) / 2.
    K = SecondOrderCone(n)
    for z in _soc_points(np.random.default_rng(n), n):
        t, u = z[0], z[1:]
        nu = ccrm.sets._norm(u)
        if nu <= t:
            want = z
        elif nu <= -t:
            want = np.zeros(n)
        else:
            s = 0.5 * (t + nu)
            want = np.concatenate(([s], u * (s / nu)))
        assert K.project(z).tobytes() == want.tobytes(), z


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_hyperboloid_sheet_with_zero_d_is_the_second_order_cone(n):
    # The cone is the sheet of axis e_1 (here given unnormalized) and d = 0,
    # in projection and descriptor alike.
    K, sheet = SecondOrderCone(n), HyperboloidSheet(3.0 * np.eye(n)[0], 0.0)
    assert isinstance(K, HyperboloidSheet) and (K.d, sheet.d) == (0.0, 0.0)
    assert np.array_equal(K.axis, sheet.axis)
    for z in _soc_points(np.random.default_rng(10 + n), n):
        assert K.project(z).tobytes() == sheet.project(z).tobytes()
        try:
            want = boundary_eval(K, z)
        except RegularityError:
            with pytest.raises(RegularityError):
                boundary_eval(sheet, z)
            continue
        got = boundary_eval(sheet, z)
        assert got[0] == want[0] and all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))


def test_soc_descriptor_is_finite_far_out():
    # ||u|| overflowed np.linalg.norm here, and the descriptor was refused
    # as not finite.
    K = SecondOrderCone(4)
    z = 1e300 * np.array([1.0, 0.6, 0.8, 0.0])
    g, grad, hess = boundary_eval(K, z)
    assert abs(g) <= 1e-15 * 1e300
    assert np.allclose(grad, [-1.0, 0.6, 0.8, 0.0], rtol=0.0, atol=1e-15)
    assert np.all(np.isfinite(hess)) and np.abs(hess).max() <= 1e-300


# --- hyperboloid sheet ----------------------------------------------------

def _sheet_points(rng, sheet):
    """Seeded points at 1e-3 ... 1e300, plus points near the asymptotic cone
    (t = -r, t = -1.05 r, t = r) where the normal equation is hardest; on a
    coordinate axis t = -r holds exactly, and the root is (r d^2 / 4)^(1/3)
    against a start near d."""
    perp = np.linalg.svd(sheet.axis[None, :])[2][1]
    for k in (-3, 0, 3, 10, 50, 150, 300):
        for _ in range(20):
            yield 10.0**k * rng.normal(size=sheet.dim)
        for tf in (-1.0, -1.0 + 1e-8, -1.05, 1.0 - 1e-8):
            yield 10.0**k * (tf * sheet.axis + perp)


@pytest.mark.filterwarnings("error")
def test_hyperboloid_sheet_projection_meets_its_optimality_system():
    # x on the boundary g = 0 with z - x a nonnegative multiple of grad g(x)
    # is the optimality system of the projection onto this convex set.
    rng = np.random.default_rng(81)
    sheets = [HyperboloidSheet([1.0, 0.5, -0.5], 0.8), HyperboloidSheet(rng.normal(size=4), 2.5),
              HyperboloidSheet([0.0, 0.0, 3.0], 0.5)]
    for sheet in sheets:
        for z in _sheet_points(rng, sheet):
            x = sheet.project(z)
            g, grad, _ = sheet._boundary(x)
            if np.array_equal(x, z):
                assert g <= 0.0
                continue
            assert abs(g) <= 1e-14 * max(1.0, big_norm(x))
            n, r = grad / np.linalg.norm(grad), z - x
            assert n @ r > 0.0
            assert big_norm(r - (n @ r) * n) <= 1e-12 * max(1.0, big_norm(z))
            assert big_norm(sheet.project(x) - x) <= 1e-14 * max(1.0, big_norm(x))


def test_hyperboloid_sheet_vertex_is_smooth():
    sheet = HyperboloidSheet([0.0, 2.0, 0.0], 0.5)
    assert np.array_equal(sheet.axis, [0.0, 1.0, 0.0])
    # a point on the axis below the vertex d e projects to it
    assert np.array_equal(sheet.project([0.0, -3.0, 0.0]), [0.0, 0.5, 0.0])
    # t = sqrt(d^2 + rho^2) has curvature 1 / d at its vertex
    assert curvature(sheet, [0.0, 0.5, 0.0]).kappa == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize(
    "axis,d",
    [([0.0, 0.0], 1.0), ([1.0, 0.0], -1.0), ([1.0, 0.0], -1e-300), ([1.0, 0.0], np.inf),
     ([1.0, 0.0], np.nan), ([1.0, np.nan], 1.0)],
    ids=["zero-axis", "negative-d", "tiny-negative-d", "inf-d", "nan-d", "nan-axis"],
)
def test_hyperboloid_sheet_rejects_bad_parameters(axis, d):
    with pytest.raises(ValueError):
        HyperboloidSheet(axis, d)


def test_hyperboloid_sheet_accepts_zero_d():
    # d = 0 is the second-order cone about the axis: its apex is a point of
    # the set, its descriptor is refused there, and the polar cone projects
    # to the apex.
    sheet = HyperboloidSheet([0.0, 2.0, 0.0], 0.0)
    assert sheet.d == 0.0
    assert np.array_equal(sheet.project([0.0, -3.0, 0.0]), [0.0, 0.0, 0.0])
    assert np.array_equal(sheet.project([1.0, -3.0, 0.0]), [0.0, 0.0, 0.0])
    assert np.array_equal(sheet.project([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
    assert np.allclose(sheet.project([2.0, 0.0, 0.0]), [1.0, 1.0, 0.0], rtol=0.0, atol=1e-15)
    with pytest.raises(RegularityError, match="apex"):
        boundary_eval(sheet, [0.0, 0.0, 0.0])


# --- power epigraph -------------------------------------------------------

def bisect_map_normal_equation(alpha, x, lo=0.0, hi=None):
    # independent root of u (1 + alpha u^(2 alpha - 2)) = x
    f = lambda u: u * (1.0 + alpha * u ** (2.0 * alpha - 2.0)) - x
    hi = hi if hi is not None else max(1.0, x)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_epigraph_projection_of_unit_abscissa():
    X = PowerEpigraph(2.0, 0.0)
    p = X.project([1.0, 0.0])
    u = bisect_map_normal_equation(2.0, 1.0)
    assert abs(u - 0.5898) <= 5e-4
    assert np.allclose(p, [u, u**2], atol=1e-12)


def test_epigraph_inside_identity():
    X = PowerEpigraph(2.0, 0.0)
    z = np.array([0.5, 1.0])
    assert np.allclose(X.project(z), z)


def test_epigraph_mirror_symmetry():
    X = PowerEpigraph(2.5, 0.3)
    p_pos = X.project([0.8, -1.0])
    p_neg = X.project([-0.8, -1.0])
    assert np.allclose(p_neg, [-p_pos[0], p_pos[1]], atol=1e-14)


def test_epigraph_vertex_attracts_axis_points():
    X = PowerEpigraph(1.5, 1.0)
    assert np.allclose(X.project([0.0, -3.0]), [0.0, -1.0])


def test_epigraph_shifted_reuses_unshifted():
    a, b = 2.0, 1.0
    shifted = PowerEpigraph(a, b)
    base = PowerEpigraph(a, 0.0)
    z = np.array([1.3, -0.9])
    p = shifted.project(z)
    q = base.project([z[0], z[1] + b])
    assert np.allclose(p, [q[0], q[1] - b], atol=1e-14)


def test_epigraph_rejects_bad_exponent():
    with pytest.raises(ValueError):
        PowerEpigraph(1.0, 0.0)
    with pytest.raises(ValueError):
        PowerEpigraph(2.0, -0.1)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_epigraph_boundary_at_the_vertex(beta):
    # At x = 0 (the beta = 0 limit point of the rate table) the second
    # derivative alpha (alpha - 1) |x|^(alpha - 2) is unbounded for
    # alpha < 2, 2 for alpha = 2 and 0 for alpha > 2.
    vertex = [0.0, -beta]
    with pytest.raises(RegularityError, match="not C\\^2 at the vertex"):
        boundary_eval(PowerEpigraph(1.5, beta), vertex)
    for alpha, gxx in ((2.0, 2.0), (3.0, 0.0)):
        g, grad, hess = boundary_eval(PowerEpigraph(alpha, beta), vertex)
        assert g == 0.0 and grad.tolist() == [0.0, -1.0]
        assert hess.tolist() == [[gxx, 0.0], [0.0, 0.0]]
    assert curvature(PowerEpigraph(2.0, beta), vertex).kappa == 2.0


def test_epigraph_optimality_against_curve_scan():
    X = PowerEpigraph(3.0, 0.0)
    z = np.array([0.9, 0.1])
    p = X.project(z)
    us = np.linspace(0.0, 1.5, 300001)
    cloud = np.column_stack([us, us**3])
    i = np.argmin(np.linalg.norm(cloud - z, axis=1))
    assert np.linalg.norm(p - cloud[i]) <= 1e-4


@pytest.mark.parametrize(
    "alpha, z",
    [(3.0, [1e25, 0.0]), (2.0, [1e53, 0.0]), (1.5, [1e118, 0.0]), (1.5, [-5.076944775457359e86, -4.3638539562144405e82])],
)
def test_epigraph_projects_far_points_near_the_axis(alpha, z):
    # From u = 1 Newton overshoots, then descends by only (2 alpha - 1) /
    # (2 alpha - 2) per step: on the x-axis from these points on, it spent
    # its whole budget. Below the axis (the last case) it also cycled
    # between two floats 4 ulps apart, where the residual is rounding noise.
    z = np.array(z)
    (x0, y0), p = z.tolist(), PowerEpigraph(alpha).project(z)
    x, y = p.tolist()
    assert math.copysign(1.0, x) == math.copysign(1.0, x0) and y >= abs(x) ** alpha * (1.0 - 1e-14)

    # The root of the normal equation by plain bisection, geometric while
    # the bracket is wide, as an independent reference.
    def normal(u):
        return (u - abs(x0)) + alpha * u ** (alpha - 1.0) * (u**alpha - y0)

    lo, hi = 0.0, abs(x0)
    for _ in range(3000):
        mid = math.sqrt(lo) * math.sqrt(hi) if 0.0 < 4.0 * lo < hi else 0.5 * (lo + hi)
        if normal(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    assert abs(abs(x) - hi) <= 1e-12 * hi
    # <z - p, q - p> <= 0 over points q of the set: of the boundary around p, and above it.
    r = z - p
    for q in [np.array([s * x, abs(s * x) ** alpha]) for s in (0.0, 0.5, 0.9, 1.1, 2.0)] + [p + [0.0, abs(y)]]:
        assert float(r @ (q - p)) <= 1e-9 * big_norm(r) * big_norm(q - p)


def _assert_projects_onto_the_boundary(oracle, z):
    p = oracle.project(z)
    assert np.all(np.isfinite(p))
    assert p[1] == pytest.approx(abs(p[0]) ** oracle.alpha - oracle.beta, rel=1e-15)
    assert np.array_equal(oracle.project(p), p)


@pytest.mark.parametrize("alpha, beta", [(2.0, 0.5), (3.0, 1.0)])
@pytest.mark.parametrize("z", [[1e160, 0.0], [-1e160, 1e10]], ids=["right", "left"])
def test_epigraph_projection_overflow_is_typed(alpha, beta, z):
    # |x|^alpha overflows a float, so the point lies outside the set. Newton
    # projects it, unless its own powers overflow too (alpha = 3 on the
    # x-axis); that failure must be the package's own ConvergenceError,
    # which run() and the CLI handle, not OverflowError.
    oracle = PowerEpigraph(alpha, beta)
    if alpha == 3.0 and z[1] == 0.0:
        with pytest.raises(ConvergenceError, match="overflows"):
            oracle.project(z)
    else:
        _assert_projects_onto_the_boundary(oracle, z)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_epigraph_projects_the_x_axis_up_to_newtons_overflow(alpha):
    # The inside test's |x|^alpha overflows from 1e103 (alpha = 3), 1e155
    # (alpha = 2) and 1e206 (alpha = 1.5) on; Newton then projects every
    # scanned point, except at alpha = 3 from 2.1e155 on, where its first
    # step overflows as well.
    oracle, raised = PowerEpigraph(alpha), []
    for e in range(100, 301):
        try:
            _assert_projects_onto_the_boundary(oracle, [10.0**e, 0.0])
        except ConvergenceError:
            raised.append(e)
    assert raised == (list(range(156, 301)) if alpha == 3.0 else [])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [[1e250, -1.0], [1e250, -1e-4], [1e160, -1.0]])
def test_epigraph_projects_far_points_below_the_x_axis(z):
    # Newton's restart guess (x0 / (alpha |y0|))^(1 / (alpha - 1)) overflows
    # here, and the projection raised; the restart now takes the far field's
    # other root, (x0 / alpha)^(1 / (2 alpha - 1)), the smaller one.
    _assert_projects_onto_the_boundary(PowerEpigraph(1.5), z)


# --- psd cone and spectral box --------------------------------------------

def test_psd_clips_negative_eigenvalue():
    z = sym_to_vec(np.diag([1.0, -1.0]))
    p = SpectralSet(2, lo=0.0).project(z)
    assert np.allclose(vec_to_sym(p), np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_projection_nearest_oracle():
    rng = np.random.default_rng(12)
    S = random_symmetric(rng, 3)
    p = vec_to_sym(SpectralSet(3, lo=0.0).project(sym_to_vec(S)))
    w = np.linalg.eigvalsh(p)
    assert w.min() >= -1e-12
    # optimality: against many random PSD candidates
    for _ in range(200):
        W = rng.normal(size=(3, 3))
        cand = W @ W.T * 0.3
        assert np.linalg.norm(S - p) <= np.linalg.norm(S - cand) + 1e-10


def test_spectral_box_feasible_identity():
    S = np.diag([0.5, 0.3, 0.2])
    X = SpectralSet(3, hi=0.6, trace=1.0)
    v = sym_to_vec(S)
    assert np.allclose(X.project(v), v, atol=1e-12)


def test_spectral_box_simple_clip():
    X = SpectralSet(2, hi=1.0, trace=1.0)
    p = vec_to_sym(X.project(sym_to_vec(np.diag([2.0, 0.0]))))
    assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-12)


def test_spectral_box_matches_enumeration():
    rng = np.random.default_rng(15)
    for _ in range(20):
        S = random_symmetric(rng, 4)
        X = SpectralSet(4, hi=0.5, trace=1.0)
        p = vec_to_sym(X.project(sym_to_vec(S)))
        w, V = np.linalg.eigh(S)
        expected = V @ np.diag(spectral_box_enumeration(w, hi=0.5, trace=1.0)) @ V.T
        assert np.linalg.norm(p - expected) <= 1e-8
        assert abs(np.trace(p) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(p).max() <= 0.5 + 1e-10


def test_spectral_box_empty_set_rejected():
    with pytest.raises(ValueError):
        SpectralSet(3, hi=0.2, trace=1.0)


EIGENVALUE_SETS = [
    (-np.inf, 0.4, 1.0),
    (-np.inf, 0.3, None),
    (0.0, np.inf, 1.0),
    (0.0, np.inf, None),
    (0.0, np.inf, 2.5),
    (-0.2, 0.5, 1.0),
    (-0.2, 0.5, None),
]


def test_eigenvalue_projection_matches_enumeration():
    rng = np.random.default_rng(16)
    for n in range(1, 7):
        for lo, hi, trace in EIGENVALUE_SETS:
            if trace is not None and not n * lo <= trace <= n * hi:
                continue
            for scale in (0.1, 0.1, 2.0, 2.0):  # small spreads leave every entry free
                v = rng.normal(size=n) * scale
                expected = spectral_box_enumeration(v, lo, hi, trace)
                assert np.allclose(_project_eigs(v, lo, hi, trace), expected, atol=1e-12)
            # the matrix projection keeps the eigenvectors
            S = random_symmetric(rng, n)
            w, V = np.linalg.eigh(S)
            p = vec_to_sym(SpectralSet(n, lo, hi, trace).project(sym_to_vec(S)))
            expected = (V * spectral_box_enumeration(w, lo, hi, trace)) @ V.T
            assert np.linalg.norm(p - expected) <= 1e-10


def test_eigenvalue_projection_matches_enumeration_at_orders_8_and_16():
    # where numpy's row sums turn pairwise and the loop's stay sequential
    rng = np.random.default_rng(18)
    for lo, hi, trace in EIGENVALUE_SETS:
        for n in (6, 8, 16):
            if trace is not None and not n * lo <= trace <= n * hi:
                continue
            for scale in (0.1, 2.0):
                v = np.sort(rng.normal(size=n)) * scale
                expected = ordered_box_enumeration(v, lo, hi, trace)
                if n == 6:  # the ordered states hold the projection
                    assert np.allclose(spectral_box_enumeration(v, lo, hi, trace), expected, atol=1e-12)
                else:
                    assert np.allclose(_project_eigs(v, lo, hi, trace), expected, atol=1e-12)


def test_eigenvalue_projection_equals_the_numpy_restatement_bit_for_bit():
    # Below 8 entries numpy sums a row in sequence, as the scalar loop does,
    # so the two agree to the last bit and the sign of a zero.
    rng = np.random.default_rng(22)
    zero_traces = [(0.0, np.inf, 0.0), (-np.inf, 0.0, 0.0), (-0.2, 0.5, 0.0)]
    for n in range(1, 8):
        for lo, hi, trace in EIGENVALUE_SETS + zero_traces:
            if trace is not None and not n * lo <= trace <= n * hi:
                continue
            signed_zeros = np.where(np.arange(n) < n // 2, -0.0, 0.0)
            for k in range(-5, 6):
                for v in (rng.normal(size=n), np.round(rng.normal(size=n), 1), signed_zeros):
                    v = np.sort(v) * 10.0**k
                    got = _project_eigs(v, lo, hi, trace)
                    assert got.tobytes() == numpy_project_eigs(v, lo, hi, trace).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16])
def test_spectral_projection_equals_the_scatter_formulation_bit_for_bit(n):
    # The kernel gathers the matrix through a cached index map and reads the
    # upper triangle back with one take; both move the same floats as the
    # scatters and the two-array gather they replaced, and eigh sees the same
    # matrix, so every output bit, and the sign of a zero, is unchanged.
    rng = np.random.default_rng(31 + n)
    sets = [
        SpectralSet(n, lo=0.0),  # one infinite bound: np.clip
        SpectralSet(n, hi=0.5),
        SpectralSet(n, lo=-0.1, hi=0.6),
        SpectralSet(n, lo=0.0, trace=1.0),
        SpectralSet(n, hi=1.5 / n, trace=1.0),
        SpectralSet(n, lo=-0.1, hi=1.5 / n, trace=1.0),
    ]
    for X in sets:
        for k in range(-100, 101, 10):
            for z in (rng.normal(size=X.dim), np.round(rng.normal(size=X.dim), 1)):
                z = z * 10.0**k
                assert X.project(z).tobytes() == scatter_spectral_project(X, z).tobytes()
        w = np.sort(rng.normal(size=n))
        assert _project_eigs(w, X.lo, X.hi, X.trace).tobytes() == scatter_project_eigs(w, X.lo, X.hi, X.trace).tobytes()


def test_eigenvalue_projection_edge_cases():
    rng = np.random.default_rng(17)
    # tied eigenvalues: the eigenvectors are not unique, the projection is
    Q = random_orthogonal(rng, 4)
    w = np.array([-0.1, 0.7, 0.7, 0.7])
    p = vec_to_sym(SpectralSet(4, hi=0.3, trace=1.0).project(sym_to_vec((Q * w) @ Q.T)))
    expected = (Q * spectral_box_enumeration(w, hi=0.3, trace=1.0)) @ Q.T
    assert np.linalg.norm(p - expected) <= 1e-12
    assert np.allclose(_project_eigs(np.full(4, 0.2), -np.inf, 0.5, 1.0), 0.25, atol=1e-15)
    # bound * n == 1 exactly: the set is the single point I / n
    X = SpectralSet(4, hi=0.25, trace=1.0)
    for _ in range(5):
        z = sym_to_vec(random_symmetric(rng, 4, scale=3.0))
        assert np.allclose(X.project(z), sym_to_vec(np.eye(4) / 4.0), atol=1e-14)
    # already feasible points are fixed
    Q3 = random_orthogonal(rng, 3)
    for oracle, S in (
        (SpectralSet(3, lo=0.0, trace=1.0), np.diag([0.5, 0.3, 0.2])),
        (SpectralSet(3, lo=0.0), np.diag([2.0, 0.0, 1.0])),
        (SpectralSet(3, lo=-0.2, hi=0.5, trace=1.0), np.diag([0.5, 0.5, 0.0])),
    ):
        z = sym_to_vec((Q3 * np.diag(S)) @ Q3.T)
        assert np.linalg.norm(oracle.project(z) - z) <= 1e-14 * (1.0 + np.linalg.norm(z))
    # every entry clipped, with and without a trace
    v = np.array([-2.0, 3.0, -1.0, 5.0])
    assert np.array_equal(_project_eigs(v, 0.0, 1.0), [0.0, 1.0, 0.0, 1.0])
    assert np.allclose(_project_eigs(v, 0.0, 0.5, 2.0), 0.5, atol=1e-15)
    assert np.allclose(_project_eigs(v, 0.25, 1.0, 1.0), 0.25, atol=1e-15)


@pytest.mark.parametrize(
    "X",
    [
        SpectralSet(3, lo=0.0, trace=1.0),
        SpectralSet(4, hi=0.5, trace=1.0),
        SpectralSet(4, lo=-0.2, hi=0.6, trace=1.0),
    ],
    ids=["lo", "hi", "lo-hi"],
)
def test_traced_spectral_set_at_every_scale(X):
    # The trace solve used to cancel: SpectralSet(3, lo=0, trace=1) mapped
    # normal(size=6) * 1e17 to the zero matrix, and the hi-only set failed
    # from 1e16 on, where its free eigenvalues sit at the bottom.
    tol = 1e-12 * (1.0 + abs(X.trace))
    for k in range(0, 151, 5):
        for seed in range(3):
            z = np.random.default_rng(seed).normal(size=X.dim) * 10.0**k
            try:
                p = X.project(z)
            except (ConvergenceError, RegularityError):
                continue
            w = np.linalg.eigvalsh(vec_to_sym(p))
            assert w[0] >= X.lo - tol and w[-1] <= X.hi + tol, (k, seed)
            assert abs(w.sum() - X.trace) <= tol, (k, seed)
            assert np.linalg.norm(X.project(p) - p) <= 1e-12, (k, seed)


def test_spectral_set_validation():
    with pytest.raises(ValueError):
        SpectralSet(3)  # no finite bound
    with pytest.raises(ValueError):
        SpectralSet(3, lo=1.0, hi=0.0)
    with pytest.raises(ValueError):
        SpectralSet(3, lo=0.0, trace=-1.0)
    assert SpectralSet(3, lo=0.0).affine_hull is None
    hull = SpectralSet(3, lo=0.0, trace=2.0).affine_hull
    assert hull.subspace_dim == 5 and hull.contains(sym_to_vec(np.eye(3) * (2.0 / 3.0)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: Ball([0.0, 0.0], np.nan), "radius"),
        (lambda: Ball([0.0, 0.0], np.inf), "radius"),
        (lambda: Halfspace([1.0, 0.0], np.nan), "offset"),
        (lambda: Halfspace([1.0, 0.0], -np.inf), "offset"),
        (lambda: Hyperplane([1.0, 0.0], np.nan), "offset"),
        (lambda: AffineSubspace([[1.0, 0.0]], [np.nan]), "b"),
        (lambda: PowerEpigraph(2.0, np.nan), "beta"),
        (lambda: PowerEpigraph(np.nan), "alpha"),
        (lambda: PowerEpigraph(np.inf, 1.0), "alpha"),
        (lambda: SpectralSet(2, lo=0.0, trace=np.inf), "trace"),
    ],
    ids=["ball-nan", "ball-inf", "halfspace-nan", "halfspace-minf", "hyperplane-nan",
         "affine-nan", "epigraph-beta-nan", "epigraph-alpha-nan", "epigraph-alpha-inf",
         "spectral-trace-inf"],
)
def test_non_finite_scalar_parameter_is_rejected(build, name):
    # Each was accepted and then projected to a non-finite or meaningless point.
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build()


# --- ball within an affine subspace ----------------------------------------

def test_ball_in_affine_plane_projection():
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.0])
    disc = Ball([0.0, 0.0, 0.0], 2.0, plane)
    p = disc.project([0.0, 3.0, 4.0])
    assert np.allclose(p, [0.0, 2.0, 0.0], atol=1e-12)


def test_ball_in_affine_off_hull_center_chord():
    # center one unit off the plane: in-plane radius sqrt(r^2 - 1)
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.0])
    cap = Ball([0.0, 0.0, 1.0], 2.0, plane)
    assert np.isclose(cap.in_plane_radius, np.sqrt(3.0))
    p = cap.project([5.0, 0.0, 0.0])
    assert np.allclose(p, [np.sqrt(3.0), 0.0, 0.0], atol=1e-12)


def test_ball_without_subspace_is_its_own_in_plane_ball():
    ball = Ball([0.5, -0.5, 1.0], 1.5)
    assert ball.affine_hull is None
    assert ball.in_plane_center is ball.center and ball.in_plane_radius == ball.radius
    z = np.array([0.6, -0.4, 1.1])
    p = ball.project(z)
    assert np.array_equal(p, z) and p is not z


@pytest.mark.parametrize("kind", ["whole_space", "hyperplane", "two_rows"])
def test_ball_clamp_on_floats_is_the_numpy_form_bit_for_bit(kind):
    # The clamp c + (p - c) r / ||p - c|| on Python floats, from the
    # subspace's projection as a list, against the former array arithmetic,
    # inside and outside the ball and at scales 1e-150 ... 1e150.
    rng = np.random.default_rng(61)
    n = 5
    for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
        q0 = scale * rng.normal(size=n)
        normal, A = scale * rng.normal(size=n), rng.normal(size=(2, n))
        subspace = {
            "whole_space": None,
            "hyperplane": Hyperplane(normal, float(normal @ q0)),
            "two_rows": AffineSubspace(A, A @ q0),
        }[kind]
        center = q0 + scale * rng.normal(size=n)
        q = center if subspace is None else subspace.project(center)
        ball = Ball(center, math.dist(center.tolist(), q.tolist()) + scale, subspace)
        for z in center + scale * rng.normal(size=(40, n)) * rng.uniform(0.01, 3.0, size=(40, 1)):
            assert ball.project(z).tobytes() == numpy_ball_project(ball, z).tobytes()


def test_ball_in_affine_empty_rejected():
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.0])
    with pytest.raises(ValueError):
        Ball([0.0, 0.0, 3.0], 2.0, plane)


# --- embedded / image wrappers ---------------------------------------------

def test_embedded_matches_direct_construction():
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.0], basis=np.eye(3)[:, :2])
    emb = EmbeddedOracle(Ball([0.0, 0.0], 2.0), plane)
    disc = Ball([0.0, 0.0, 0.0], 2.0, plane)
    rng = np.random.default_rng(19)
    for _ in range(50):
        z = rng.normal(size=3) * 3.0
        assert np.allclose(emb.project(z), disc.project(z), atol=1e-12)


@pytest.mark.parametrize("kind", ["embedded", "image"])
def test_wrapper_projection_validates_each_point_once_per_layer(monkeypatch, kind):
    # The wrapper validates once; the inner point, an affine image of a
    # validated one, takes only the finiteness test, and the coordinate maps
    # add none (to_local and from_local validated twice more).
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [1.0], basis=np.eye(3)[:, :2])
    if kind == "embedded":
        oracle, z = EmbeddedOracle(Ball([0.0, 0.0], 2.0), plane), np.array([3.0, 1.0, 4.0])
    else:
        oracle, z = IsometricImage(Ball([0.0, 0.0, 1.0], 2.0), plane), np.array([3.0, 1.0])
    want = oracle.project(z)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return point(*args, **kwargs)

    point = ccrm.sets._point
    monkeypatch.setattr(ccrm.sets, "_point", counting)
    assert np.array_equal(oracle.project(z), want)
    assert len(calls) == 1


def test_isometric_image_round_trip():
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [1.0], basis=np.eye(3)[:, :2])
    disc = Ball([0.0, 0.0, 1.0], 1.5, plane)
    image = IsometricImage(disc, plane)
    rng = np.random.default_rng(23)
    for _ in range(50):
        v = rng.normal(size=2) * 3.0
        direct = image.project(v)
        ambient = disc.project(plane.from_local(v))
        assert np.allclose(plane.from_local(direct), ambient, atol=1e-12)


# --- Dykstra ----------------------------------------------------------------

def test_dykstra_single_oracle_is_projection():
    ball = Ball([0.0, 0.0], 1.0)
    z = np.array([3.0, 0.5])
    assert np.allclose(dykstra_project([ball], z), ball.project(z))


def test_dykstra_two_halfspaces():
    hs1 = Halfspace([1.0, 0.0], 0.0)
    hs2 = Halfspace([0.0, 1.0], 0.0)
    p = dykstra_project([hs1, hs2], np.array([1.0, 1.0]))
    assert np.allclose(p, [0.0, 0.0], atol=1e-11)


def test_dykstra_cap_matches_kkt_oracle():
    rng = np.random.default_rng(31)
    ball = Ball([0.0, 0.0, 0.0], 1.0)
    hs = Halfspace([1.0, 0.0, 0.0], -0.5)
    for _ in range(25):
        z = rng.normal(size=3) * 2.0
        p = dykstra_project([ball, hs], z, tol=1e-13)
        q = cap_projection_kkt(np.zeros(3), 1.0, 0, -0.5, z)
        assert np.linalg.norm(p - q) <= 1e-9


def test_dykstra_iteration_cap():
    ball = Ball([0.0, 0.0], 1.0)
    hs = Halfspace([1.0, 0.0], -0.5)
    with pytest.raises(ConvergenceError) as err:
        dykstra_project([ball, hs], np.array([4.0, 3.0]), tol=1e-13, max_iter=3)
    assert err.value.residual is not None


def test_dykstra_refuses_a_result_outside_a_member():
    # Near a tangency the cycles move less than tol while far from both
    # balls' intersection: this returned (1.00061, 0.0350), 1.2e-3 outside
    # the first ball.
    balls = [Ball([0.0, 0.0], 1.0), Ball([2.0 - 1e-6, 0.0], 1.0)]
    with pytest.raises(ConvergenceError, match="outside a member") as err:
        dykstra_project(balls, [1.0, 3.0], tol=1e-6)
    assert err.value.residual > 1e-3


def test_dykstra_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dykstra_project([Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0, 0.0], 1.0)], [2.0, 1.0])


def test_set_sizes_must_be_integers():
    # SecondOrderCone(4.7) was a dimension-4 cone, and SpectralSet(2.5) a
    # set of dimension 4 that failed at its first projection.
    with pytest.raises(TypeError):
        SecondOrderCone(4.7)
    with pytest.raises(TypeError):
        SpectralSet(2.5, lo=0.0)
    assert SecondOrderCone(np.int64(3)).dim == 3
    assert SpectralSet(np.int64(3), lo=0.0).dim == 6
    with pytest.raises(ValueError):
        SecondOrderCone(1)


@pytest.mark.parametrize(
    "params",
    [{"tol": np.nan}, {"tol": -1.0}, {"tol": 0.0}, {"tol": np.inf}, {"max_iter": 0},
     {"max_iter": 2.5}, {"max_iter": "3"}],
    ids=["nan-tol", "negative-tol", "zero-tol", "inf-tol", "zero-max-iter", "float-max-iter",
         "string-max-iter"],
)
def test_dykstra_project_rejects_bad_stopping_parameters(params):
    # A nan tol ran all 100 000 cycles (2 s) before its ConvergenceError;
    # max_iter=0 "did not converge within 0 cycles"; 2.5 a bare TypeError.
    members = [Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], -0.5)]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="tol must be|max_iter must be"):
        dykstra_project(members, [2.0, 1.5], **params)
    assert time.perf_counter() - start < 0.1
    x = dykstra_project(members, [2.0, 1.5], tol=1e-12, max_iter=np.int64(1000))
    assert x[0] <= -0.5 + 1e-12 and np.linalg.norm(x) <= 1.0 + 1e-12


# --- boundary calculus ------------------------------------------------------

def test_boundary_eval_ball():
    ball = Ball([0.0, 0.0], 2.0)
    g, grad, hess = boundary_eval(ball, [2.0, 0.0])
    assert abs(g) <= 1e-12
    assert np.allclose(grad, [4.0, 0.0])
    assert np.allclose(hess, 2.0 * np.eye(2))


def test_boundary_eval_ellipsoid_gradient():
    A = np.diag([0.25, 1.0])
    E = Ellipsoid(A)
    zbar = np.array([2.0, 0.0])
    _, grad, hess = boundary_eval(E, zbar)
    assert np.allclose(grad, 2.0 * A @ zbar)
    assert np.allclose(hess, 2.0 * A)


def test_boundary_eval_halfspace_flat():
    hs = Halfspace([0.0, 3.0], 1.5)
    g, grad, hess = boundary_eval(hs, [7.0, 0.5])
    assert abs(g) <= 1e-12
    assert np.allclose(hess, 0.0)


def test_boundary_eval_requires_descriptor():
    L = AffineSubspace([[1.0, 0.0]], [0.0])
    with pytest.raises(UnsupportedOperation):
        boundary_eval(L, [0.0, 1.0])
    # wrappers of descriptor-less sets refuse as well
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.0])
    line_in_plane = EmbeddedOracle(L, plane)
    line_image = IsometricImage(AffineSubspace([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [0.0, 0.0]), plane)
    for oracle, z in (
        (line_in_plane, [0.0, 1.0, 0.0]),
        (line_image, [0.0, 1.0]),
    ):
        with pytest.raises(UnsupportedOperation):
            boundary_eval(oracle, z)


@pytest.mark.parametrize(
    "oracle,z",
    [
        (PowerEpigraph(2.0, 0.5), [1e160, 0.0]),
        (PowerEpigraph(3.0, 1.0), [1e120, 0.0]),
        (Cap(PowerEpigraph(2.0, 0.5), Hyperplane([0.0, 1.0], 0.0)), [1e160, 0.0]),
    ],
    ids=["epigraph-2-0.5", "epigraph-3-1", "cap"],
)
def test_boundary_eval_rejects_a_non_finite_descriptor(oracle, z):
    # the powers overflow to inf; the descriptor must not hand that on
    with pytest.raises(RegularityError):
        boundary_eval(oracle, z)


def test_boundary_eval_soc_apex_refuses():
    K = SecondOrderCone(3)
    with pytest.raises(RegularityError):
        boundary_eval(K, [0.0, 0.0, 0.0])
    # the refusal covers ||u|| up to 1e-12 (1 + |t|), on the axis above and below too
    for z in ([5.0, 1e-12, 0.0], [-5.0, 0.0, 5e-12], [1e6, 0.0, 0.0]):
        with pytest.raises(RegularityError, match="not a manifold at the apex"):
            boundary_eval(K, z)
    boundary_eval(K, [0.0, 2e-12, 0.0])


def test_boundary_eval_hull_coordinates():
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.0], basis=np.eye(3)[:, :2])
    disc = Ball([0.0, 0.0, 0.0], 2.0, plane)
    g, grad, hess = boundary_eval(disc, [2.0, 0.0, 0.0])
    assert grad.shape == (2,)
    assert np.allclose(grad, [4.0, 0.0])
    assert np.allclose(hess, 2.0 * np.eye(2))


def finite_difference_check(oracle, z, hg=1e-6, hh=1e-4):
    # hh ~ eps^(1/4) keeps second-difference rounding under the tolerance
    g0, grad, hess = boundary_eval(oracle, z)
    hull = oracle.affine_hull
    B = hull.basis if hull is not None else np.eye(len(np.atleast_1d(z)))
    d = B.shape[1]
    z = np.asarray(z, dtype=float)
    fd_grad = np.empty(d)
    fd_hess = np.empty((d, d))

    def g(x):
        return oracle._boundary(x)[0]

    for i in range(d):
        fd_grad[i] = (g(z + hg * B[:, i]) - g(z - hg * B[:, i])) / (2.0 * hg)
        for j in range(d):
            zpp = z + hh * B[:, i] + hh * B[:, j]
            zpm = z + hh * B[:, i] - hh * B[:, j]
            zmp = z - hh * B[:, i] + hh * B[:, j]
            zmm = z - hh * B[:, i] - hh * B[:, j]
            fd_hess[i, j] = (
                g(zpp) - g(zpm) - g(zmp) + g(zmm)
            ) / (4.0 * hh * hh)
    scale_g = 1.0 + np.linalg.norm(grad)
    scale_h = 1.0 + np.linalg.norm(hess)
    assert np.linalg.norm(fd_grad - grad) <= 1e-5 * scale_g
    assert np.linalg.norm(fd_hess - hess) <= 1e-5 * scale_h


def test_boundary_derivatives_match_finite_differences():
    rng = np.random.default_rng(41)
    plane = AffineSubspace([[0.0, 0.0, 1.0]], [0.0], basis=np.eye(3)[:, :2])
    cases = [
        (Ball([0.3, -0.2], 1.7), np.array([0.3 + 1.7, -0.2])),
        (Ellipsoid(np.diag([0.25, 1.0])), np.array([2.0 * np.cos(0.7), np.sin(0.7)])),
        (Halfspace([1.0, 2.0], 0.5), np.array([0.5, 0.0])),
        (PowerEpigraph(2.0, 0.0), np.array([0.6, 0.36])),
        (PowerEpigraph(3.0, 1.0), np.array([0.8, 0.8**3 - 1.0])),
        (SecondOrderCone(3), np.array([np.sqrt(0.5), 0.5, 0.5])),
        (Ball([0.0, 0.0, 0.0], 2.0, plane), np.array([np.sqrt(2.0), np.sqrt(2.0), 0.0])),
    ]
    for oracle, z in cases:
        finite_difference_check(oracle, z)
    # spectral sets at simple-eigenvalue boundary points
    psd = SpectralSet(3, lo=0.0)
    S = np.diag([0.0, 0.4, 1.0]) + 0.05 * random_symmetric(rng, 3)
    S -= np.linalg.eigvalsh(S)[0] * np.eye(3)  # shift lambda_min to zero
    finite_difference_check(psd, sym_to_vec(S))
    box = SpectralSet(3, hi=0.6, trace=1.0)
    T = np.diag([0.6, 0.3, 0.1]) + 0.02 * random_symmetric(rng, 3)
    # place the top eigenvalue on the bound and restore unit trace
    w, V = np.linalg.eigh(T)
    w[-1] = 0.6
    w[:-1] += (1.0 - w.sum()) / 2.0
    T = (V * w) @ V.T
    finite_difference_check(box, sym_to_vec(T))
    # PSD cap {tr = 1} at a simple lambda_min = 0, in trace-hyperplane coordinates
    Q = random_orthogonal(rng, 3)
    finite_difference_check(
        SpectralSet(3, lo=0.0, trace=1.0), sym_to_vec((Q * [0.0, 0.35, 0.65]) @ Q.T)
    )
    # with both bounds finite, the descriptor follows the active one
    finite_difference_check(
        SpectralSet(3, lo=0.0, hi=0.6, trace=1.0), sym_to_vec((Q * [0.1, 0.3, 0.6]) @ Q.T)
    )
    # the wrappers forward the inner descriptor: a cap as is, the embedded
    # and image oracles through the hull's coordinates
    cone_cap = Cap(SecondOrderCone(3), Hyperplane([1.0, 0.3, 0.0], 1.0))
    finite_difference_check(cone_cap, np.array([1.0, 1.0, 0.0]) / 1.3)
    tilted = AffineSubspace([[1.0, 1.0, 1.0]], [1.0])
    finite_difference_check(
        EmbeddedOracle(Ellipsoid(np.diag([0.25, 1.0])), tilted),
        tilted.from_local([2.0 * np.cos(0.7), np.sin(0.7)]),
    )
    finite_difference_check(
        IsometricImage(Ball(tilted.anchor, 2.0, tilted), tilted),
        np.array([np.sqrt(2.0), np.sqrt(2.0)]),
    )


def test_spectral_boundary_eval_takes_one_eigendecomposition(monkeypatch):
    # g, grad g and Hess g each took their own (three per call).
    calls = []
    eigh = ccrm.sets._eigh

    def counting(S):
        calls.append(S)
        return eigh(S)

    monkeypatch.setattr(ccrm.sets, "_eigh", counting)
    z = sym_to_vec(np.diag([0.0, 0.4, 1.0]))
    boundary_eval(SpectralSet(3, lo=0.0), z)
    assert len(calls) == 1


def test_psd_gradient_needs_simple_eigenvalue():
    psd = SpectralSet(2, lo=0.0)
    with pytest.raises(RegularityError):
        boundary_eval(psd, sym_to_vec(np.zeros((2, 2))))


# --- shared projection properties -------------------------------------------

def _exact_norm(d):
    """The Euclidean norm of a float vector: an exact Fraction sum of
    squares, then a 50-digit Decimal square root."""
    squares = sum(Fraction(x) ** 2 for x in d.tolist())
    with localcontext() as ctx:
        ctx.prec = 50
        return (Decimal(squares.numerator) / Decimal(squares.denominator)).sqrt()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", range(1, 17))
def test_norm_is_within_one_ulp_at_every_scale(n):
    # Scales 1e-300 ... 1e300, entries whose squares overflow (past 1e154)
    # or underflow, subnormal entries, and mixtures of all of them.
    rng = np.random.default_rng(100 + n)
    vectors = [rng.normal(size=n) * 10.0**k for k in range(-300, 301, 20) for _ in range(3)]
    vectors += [rng.normal(size=n) * 1e-315, np.full(n, 5e-324), np.full(n, 1e308)]
    vectors += [rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n) for _ in range(40)]
    for d in vectors:
        got, exact = ccrm.sets._norm(d), _exact_norm(d)
        assert abs(Decimal(got) - exact) <= Decimal(math.ulp(float(exact))), d.tolist()
    assert ccrm.sets._norm(np.zeros(n)) == 0.0


# The plain sum of squares overflows past ~1e154; the norms these oracles
# take do not, and they warn of nothing.
@pytest.mark.filterwarnings("error")
def test_norm_based_projections_past_overflow_match_closed_form():
    s = 1.0 / np.sqrt(2.0)
    ball = Ball([0.0, 0.0], 1.0).project([1e160, 1e160])
    assert np.allclose(ball, [s, s], rtol=1e-15, atol=0.0)
    # the socp Y: L = {z_1 + z_2 + z_3 = 1.5} holds the center, so the
    # far point's direction within L is (3, -1, -1, 2) / sqrt(15)
    center = np.array([0.3, 0.7, 0.5, 0.3])
    disc = Ball(center, 0.7, AffineSubspace([[0.0, 1.0, 1.0, 1.0]], [1.5]))
    expected = center + 0.7 * np.array([3.0, -1.0, -1.0, 2.0]) / np.sqrt(15.0)
    assert np.allclose(disc.project([1e160, 0.0, 0.0, 1e160]), expected, rtol=0.0, atol=1e-12)
    cone = SecondOrderCone(3).project([0.0, 1e200, 1e200])
    assert np.allclose(cone, [s * 1e200, 5e199, 5e199], rtol=1e-15, atol=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e150, 1e160, 1e200])
def test_norm_based_projections_variational_inequality_at_scale(scale):
    rng = np.random.default_rng(59)
    plane = AffineSubspace([[0.0, 1.0, 1.0, 1.0]], [1.5])
    oracles = [
        Ball([0.5, -0.5, 1.0], 1.5),
        Ball([0.3, 0.7, 0.5, 0.3], 0.7, plane),
        SecondOrderCone(4),
    ]
    for oracle in oracles:
        members = [oracle.project(rng.normal(size=oracle.dim) * k) for k in (1.0, scale) * 5]
        for _ in range(10):
            z = rng.normal(size=oracle.dim) * scale
            p = oracle.project(z)
            assert np.all(np.isfinite(p))
            r = z - p
            u = r / np.max(np.abs(r))
            u /= np.linalg.norm(u)
            for y in members:
                d = y - p
                assert u @ d <= 1e-12 * max(np.max(np.abs(d)), 1.0)

def test_projection_properties_sampled():
    rng = np.random.default_rng(53)
    for oracle, dim in oracle_zoo(rng):
        for _ in range(20):
            z1 = rng.normal(size=dim) * 3.0
            z2 = rng.normal(size=dim) * 3.0
            p1, p2 = oracle.project(z1), oracle.project(z2)
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(z1 - z2) + 1e-10
            assert np.linalg.norm(oracle.project(p1) - p1) <= 1e-10
            s = oracle.project(rng.normal(size=dim) * 2.0)
            assert (z1 - p1) @ (s - p1) <= 1e-10


# --- point validation -------------------------------------------------------


def _as_point_reference(z, dim=None):
    """The point validation as first written, kept as the contract."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {z.shape}")
    if dim is not None and z.shape[0] != dim:
        raise ValueError(f"dimension mismatch: point has {z.shape[0]}, set has {dim}")
    if not np.all(np.isfinite(z)):
        raise ValueError("point has non-finite entries")
    return z


VALIDATION_INPUTS = {
    "list": [1.0, -2.0, 3.5],
    "int-tuple": (1, 2, 3),
    "int-array": np.arange(3),
    "float32": np.array([1.0, 2.0, 3.0], dtype=np.float32),
    "big-endian": np.array([1.0, 2.0, 3.0], dtype=">f8"),
    "bool": np.array([True, False, True]),
    "strided": np.arange(6.0)[::2],
    "sum-overflows": [1e308, 1e308, 1e308],
    "huge": [1e200, -3e200, 2e200],
    "nan": [1.0, np.nan, 3.0],
    "inf": [np.inf, 0.0, 0.0],
    "-inf": [0.0, 0.0, -np.inf],
    "inf-minus-inf": [np.inf, -np.inf, 0.0],
    "huge-and-inf": [1e308, 1e308, -np.inf],
    "huge-and-nan": [1e308, 1e308, np.nan],
    "wrong-length": [1.0, 2.0],
    "empty": [],
    "2-d": [[1.0, 2.0, 3.0]],
    "column": np.zeros((3, 1)),
    "0-d": 5.0,
    "text": ["1", "x", "2"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [None, 3])
@pytest.mark.parametrize("name", list(VALIDATION_INPUTS))
def test_as_point_accepts_and_rejects_as_the_reference(name, dim):
    z = VALIDATION_INPUTS[name]
    try:
        expected = _as_point_reference(z, dim)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _as_point(z, dim)
    else:
        got = _as_point(z, dim)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


ZOO_IDS = [type(oracle).__name__ for oracle, _ in oracle_zoo(np.random.default_rng(0))]


def test_oracle_zoo_covers_every_set_class():
    classes = {
        cls for cls in vars(ccrm.sets).values()
        if isinstance(cls, type) and issubclass(cls, ccrm.sets.SetOracle)
        and cls is not ccrm.sets.SetOracle
    }
    zoo = [oracle for oracle, _ in oracle_zoo(np.random.default_rng(0))]
    assert sorted(cls.__name__ for cls in classes - {type(o) for o in zoo}) == []
    # a ball in the whole space and one within a subspace
    assert {o.subspace is None for o in zoo if type(o) is Ball} == {True, False}


def test_every_project_takes_exactly_one_point():
    # Wrappers around project, such as the benchmark's per-class spans,
    # call it as project(self, z); a set that needs more takes it
    # through another method (Cap.project_dual, BallLens.project_given).
    for cls in vars(ccrm.sets).values():
        if isinstance(cls, type) and issubclass(cls, ccrm.sets.SetOracle):
            params = list(inspect.signature(cls.project).parameters.values())
            assert len(params) == 2 and all(p.default is p.empty for p in params), cls.__name__


@pytest.mark.parametrize("index", range(len(ZOO_IDS)), ids=ZOO_IDS)
def test_project_distance_reflect_validate_every_point(index):
    rng = np.random.default_rng(67)
    oracle, dim = oracle_zoo(rng)[index]
    ops = (oracle.project, oracle.distance, oracle.reflect)
    z = rng.normal(size=dim)
    bad = [np.where(np.arange(dim) == 1, np.nan, z), np.where(np.arange(dim) == 0, np.inf, z),
           np.ones(dim + 1), np.ones((1, dim))]
    for op in ops:
        for point in bad:
            with pytest.raises(ValueError):
                op(point)
    # a list or an int array means its float64 value
    zi = rng.integers(-2, 3, size=dim)
    for op in ops:
        assert np.array_equal(op(zi.tolist()), op(zi.astype(float)))
        assert np.array_equal(op(zi), op(zi.astype(float)))
    # distance and reflect are the norm and the mirror of one projection, bit for bit
    for _ in range(10):
        z = rng.normal(size=dim) * 3.0
        p = oracle.project(z)
        assert oracle.distance(z) == math.hypot(*(z - p).tolist())
        assert np.array_equal(oracle.reflect(z), 2.0 * p - z)


@pytest.mark.filterwarnings("error")
def test_huge_finite_points_validate_without_warnings():
    for z in ([1e200, -3e200, 2e200], [1e308, 1e308, 1e308]):
        assert np.array_equal(_as_point(z, 3), z)
    rng = np.random.default_rng(71)
    for oracle, dim in oracle_zoo(rng):
        # At this scale the power epigraph's Newton can overflow, which
        # raises ConvergenceError.
        if isinstance(oracle, PowerEpigraph):
            continue
        z = rng.normal(size=dim) * 1e200
        if isinstance(getattr(oracle, "cut", None), Hyperplane):
            # The cone's cap: its dual shift z - s a cancels, and the output
            # cannot meet the cut to 1e-9 relative (the apex, 0.96 off it).
            with pytest.raises(ConvergenceError, match="not resolved"):
                oracle.project(z)
            continue
        p = oracle.project(z)
        r = z - p
        s = np.max(np.abs(r))
        # a point of the set (the hyperboloid sheet's draw) is its own projection
        expected = s * np.linalg.norm(r / s) if s > 0.0 else 0.0
        assert oracle.distance(z) == pytest.approx(expected, rel=1e-15)
        assert np.array_equal(oracle.reflect(z), 2.0 * p - z)
