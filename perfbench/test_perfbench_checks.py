"""The benchmark's own checks reject wrong answers, so none passes vacuously.

Run with ``python -m pytest perfbench``; needs numpy only.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import checks
import speed
import tracing
import worker
from checks import CheckError


def _capped_simplex(v, cap, total=1.0):
    """Nearest w to v with w_i <= cap and sum w = total, by bisection."""
    lo, hi = float(np.min(v)) - cap - total, float(np.max(v))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(np.minimum(v - mid, cap)) > total:
            lo = mid
        else:
            hi = mid
    return np.minimum(v - 0.5 * (lo + hi), cap)


def _flatten(S):
    iu = np.triu_indices(S.shape[0])
    v = S[iu].copy()
    v[iu[0] != iu[1]] *= np.sqrt(2.0)
    return v


def _fixed_trace_point():
    w, V = np.linalg.eigh(checks.FIXED_TRACE_TARGET)
    w = _capped_simplex(w, checks.FIXED_TRACE_BOUND)
    return _flatten((V * w) @ V.T)


FEASIBLE = [
    (checks.discs_violation, np.array([checks.S15 / 2.0, 0.0, 0.0])),
    (checks.ellipses_violation, np.array([1.0, 0.0, 0.0])),
    (lambda z: checks.epigraph_violation(z, 2.0, 1.0, "line"), np.array([0.5, 0.0])),
    (checks.eq_ellipsoids_violation, np.array([1.0, 0.5, 0.25, 0.25])),
    (checks.socp_violation, np.array([0.95, 0.7, 0.45, 0.35])),
    (checks.sdp_violation, _flatten(np.diag([0.6, 0.4, 0.0]))),
    (checks.fixed_trace_violation, _fixed_trace_point()),
]


@pytest.mark.parametrize("violation,point", FEASIBLE)
def test_feasibility_check_accepts_feasible_and_rejects_infeasible(violation, point):
    checks.check_feasible(violation, point, "feasible point")
    rng = np.random.default_rng(0)
    for _ in range(20):
        with pytest.raises(CheckError):
            checks.check_feasible(violation, point + 3.0 * rng.normal(size=point.size), "moved")


def test_small_violations_are_caught():
    z = np.array([checks.S15 / 2.0, 0.5, 0.0])
    checks.check_feasible(checks.discs_violation, z, "corner")
    with pytest.raises(CheckError):
        checks.check_feasible(checks.discs_violation, z + [0.0, 1e-8, 0.0], "just outside")
    with pytest.raises(CheckError):
        checks.check_feasible(checks.discs_violation, z + [0.0, 0.0, 1e-8], "off the plane")
    with pytest.raises(CheckError):
        checks.check_feasible(
            lambda p: checks.epigraph_violation(p, 2.0, 1.0, "line"), np.array([0.5, 1e-8]), "off the line"
        )


def test_spectral_checks_use_eigenvalues():
    with pytest.raises(CheckError):  # trace 1, inside the ball, not PSD
        checks.check_feasible(checks.sdp_violation, _flatten(np.diag([0.7, 0.4, -0.1])), "indefinite")
    with pytest.raises(CheckError):  # lambda_max above the bound
        checks.check_feasible(
            checks.fixed_trace_violation, _flatten(np.diag([0.6, 0.2, 0.1, 0.1])), "lambda_max"
        )


def test_unflatten_inverts_flatten():
    S = np.random.default_rng(1).normal(size=(4, 4))
    S = S + S.T
    assert np.allclose(checks.unflatten(_flatten(S)), S)


def test_hull_check_rejects_iterate_off_the_hull():
    on = np.array([1.0, 0.5, 0.25, 0.25])
    checks.check_in_hull(checks.eq_ellipsoids_hull_residual, [on + 5.0, on, on], "on hull")
    with pytest.raises(CheckError):
        checks.check_in_hull(checks.eq_ellipsoids_hull_residual, [on, on, on + 1e-6], "off hull")


def test_fejer_checks():
    s = np.zeros(2)
    contraction = np.array([[4.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    checks.check_ccrm_fejer(contraction, s, "halving")
    checks.check_fejer_monotone(contraction, s, "halving")
    # A rotation keeps the distance but moves: monotone, yet no decrease.
    rotation = np.array([[1.0, 0.0], [0.0, 1.0]])
    checks.check_fejer_monotone(rotation, s, "rotation")
    with pytest.raises(CheckError):
        checks.check_ccrm_fejer(rotation, s, "rotation")
    away = np.array([[1.0, 0.0], [1.5, 0.0]])
    with pytest.raises(CheckError):
        checks.check_fejer_monotone(away, s, "away")


def test_omega_outside_unit_interval_rejected():
    checks.check_omega(0.4, "ok")
    checks.check_omega(1.0, "ok")
    for bad in (1.0 + 1e-9, 2.0, 0.0, -0.3, float("nan"), float("inf")):
        with pytest.raises(CheckError):
            checks.check_omega(bad, "bad")


GOOD_CELLS = [
    (2.0, 0.0, "map", "sublinear", 0.9998),
    (2.0, 0.0, "crm", "linear", 0.5),
    (3.0, 0.0, "ccrm", "linear", 0.6667),
    (2.0, 1.0, "map", "linear", 0.2),
    (2.0, 1.0, "ccrm", "quadratic", 8e-4),
    (1.5, 1.0, "ccrm", "superlinear", None),
    (1.5, 1.0, "ccrm", "quadratic", 2e-3),
]
SWAPPED_CELLS = [
    (2.0, 0.0, "map", "linear", 0.9),
    (2.0, 0.0, "crm", "sublinear", 0.99),
    (3.0, 0.0, "ccrm", "quadratic", 0.1),
    (3.0, 0.0, "ccrm", "linear", 0.5),  # right class, wrong constant
    (2.0, 1.0, "map", "quadratic", 0.1),
    (2.0, 1.0, "ccrm", "superlinear", None),
    (3.0, 1.0, "ccrm", "linear", 0.1),
    (1.5, 1.0, "ccrm", "linear", 0.3),
]


@pytest.mark.parametrize("alpha,beta,method,cls,constant", GOOD_CELLS)
def test_rate_check_accepts_theory(alpha, beta, method, cls, constant):
    checks.check_rate_cell(alpha, beta, method, cls, constant, "cell")


@pytest.mark.parametrize("alpha,beta,method,cls,constant", SWAPPED_CELLS)
def test_rate_check_rejects_swapped_class(alpha, beta, method, cls, constant):
    with pytest.raises(CheckError):
        checks.check_rate_cell(alpha, beta, method, cls, constant, "cell")


class _Report:
    def __init__(self, constant):
        self.classification = "linear"
        self.constant = constant
        self.order_estimate = 1.0
        self.usable_range = (0, 4)
        self.linear_ratios = np.array([0.5, 0.5, constant])
        self.quad_ratios = np.array([1.0, 2.0, 4.0])


def test_variant_identity_check():
    checks.check_same_report(_Report(0.5), _Report(0.5), "same")
    with pytest.raises(CheckError):
        checks.check_same_report(_Report(0.5), _Report(0.5 + 1e-15), "different")


def test_curvature_and_quad_constant_checks():
    checks.check_curvature(0.5, 0.5, "disc")
    checks.check_curvature(0.0, 0.0, "halfplane")
    for wrong in (0.25, 0.5 + 1e-6, None):
        with pytest.raises(CheckError):
            checks.check_curvature(wrong, 0.5, "disc")
    assert checks.epigraph_corner_curvature(2.0, 1.0) == pytest.approx(2.0 / 5.0**1.5)
    assert checks.socp_ball_curvature() == pytest.approx(1.0 / 0.7)
    checks.check_quad_constant(0.55, (0.5, 0.5), 0.8, "discs")
    with pytest.raises(CheckError):
        checks.check_quad_constant(3.5, (0.5, None), 0.6, "discs")


def test_last_quad_ratio():
    limit = np.zeros(2)
    d = [1.0, 0.5, 0.125, 0.0078125]  # d_{k+1} = d_k^2 / 2
    iterates = np.array([[x, 0.0] for x in d])
    assert checks.last_quad_ratio(iterates, limit, False) == pytest.approx(0.5)
    with pytest.raises(CheckError):
        checks.last_quad_ratio(iterates[:2], limit, False)


def _lens_scan(n=400_000):
    """Dense samples of the lens boundary: each circle's arc inside the other disc."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = []
    for i, c in enumerate(checks.DISC_CENTERS):
        arc = c + checks.DISC_RADIUS * np.column_stack([np.cos(t), np.sin(t)])
        other = checks.DISC_CENTERS[1 - i]
        pts.append(arc[np.linalg.norm(arc - other, axis=1) <= checks.DISC_RADIUS])
    return np.vstack(pts)


def test_lens_projector_matches_boundary_scan():
    scan = _lens_scan()
    rng = np.random.default_rng(7)
    center = np.array([checks.S15 / 2.0, 0.0])
    outside = 0
    for _ in range(300):
        z = np.concatenate([center + rng.normal(scale=[0.6, 1.0]), rng.normal(size=1)])
        p = checks.lens_project(z)
        assert p[2] == 0.0
        assert checks.discs_violation(p) <= 1e-12
        if checks.discs_violation(np.array([z[0], z[1], 0.0])) <= 0.0:
            assert np.allclose(p[:2], z[:2])
            continue
        outside += 1
        nearest = scan[np.argmin(np.linalg.norm(scan - z[:2], axis=1))]
        scan_dist = np.linalg.norm(nearest - z[:2])
        lens_dist = np.linalg.norm(p[:2] - z[:2])
        assert lens_dist <= scan_dist + 1e-12
        assert np.linalg.norm(p[:2] - nearest) <= 1e-4
    assert outside > 100


def test_lens_omega_check():
    checks.check_lens_omega(0.6 * (1 + 1e-9), 0.6, "close")
    with pytest.raises(CheckError):
        checks.check_lens_omega(0.6 * (1 + 1e-5), 0.6, "far")


def test_pass_counts_every_failure_in_whole_rounds():
    def boom():
        raise ValueError("op raised")

    def reject(result):
        raise CheckError("wrong answer")

    ops = [
        SimpleNamespace(label="fine", call=lambda: 1, check=lambda r: None),
        SimpleNamespace(label="raises", call=boom, check=lambda r: None),
        SimpleNamespace(label="wrong", call=lambda: 2, check=reject),
    ]
    rec = tracing.Recorder(spans=False)
    probe = speed.Probe()
    starts, times, failures, _ = worker.run_pass(
        ops, rec, seconds=0.0, rounds=3, trace=False, probe=probe
    )
    assert len(starts) == len(times) == 9
    assert len(failures) == 6
    assert len(probe.starts) >= 2


def test_speed_scaling_uses_the_reference_job_around_each_op():
    probe = speed.Probe()
    ref = speed.REFERENCE_S
    # The machine runs at half speed for the first second, full speed after.
    probe.starts = [0.0, 0.4, 0.8, 2.0, 2.4, 2.8]
    probe.durations = [2 * ref, 2 * ref, 2 * ref, ref, ref, ref]
    scaled = probe.scale([0.41, 2.41], [0.01, 0.005])
    assert scaled == pytest.approx([0.005, 0.005])
    scaled_setup, reference = speed.scale_setup(0.2)
    assert scaled_setup == pytest.approx(0.2 * ref / reference)


def test_self_time_excludes_children():
    rec = tracing.Recorder(spans=True)
    rec.enter("outer")
    rec.enter("inner")
    rec.exit()
    rec.enter("sets.Ball")
    rec.exit()
    rec.exit()
    calls, total, self_ns = rec.agg["outer"]
    children = rec.agg["inner"][1] + rec.agg["sets.Ball"][1]
    assert calls == 1 and self_ns == total - children
    assert [r[2] for r in rec.records] == ["inner", "sets.Ball", "outer"]
    assert rec.records[0][1] == rec.records[2][0]
