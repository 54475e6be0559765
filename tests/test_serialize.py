import json

import numpy as np
import pytest

from ccrm.catalog import make_discs3d, make_fixed_trace, make_sdp_feasibility, make_socp, resolve
from ccrm.cli import main
from ccrm.diagnostics import estimate_omega
from ccrm.serialize import (
    load_problem_file,
    oracle_from_dict,
    oracle_to_dict,
    problem_from_dict,
    problem_to_dict,
    save_problem_file,
    trace_from_csv,
    trace_to_csv,
    trace_to_json,
)
from ccrm.sets import Cap, EllipsoidLens, Hyperplane, IsometricImage
from ccrm.solvers import SolverConfig, run

from helpers import cap_socp, oracle_zoo


def test_oracle_descriptor_round_trips():
    rng = np.random.default_rng(91)
    for oracle, dim in oracle_zoo(rng):
        # hull coordinates and the ellipsoid pair oracle have no file kind
        if isinstance(oracle, (IsometricImage, EllipsoidLens)):
            with pytest.raises(ValueError, match="cannot serialize"):
                oracle_to_dict(oracle)
            continue
        data = oracle_to_dict(oracle)
        rebuilt = oracle_from_dict(json.loads(json.dumps(data)))
        assert rebuilt.dim == oracle.dim
        for _ in range(10):
            z = rng.normal(size=dim) * 2.0
            assert np.allclose(rebuilt.project(z), oracle.project(z), atol=1e-9)


def test_problem_round_trip_preserves_solutions():
    entry = make_discs3d()
    data = problem_to_dict(entry.problem, z0=entry.suggested_z0)
    problem, z0 = problem_from_dict(json.loads(json.dumps(data)))
    assert np.allclose(z0, entry.suggested_z0)
    assert np.allclose(problem.reference_solution, entry.problem.reference_solution)
    assert problem.known_constants.kappa_x == 0.5
    t1 = run(problem, SolverConfig(method="ccrm"), z0)
    t2 = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    assert np.allclose(t1.iterates, t2.iterates, atol=0.0)


def test_problem_round_trip_matrix_kinds():
    for entry in (make_fixed_trace(), make_socp(), make_sdp_feasibility()):
        data = problem_to_dict(entry.problem, z0=entry.suggested_z0)
        problem, z0 = problem_from_dict(json.loads(json.dumps(data)))
        t1 = run(problem, SolverConfig(method="ccrm", tol_feas=1e-10), z0)
        t2 = run(entry.problem, SolverConfig(method="ccrm", tol_feas=1e-10), entry.suggested_z0)
        assert t1.termination == t2.termination == "feasible"
        assert np.array_equal(t1.iterates, t2.iterates)


def test_one_row_subspace_loads_as_the_hyperplane_it_is():
    # Loaded in basis form, the socp, sdp and fixed_trace hulls projected by
    # another formula than the catalog's Hyperplane, and the iterates moved.
    for name in ("socp", "sdp", "fixed_trace"):
        entry = resolve(name)
        data = json.loads(json.dumps(problem_to_dict(entry.problem)))
        assert type(problem_from_dict(data)[0].Y.subspace) is Hyperplane
    # discs3d's plane is a Hyperplane in its pinned frame; a zero row is the whole space
    discs = json.loads(json.dumps(problem_to_dict(resolve("discs3d").problem)))
    plane, pinned = problem_from_dict(discs)[0].X.subspace, resolve("discs3d").problem.X.subspace
    assert type(plane) is type(pinned) is Hyperplane
    assert np.array_equal(plane.basis, pinned.basis)
    whole = {"kind": "affine_subspace", "A": [[0.0, 0.0, 0.0]], "b": [0.0]}
    assert oracle_from_dict(whole).subspace_dim == 3


def test_saved_discs3d_solves_and_diagnoses_as_the_catalog_bit_for_bit():
    # The plane loads as a Hyperplane in the stored frame, so the discs
    # project by the catalog's kernels and omega samples the same hull coordinates.
    entry = resolve("discs3d")
    data = json.loads(json.dumps(problem_to_dict(entry.problem, z0=entry.suggested_z0)))
    problem, z0 = problem_from_dict(data)
    for method in ("ccrm", "crm", "map"):
        t1 = run(problem, SolverConfig(method=method), z0)
        t2 = run(entry.problem, SolverConfig(method=method), entry.suggested_z0)
        assert t1.termination == t2.termination
        assert t1.iterates.tobytes() == t2.iterates.tobytes()
    z_bar = entry.problem.reference_solution
    for seed in range(3):
        omega = estimate_omega(problem, z_bar, samples_per_radius=20, seed=seed)
        assert omega.hex() == estimate_omega(entry.problem, z_bar, samples_per_radius=20, seed=seed).hex()


def test_a_hyperplane_basis_must_span_the_hyperplane():
    plane = Hyperplane([0.0, 0.0, 1.0], 2.0, basis=[[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    data = json.loads(json.dumps(oracle_to_dict(plane)))
    assert np.array_equal(oracle_from_dict(data).basis, plane.basis)
    tilted = [[1.0, 0.0], [0.0, 0.6], [0.0, 0.8]]  # orthonormal, off the plane
    with pytest.raises(ValueError, match="do not span"):
        Hyperplane([0.0, 0.0, 1.0], 2.0, basis=tilted)
    for bad, message in ((tilted, "do not span"), ([[1.0], [0.0], [0.0]], "basis must be 3 x 2")):
        with pytest.raises(ValueError, match=message):
            oracle_from_dict({**data, "basis": bad})
        with pytest.raises(ValueError, match=message):
            oracle_from_dict({"kind": "affine_subspace", "A": [[0.0, 0.0, 1.0]], "b": [2.0], "basis": bad})


def test_cap_round_trip():
    cap_problem, z0 = cap_socp()
    X = cap_problem.X
    data = oracle_to_dict(X)
    assert data["kind"] == "cap"
    assert data["inner"] == {"kind": "second_order_cone", "dim": 4}
    assert data["cut"]["kind"] == "hyperplane"
    rebuilt = oracle_from_dict(json.loads(json.dumps(data)))
    assert isinstance(rebuilt, Cap)
    rng = np.random.default_rng(94)
    for _ in range(10):
        z = z0 + rng.normal(size=4)
        assert np.array_equal(rebuilt.project(z), X.project(z))


def test_legacy_spectral_kinds_are_unknown(tmp_path, capsys):
    # spectral_set names both sets: lo = 0, and hi = bound with trace = 1
    entry = make_fixed_trace()
    for legacy in ({"kind": "psd_cone", "n": 3}, {"kind": "spectral_box_trace", "n": 4, "bound": 0.5}):
        with pytest.raises(ValueError, match=f"unknown set kind '{legacy['kind']}'"):
            oracle_from_dict(legacy)
        data = problem_to_dict(entry.problem, z0=entry.suggested_z0)
        data["X"] = legacy
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--problem", str(path)]) == 1
        assert capsys.readouterr().err == f"error: set X: unknown set kind {legacy['kind']!r}\n"


def test_problem_file_io(tmp_path):
    entry = make_discs3d()
    path = tmp_path / "discs.json"
    save_problem_file(path, entry.problem, z0=entry.suggested_z0)
    problem, z0 = load_problem_file(path)
    assert problem.dim == 3
    assert np.allclose(z0, entry.suggested_z0)


def test_common_hull_survives_a_problem_file(tmp_path):
    for name in ("discs3d", "ellipses", "eq_ellipsoids", "socp", "sdp", "fixed_trace"):
        entry = resolve(name)
        path = tmp_path / f"{name}.json"
        save_problem_file(path, entry.problem, z0=entry.suggested_z0)
        hull, loaded = entry.problem.common_hull, load_problem_file(path)[0].common_hull
        for attr in ("A", "b", "basis"):
            assert np.array_equal(getattr(loaded, attr), getattr(hull, attr)), (name, attr)


def test_declared_hull_that_x_does_not_lie_in_is_rejected():
    # A whole-space ball X and a disc Y of {z_3 = 0}, declaring that plane.
    # Trusting it reduced X to an oracle whose output for (5, 0) was
    # (1.961, 0), outside X & L (radius sqrt(3)) and moved by projecting again.
    plane = {"A": [[0.0, 0.0, 1.0]], "b": [0.0]}
    disc = {"kind": "frobenius_ball_in_L", "center": [3.0, 0.0, 0.0], "radius": 2.0, **plane}
    data = {
        "version": "1",
        "X": {"kind": "ball", "center": [0.0, 0.0, 1.0], "radius": 2.0},
        "Y": disc,
        "hull": plane,
    }
    with pytest.raises(ValueError, match="declared hull"):
        problem_from_dict(data)
    data["X"] = {**disc, "center": [0.0, 0.0, 1.0]}  # two discs of the plane: the hull is theirs
    problem, _ = problem_from_dict(data)
    assert problem.common_hull is problem.X.affine_hull
    for hull in ({"A": [[0.0, 0.0, 1.0]], "b": [1.0]}, {"A": [[0.0, 1.0]], "b": [0.0]}):
        with pytest.raises(ValueError, match="declared hull"):
            problem_from_dict(data | {"hull": hull})


def test_problem_validation_errors():
    with pytest.raises(ValueError):
        problem_from_dict({"version": "2", "X": {}, "Y": {}})
    with pytest.raises(ValueError):
        problem_from_dict({"version": "1", "X": {"kind": "ball", "center": [0, 0], "radius": 1}})
    with pytest.raises(ValueError):
        problem_from_dict(
            {
                "version": "1",
                "X": {"kind": "ball", "center": [0, 0], "radius": 1},
                "Y": {"kind": "ball", "center": [0, 0, 0], "radius": 1},
            }
        )
    with pytest.raises(ValueError):
        problem_from_dict(
            {
                "version": "1",
                "X": {"kind": "ball", "center": [0, 0], "radius": 1},
                "Y": {"kind": "ball", "center": [1, 0], "radius": 1},
                "z0": [0.0, 0.0, 0.0],
            }
        )
    with pytest.raises(ValueError):
        oracle_from_dict({"kind": "moebius"})
    with pytest.raises(ValueError):
        oracle_from_dict({"kind": "ball", "center": [0, 0]})


def test_trace_csv_round_trip_bit_exact(tmp_path):
    entry = make_discs3d()
    trace = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    back = trace_from_csv(path)
    assert back.method == "ccrm"
    assert back.termination == trace.termination
    assert back.iterates.shape == trace.iterates.shape
    assert np.array_equal(back.iterates, trace.iterates)
    assert np.array_equal(back.residuals_x, trace.residuals_x)
    assert np.array_equal(back.residuals_y, trace.residuals_y)
    assert np.array_equal(back.distances_to_reference, trace.distances_to_reference)


def test_trace_csv_without_reference(tmp_path):
    entry = make_discs3d()
    problem, _ = problem_from_dict(
        {k: v for k, v in problem_to_dict(entry.problem).items() if k != "reference"}
    )
    trace = run(problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    back = trace_from_csv(path)
    assert back.distances_to_reference is None


def test_trace_json_includes_internals(tmp_path):
    entry = make_discs3d()
    trace = run(
        entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0
    )
    path = tmp_path / "trace.json"
    trace_to_json(trace, path)
    with open(path) as fh:
        data = json.load(fh)
    assert data["method"] == "ccrm"
    assert data["termination"] == "feasible"
    assert len(data["centralized_points"]) == trace.n_steps
    assert data["circum_statuses"][0] in ("nondegenerate", "reduced_rank", "coincident_all")
