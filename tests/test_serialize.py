import json

import numpy as np
import pytest

from ccrm.catalog import make_discs3d, make_fixed_trace, make_sdp_feasibility, make_socp
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
from ccrm.sets import Cap, DykstraIntersection, IsometricImage, SpectralSet
from ccrm.solvers import SolverConfig, run

from helpers import oracle_zoo


def test_oracle_descriptor_round_trips():
    rng = np.random.default_rng(91)
    for oracle, dim in oracle_zoo(rng):
        if isinstance(oracle, IsometricImage):  # hull coordinates have no file kind
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
        assert np.allclose(t1.final, t2.final, atol=1e-12)


def test_cap_round_trip_and_dykstra_files_still_load():
    entry = make_socp()
    X = entry.problem.X
    data = oracle_to_dict(X)
    assert data["kind"] == "cap"
    assert data["inner"] == {"kind": "second_order_cone", "dim": 4}
    assert data["cut"]["kind"] == "hyperplane"
    rebuilt = oracle_from_dict(json.loads(json.dumps(data)))
    assert isinstance(rebuilt, Cap)
    rng = np.random.default_rng(94)
    for _ in range(10):
        z = entry.suggested_z0 + rng.normal(size=4)
        assert np.array_equal(rebuilt.project(z), X.project(z))
    # a socp file written with X as a Dykstra intersection of the cone and
    # L still loads as one, and solves to the same point
    problem_data = problem_to_dict(entry.problem, z0=entry.suggested_z0)
    L = {"kind": "affine_subspace", "A": [[0.0, 1.0, 1.0, 1.0]], "b": [1.5]}
    problem_data["X"] = {
        "kind": "dykstra_intersection",
        "members": [{"kind": "second_order_cone", "dim": 4}, L],
        "tol": 1e-12,
        "max_iter": 100000,
        "hull": {"A": L["A"], "b": L["b"]},
    }
    problem, z0 = problem_from_dict(json.loads(json.dumps(problem_data)))
    assert isinstance(problem.X, DykstraIntersection)
    t1 = run(problem, SolverConfig(method="ccrm"), z0)
    t2 = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    assert t1.termination == t2.termination == "feasible"
    assert t1.n_steps == t2.n_steps
    assert np.linalg.norm(t1.final - t2.final) <= 1e-10


def test_legacy_spectral_kinds_load_as_spectral_sets():
    rng = np.random.default_rng(93)
    for data, expected in (
        ({"kind": "psd_cone", "n": 3}, SpectralSet(3, lo=0.0)),
        ({"kind": "spectral_box_trace", "n": 4, "bound": 0.5}, SpectralSet(4, hi=0.5, trace=1.0)),
    ):
        oracle = oracle_from_dict(data)
        assert type(oracle) is SpectralSet
        for _ in range(10):
            z = rng.normal(size=expected.dim) * 2.0
            assert np.array_equal(oracle.project(z), expected.project(z))
        assert oracle_to_dict(oracle) == oracle_to_dict(expected)
        assert oracle_to_dict(oracle)["kind"] == "spectral_set"
    # a fixed_trace file naming X by its old kind solves to the same trace
    entry = make_fixed_trace()
    data = problem_to_dict(entry.problem, z0=entry.suggested_z0)
    data["X"] = {"kind": "spectral_box_trace", "n": 4, "bound": 0.5}
    problem, z0 = problem_from_dict(json.loads(json.dumps(data)))
    t1 = run(problem, SolverConfig(method="ccrm"), z0)
    t2 = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0)
    assert np.array_equal(t1.iterates, t2.iterates)


def test_problem_file_io(tmp_path):
    entry = make_discs3d()
    path = tmp_path / "discs.json"
    save_problem_file(path, entry.problem, z0=entry.suggested_z0)
    problem, z0 = load_problem_file(path)
    assert problem.dim == 3
    assert np.allclose(z0, entry.suggested_z0)


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
