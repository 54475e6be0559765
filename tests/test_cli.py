import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ccrm.cli import main
from ccrm.serialize import save_problem_file, trace_from_csv
from ccrm.catalog import make_discs3d


def test_solve_discs_writes_trace_and_report(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    report = tmp_path / "report.json"
    code = main(
        [
            "solve", "--problem", "discs3d", "--method", "ccrm",
            "--out", str(out), "--report", str(report),
        ]
    )
    assert code == 0
    trace = trace_from_csv(out)
    assert trace.method == "ccrm"
    assert trace.termination == "feasible"
    expected = [3.54, 9.24e-2, 3.70e-3, 7.51e-6]
    for k, exp in enumerate(expected):
        assert abs(trace.distances_to_reference[k] - exp) <= 1e-2 * exp
    with open(report) as fh:
        data = json.load(fh)
    assert data["classification"] == "quadratic"
    assert "feasible" in capsys.readouterr().out


def test_solve_feasible_start_single_row(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "solve", "--problem", "discs3d", "--method", "map",
            "--z0", "1.9364916731037085,0.0,0.0", "--out", str(out),
        ]
    )
    assert code == 0
    assert trace_from_csv(out).iterates.shape[0] == 1


def test_solve_epigraph_map_is_sublinear(tmp_path):
    report = tmp_path / "report.json"
    code = main(
        [
            "solve", "--problem", "epigraph:a=2,b=0", "--method", "map",
            "--max-iter", "2000", "--report", str(report),
        ]
    )
    assert code == 2  # stalls at the iteration cap: tangential contact
    with open(report) as fh:
        assert json.load(fh)["classification"] == "sublinear"


def test_solve_max_iter_exit_code(tmp_path):
    code = main(["solve", "--problem", "discs3d", "--method", "map", "--max-iter", "2"])
    assert code == 2


def test_solve_problem_file(tmp_path):
    entry = make_discs3d()
    problem_path = tmp_path / "discs.json"
    save_problem_file(problem_path, entry.problem, z0=entry.suggested_z0)
    out = tmp_path / "trace.json"
    code = main(["solve", "--problem", str(problem_path), "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        data = json.load(fh)
    assert data["termination"] == "feasible"
    # the JSON trace carries the solver internals, one entry per step
    n_steps = len(data["iterates"]) - 1
    assert len(data["centralized_points"]) == len(data["circum_statuses"]) == n_steps


def test_solve_unknown_problem_no_partial_files(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["solve", "--problem", "torus", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_solve_fixed_trace_rejects_a_dimension(capsys):
    assert main(["solve", "--problem", "fixed_trace:n=4"]) == 1
    assert capsys.readouterr().err.strip() == "error: unknown fixed_trace parameter 'n'"
    for problem in ("fixed_trace:a=0.6", "sdp", "eq_ellipsoids"):
        assert main(["solve", "--problem", problem]) == 0


def test_solve_missing_problem_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--problem", "missing.json"]) == 1
    assert capsys.readouterr().err == "error: problem file 'missing.json' does not exist\n"
    assert os.listdir(tmp_path) == []


def test_solve_bad_z0_dimension(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["solve", "--problem", "discs3d", "--z0", "1,2", "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_solve_malformed_problem_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--problem", str(bad)]) == 1


def _sheet(axis=(1.0, 0.0), d=1.0):
    return {"kind": "hyperboloid_sheet", "axis": list(axis), "d": d}


@pytest.mark.parametrize(
    "x, message",
    [
        ({"kind": "ball", "center": [0.0, 0.0], "radius": "1"}, "is malformed"),
        ({"kind": "second_order_cone", "dim": "2"}, "is malformed"),
        (_sheet(d="1"), "is malformed"),
        (_sheet(d=-1.0), "is invalid: vertex height d must be nonnegative"),
        (_sheet(d=float("inf")), "is invalid: d must be finite, got inf"),
        (_sheet(d=float("nan")), "is invalid: d must be finite, got nan"),
        (_sheet(axis=(0.0, 0.0)), "is invalid: hyperboloid axis must be nonzero"),
        ({"kind": "ball", "center": [0.0, 0.0], "radius": float("nan")},
         "is invalid: radius must be finite, got nan"),
        ({"kind": "second_order_cone", "dim": 2.7}, "is malformed"),
        ({"kind": "spectral_set", "n": 1.5, "lo": 0.0}, "is malformed"),
    ],
    ids=[
        "string-radius", "string-dim", "sheet-string-d",
        "sheet-negative-d", "sheet-inf-d", "sheet-nan-d", "sheet-zero-axis",
        "nan-radius", "float-dim", "float-n",
    ],
)
def test_solve_mistyped_descriptor_is_an_input_error(tmp_path, capsys, x, message):
    # The first two raised a TypeError out of the set constructors, and a
    # string d is wrapped the same way; a value a constructor rejects is
    # wrapped too. Each error names the set and its kind. A float dim solved
    # as its floor, and a float n failed at the first projection.
    good = {"kind": "halfspace", "normal": [0.0, 1.0], "offset": 0.0}
    for name, problem in (("X", {"X": x, "Y": good}), ("Y", {"X": good, "Y": x})):
        path = tmp_path / f"bad_{name}.json"
        path.write_text(json.dumps({"version": "1", **problem, "z0": [1.0, 1.0]}))
        assert main(["solve", "--problem", str(path)]) == 1
        expected = f"error: set {name}: descriptor of kind {x['kind']!r} {message}"
        assert capsys.readouterr().err.startswith(expected)


def test_solve_dykstra_intersection_file_is_an_input_error(tmp_path, capsys):
    # The kind is gone: its one oracle had a known wrong output far away.
    x = {"kind": "dykstra_intersection",
         "members": [{"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                     {"kind": "halfspace", "normal": [1.0, 0.0], "offset": -0.2}]}
    y = {"kind": "halfspace", "normal": [0.0, 1.0], "offset": 0.0}
    path = tmp_path / "dykstra.json"
    path.write_text(json.dumps({"version": "1", "X": x, "Y": y, "z0": [1.0, 1.0]}))
    assert main(["solve", "--problem", str(path)]) == 1
    assert capsys.readouterr().err == "error: set X: unknown set kind 'dykstra_intersection'\n"


def test_solve_zero_d_sheet_file_is_the_cone(tmp_path):
    # d = 0 was rejected; the sheet of axis e_1 and d = 0 is the cone, so
    # both files give the same trace.
    y = {"kind": "ball", "center": [1.0, 2.0, 0.5], "radius": 1.5}
    traces = []
    for name, x in (("sheet", _sheet(axis=(2.0, 0.0, 0.0), d=0.0)),
                    ("cone", {"kind": "second_order_cone", "dim": 3})):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        path.write_text(json.dumps({"version": "1", "X": x, "Y": y, "z0": [-1.0, 3.0, 1.0]}))
        assert main(["solve", "--problem", str(path), "--out", str(out)]) == 0
        traces.append(trace_from_csv(out))
    assert traces[0].termination == "feasible"
    assert np.array_equal(traces[0].iterates, traces[1].iterates)


@pytest.mark.parametrize("field", ["z0", "reference", "hull", "known_constants"])
def test_solve_mistyped_problem_field_is_an_input_error(tmp_path, capsys, field):
    # Each of these raised a TypeError or AttributeError out of the parser.
    problem = {
        "version": "1",
        "X": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "Y": {"kind": "halfspace", "normal": [0.0, 1.0], "offset": 0.0},
        field: 5,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(problem))
    assert main(["solve", "--problem", str(path), "--z0", "1,1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: problem field {field!r} is malformed")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--problem", "discs3d", "--tol", "nan"], "tol_feas must be finite and positive, got nan"),
        (["--problem", "discs3d", "--tol", "inf"], "tol_feas must be finite and positive, got inf"),
        (["--problem", "epigraph:a=inf,b=1"], "alpha must be finite, got inf"),
    ],
    ids=["tol-nan", "tol-inf", "alpha-inf"],
)
def test_solve_non_finite_parameter_is_an_input_error(capsys, argv, message):
    # tol nan ended as stagnation, tol inf as feasible at residual 2.49, and
    # alpha inf printed a RuntimeWarning before its error.
    assert main(["solve", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
def test_solve_crm_from_a_start_near_1e100(capsys):
    # The circumcenter's residual overflowed at the first step, which
    # ended the run as stagnation after 0 steps with a RuntimeWarning.
    argv = ["solve", "--problem", "socp", "--method", "crm", "--z0=1e100,-2e100,3e100,1e100"]
    assert main(argv) == 0
    assert "crm on socp: feasible after" in capsys.readouterr().out


def test_solve_nan_radius_file_names_the_radius(tmp_path, capsys):
    problem = {
        "version": "1",
        "X": {"kind": "ball", "center": [0.0, 0.0], "radius": float("nan")},
        "Y": {"kind": "halfspace", "normal": [0.0, 1.0], "offset": 0.0},
        "z0": [1.0, 1.0],
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(problem))  # a bare NaN, which json reads back
    assert main(["solve", "--problem", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: set X: descriptor of kind 'ball' is invalid: radius must be finite, got nan\n"
    )


def test_solve_missing_z0_in_file(tmp_path):
    entry = make_discs3d()
    path = tmp_path / "p.json"
    save_problem_file(path, entry.problem)
    assert main(["solve", "--problem", str(path)]) == 1
    assert main(["solve", "--problem", str(path), "--z0", "1.9,4.0,0.5"]) == 0


def _lens_problem_file(tmp_path):
    # X is a disc cut by a disc tangent to it, which the cap refuses
    # (ConvergenceError) everywhere but at points that project into the
    # cut: the start (1, 0), the tangent point, is one, but CRM's first
    # circumcenter is not.
    problem = {
        "version": "1",
        "X": {
            "kind": "cap",
            "inner": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "cut": {"kind": "ball", "center": [2.0, 0.0], "radius": 1.0},
        },
        "Y": {"kind": "ball", "center": [3.0, 3.0], "radius": 0.5},
        "z0": [1.0, 0.0],
    }
    path = tmp_path / "lens.json"
    path.write_text(json.dumps(problem))
    return path


def test_solve_inner_failure_writes_partial_trace(tmp_path, capsys):
    path = _lens_problem_file(tmp_path)
    out = tmp_path / "trace.csv"
    report = tmp_path / "report.json"
    code = main(
        [
            "solve", "--problem", str(path), "--method", "crm",
            "--out", str(out), "--report", str(report),
        ]
    )
    assert code == 2
    trace = trace_from_csv(out)
    assert trace.termination == "inner_failure"
    assert np.array_equal(trace.iterates, [[1.0, 0.0]])
    with open(report) as fh:
        data = json.load(fh)
    assert data["termination"] == "inner_failure"
    assert "the cut is tangent to the set or misses it" in data["termination_detail"]
    assert "the cut is tangent to the set or misses it" in capsys.readouterr().out


def test_convergence_error_outside_run_exits_2(tmp_path, capsys):
    path = _lens_problem_file(tmp_path)
    out = tmp_path / "trace.csv"
    # the start itself is refused
    assert main(["solve", "--problem", str(path), "--z0", "3,3", "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["diagnose", "--problem", str(path), "--point", "0.95,0.5"]) == 2
    assert capsys.readouterr().err.count("error: the cut is tangent to the set or misses it") == 2


def test_solve_power_epigraph_overflow_exits_2(tmp_path, capsys):
    # At alpha = 3 Newton's first step from this start overflows a float.
    problem = {
        "version": "1",
        "X": {"kind": "power_epigraph", "alpha": 3.0, "beta": 0.5},
        "Y": {"kind": "halfspace", "normal": [0.0, 1.0], "offset": 0.0},
        "z0": [1e160, 0.0],
    }
    path = tmp_path / "epigraph.json"
    path.write_text(json.dumps(problem))
    assert main(["solve", "--problem", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: power-epigraph projection overflows")
    assert "Traceback" not in err


# The reference distances of run() overflow at such a start; only the
# circumcenter must not crash.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "problem, z0",
    [("discs3d", "-3e160,1e160,1e160"), ("socp", "-3e160,1e160,1e160,1e160")],
)
def test_solve_crm_from_past_distance_overflow_exits_cleanly(problem, z0, capsys):
    code = main(["solve", "--problem", problem, "--method", "crm", f"--z0={z0}"])
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_solve_records_finite_reference_distances_past_overflow(tmp_path):
    # The start's distance to discs3d's reference is about 3.3e160; its
    # sum of squares overflows. Run as a process under -W error, so any
    # numpy overflow warning fails it.
    out = tmp_path / "far.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]
    ))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ccrm.cli", "solve", "--problem", "discs3d",
         "--method", "crm", "--z0=-3e160,1e160,1e160", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trace = trace_from_csv(out)
    z0 = np.array([-3e160, 1e160, 1e160])
    expected = 1e160 * np.linalg.norm(z0 / 1e160 - make_discs3d().problem.reference_solution / 1e160)
    assert trace.distances_to_reference[0] == pytest.approx(expected, rel=1e-15)
    assert np.all(np.isfinite(trace.distances_to_reference))


def test_table1_output(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    code = main(["table1", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "3.54e+00" in text
    assert "0.549" in text
    assert "0.555" in text
    assert "2.61e-02" in text
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6  # header + five rows
    row0 = lines[1].split(",")
    assert abs(float(row0[1]) - 3.5355339) <= 1e-6


def test_table2_grid(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    code = main(["table2", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    cells = {}
    for row in rows:
        beta, alpha, variant, method, classification, constant, order = row.split(",")
        cells[(float(beta), float(alpha), variant, method)] = (classification, constant)
    for variant in ("halfplane", "line"):
        assert cells[(0.0, 2.0, variant, "map")][0] == "sublinear"
        assert cells[(1.0, 2.0, variant, "map")][0] == "linear"
        for alpha in (2.0, 3.0):
            cls, const = cells[(0.0, alpha, variant, "ccrm")]
            assert cls == "linear"
            assert abs(float(const) - (1.0 - 1.0 / alpha)) <= 1e-2
        assert cells[(1.0, 3.0, variant, "ccrm")][0] == "quadratic"


def test_diagnose_disc_problem(tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = main(["diagnose", "--problem", "discs3d", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        text = fh.read()
    assert text == capsys.readouterr().out
    data = json.loads(text)
    assert data["kappa_x"] == pytest.approx(0.5, abs=1e-8)
    assert data["kappa_y"] == pytest.approx(0.5, abs=1e-8)
    assert 0.0 < data["omega_estimate"] <= 1.0
    assert data["quad_constant_sharper"] == pytest.approx(
        0.5 / data["omega_estimate"], rel=1e-12
    )
    assert data["quad_constant_bound"] == pytest.approx(
        4.0 * data["quad_constant_sharper"], rel=1e-12
    )


def test_diagnose_ellipse_major_axis_tip(capsys):
    code = main(["diagnose", "--problem", "ellipses", "--point", "2,0,0"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kappa_x"] == pytest.approx(2.0, abs=1e-8)


def test_diagnose_reports_regularity_per_set(capsys):
    # at the cone apex the curvature is refused for that set only
    code = main(["diagnose", "--problem", "socp", "--point", "0,0.5,0.5,0.5"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert "kappa_x_error" in data or "kappa_y_error" in data


def test_diagnose_refuses_a_point_off_the_hull(capsys):
    code = main(["diagnose", "--problem", "socp", "--point", "0,0.6,0.6,0.6"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    for label in ("kappa_x", "kappa_y"):
        assert data[label] is None
        assert data[label + "_error"].startswith("point is not on the set's affine hull")
    # omega was sampled around the lifted point (0.957 there, about 0.39 at the limit)
    assert data["omega_estimate"] is None
    assert data["omega_error"].startswith("point is not on the problem's common hull")
    assert "quad_constant_bound" not in data and "quad_constant_sharper" not in data


def test_diagnose_reports_a_pair_with_no_intersection_oracle(tmp_path, capsys):
    # No pair rule covers a ball and a power epigraph: omega is refused,
    # and the curvatures are still reported.
    problem = {
        "version": "1",
        "X": {"kind": "ball", "center": [0.0, 1.0], "radius": 1.0},
        "Y": {"kind": "power_epigraph", "alpha": 2.0, "beta": 0.0},
        "z0": [1.0, -1.0],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(problem))
    assert main(["diagnose", "--problem", str(path), "--point", "0,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["omega_estimate"] is None
    assert data["omega_error"] == "no exact projection onto Ball & PowerEpigraph"
    assert data["kappa_x"] == pytest.approx(1.0) and data["kappa_y"] == pytest.approx(2.0)
    assert "quad_constant_bound" not in data


@pytest.mark.parametrize("second", [2.0, 3.0], ids=["tangent", "disjoint"])
def test_diagnose_tangent_or_disjoint_discs_file_is_a_convergence_error(tmp_path, capsys, second):
    # Two discs of one plane that touch or miss: their lens refuses to be
    # built, as their cap refused at its first projection (exit 2).
    def disc(x):
        return {"kind": "frobenius_ball_in_L", "center": [x, 0.0, 0.0], "radius": 1.0,
                "A": [[0.0, 0.0, 1.0]], "b": [0.0]}

    path = tmp_path / "discs.json"
    path.write_text(json.dumps({"version": "1", "X": disc(0.0), "Y": disc(second), "z0": [1.0, 2.0, 0.5]}))
    assert main(["diagnose", "--problem", str(path), "--point", "1,0,0"]) == 2
    assert capsys.readouterr().err.startswith("error: the balls are tangent or disjoint")


@pytest.mark.parametrize("second", [2.0, 3.0], ids=["tangent", "disjoint"])
def test_diagnose_tangent_or_disjoint_whole_space_balls_file_is_a_convergence_error(tmp_path, capsys, second):
    # Two whole-space balls are a lens as well, refused when it is built.
    def ball(x):
        return {"kind": "ball", "center": [x, 0.0, 0.0], "radius": 1.0}

    path = tmp_path / "balls.json"
    path.write_text(json.dumps({"version": "1", "X": ball(0.0), "Y": ball(second), "z0": [1.0, 2.0, 0.5]}))
    assert main(["diagnose", "--problem", str(path), "--point", "1,0,0"]) == 2
    assert capsys.readouterr().err.startswith("error: the balls are tangent or disjoint")


def test_diagnose_requires_point_without_reference():
    assert main(["diagnose", "--problem", "ellipses"]) == 1
