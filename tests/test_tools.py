"""The identity gates: tools/compare_traces.py and tools/compare_lines.py
(on omega and projection files), the kinds tools/write_projections.py
covers, the reduced runs of tools/write_traces.py, the per-call timers
tools/time_circumcenter.py and tools/time_projections.py, and the per-step
timer tools/time_steps.py, each also beside a second checkout's package.
The timers' repeats, passes and budget, and the cap counter's point
counts, are module constants that the tests set lower."""

import inspect
import json
import math
import os
import re
import sys

import pytest

import ccrm
import ccrm.sets
from ccrm import catalog
from ccrm.serialize import oracle_from_dict, oracle_to_dict
from ccrm.solvers import SolverConfig, run

from helpers import tool_module

compare_traces = tool_module("compare_traces").main
compare_lines = tool_module("compare_lines").main

TRACE = [
    "# method=ccrm termination=feasible",
    "k,z0,z1,dist_X,dist_Y",
    "0,1.5,2.0,0.25,0.5",
    "1,1.0,0.0,1e-12,0.0",
]
TRACES = {"discs3d_ccrm_z0.csv": TRACE, "sdp_map_z0.csv": ["error: ConvergenceError: no"]}
OMEGAS = ["discs3d seed0 0.5968757820268886", "socp seed0 error: ConvergenceError: no"]
PROJECTIONS = [
    "socp X P(1e3#0) project [0.5, -1.25, 1000.0]",
    "socp X P(1e3#0) boundary_eval (-2.5e-16, [1.0, 0.0], [[2.0, 0.0], [0.0, 2.0]])",
    "socp intersection 0 project error: ConvergenceError: no",
    "file cap error: ValueError: no",
]


def _corpus(root, name, traces):
    path = root / name
    path.mkdir()
    for file, lines in traces.items():
        (path / file).write_text("\n".join(lines) + "\n")
    return str(path)


def _lines_file(root, name, lines):
    path = root / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _changed(row, cell, value):
    lines = list(TRACE)
    cells = lines[row].split(",")
    cells[cell] = value
    lines[row] = ",".join(cells)
    return lines


def test_compare_traces_accepts_identical_and_tolerated_corpora(tmp_path):
    a = _corpus(tmp_path, "a", TRACES)
    assert compare_traces([a, _corpus(tmp_path, "b", TRACES)]) == 0
    near = _corpus(tmp_path, "near", {**TRACES, "discs3d_ccrm_z0.csv": _changed(2, 1, "1.5000000000001")})
    assert compare_traces([a, near, "--atol", "1e-12"]) == 0
    assert compare_traces([a, near]) == 1


@pytest.mark.parametrize(
    "file, lines",
    [
        ("discs3d_ccrm_z0.csv", ["# method=ccrm termination=max_iter"] + TRACE[1:]),
        ("discs3d_ccrm_z0.csv", TRACE[:-1]),
        ("discs3d_ccrm_z0.csv", _changed(3, 3, "3e-12")),
        ("sdp_map_z0.csv", ["error: ValueError: no"]),
    ],
    ids=["header", "row-count", "gap", "error-type"],
)
def test_compare_traces_rejects_a_broken_rule(tmp_path, file, lines):
    a = _corpus(tmp_path, "a", TRACES)
    b = _corpus(tmp_path, "b", {**TRACES, file: lines})
    assert compare_traces([a, b, "--atol", "1e-12"]) == 1


def test_compare_traces_rejects_a_missing_file(tmp_path):
    a = _corpus(tmp_path, "a", TRACES)
    b = _corpus(tmp_path, "b", {"discs3d_ccrm_z0.csv": TRACE})
    assert compare_traces([a, b]) == 1


def test_compare_omegas_accepts_identical_and_tolerated_files(tmp_path):
    a = _lines_file(tmp_path, "a.txt", OMEGAS)
    assert compare_lines([a, _lines_file(tmp_path, "b.txt", OMEGAS)]) == 0
    # the same error type with another message, and a value within rtol
    near = _lines_file(
        tmp_path, "near.txt", ["discs3d seed0 0.5968757820269", "socp seed0 error: ConvergenceError: other"]
    )
    assert compare_lines([a, near, "--rtol", "1e-10"]) == 0
    assert compare_lines([a, near]) == 1


@pytest.mark.parametrize(
    "lines",
    [
        ["discs3d seed1 0.5968757820268886", OMEGAS[1]],
        OMEGAS[:1],
        ["discs3d seed0 0.6", OMEGAS[1]],
        [OMEGAS[0], "socp seed0 error: ValueError: no"],
        [OMEGAS[0], "socp seed0 0.25"],
        # the relative gap of inf or nan to a finite omega is no number, which must not pass
        ["discs3d seed0 inf", OMEGAS[1]],
        ["discs3d seed0 nan", OMEGAS[1]],
    ],
    ids=["key", "line-count", "gap", "error-type", "error-to-value", "non-finite-inf", "non-finite-nan"],
)
def test_compare_omegas_rejects_a_broken_rule(tmp_path, lines):
    a = _lines_file(tmp_path, "a.txt", OMEGAS)
    assert compare_lines([a, _lines_file(tmp_path, "b.txt", lines), "--rtol", "1e-10"]) == 1


def test_omega_writer_writes_curvature_lines_that_compare(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
    write_omegas = tool_module("write_omegas")
    monkeypatch.setattr(write_omegas, "SELECTORS", ("discs3d", "epigraph:a=2,b=0,y=line"))
    out = tmp_path / "omegas.txt"
    write_omegas.main(str(out))
    assert capsys.readouterr().out == f"12 lines written to {out}\n"
    lines = out.read_text().splitlines()
    parse_line = tool_module("compare_lines").parse_line
    key, error, layout, numbers = parse_line(lines[0])
    assert (key, error, layout) == ("discs3d kappa_X", None, "(#, [#, #, #])")
    assert numbers[0] == 0.5 and abs(math.hypot(*numbers[1:]) - 1.0) <= 1e-15
    assert parse_line(lines[1])[0] == "discs3d kappa_Y"
    assert [line.split()[1] for line in lines[2:6]] == ["seed0", "seed1", "seed2", "seed3"]
    assert lines[7].startswith("epigraph:a=2,b=0,y=line kappa_Y error: UnsupportedOperation: ")
    assert compare_lines([str(out), str(out)]) == 0
    moved = [lines[0].replace("(0.5,", "(0.5000001,")] + lines[1:]
    assert compare_lines([str(out), _lines_file(tmp_path, "moved.txt", moved), "--rtol", "1e-9"]) == 1


def test_compare_projections_accepts_identical_and_tolerated_files(tmp_path):
    a = _lines_file(tmp_path, "a.txt", PROJECTIONS)
    assert compare_lines([a, _lines_file(tmp_path, "b.txt", PROJECTIONS)]) == 0
    # the same error types with other messages, and numbers within rtol of
    # each line's largest magnitude (1000 and 2)
    near = [
        "socp X P(1e3#0) project [0.5000000001, -1.25, 1000.0]",
        "socp X P(1e3#0) boundary_eval (1.5e-15, [1.0, 0.0], [[2.0, 0.0], [0.0, 2.0]])",
        "socp intersection 0 project error: ConvergenceError: other",
        "file cap error: ValueError: other",
    ]
    near = _lines_file(tmp_path, "near.txt", near)
    assert compare_lines([a, near, "--rtol", "1e-12"]) == 0
    assert compare_lines([a, near]) == 1


@pytest.mark.parametrize(
    "row, line",
    [
        (0, "socp X P(1e3#1) project [0.5, -1.25, 1000.0]"),
        (0, None),
        (0, "socp X P(1e3#0) project [0.5000001, -1.25, 1000.0]"),
        (1, "socp X P(1e3#0) boundary_eval (-2.5e-16, [1.0, 0.0], [[2.0, 0.0], [0.0, 2.0001]])"),
        (1, "socp X P(1e3#0) boundary_eval (-2.5e-16, [1.0, 0.0], [[2.0, 0.0, 0.0]])"),
        (0, "socp X P(1e3#0) project [0.5, -1.25, inf]"),
        (2, "socp intersection 0 project error: ValueError: no"),
        (2, "socp intersection 0 project [0.5, -1.25, 1000.0]"),
        (3, "file cap project [0.0]"),
    ],
    ids=["key", "line-count", "gap", "gap-of-small-line", "layout", "non-finite", "error-type",
         "error-to-value", "build-error-to-value"],
)
def test_compare_projections_rejects_a_broken_rule(tmp_path, row, line):
    lines = list(PROJECTIONS)
    if line is None:
        del lines[row]
    else:
        lines[row] = line
    a = _lines_file(tmp_path, "a.txt", PROJECTIONS)
    assert compare_lines([a, _lines_file(tmp_path, "b.txt", lines), "--rtol", "1e-12"]) == 1


def test_projection_corpus_covers_every_problem_file_kind(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
    write_projections = tool_module("write_projections")
    read = set(re.findall(r'kind == "(\w+)"', inspect.getsource(oracle_from_dict)))
    assert {"ball", "ball_lens", "cap", "spectral_set"} <= read
    assert all(data["kind"] == kind for kind, data in write_projections.DESCRIPTORS.items())
    catalog_kinds = set()
    for selector in write_projections.SELECTORS:
        problem = catalog.resolve(selector).problem
        catalog_kinds |= {oracle_to_dict(problem.X)["kind"], oracle_to_dict(problem.Y)["kind"]}
    assert set(write_projections.DESCRIPTORS) | catalog_kinds == read


@pytest.fixture
def twin(monkeypatch):
    """tools/twin.py, with one repeat of one pass per case."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
    import twin

    monkeypatch.setattr(twin, "REPEATS", 1)
    monkeypatch.setattr(twin, "PASSES", 1)
    return twin


def test_circumcenter_timer_prints_one_json_line(capsys, twin):
    tool_module("time_circumcenter").main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    dims = [f"n={n}" for n in (2, 3, 4, 6, 10, 16)]
    assert list(result["three"]) == list(result["loop_three"]) == dims
    assert list(result["four"]) == ["n=4"]
    times = [*result["three"].values(), *result["loop_three"].values(), *result["four"].values()]
    assert all(t > 0.0 for t in times)


def test_projection_timer_prints_one_json_line(capsys, twin):
    timer = tool_module("time_projections")
    timer.main([])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["unit"] == "us/call"
    for role in ("X", "Y", "intersection"):
        assert list(result[role]) == list(timer.SELECTORS)
    times = [t for role in ("X", "Y", "intersection") for t in result[role].values()]
    # Only a tangent pair's intersection refuses every point: epigraph with b = 0.
    assert [s for s, t in result["intersection"].items() if t is None] == [
        s for s in timer.SELECTORS if s.startswith("epigraph:") and ",b=0," in s
    ]
    assert all(t > 0.0 for t in times if t is not None)


def test_step_timer_prints_one_json_line(capsys, monkeypatch, twin):
    timer = tool_module("time_steps")
    monkeypatch.setattr(timer, "SELECTORS", ("discs3d", "epigraph:a=3,b=1,y=line"))
    monkeypatch.setattr(timer, "BUDGET_MS", 0.0)
    timer.main([])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["unit"] == "us/step"
    for method in ("ccrm", "crm", "map"):
        assert list(result[method]) == list(result["steps"][method]) == list(timer.SELECTORS)
        assert all(t > 0.0 for t in result[method].values())
    entry = catalog.resolve("discs3d")
    for method in ("ccrm", "crm", "map"):
        trace = run(entry.problem, SolverConfig(method=method), entry.suggested_z0)
        assert result["steps"][method]["discs3d"] == trace.n_steps


@pytest.fixture
def this_src(twin):
    """This checkout's src, to load a second time under another package
    name; the copy is unloaded afterwards."""
    yield os.path.dirname(os.path.dirname(os.path.abspath(ccrm.__file__)))
    for name in [n for n in sys.modules if n.split(".")[0] == "ccrm_against"]:
        del sys.modules[name]


def test_step_timer_times_a_second_checkout_beside_this_one(capsys, monkeypatch, twin, this_src):
    # Every case runs both copies, and their iterates agree bit for bit.
    timer = tool_module("time_steps")
    monkeypatch.setattr(timer, "SELECTORS", ("discs3d", "epigraph:a=2,b=0,y=line"))
    monkeypatch.setattr(timer, "BUDGET_MS", 0.0)
    monkeypatch.setattr(twin, "REPEATS", 2)
    timer.main(["--against", this_src])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert sys.modules[timer.twin.AGAINST + ".sets"] is not ccrm.sets
    for method in ("ccrm", "crm", "map"):
        for key in ("against", "ratio", "bitwise"):
            assert list(result[key][method]) == list(timer.SELECTORS)
        assert all(t > 0.0 for t in result["against"][method].values())
        assert all(r > 0.0 for r in result["ratio"][method].values())
        assert all(result["bitwise"][method].values())


def test_projection_timer_times_a_second_checkout_beside_this_one(capsys, monkeypatch, this_src):
    timer = tool_module("time_projections")
    monkeypatch.setattr(timer, "SELECTORS", ("sdp",))
    timer.main(["--against", this_src])
    result = json.loads(capsys.readouterr().out)
    for role in ("X", "Y", "intersection"):
        assert result["bitwise"][role] == {"sdp": True}
        assert result["against"][role]["sdp"] > 0.0 and result["ratio"][role]["sdp"] > 0.0


def test_cap_projection_counter_prints_one_json_line(capsys, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
    counter = tool_module("count_cap_projections")
    monkeypatch.setattr(counter, "NEAR", 4)
    monkeypatch.setattr(counter, "FAR", 2)
    counter.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert set(result) == {"near", "far", "failed"}
    assert {"socp", "sdp", "fixed_trace", "epigraph:a=2,b=1"} <= set(result["near"])
    assert set(result["near"]) == set(result["far"]) == set(result["failed"])
    assert all(count > 0 for count in result["near"].values())


def test_trace_writer_runs_the_reduced_problem(tmp_path, monkeypatch, capsys):
    write_traces = tool_module("write_traces")
    monkeypatch.setattr(write_traces, "SELECTORS", ("discs3d",))
    write_traces.main(str(tmp_path))
    assert capsys.readouterr().out == f"16 traces written to {tmp_path}\n"
    labels = ["z0"] + [f"seed{seed}" for seed in write_traces.SEEDS]
    for label in labels:
        lines = (tmp_path / f"discs3d_reduced_ccrm_{label}.csv").read_text().splitlines()
        assert lines[0].endswith("termination=feasible")
        assert lines[1] == "k,z0,z1,dist_X,dist_Y,dist_ref"
