"""The identity corpus, tools/corpus.py: its comparison rules on
hand-made corpora, what it writes (the ω and κ lines, the kinds its
projections cover, the reduced runs), its diff of this checkout against
itself and its script entry point; the per-call timers
tools/time_circumcenter.py and tools/time_projections.py, the per-step
timer tools/time_steps.py, each also beside a second checkout's package,
and the cap counter. The timers' repeats, passes and budget, the cap
counter's point counts and the corpus's selectors are module constants
that the tests set lower."""

import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import ccrm
import ccrm.sets
from ccrm import catalog
from ccrm.diagnostics import estimate_omega
from ccrm.serialize import oracle_from_dict, oracle_to_dict
from ccrm.solvers import SolverConfig, run

from helpers import tool_module

corpus = tool_module("corpus")

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
TABLE2 = ["beta,alpha,variant,method,classification,constant,order", "0.0,2.0,line,map,linear,0.5,1.0"]
# Two problems, one whose curvature of Y raises (a tangent epigraph's line).
SMALL = ("discs3d", "epigraph:a=2,b=0,y=line")


def _corpus(root, name, traces=TRACES, omegas=OMEGAS, projections=PROJECTIONS, table2=TABLE2):
    """A corpus directory with the given parts; table2.txt holds the CSV's lines too."""
    path = root / name
    (path / "traces").mkdir(parents=True)
    files = {f"traces/{file}": lines for file, lines in traces.items()}
    files |= {"omegas.txt": omegas, "projections.txt": projections, "table2.txt": table2, "table2.csv": table2}
    for file, lines in files.items():
        (path / file).write_text("\n".join(lines) + "\n")
    return str(path)


def _changed(row, cell, value):
    lines = list(TRACE)
    cells = lines[row].split(",")
    cells[cell] = value
    lines[row] = ",".join(cells)
    return lines


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The corpus this checkout writes for ``SMALL``."""
    root = tmp_path_factory.mktemp("corpus")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "SELECTORS", SMALL)
        corpus.write(ccrm, root)
    return root


def test_compare_traces_accepts_identical_and_tolerated_corpora(tmp_path):
    a = _corpus(tmp_path, "a")
    assert corpus.compare(a, _corpus(tmp_path, "b")) == 0
    near = _corpus(tmp_path, "near", traces={**TRACES, "discs3d_ccrm_z0.csv": _changed(2, 1, "1.5000000000001")})
    assert corpus.compare(a, near, atol=1e-12) == 0
    assert corpus.compare(a, near) == 1
    # an error trace matches an error of the same type with another message
    other = _corpus(tmp_path, "other", traces={**TRACES, "sdp_map_z0.csv": ["error: ConvergenceError: other"]})
    assert corpus.compare(a, other) == 0


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
    a = _corpus(tmp_path, "a")
    b = _corpus(tmp_path, "b", traces={**TRACES, file: lines})
    assert corpus.compare(a, b, atol=1e-12) == 1


def test_compare_traces_rejects_a_missing_file(tmp_path):
    a = _corpus(tmp_path, "a")
    b = _corpus(tmp_path, "b", traces={"discs3d_ccrm_z0.csv": TRACE})
    assert corpus.compare(a, b) == 1


def test_compare_omegas_accepts_identical_and_tolerated_files(tmp_path):
    a = _corpus(tmp_path, "a")
    assert corpus.compare(a, _corpus(tmp_path, "b")) == 0
    # the same error type with another message, and a value within rtol
    near = _corpus(
        tmp_path, "near", omegas=["discs3d seed0 0.5968757820269", "socp seed0 error: ConvergenceError: other"]
    )
    assert corpus.compare(a, near, rtol=1e-10) == 0
    assert corpus.compare(a, near) == 1


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
    a = _corpus(tmp_path, "a")
    assert corpus.compare(a, _corpus(tmp_path, "b", omegas=lines), rtol=1e-10) == 1


def test_omega_writer_writes_curvature_lines_that_compare(tmp_path, written):
    lines = (written / "omegas.txt").read_text().splitlines()
    assert len(lines) == 12
    key, value = corpus.LINE.fullmatch(lines[0]).groups()
    error, layout, numbers = corpus.parse_value(value)
    assert (key, error, layout) == ("discs3d kappa_X", None, "(#, [#, #, #])")
    assert numbers[0] == 0.5 and abs(math.hypot(*numbers[1:]) - 1.0) <= 1e-15
    assert lines[1].startswith("discs3d kappa_Y ")
    assert [line.split()[1] for line in lines[2:6]] == ["seed0", "seed1", "seed2", "seed3"]
    assert lines[7].startswith("epigraph:a=2,b=0,y=line kappa_Y error: UnsupportedOperation: ")
    assert corpus.compare(written, written) == 0
    moved = tmp_path / "moved"
    shutil.copytree(written, moved)
    (moved / "omegas.txt").write_text("\n".join([lines[0].replace("(0.5,", "(0.5000001,")] + lines[1:]) + "\n")
    assert corpus.compare(written, moved, rtol=1e-9) == 1


def test_compare_projections_accepts_identical_and_tolerated_files(tmp_path):
    a = _corpus(tmp_path, "a")
    assert corpus.compare(a, _corpus(tmp_path, "b")) == 0
    # the same error types with other messages, and numbers within rtol of
    # each line's largest magnitude (1000 and 2)
    near = [
        "socp X P(1e3#0) project [0.5000000001, -1.25, 1000.0]",
        "socp X P(1e3#0) boundary_eval (1.5e-15, [1.0, 0.0], [[2.0, 0.0], [0.0, 2.0]])",
        "socp intersection 0 project error: ConvergenceError: other",
        "file cap error: ValueError: other",
    ]
    near = _corpus(tmp_path, "near", projections=near)
    assert corpus.compare(a, near, rtol=1e-12) == 0
    assert corpus.compare(a, near) == 1


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
    a = _corpus(tmp_path, "a")
    assert corpus.compare(a, _corpus(tmp_path, "b", projections=lines), rtol=1e-12) == 1


def test_projection_corpus_covers_every_problem_file_kind():
    read = set(re.findall(r'kind == "(\w+)"', inspect.getsource(oracle_from_dict)))
    assert {"ball", "ball_lens", "cap", "spectral_set"} <= read
    assert all(data["kind"] == kind for kind, data in corpus.DESCRIPTORS.items())
    catalog_kinds = set()
    for selector in corpus.SELECTORS:
        problem = catalog.resolve(selector).problem
        catalog_kinds |= {oracle_to_dict(problem.X)["kind"], oracle_to_dict(problem.Y)["kind"]}
    assert set(corpus.DESCRIPTORS) | catalog_kinds == read


def test_trace_writer_runs_the_reduced_problem(written):
    # discs3d: 4 starts under 3 methods, and the reduced cCRM run from each
    assert len([p for p in (written / "traces").iterdir() if p.name.startswith("discs3d_")]) == 16
    for label in ["z0"] + [f"seed{seed}" for seed in corpus.SEEDS]:
        lines = (written / "traces" / f"discs3d_reduced_ccrm_{label}.csv").read_text().splitlines()
        assert lines[0].endswith("termination=feasible")
        assert lines[1] == "k,z0,z1,dist_X,dist_Y,dist_ref"


@pytest.mark.parametrize(
    "part, path, old, new",
    [
        ("traces", "traces/discs3d_ccrm_z0.csv", "\n0,", "\n1,"),
        ("omegas", "omegas.txt", "kappa_Y error: UnsupportedOperation:", "kappa_Y error: ValueError:"),
        ("table2", "table2.csv", "beta", "betA"),
    ],
    ids=["trace-cell", "error-type", "table2-byte"],
)
def test_corpus_diff_names_the_part_that_differs(tmp_path, capsys, written, part, path, old, new):
    changed = tmp_path / "changed"
    shutil.copytree(written, changed)
    text = (changed / path).read_text()
    assert old in text
    (changed / path).write_text(text.replace(old, new, 1))
    assert corpus.compare(written, changed, atol=1e-12, rtol=1e-12) == 1
    summary = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()[:4]}
    assert list(summary) == ["traces", "omegas", "projections", "table2"]
    assert [name for name, line in summary.items() if line.endswith(" FAIL")] == [part]


@pytest.fixture
def twin(monkeypatch):
    """tools/twin.py, with one repeat of one pass per case."""
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


def test_projection_timer_prints_one_json_line(capsys, monkeypatch, twin):
    timer = tool_module("time_projections")
    timer.main([])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["unit"] == "us/call"
    roles = ("X", "Y", "intersection", "estimate_omega")
    for role in roles:
        assert list(result[role]) == list(timer.SELECTORS)
    times = [t for role in roles for t in result[role].values()]
    # Only a tangent pair's intersection refuses every point, and its
    # estimate_omega every seed: epigraph with b = 0.
    tangent = [s for s in timer.SELECTORS if s.startswith("epigraph:") and ",b=0," in s]
    for role in ("intersection", "estimate_omega"):
        assert [s for s, t in result[role].items() if t is None] == tangent
    assert all(t > 0.0 for t in times if t is not None)
    assert list(result["projections"]) == list(timer.SELECTORS)
    assert [s for s, n in result["projections"].items() if n is None] == tangent
    # discs3d measures X in the hull's coordinates: its count is Y's
    # projections, one for each sample whose Y distance is read.
    entry = catalog.resolve("discs3d")
    z_bar = run(entry.problem, SolverConfig(method="ccrm"), entry.suggested_z0).final
    calls = []
    for oracle in (entry.problem.X, entry.problem.Y):
        monkeypatch.setattr(oracle, "project", lambda z, _project=oracle.project: calls.append(1) or _project(z))
    for seed in timer.OMEGA_SEEDS:
        estimate_omega(entry.problem, z_bar, samples_per_radius=timer.OMEGA_SAMPLES_PER_RADIUS, seed=seed)
    assert result["projections"]["discs3d"] == round(len(calls) / len(timer.OMEGA_SEEDS), 3) > 0.0


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
        assert list(result["projections"][method]) == list(timer.SELECTORS)
        assert all(t > 0.0 for t in result[method].values())
    entry = catalog.resolve("discs3d")
    # The start's X and Y projections, then the step's own and the new
    # iterate's residuals (MAP's iterate is P_Y's output: no Y residual).
    per_step = {"ccrm": 6, "crm": 3, "map": 2}
    for method in ("ccrm", "crm", "map"):
        trace = run(entry.problem, SolverConfig(method=method), entry.suggested_z0)
        assert result["steps"][method]["discs3d"] == trace.n_steps
        projections = 2 + per_step[method] * trace.n_steps
        assert result["projections"][method]["discs3d"] == round(projections / trace.n_steps, 3)
    # The counting wrappers come off again, so the timed runs are bare.
    trace, projections = twin.counted(entry.problem, lambda z: run(entry.problem, SolverConfig(), z),
                                      entry.suggested_z0)
    assert projections == 2 + per_step["ccrm"] * trace.n_steps
    assert "project" not in vars(entry.problem.X) and "project" not in vars(entry.problem.Y)


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
        for key in ("against", "ratio", "bitwise", "against_projections"):
            assert list(result[key][method]) == list(timer.SELECTORS)
        assert all(t > 0.0 for t in result["against"][method].values())
        assert all(r > 0.0 for r in result["ratio"][method].values())
        assert all(result["bitwise"][method].values())
    assert result["against_projections"] == result["projections"]
    assert result["projections_differ"] == []


def test_step_timer_flags_a_projection_count_that_differs(capsys, monkeypatch, twin, this_src):
    # The second checkout's MAP step runs twice: the same iterates, one more
    # Y projection per step.
    timer = tool_module("time_steps")
    monkeypatch.setattr(timer, "SELECTORS", ("discs3d",))
    monkeypatch.setattr(timer, "BUDGET_MS", 0.0)
    steps = twin.submodule(twin.load(this_src), "solvers").STEPS
    map_step = steps["map"]

    def map_twice(*args):
        map_step(*args)
        return map_step(*args)

    monkeypatch.setitem(steps, "map", map_twice)
    timer.main(["--against", this_src])
    result = json.loads(capsys.readouterr().out)
    assert result["projections_differ"] == ["map discs3d"]
    assert result["bitwise"]["map"]["discs3d"]
    n = result["steps"]["map"]["discs3d"]
    assert result["against_projections"]["map"]["discs3d"] == round((2 + 3 * n) / n, 3)
    assert result["projections"]["map"]["discs3d"] == round((2 + 2 * n) / n, 3)


def test_projection_timer_times_a_second_checkout_beside_this_one(capsys, monkeypatch, this_src):
    timer = tool_module("time_projections")
    monkeypatch.setattr(timer, "SELECTORS", ("sdp",))
    timer.main(["--against", this_src])
    result = json.loads(capsys.readouterr().out)
    for role in ("X", "Y", "intersection", "estimate_omega"):
        assert result["bitwise"][role] == {"sdp": True}
        assert result["against"][role]["sdp"] > 0.0 and result["ratio"][role]["sdp"] > 0.0
    assert result["against_projections"] == result["projections"] and result["projections"]["sdp"] > 0.0


def test_cap_projection_counter_prints_one_json_line(capsys, monkeypatch):
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


def test_corpus_diff_against_this_checkout_reports_every_part_identical(capsys, monkeypatch, twin, this_src):
    monkeypatch.setattr(corpus, "SELECTORS", ("discs3d",))
    assert corpus.main(["diff", "--against", this_src]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["traces", "omegas", "projections", "table2"]
    for line in lines:
        count = re.fullmatch(r"\w+: (\d+) of (\d+) identical, largest diff 0\.000e\+00 OK", line).groups()
        assert count[0] == count[1] != "0"
    assert sys.modules[twin.AGAINST + ".sets"] is not ccrm.sets


@pytest.mark.parametrize("command", ["write", "diff"])
def test_corpus_script_help_runs_from_the_repo_root(command):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    done = subprocess.run([sys.executable, "tools/corpus.py", command, "--help"], cwd=root, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.startswith("usage: corpus.py " + command)
