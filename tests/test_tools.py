"""The identity gates: tools/compare_traces.py and tools/compare_omegas.py,
and the kinds tools/write_projections.py covers."""

import inspect
import os
import re

import pytest

from ccrm import catalog
from ccrm.serialize import oracle_from_dict, oracle_to_dict

from helpers import tool_module

compare_traces = tool_module("compare_traces").main
compare_omegas = tool_module("compare_omegas").main

TRACE = [
    "# method=ccrm termination=feasible",
    "k,z0,z1,dist_X,dist_Y",
    "0,1.5,2.0,0.25,0.5",
    "1,1.0,0.0,1e-12,0.0",
]
TRACES = {"discs3d_ccrm_z0.csv": TRACE, "sdp_map_z0.csv": ["error: ConvergenceError: no"]}
OMEGAS = ["discs3d seed0 0.5968757820268886", "socp seed0 error: ConvergenceError: no"]


def _corpus(root, name, traces):
    path = root / name
    path.mkdir()
    for file, lines in traces.items():
        (path / file).write_text("\n".join(lines) + "\n")
    return str(path)


def _omegas(root, name, lines):
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
    a = _omegas(tmp_path, "a.txt", OMEGAS)
    assert compare_omegas([a, _omegas(tmp_path, "b.txt", OMEGAS)]) == 0
    # the same error type with another message, and a value within rtol
    near = _omegas(
        tmp_path, "near.txt", ["discs3d seed0 0.5968757820269", "socp seed0 error: ConvergenceError: other"]
    )
    assert compare_omegas([a, near, "--rtol", "1e-10"]) == 0
    assert compare_omegas([a, near]) == 1


@pytest.mark.parametrize(
    "lines",
    [
        ["discs3d seed1 0.5968757820268886", OMEGAS[1]],
        OMEGAS[:1],
        ["discs3d seed0 0.6", OMEGAS[1]],
        [OMEGAS[0], "socp seed0 error: ValueError: no"],
        [OMEGAS[0], "socp seed0 0.25"],
    ],
    ids=["key", "line-count", "gap", "error-type", "error-to-value"],
)
def test_compare_omegas_rejects_a_broken_rule(tmp_path, lines):
    a = _omegas(tmp_path, "a.txt", OMEGAS)
    assert compare_omegas([a, _omegas(tmp_path, "b.txt", lines), "--rtol", "1e-10"]) == 1


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
