"""Counters and spans recorded around calls into ccrm's layers.

Everything here patches module or class attributes of ccrm from the
outside; no file of the program is touched. Two levels exist:

* counters, installed in every run: calls into each problem's X and Y
  ``project`` (including the calls ``reflect`` and ``distance`` make),
  solver steps taken by ``run``, and circumcenter statuses. They count
  without reading a clock.
* spans, installed only in a traced run: a timed span around each call
  into a layer's public functions, with the span that caused it as its
  parent. Self time is a span's duration minus the time its child spans
  cover. Aggregates are kept for the whole pass; full span records are
  kept for the first round only, so memory stays bounded, and written
  out when the run ends.

Counting and timing happen only while ``Recorder.on`` is set, i.e.
inside the timed op, never during the benchmark's own checks.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# Full span records kept at most, from the first round of a traced run.
MAX_SPAN_RECORDS = 50_000

# Oracle classes reported one by one; calls to any other class are summed
# under "sets.other".
ORACLE_CLASSES = (
    "AffineSubspace",
    "Hyperplane",
    "Halfspace",
    "Ellipsoid",
    "EmbeddedOracle",
    "PowerEpigraph",
    "BallInAffine",
    "SecondOrderCone",
    "PsdCone",
    "SpectralBoxTrace",
    "DykstraIntersection",
)

CIRCUM_STATUSES = ("nondegenerate", "reduced_rank", "coincident_all")

# Counts the traced run must reproduce exactly from the untraced run.
COMPARED_COUNTS = (
    "oracle_calls",
    "steps",
    "circumcenter.geometry_errors",
) + tuple(f"circumcenter.status.{s}" for s in CIRCUM_STATUSES)


class Recorder:
    """Counts and, when ``spans`` is set, timed spans for the current op."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.on = False
        self.counts = Counter()
        # name -> [calls, total_ns, self_ns]
        self.agg = {}
        # open spans: [name, start_ns, child_ns, span_id, direct_project_calls]
        self.stack = []
        self.keep_records = spans
        self.records = []
        self._next_id = 0

    def reset(self):
        self.counts.clear()
        self.agg.clear()

    def enter(self, name):
        self._next_id += 1
        if self.stack and name.startswith("sets.") and name != "sets.dykstra_project":
            self.stack[-1][4] += 1
        self.stack.append([name, time.perf_counter_ns(), 0, self._next_id, 0])

    def exit(self):
        end = time.perf_counter_ns()
        name, start, child, span_id, _ = frame = self.stack.pop()
        duration = end - start
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if self.keep_records:
            if len(self.records) < MAX_SPAN_RECORDS:
                parent_id = parent[3] if parent is not None else 0
                self.records.append((span_id, parent_id, name, start, end))
            else:
                self.keep_records = False
        return frame

    def write_spans(self, path):
        """Write the kept span records, one JSON object per line."""
        with open(path, "w") as fh:
            for span_id, parent_id, name, start, end in self.records:
                record = {"id": span_id, "parent": parent_id, "name": name,
                          "start_ns": start, "end_ns": end}
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _spanned(rec, name, fn, after=None):
    """Wrap ``fn``: count through ``after`` while recording, span when traced.

    ``after(args, result, error)`` runs after the call; ``error`` is the
    exception the call raised, if any, which is re-raised.
    """

    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        if rec.spans:
            rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if rec.spans:
                rec.exit()
            if after is not None:
                after(args, None, exc)
            raise
        if rec.spans:
            frame = rec.exit()
            if name == "sets.dykstra_project":
                # Direct member projections over the member count = cycles.
                rec.counts["dykstra.cycles"] += frame[4] / max(len(args[0]), 1)
        if after is not None:
            after(args, result, None)
        return result

    return wrapper


def _replace(owner, attr, make_wrapper):
    """Wrap ``owner.attr`` in place, if ``owner`` defines it."""
    if attr in vars(owner):
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))


def instrument_problem(rec, problem):
    """Count calls into the problem's X and Y ``project``.

    The counter is an instance attribute, so ``reflect`` and ``distance``
    (which call ``self.project``) go through it, and so does Dykstra over
    [X, Y]. It calls the class's ``project`` at call time, so a class-level
    span installed by :func:`install` still applies.
    """
    for oracle in (problem.X, problem.Y):
        if "project" in vars(oracle):
            continue
        cls = type(oracle)
        state = {"last": None}

        def project(z, _oracle=oracle, _cls=cls, _state=state):
            if rec.on:
                rec.counts["oracle_calls"] += 1
                if rec.spans:
                    key = getattr(z, "tobytes", lambda: None)()
                    if key is not None and key == _state["last"]:
                        rec.counts["sets.repeated_input_calls"] += 1
                    _state["last"] = key
            return _cls.project(_oracle, z)

        oracle.project = project
    return problem


def install(rec):
    """Install the counters, and the spans when ``rec.spans`` is set."""
    from ccrm import catalog, cli, diagnostics, linalg, sets, solvers

    def count_steps(args, result, error):
        if result is not None:
            rec.counts["steps"] += result.n_steps

    def count_status(args, result, error):
        if error is not None:
            rec.counts["circumcenter.geometry_errors"] += 1
        else:
            rec.counts[f"circumcenter.status.{result.status}"] += 1

    def instrument_entry(args, result, error):
        if result is not None:
            instrument_problem(rec, result.problem)

    for module in (solvers, cli):
        _replace(module, "run", lambda f: _spanned(rec, "solvers.run", f, count_steps))
    _replace(
        solvers, "circumcenter", lambda f: _spanned(rec, "circumcenter", f, count_status)
    )
    # table2_cell builds its problems inside the op; count their oracles too.
    _replace(
        catalog, "make_epigraph",
        lambda f: _spanned(rec, "catalog.make_epigraph", f, instrument_entry),
    )
    if not rec.spans:
        return

    _replace(catalog, "resolve", lambda f: _spanned(rec, "catalog.resolve", f))
    for module in (sets, diagnostics, catalog):
        _replace(
            module, "dykstra_project", lambda f: _spanned(rec, "sets.dykstra_project", f)
        )
    for module in (linalg, sets, diagnostics):
        _replace(
            module, "symmetric_eigh", lambda f: _spanned(rec, "linalg.symmetric_eigh", f)
        )
    for module in (diagnostics, cli):
        for attr in ("estimate_omega", "curvature", "rate_report"):
            _replace(module, attr, lambda f, a=attr: _spanned(rec, f"diagnostics.{a}", f))
    _replace(
        diagnostics, "intersection_distance",
        lambda f: _spanned(rec, "diagnostics.intersection_distance", f),
    )
    _replace(cli, "table2_cell", lambda f: _spanned(rec, "cli.table2_cell", f))

    for cls in vars(sets).values():
        if isinstance(cls, type) and issubclass(cls, sets.SetOracle):
            _replace(cls, "project", lambda f: _class_project_span(rec, f))


def _class_project_span(rec, fn):
    """Span a class's ``project`` under the name of the instance's class."""

    def project(self, z):
        if not rec.on:
            return fn(self, z)
        name = type(self).__name__
        rec.enter("sets." + (name if name in ORACLE_CLASSES else "other"))
        try:
            return fn(self, z)
        finally:
            rec.exit()

    return project


def per_layer_metrics(rec, ops, build_ms):
    """Per-layer metrics of a traced pass; counts and times are per op."""

    def calls(name):
        return rec.agg.get(name, (0, 0, 0))[0] / ops

    def total_ms(name):
        return rec.agg.get(name, (0, 0, 0))[1] / 1e6 / ops

    def self_ms(name):
        return rec.agg.get(name, (0, 0, 0))[2] / 1e6 / ops

    counts = rec.counts
    steps = counts["steps"]
    run_self_ns = rec.agg.get("solvers.run", (0, 0, 0))[2]
    dykstra_calls = rec.agg.get("sets.dykstra_project", (0, 0, 0))[0]
    m = {
        "catalog.build_ms": (build_ms, "ms"),
        "solvers.run.calls": (calls("solvers.run"), "count/op"),
        "solvers.steps": (steps / ops, "count/op"),
        "solvers.run.self_ms": (self_ms("solvers.run"), "ms/op"),
        "solvers.step_self_us": (run_self_ns / 1e3 / steps if steps else 0.0, "us/step"),
        "circumcenter.calls": (calls("circumcenter"), "count/op"),
        "circumcenter.ms": (total_ms("circumcenter"), "ms/op"),
    }
    for status in CIRCUM_STATUSES:
        m[f"circumcenter.status.{status}"] = (
            counts[f"circumcenter.status.{status}"] / ops, "count/op"
        )
    m["circumcenter.geometry_errors"] = (
        counts["circumcenter.geometry_errors"] / ops, "count/op"
    )
    for cls in ORACLE_CLASSES + ("other",):
        m[f"sets.{cls}.calls"] = (calls(f"sets.{cls}"), "count/op")
        m[f"sets.{cls}.self_ms"] = (self_ms(f"sets.{cls}"), "ms/op")
    m["sets.repeated_input_calls"] = (counts["sets.repeated_input_calls"] / ops, "count/op")
    m["sets.dykstra_project.calls"] = (calls("sets.dykstra_project"), "count/op")
    m["sets.dykstra_project.ms"] = (total_ms("sets.dykstra_project"), "ms/op")
    m["sets.dykstra.cycles_per_call"] = (
        counts["dykstra.cycles"] / dykstra_calls if dykstra_calls else 0.0, "count"
    )
    m["linalg.symmetric_eigh.calls"] = (calls("linalg.symmetric_eigh"), "count/op")
    m["linalg.symmetric_eigh.ms"] = (total_ms("linalg.symmetric_eigh"), "ms/op")
    m["diagnostics.estimate_omega.ms"] = (total_ms("diagnostics.estimate_omega"), "ms/op")
    m["diagnostics.intersection_distance.calls"] = (
        calls("diagnostics.intersection_distance"), "count/op"
    )
    m["diagnostics.intersection_distance.ms"] = (
        total_ms("diagnostics.intersection_distance"), "ms/op"
    )
    m["diagnostics.curvature.ms"] = (total_ms("diagnostics.curvature"), "ms/op")
    m["diagnostics.rate_report.calls"] = (calls("diagnostics.rate_report"), "count/op")
    m["diagnostics.rate_report.ms"] = (total_ms("diagnostics.rate_report"), "ms/op")
    m["cli.table2_cell.ms"] = (total_ms("cli.table2_cell"), "ms/op")
    return m
