"""Write the identity corpus of one checkout, or compare two checkouts' corpora.

Usage: PYTHONPATH=src python tools/corpus.py write DIR
       PYTHONPATH=src python tools/corpus.py diff --against SRC [--atol A] [--rtol R]

The corpus is what a change that must leave the numbers alone keeps, for
each problem in ``SELECTORS``: ``traces/``, its runs from each start of
``starts_of`` (and its isometry reduction's, under cCRM, if its sets share
a hull); ``omegas.txt``, ``curvature`` and ``estimate_omega`` at its cCRM
limit; ``projections.txt``, ``project`` and ``boundary_eval`` of its X, Y
and ``intersection_oracle``, and of the problem-file sets of
``DESCRIPTORS`` and ``SPECTRAL_SETS``, at seeded points, their projections
and 0. ``table2.txt`` and ``table2.csv`` are ``ccrm table2``'s stdout and
CSV. A call that raises writes an ``error:`` line. Only the public API
and the problem-file format are used, so the tool runs on older checkouts.

``diff`` writes this checkout's corpus and that of SRC, the ``src`` of a
second checkout loaded beside this one (``twin.py``), and compares them:
trace cells within ``--atol``; a line's numbers within ``--rtol`` of its
largest finite magnitude; names, keys, headers, row counts, layouts and
error types exactly, a non-finite number matching only itself; ``table2``
byte for byte. It prints a summary line per part, then each file or line
that differs, and exits 1 when a part disagrees, else 0.
"""

import argparse
import contextlib
import io
import math
import operator
import pathlib
import re
import sys
import tempfile

import numpy as np

import ccrm
import twin
from ccrm.catalog import EPIGRAPH_VARIANTS

SELECTORS = (
    ["discs3d", "ellipses", "eq_ellipsoids", "socp", "sdp", "fixed_trace"]
    + [f"epigraph:a={a},b={b},y={y}" for a, b in ((2, 0), (3, 1)) for y in EPIGRAPH_VARIANTS]
)
SEEDS = (0, 1, 2)

DESCRIPTORS = {
    "ball": {"kind": "ball", "center": [0.5, -0.5, 1.0], "radius": 1.5},
    "frobenius_ball_in_L": {"kind": "frobenius_ball_in_L", "center": [0.3, 0.7, 0.5, 0.3], "radius": 0.7,
                            "A": [[0.0, 1.0, 1.0, 1.0]], "b": [1.5]},
    "cap": {"kind": "cap", "inner": {"kind": "spectral_set", "n": 3, "lo": 0.0, "hi": None, "trace": None},
            "cut": {"kind": "ball", "center": [1.0, 0.0, 0.0, 0.5, 0.0, -0.3], "radius": 1.0}},
    "hyperboloid_sheet": {"kind": "hyperboloid_sheet", "axis": [1.0, 0.5, -0.5], "d": 0.8},
    "second_order_cone": {"kind": "second_order_cone", "dim": 4},
    "embedded": {"kind": "embedded", "A": [[1.0, 1.0, 1.0]], "b": [1.0],
                 "inner": {"kind": "ellipsoid", "shape": [[0.25, 0.0], [0.0, 1.0]], "center": [0.2, -0.1]}},
    "ball_lens": {"kind": "ball_lens", "inner": {"kind": "ball", "center": [0.2, -0.1, 0.3], "radius": 1.0},
                  "cut": {"kind": "ball", "center": [1.1, 0.4, 0.0], "radius": 0.8}},
    "affine_subspace": {"kind": "affine_subspace", "A": [[1.0, -1.0, 0.5]], "b": [0.25]},
    "ellipsoid": {"kind": "ellipsoid", "shape": [[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 2.0]],
                  "center": [0.1, 0.0, -0.3]},
}
# Traced spectral sets past the catalog's orders 3 and 4: a box and an upper
# bound alone. At order 8 the eigenvalue search sums 8 entries, where numpy's
# row sum turns pairwise, so a numpy-based search can move the last bit there.
SPECTRAL_SETS = {
    f"spectral_set n={n} {name}": {"kind": "spectral_set", "n": n, "lo": lo, "hi": hi, "trace": 1.0}
    for n in (6, 8) for name, lo, hi in (("box", -0.1, 0.4), ("hi", None, 0.3))
}
KAPPA = operator.attrgetter("kappa", "maximizing_direction")


def starts_of(entry):
    """The catalog start and its seeded perturbations, by label."""
    noise = {f"seed{seed}": np.random.default_rng(seed).normal(size=entry.problem.dim) for seed in SEEDS}
    return {"z0": entry.suggested_z0} | {label: entry.suggested_z0 + 0.3 * n for label, n in noise.items()}


def _plain(value):
    """Arrays as nested lists, so ``repr`` shows every float in full."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _outcome(call):
    """(``repr`` of ``call()`` with arrays as lists, ``call()``), or (an ``error:`` line, None)."""
    try:
        value = call()
    except Exception as exc:
        return f"error: {type(exc).__name__}: {exc}", None
    return repr(_plain(value)), value


def write(package, out_dir):
    """Write the corpus of ``package``, ``ccrm`` or a ``twin.load``, under ``out_dir``."""
    catalog, cli, diagnostics, serialize, sets, solvers = (
        twin.submodule(package, m) for m in ("catalog", "cli", "diagnostics", "serialize", "sets", "solvers"))
    config, out_dir = solvers.SolverConfig, pathlib.Path(out_dir)
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)
    entries = {selector: catalog.resolve(selector) for selector in SELECTORS}
    omegas, projections = [], []
    for selector, entry in entries.items():
        starts, problem = starts_of(entry), entry.problem
        runs = [(f"{method}_{label}", method, problem, z0)
                for method in solvers.METHODS for label, z0 in starts.items()]
        if problem.common_hull is not None:
            red, hull = solvers.isometry_reduce(problem), problem.common_hull
            runs += [(f"reduced_ccrm_{label}", "ccrm", red, hull.to_local(z0)) for label, z0 in starts.items()]
        for suffix, method, p, z0 in runs:
            path = out_dir / "traces" / f"{selector.replace(':', '_').replace(',', '_')}_{suffix}.csv"
            out, _ = _outcome(lambda: serialize.trace_to_csv(solvers.run(p, config(method=method), z0), path))
            if out.startswith("error: "):
                path.write_text(out + "\n")

        out, z_bar = _outcome(lambda: solvers.run(problem, config(method="ccrm"), entry.suggested_z0).final)
        if z_bar is None:
            omegas.append(f"{selector} {out}")
            continue
        for name, oracle in (("X", problem.X), ("Y", problem.Y)):
            out, _ = _outcome(lambda: KAPPA(diagnostics.curvature(oracle, z_bar)))
            omegas.append(f"{selector} kappa_{name} {out}")
        for seed in range(4):
            out, _ = _outcome(lambda: diagnostics.estimate_omega(problem, z_bar, samples_per_radius=4, seed=seed))
            omegas.append(f"{selector} seed{seed} {out}")

    builds = [(f"{s} {role}", entries[s].problem, get) for s in SELECTORS for role, get in (
        ("X", operator.attrgetter("X")), ("Y", operator.attrgetter("Y")),
        ("intersection", diagnostics.intersection_oracle))]
    builds += [(f"file {name}", data, serialize.oracle_from_dict)
               for name, data in (DESCRIPTORS | SPECTRAL_SETS).items()]
    for label, data, build in builds:
        out, oracle = _outcome(lambda: build(data))
        if oracle is None:
            projections.append(f"{label} {out}")
            continue

        def record(tag, z):  # one line per call; the projection, or None if it raised
            out, p = _outcome(lambda: oracle.project(z))
            projections.append(f"{label} {tag} project {out}")
            projections.append(f"{label} {tag} boundary_eval {_outcome(lambda: sets.boundary_eval(oracle, z))[0]}")
            return p

        rng = np.random.default_rng(0)
        points = [(f"1e{k}#{i}", rng.normal(size=oracle.dim) * 10.0**k) for k in range(-3, 4) for i in range(3)]
        projected = [(f"P({tag})", record(tag, z)) for tag, z in points]
        for tag, z in projected + [("0", np.zeros(oracle.dim))]:
            if z is not None:
                record(tag, z)

    (out_dir / "omegas.txt").write_text("\n".join(omegas) + "\n")
    (out_dir / "projections.txt").write_text("\n".join(projections) + "\n")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        cli.main(["table2", "--out", str(out_dir / "table2.csv")])
    (out_dir / "table2.txt").write_text(stdout.getvalue())


def read(root):
    """{part: {file name or line number: text}} of the corpus under ``root``."""
    root = pathlib.Path(root)
    return {"traces": {path.name: path.read_text() for path in (root / "traces").iterdir()},
            "omegas": dict(enumerate((root / "omegas.txt").read_text().splitlines())),
            "projections": dict(enumerate((root / "projections.txt").read_text().splitlines())),
            "table2": {name: (root / name).read_text() for name in ("table2.txt", "table2.csv")}}


NUMBER = re.compile(r"-?(?:inf|nan|\d[\d.]*(?:e[-+]?\d+)?)")
LINE = re.compile(rf"(.*?) (error: .*|[\[(].*|{NUMBER.pattern})")


def parse_value(text):
    """(error type, None, None) of an ``error:``, else (None, layout, numbers)."""
    if text.startswith("error: "):
        return text.split(":", 2)[1].strip(), None, None
    return None, NUMBER.sub("#", text), [float(x) for x in NUMBER.findall(text)]


def compare_values(a, b):
    """(problem, gap, scale) of two values: problem is None where they agree in
    outcome and layout; gap is their numbers' largest absolute difference,
    scale their largest finite magnitude."""
    (error_a, layout_a, xs), (error_b, layout_b, ys) = parse_value(a), parse_value(b)
    if error_a != error_b:
        return f"outcomes differ: {error_a or 'a result'} vs {error_b or 'a result'}", math.inf, 0.0
    if layout_a != layout_b:
        return "layouts differ", math.inf, 0.0
    if error_a is not None:
        return None, 0.0, 0.0
    gaps = [0.0 if x == y or math.isnan(x) and math.isnan(y) else abs(x - y) if math.isfinite(x - y)
            else math.inf for x, y in zip(xs, ys)]
    return None, max(gaps, default=0.0), max((abs(v) for v in xs + ys if math.isfinite(v)), default=0.0)


def _trace_gap(a, b):
    """(problem, largest absolute difference of a cell) of two trace files."""
    if a.startswith("error: ") or b.startswith("error: "):
        return compare_values(a, b)[:2]
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if lines_a[:2] != lines_b[:2] or len(lines_a) != len(lines_b):  # "# method=... termination=...", columns
        return f"headers or row counts differ: {lines_a[:2]} ({len(lines_a)} lines) vs {lines_b[:2]}", math.inf
    gaps = [compare_values(row_a, row_b) for row_a, row_b in zip(lines_a[2:], lines_b[2:])]
    problem = next((problem for problem, _, _ in gaps if problem), None)
    return problem, math.inf if problem else max((gap for _, gap, _ in gaps), default=0.0)


def _line_gap(a, b):
    """(problem, largest difference relative to the line's largest finite magnitude) of two lines."""
    (key_a, value_a), (key_b, value_b) = LINE.fullmatch(a).groups(), LINE.fullmatch(b).groups()
    if key_a != key_b:
        return f"keys differ: {key_a!r} vs {key_b!r}", math.inf
    problem, gap, scale = compare_values(value_a, value_b)
    return problem, gap / scale if scale else gap


def compare(root_a, root_b, atol=0.0, rtol=0.0):
    """Print a summary line per part of the corpora under ``root_a`` (this side) and
    ``root_b`` (SRC), then each file or line that differs; 1 where a part disagrees, else 0."""
    a, b = read(root_a), read(root_b)
    failed, details = False, []
    for part, gap_of, tol in (("traces", _trace_gap, atol), ("omegas", _line_gap, rtol),
                              ("projections", _line_gap, rtol), ("table2", lambda x, y: ("bytes differ", 0.0), 0.0)):
        names = sorted(a[part].keys() | b[part].keys())
        identical, worst, part_failed = 0, 0.0, False
        for name in names:
            x, y = a[part].get(name), b[part].get(name)
            if x == y:
                identical += 1
                continue
            problem, gap = gap_of(x, y) if None not in (x, y) else (f"only {'here' if y is None else 'in SRC'}", 0.0)
            bad = problem is not None or gap > tol
            part_failed, worst = part_failed or bad, max(worst, gap if problem is None else 0.0)
            label = name if isinstance(name, str) else LINE.fullmatch(x or y)[1]
            details.append(f"{part} {label}: {problem or f'diff {gap:.3e}'}{' FAIL' if bad else ''}")
        failed |= part_failed
        print(f"{part}: {identical} of {len(names)} identical, largest diff {worst:.3e}",
              "FAIL" if part_failed else "OK")
    print("".join(line + "\n" for line in details), end="")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("write", help="write this checkout's corpus under DIR").add_argument("dir", metavar="DIR")
    diff = commands.add_parser("diff", help="compare this checkout's corpus with that of SRC")
    diff.add_argument("--against", metavar="SRC", required=True, help="src directory of a second checkout")
    diff.add_argument("--atol", type=float, default=0.0, help="bound on a trace cell's absolute difference")
    diff.add_argument("--rtol", type=float, default=0.0, help="bound on a line's differences over its magnitude")
    args = parser.parse_args(argv)
    if args.command == "write":
        write(ccrm, args.dir)
        print(", ".join(f"{len(entries)} {part}" for part, entries in read(args.dir).items()), "written to", args.dir)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = [pathlib.Path(tmp, "this"), pathlib.Path(tmp, "against")]
        for package, side in zip((ccrm, twin.load(args.against)), sides):
            write(package, side)
        return compare(*sides, atol=args.atol, rtol=args.rtol)


if __name__ == "__main__":
    sys.exit(main())
