"""Write every oracle's projection and boundary descriptor at seeded points.

Usage: PYTHONPATH=src python tools/write_projections.py OUT_FILE

Run it on two checkouts and ``diff`` the files: a change that must leave
the oracles alone leaves them byte-identical. The oracles are each
catalog problem's X, Y and ``intersection_oracle`` (for the selectors of
``write_traces.py``), and one set built by ``serialize.oracle_from_dict``
for each descriptor kind in ``DESCRIPTORS``; with the kinds of the
catalog's sets, these are every kind a problem file can name (checked in
``tests/test_tools.py``). The traced spectral sets of orders 6 and 8 in
``SPECTRAL_SETS`` are built the same way. Each is called at seeded
points of norm about 1e-3 ... 1e3, at the projections of those points,
and at 0. Every call writes one line: the ``repr`` of the result of
``project`` or ``boundary_eval`` with arrays as lists, or the error's type
and message. Only the public API and the problem file format are used, so
the script runs unchanged on older checkouts.
"""

import sys

import numpy as np

from ccrm import catalog
from ccrm.diagnostics import intersection_oracle
from ccrm.serialize import oracle_from_dict
from ccrm.sets import boundary_eval
from write_traces import SELECTORS

EXPONENTS = range(-3, 4)
POINTS_PER_EXPONENT = 3

DESCRIPTORS = {
    "ball": {"kind": "ball", "center": [0.5, -0.5, 1.0], "radius": 1.5},
    "frobenius_ball_in_L": {
        "kind": "frobenius_ball_in_L", "center": [0.3, 0.7, 0.5, 0.3], "radius": 0.7,
        "A": [[0.0, 1.0, 1.0, 1.0]], "b": [1.5],
    },
    "cap": {
        "kind": "cap",
        "inner": {"kind": "spectral_set", "n": 3, "lo": 0.0, "hi": None, "trace": None},
        "cut": {"kind": "ball", "center": [1.0, 0.0, 0.0, 0.5, 0.0, -0.3], "radius": 1.0},
    },
    "hyperboloid_sheet": {"kind": "hyperboloid_sheet", "axis": [1.0, 0.5, -0.5], "d": 0.8},
    "second_order_cone": {"kind": "second_order_cone", "dim": 4},
    "embedded": {
        "kind": "embedded",
        "inner": {"kind": "ellipsoid", "shape": [[0.25, 0.0], [0.0, 1.0]], "center": [0.2, -0.1]},
        "A": [[1.0, 1.0, 1.0]], "b": [1.0],
    },
    "ball_lens": {
        "kind": "ball_lens",
        "inner": {"kind": "ball", "center": [0.2, -0.1, 0.3], "radius": 1.0},
        "cut": {"kind": "ball", "center": [1.1, 0.4, 0.0], "radius": 0.8},
    },
    "affine_subspace": {"kind": "affine_subspace", "A": [[1.0, -1.0, 0.5]], "b": [0.25]},
    "ellipsoid": {"kind": "ellipsoid", "shape": [[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 2.0]],
                  "center": [0.1, 0.0, -0.3]},
}

# Traced spectral sets past the catalog's orders 3 and 4: a box and an upper
# bound alone. At order 8 the eigenvalue search sums 8 entries, where numpy's
# row sum turns pairwise, so a numpy-based search can move the last bit there.
SPECTRAL_SETS = {
    f"spectral_set n={n} {name}": {"kind": "spectral_set", "n": n, **bounds}
    for n in (6, 8)
    for name, bounds in (("box", {"lo": -0.1, "hi": 0.4, "trace": 1.0}),
                         ("hi", {"lo": None, "hi": 0.3, "trace": 1.0}))
}


def _plain(value):
    """Arrays as nested lists, so ``repr`` shows every float in full."""
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _error(exc):
    return f"error: {type(exc).__name__}: {exc}"


def _oracles():
    for selector in SELECTORS:
        problem = catalog.resolve(selector).problem
        yield f"{selector} X", lambda p=problem: p.X
        yield f"{selector} Y", lambda p=problem: p.Y
        yield f"{selector} intersection", lambda p=problem: intersection_oracle(p)
    for name, data in (DESCRIPTORS | SPECTRAL_SETS).items():
        yield f"file {name}", lambda d=data: oracle_from_dict(d)


def main(out_path):
    lines = []
    for label, build in _oracles():
        try:
            oracle = build()
        except Exception as exc:
            lines.append(f"{label} {_error(exc)}")
            continue

        def record(tag, z):
            # One line per call; returns the projection, or None if it raised.
            p = None
            try:
                p = oracle.project(z)
                out = repr(p.tolist())
            except Exception as exc:
                out = _error(exc)
            lines.append(f"{label} {tag} project {out}")
            try:
                out = repr(_plain(boundary_eval(oracle, z)))
            except Exception as exc:
                out = _error(exc)
            lines.append(f"{label} {tag} boundary_eval {out}")
            return p

        rng = np.random.default_rng(0)
        points = [(f"1e{k}#{i}", rng.normal(size=oracle.dim) * 10.0**k)
                  for k in EXPONENTS for i in range(POINTS_PER_EXPONENT)]
        projected = [(f"P({tag})", record(tag, z)) for tag, z in points]
        for tag, z in projected + [("0", np.zeros(oracle.dim))]:
            if z is not None:
                record(tag, z)
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} lines written to {out_path}")


if __name__ == "__main__":
    main(sys.argv[1])
