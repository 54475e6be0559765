"""JSON problem descriptors and trace/report serialization.

The problem file format (version "1") describes the two sets as tagged
JSON descriptors plus an optional reference point and start. A file
written here also records the sets' common hull; on load a declared hull
must be that hull. Traces serialize to CSV (one row per iterate, full
precision, bit-exact round trip) or to JSON with solver internals
included.
"""

from __future__ import annotations

import json

import numpy as np

from .sets import (
    AffineSubspace,
    Ball,
    BallLens,
    Cap,
    Ellipsoid,
    EmbeddedOracle,
    Halfspace,
    HyperboloidSheet,
    Hyperplane,
    PowerEpigraph,
    SecondOrderCone,
    SpectralSet,
    same_subspace,
)
from .solvers import FeasibilityProblem, KnownConstants, SolveTrace

PROBLEM_FILE_VERSION = "1"


def _floats(x):
    return np.asarray(x, dtype=float).tolist()


def _subspace_to_dict(subspace: AffineSubspace):
    return {
        "A": _floats(subspace.A),
        "b": _floats(subspace.b),
        "basis": _floats(subspace.basis),
    }


def _subspace_from_dict(data) -> AffineSubspace:
    return AffineSubspace(data["A"], data["b"], basis=data.get("basis"))


def oracle_to_dict(oracle) -> dict:
    """Tagged JSON descriptor of a set oracle."""
    if isinstance(oracle, Hyperplane):
        return {"kind": "hyperplane", "normal": _floats(oracle.normal), "offset": oracle.offset}
    if isinstance(oracle, AffineSubspace):
        return {"kind": "affine_subspace", **_subspace_to_dict(oracle)}
    if isinstance(oracle, Halfspace):
        return {"kind": "halfspace", "normal": _floats(oracle.normal), "offset": oracle.offset}
    if isinstance(oracle, Ball):
        out = {"kind": "ball", "center": _floats(oracle.center), "radius": oracle.radius}
        if oracle.subspace is not None:
            out.update(kind="frobenius_ball_in_L", **_subspace_to_dict(oracle.subspace))
        return out
    if isinstance(oracle, Ellipsoid):
        return {"kind": "ellipsoid", "shape": _floats(oracle.Q), "center": _floats(oracle.center)}
    if isinstance(oracle, SecondOrderCone):
        return {"kind": "second_order_cone", "dim": oracle.dim}
    if isinstance(oracle, HyperboloidSheet):
        return {"kind": "hyperboloid_sheet", "axis": _floats(oracle.axis), "d": oracle.d}
    if isinstance(oracle, PowerEpigraph):
        return {"kind": "power_epigraph", "alpha": oracle.alpha, "beta": oracle.beta}
    if isinstance(oracle, SpectralSet):
        # JSON has no infinities: an absent bound is written as null.
        lo, hi = (b if np.isfinite(b) else None for b in (oracle.lo, oracle.hi))
        return {"kind": "spectral_set", "n": oracle.n, "lo": lo, "hi": hi, "trace": oracle.trace}
    if isinstance(oracle, EmbeddedOracle):
        return {
            "kind": "embedded",
            "inner": oracle_to_dict(oracle.inner),
            **_subspace_to_dict(oracle.subspace),
        }
    if isinstance(oracle, BallLens):
        return {"kind": "ball_lens", "inner": oracle_to_dict(oracle.inner), "cut": oracle_to_dict(oracle.cut)}
    if isinstance(oracle, Cap):
        return {"kind": "cap", "inner": oracle_to_dict(oracle.inner), "cut": oracle_to_dict(oracle.cut)}
    raise ValueError(f"cannot serialize oracle of type {type(oracle).__name__}")


def oracle_from_dict(data) -> object:
    """Rebuild a set oracle from its JSON descriptor."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("set descriptor must be an object with a 'kind' tag")
    kind = data["kind"]
    try:
        if kind == "halfspace":
            return Halfspace(data["normal"], data["offset"])
        if kind == "hyperplane":
            return Hyperplane(data["normal"], data["offset"])
        if kind == "affine_subspace":
            return _subspace_from_dict(data)
        if kind == "ball":
            return Ball(data["center"], data["radius"])
        if kind == "ellipsoid":
            return Ellipsoid(data["shape"], data.get("center"))
        if kind == "second_order_cone":
            return SecondOrderCone(data["dim"])
        if kind == "hyperboloid_sheet":
            return HyperboloidSheet(data["axis"], data["d"])
        if kind == "power_epigraph":
            return PowerEpigraph(data["alpha"], data.get("beta", 0.0))
        if kind == "spectral_set":
            lo, hi = data.get("lo"), data.get("hi")
            lo, hi = -np.inf if lo is None else lo, np.inf if hi is None else hi
            return SpectralSet(data["n"], lo, hi, data.get("trace"))
        if kind == "frobenius_ball_in_L":
            return Ball(data["center"], data["radius"], _subspace_from_dict(data))
        if kind == "embedded":
            return EmbeddedOracle(oracle_from_dict(data["inner"]), _subspace_from_dict(data))
        if kind == "ball_lens":
            return BallLens(oracle_from_dict(data["inner"]), oracle_from_dict(data["cut"]))
        if kind == "cap":
            return Cap(oracle_from_dict(data["inner"]), oracle_from_dict(data["cut"]))
    except KeyError as exc:
        raise ValueError(f"descriptor of kind {kind!r} is missing field {exc}") from exc
    except TypeError as exc:  # a field of the wrong type, e.g. a string radius
        raise ValueError(f"descriptor of kind {kind!r} is malformed: {exc}") from exc
    except ValueError as exc:  # a value the constructor rejects, e.g. a nan radius
        raise ValueError(f"descriptor of kind {kind!r} is invalid: {exc}") from exc
    raise ValueError(f"unknown set kind {kind!r}")


def problem_to_dict(problem: FeasibilityProblem, z0=None) -> dict:
    out = {
        "version": PROBLEM_FILE_VERSION,
        "X": oracle_to_dict(problem.X),
        "Y": oracle_to_dict(problem.Y),
    }
    if problem.common_hull is not None:
        out["hull"] = _subspace_to_dict(problem.common_hull)
    if problem.reference_solution is not None:
        out["reference"] = _floats(problem.reference_solution)
    if problem.known_constants is not None:
        kc = problem.known_constants
        out["known_constants"] = {
            "kappa_x": kc.kappa_x,
            "kappa_y": kc.kappa_y,
            "omega": kc.omega,
        }
    if z0 is not None:
        out["z0"] = _floats(z0)
    return out


def _field(data, name, parse):
    """parse(data[name]), or None when the field is absent or null; a field
    of the wrong type is a ValueError that names it."""
    if data.get(name) is None:
        return None
    try:
        return parse(data[name])
    except (AttributeError, KeyError, TypeError) as exc:
        msg = f"problem field {name!r} is malformed: {type(exc).__name__}: {exc}"
        raise ValueError(msg) from exc


def _point(value, dim, label):
    if len(value) != dim:
        raise ValueError(f"{label} dimension does not match the sets")
    return np.asarray(value, dtype=float)


def problem_from_dict(data):
    """Parse a version-1 problem description.

    Returns:
        (FeasibilityProblem, z0 or None)
    """
    if not isinstance(data, dict):
        raise ValueError("problem file must be a JSON object")
    if data.get("version") != PROBLEM_FILE_VERSION:
        raise ValueError(f"unsupported problem file version {data.get('version')!r}")
    sets = []
    for field in ("X", "Y"):
        if field not in data:
            raise ValueError(f"problem file is missing set {field!r}")
        try:
            sets.append(oracle_from_dict(data[field]))
        except ValueError as exc:
            raise ValueError(f"set {field}: {exc}") from exc
    X, Y = sets
    if X.dim != Y.dim:
        raise ValueError(f"set dimensions differ: X has {X.dim}, Y has {Y.dim}")
    reference = _field(data, "reference", lambda v: _point(v, X.dim, "reference point"))
    constants = _field(data, "known_constants", lambda kc: KnownConstants(
        kappa_x=kc.get("kappa_x"), kappa_y=kc.get("kappa_y"), omega=kc.get("omega")
    ))
    z0 = _field(data, "z0", lambda v: _point(v, X.dim, "z0"))
    problem = FeasibilityProblem(X, Y, reference_solution=reference, known_constants=constants)
    # The hull is derived from the sets; a declared one is only checked.
    hull = _field(data, "hull", _subspace_from_dict)
    if hull is not None and not same_subspace(hull, problem.common_hull):
        raise ValueError("the declared hull is not an affine hull that X and Y share")
    return problem, z0


def load_problem_file(path):
    with open(path) as fh:
        data = json.load(fh)
    return problem_from_dict(data)


def save_problem_file(path, problem, z0=None):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem, z0=z0), fh, indent=2)
        fh.write("\n")


def trace_to_csv(trace: SolveTrace, path):
    """Write a trace as CSV: k, coordinates, dist_X, dist_Y, dist_ref.

    Floats are written with shortest round-trip precision so parsing the
    file reproduces the in-memory values bit-exactly.
    """
    n = trace.iterates.shape[1]
    header = ["k"] + [f"z{i}" for i in range(n)] + ["dist_X", "dist_Y", "dist_ref"]
    lines = [f"# method={trace.method} termination={trace.termination}"]
    lines.append(",".join(header))
    for k in range(trace.iterates.shape[0]):
        row = [str(k)]
        row += [repr(float(v)) for v in trace.iterates[k]]
        row.append(repr(float(trace.residuals_x[k])))
        row.append(repr(float(trace.residuals_y[k])))
        if trace.distances_to_reference is not None:
            row.append(repr(float(trace.distances_to_reference[k])))
        else:
            row.append("")
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def trace_from_csv(path) -> SolveTrace:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    method, termination = "unknown", "unknown"
    if lines and lines[0].startswith("#"):
        meta = dict(item.split("=", 1) for item in lines[0][1:].split())
        method = meta.get("method", method)
        termination = meta.get("termination", termination)
        lines = lines[1:]
    header = lines[0].split(",")
    n = len(header) - 4
    iterates, rx, ry, dref = [], [], [], []
    has_ref = True
    for line in lines[1:]:
        parts = line.split(",")
        iterates.append([float(v) for v in parts[1 : 1 + n]])
        rx.append(float(parts[1 + n]))
        ry.append(float(parts[2 + n]))
        if parts[3 + n] == "":
            has_ref = False
        else:
            dref.append(float(parts[3 + n]))
    return SolveTrace(
        method=method,
        iterates=np.asarray(iterates),
        residuals_x=np.asarray(rx),
        residuals_y=np.asarray(ry),
        termination=termination,
        distances_to_reference=np.asarray(dref) if has_ref else None,
    )


def trace_to_json(trace: SolveTrace, path):
    data = {
        "method": trace.method,
        "termination": trace.termination,
        "iterates": _floats(trace.iterates),
        "dist_X": _floats(trace.residuals_x),
        "dist_Y": _floats(trace.residuals_y),
    }
    if trace.distances_to_reference is not None:
        data["dist_ref"] = _floats(trace.distances_to_reference)
    if trace.centralized_points is not None:
        data["centralized_points"] = _floats(trace.centralized_points)
    if trace.circum_statuses is not None:
        data["circum_statuses"] = list(trace.circum_statuses)
    if trace.termination_detail is not None:
        data["termination_detail"] = trace.termination_detail
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def write_json_report(path, data: dict):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
