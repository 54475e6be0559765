"""Machine-speed probe: a fixed reference job timed between ops.

On a shared host the speed of the same fixed work drifts by up to 2x
over tens of seconds, for whole runs at a time. Timing a reference job
that never calls ccrm, interleaved with the ops, measures that drift
where it happens. Each op time is scaled by REFERENCE_S over the median
reference time around the op, i.e. to a machine on which the reference
job takes exactly REFERENCE_S. A change to ccrm moves the op times and
not the reference job, so it shows in full in the scaled figures.
"""

from __future__ import annotations

import time

import numpy as np

# The scaled times are those of a machine that runs reference_job() in
# exactly this many seconds.
REFERENCE_S = 1e-3
# A probe runs before an op once this many seconds have passed since the
# previous probe, so short ops share one.
PROBE_GAP_S = 0.02
# An op is scaled by the median of the probes within this many seconds
# before its start or after its end.
WINDOW_S = 0.5
# Probes timed after a set-up; their median scales the set-up time.
SETUP_PROBES = 31

_A = np.random.default_rng(0).normal(size=(6, 6))
_A = _A + _A.T
_SHIFTED = _A + 10.0 * np.eye(6)
_V = np.random.default_rng(1).normal(size=(40, 3))


def reference_job():
    """Fixed work of the kind ccrm does: a Python loop, small-vector
    numpy arithmetic, small eigensolves and linear solves."""
    s = 0.0
    for i in range(600):
        s += i * 0.5
    for v in _V:
        n = np.linalg.norm(v)
        s += float(np.dot(v, v)) / (n + 1.0)
        s += float((np.maximum(v, 0.0) - 0.5 * v).sum())
    for _ in range(10):
        s += float(np.linalg.eigh(_A)[0][0])
        s += float(np.linalg.solve(_SHIFTED, _V[:6, 0])[0])
    return s


def time_reference():
    t0 = time.perf_counter()
    reference_job()
    return time.perf_counter() - t0


class Probe:
    """Reference-job times taken between ops, with when they were taken."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def probe(self):
        start = time.perf_counter()
        reference_job()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def maybe_probe(self):
        if not self.starts or time.perf_counter() - self.starts[-1] >= PROBE_GAP_S:
            self.probe()

    def median_s(self):
        return float(np.median(self.durations))

    def scale(self, op_starts, op_times):
        """Op times scaled to a machine whose reference job takes REFERENCE_S."""
        starts = np.asarray(self.starts)
        durations = np.asarray(self.durations)
        op_starts = np.asarray(op_starts)
        op_times = np.asarray(op_times)
        lo = np.searchsorted(starts, op_starts - WINDOW_S, side="left")
        hi = np.searchsorted(starts, op_starts + op_times + WINDOW_S, side="right")
        local = np.array([np.median(durations[a:b]) for a, b in zip(lo, hi)])
        return op_times * (REFERENCE_S / local)


def scale_setup(setup_s):
    """Set-up time scaled by the reference job timed right after it."""
    reference = float(np.median([time_reference() for _ in range(SETUP_PROBES)]))
    return setup_s * (REFERENCE_S / reference), reference
