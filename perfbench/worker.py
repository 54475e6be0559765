"""One workload in one fresh process; prints one JSON line as its result.

Started by run.py, which pins BLAS to one thread. Modes:

* ``setup``: import ccrm and build the workload, report the set-up time.
* ``count``: set up, then run whole rounds of ops until ``--seconds``
  have passed, at least MIN_OPS ops ran and at least MIN_ROUNDS rounds
  completed (or exactly ``--rounds`` rounds), timing each op and checking
  its output; only counters run. The reference job of speed.py is timed
  between ops, and op and set-up times are reported scaled by it.
* ``trace``: as ``count``, with spans recorded around every layer call;
  reports the per-layer metrics and writes the first round's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Each pass runs at least this many ops, so the 90th percentile has ten
# or more op runs beyond it.
MIN_OPS = 100
# Each op is timed in at least this many rounds, and its timing is the
# median over them.
MIN_ROUNDS = 5
# Failure messages echoed to stderr at most.
MAX_REPORTED_FAILURES = 5


def _import_program():
    """Import ccrm from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import ccrm
    import ccrm.cli  # noqa: F401  (rate_table calls into it)

    where = os.path.dirname(os.path.abspath(ccrm.__file__))
    if where != os.path.join(SRC, "ccrm"):
        raise ImportError(f"ccrm was imported from {where}, not from {SRC}")


def run_pass(ops, rec, seconds, rounds, trace, probe=None):
    """Whole rounds of ops; returns op start and wall times (s), failures
    and the first round's counts. ``probe``, if given, times the reference
    job between ops and once after the last."""
    starts = []
    times = []
    failures = []
    first_round_counts = None
    started = time.perf_counter()
    done_rounds = 0
    while True:
        for op in ops:
            if probe is not None:
                probe.maybe_probe()
            rec.on = True
            if trace:
                rec.enter("op")
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception:
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            if trace:
                rec.exit()
            rec.on = False
            starts.append(t0)
            times.append(elapsed)
            if error is None:
                try:
                    op.check(result)
                except Exception:
                    error = traceback.format_exc(limit=3)
            if error is not None:
                failures.append(f"{op.label}: {error}")
        done_rounds += 1
        if first_round_counts is None:
            first_round_counts = dict(rec.counts)
            rec.keep_records = False
        if rounds is not None:
            if done_rounds >= rounds:
                break
        elif (
            time.perf_counter() - started >= seconds
            and len(times) >= MIN_OPS
            and done_rounds >= MIN_ROUNDS
        ):
            break
    if probe is not None:
        probe.probe()
    return starts, times, failures, first_round_counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "count", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    trace = args.mode == "trace"

    t0 = time.perf_counter()
    _import_program()
    import numpy as np
    import tracing
    import workloads

    build = workloads.WORKLOADS[args.workload]
    rec = tracing.Recorder(spans=trace)
    tracing.install(rec)
    rec.on = trace  # spans around catalog builds in a traced set-up
    ops = build(args.seed, rec)
    rec.on = False
    setup_s = time.perf_counter() - t0
    build_ms = rec.agg.get("catalog.resolve", (0, 0, 0))[1] / 1e6
    rec.reset()
    rec.records.clear()
    import speed

    scaled_setup_s, setup_reference_s = speed.scale_setup(setup_s)
    out = {
        "setup_s": scaled_setup_s,
        "wall_setup_s": setup_s,
        "setup_reference_ms": setup_reference_s * 1e3,
        "scaled_to_ms": speed.REFERENCE_S * 1e3,
    }
    if args.mode != "setup":
        probe = speed.Probe()
        starts, times, failures, first_counts = run_pass(
            ops, rec, args.seconds, args.rounds, trace, probe
        )
        for message in failures[:MAX_REPORTED_FAILURES]:
            print(f"FAILED {message}", file=sys.stderr)
        n = len(times)
        # Rounds repeat the same ops, so each op has one time per round;
        # timings use each op's median over the rounds of its times scaled
        # by the reference job around it.
        rounds_by_op = (-1, len(ops))
        per_op = np.median(np.reshape(probe.scale(starts, times), rounds_by_op), axis=0)
        wall_per_op = np.median(np.reshape(times, rounds_by_op), axis=0)
        out.update(
            attempted=n,
            failed=len(failures),
            ops_per_s=len(ops) / float(per_op.sum()),
            wall_ops_per_s=len(ops) / float(wall_per_op.sum()),
            reference_ms=probe.median_s() * 1e3,
            round_counts={k: first_counts.get(k, 0) for k in tracing.COMPARED_COUNTS},
            oracle_calls_per_op=rec.counts["oracle_calls"] / n,
        )
        if trace:
            metrics = tracing.per_layer_metrics(rec, n, build_ms)
            out["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            if args.spans_out:
                rec.write_spans(args.spans_out)
        else:
            p50, p90 = np.percentile(per_op * 1e3, [50, 90])
            out.update(
                op_p50_ms=float(p50),
                op_p90_ms=float(p90),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
