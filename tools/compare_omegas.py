"""Compare two omega files written by ``write_omegas.py``.

Usage: python tools/compare_omegas.py FILE_A FILE_B [--rtol 1e-10]

A change that may move ``estimate_omega`` only at the rounding level must
keep every line's selector and seed, in the same order. A line that holds
an ``error:`` must hold one of the same error type on both sides (the
message may change). Values may differ by at most ``--rtol`` relative to
the larger of the two. Prints each line that differs and the largest
relative difference, and exits 1 when any line breaks one of these rules.
"""

import argparse
import math
import sys


def parse_line(line):
    """(key, error type or None, value or None) of one output line."""
    if " error: " in line:
        key, error = line.split(" error: ", 1)
        return key, error.split(":", 1)[0], None
    key, value = line.rsplit(" ", 1)
    return key, None, float(value)


def compare_lines(line_a, line_b):
    """(problem, relative gap): problem is None when the lines agree in
    their key and error type; the gap is 0 for matching error lines."""
    key_a, error_a, value_a = parse_line(line_a)
    key_b, error_b, value_b = parse_line(line_b)
    if key_a != key_b:
        return f"keys differ: {key_a!r} vs {key_b!r}", math.inf
    if error_a != error_b:
        return f"outcomes differ: {error_a or value_a} vs {error_b or value_b}", math.inf
    if error_a is not None or value_a == value_b:
        return None, 0.0
    return None, abs(value_a - value_b) / max(abs(value_a), abs(value_b))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file_a")
    parser.add_argument("file_b")
    parser.add_argument("--rtol", type=float, default=0.0)
    args = parser.parse_args(argv)
    with open(args.file_a) as fa, open(args.file_b) as fb:
        lines_a, lines_b = fa.read().splitlines(), fb.read().splitlines()
    if len(lines_a) != len(lines_b):
        print(f"line counts differ: {len(lines_a)} vs {len(lines_b)} FAIL")
        return 1
    failed, worst = False, 0.0
    for line_a, line_b in zip(lines_a, lines_b):
        if line_a == line_b:
            continue
        problem, gap = compare_lines(line_a, line_b)
        bad = problem is not None or gap > args.rtol
        failed |= bad
        worst = max(worst, gap)
        note = problem or ("same error type" if " error: " in line_a else f"rel diff {gap:.3e}")
        print(f"{parse_line(line_a)[0]}: {note}{' FAIL' if bad else ''}")
    identical = sum(a == b for a, b in zip(lines_a, lines_b))
    print(f"{identical} of {len(lines_a)} lines identical; largest relative difference {worst:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
