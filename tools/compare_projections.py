"""Compare two projection files written by ``write_projections.py``.

Usage: python tools/compare_projections.py FILE_A FILE_B [--rtol 1e-12]

A change that may move the oracles only at the rounding level must keep
every line's oracle, point and call, in the same order. A line that holds
an ``error:`` must hold one of the same error type on both sides (the
message may change). A line that holds a result must keep its layout of
lists and tuples, and its numbers may differ by at most ``--rtol`` times
the largest finite magnitude on that line, over both sides. Prints each
line that differs and the largest relative difference, and exits 1 when
any line breaks one of these rules.
"""

import argparse
import math
import re
import sys

# A line is its key, then its value: an error, a list or a tuple.
LINE = re.compile(r"(.*?) (error: .*|[\[(].*)")
NUMBER = re.compile(r"-?(?:inf|nan|\d[\d.]*(?:e[-+]?\d+)?)")


def parse_line(line):
    """(key, error type or None, layout or None, numbers or None) of one output line."""
    key, value = LINE.fullmatch(line).groups()
    if value.startswith("error: "):
        return key, value.split(":", 2)[1].strip(), None, None
    return key, None, NUMBER.sub("#", value), [float(x) for x in NUMBER.findall(value)]


def _gap(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def compare_lines(line_a, line_b):
    """(problem, relative gap): problem is None when the lines agree in
    their key, error type and layout; the gap is 0 for matching error lines."""
    key_a, error_a, layout_a, values_a = parse_line(line_a)
    key_b, error_b, layout_b, values_b = parse_line(line_b)
    if key_a != key_b:
        return f"keys differ: {key_a!r} vs {key_b!r}", math.inf
    if error_a != error_b:
        return f"outcomes differ: {error_a or 'a result'} vs {error_b or 'a result'}", math.inf
    if error_a is not None:
        return None, 0.0
    if layout_a != layout_b:
        return "layouts differ", math.inf
    gap = max(map(_gap, values_a, values_b), default=0.0)
    scale = max((abs(v) for v in values_a + values_b if math.isfinite(v)), default=0.0)
    if gap == 0.0:
        return None, 0.0
    return None, gap / scale if scale > 0.0 else math.inf


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
        note = problem or ("same error type" if parse_line(line_a)[1] else f"rel diff {gap:.3e}")
        print(f"{parse_line(line_a)[0]}: {note}{' FAIL' if bad else ''}")
    identical = sum(a == b for a, b in zip(lines_a, lines_b))
    print(f"{identical} of {len(lines_a)} lines identical; largest relative difference {worst:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
