"""Compare two trace directories written by ``write_traces.py``.

Usage: python tools/compare_traces.py DIR_A DIR_B [--atol 1e-12]

A change that may move the iteration only at the rounding level must
keep every file name, every ``# method=... termination=...`` header, the
column line and the row count; a file that holds an ``error:`` line must
hold the same one on both sides. Numeric cells may differ by at most
``--atol``. Prints the largest absolute difference of each file that is
not byte-identical and exits 1 when any file breaks one of these rules.
"""

import argparse
import math
import os
import sys


def _cell_gap(a, b):
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    return abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf


def compare_file(path_a, path_b):
    """(problem, largest gap): problem is None when the files agree in
    structure; the gap is the largest absolute difference of a cell."""
    with open(path_a) as fa, open(path_b) as fb:
        lines_a, lines_b = fa.read().splitlines(), fb.read().splitlines()
    if lines_a == lines_b:
        return None, 0.0
    if lines_a[:2] != lines_b[:2]:  # the "# method=... termination=..." and column lines
        return f"headers differ: {lines_a[:2]} vs {lines_b[:2]}", math.inf
    if len(lines_a) != len(lines_b):
        return f"row counts differ: {len(lines_a)} vs {len(lines_b)}", math.inf
    gap = 0.0
    for row_a, row_b in zip(lines_a[2:], lines_b[2:]):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(cells_b):
            return "cell counts differ", math.inf
        gap = max([gap] + [_cell_gap(a, b) for a, b in zip(cells_a, cells_b)])
    return None, gap


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--atol", type=float, default=0.0)
    args = parser.parse_args(argv)
    names_a, names_b = set(os.listdir(args.dir_a)), set(os.listdir(args.dir_b))
    failed = False
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {args.dir_a if name in names_a else args.dir_b}")
        failed = True
    identical = 0
    for name in sorted(names_a & names_b):
        problem, gap = compare_file(os.path.join(args.dir_a, name), os.path.join(args.dir_b, name))
        if problem is None and gap == 0.0:
            identical += 1
            continue
        bad = problem is not None or gap > args.atol
        failed |= bad
        print(f"{name}: {problem or f'max abs diff {gap:.3e}'}{' FAIL' if bad else ''}")
    print(f"{identical} of {len(names_a & names_b)} common files byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
