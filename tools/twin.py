"""Import a second checkout's ``ccrm`` package beside the first, under
another name, and time the two case by case.

``corpus.py diff`` and ``timers.py`` take ``--against SRC``, the ``src``
of another checkout, and run both packages in one process; two processes
differ in speed by up to 2x on a VM, one does not. ``ccrm`` imports its
own modules relatively, so a copy loaded as ``ccrm_against`` runs on its
own code. ``best_us``, ``interleave``, ``median`` and ``compare`` are the
timers' timing, loop and output; ``counted`` is their projection count.
"""

import importlib
import importlib.util
import math
import os
import statistics
import sys
import time

AGAINST = "ccrm_against"
# Each case's time is a median over REPEATS.
REPEATS = 11


def load(src, name=AGAINST):
    """The package ``src/ccrm`` imported as ``name``, with its submodules as ``name.*``."""
    init = os.path.join(os.path.abspath(src), "ccrm", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"no ccrm package under {src}")
    loaded = sys.modules.get(name)
    if loaded is not None:
        if loaded.__file__ != init:
            raise SystemExit(f"{name} is already loaded from {loaded.__file__}")
        return loaded
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[os.path.dirname(init)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def submodule(package, name):
    """``package.name``, e.g. the catalog of either package."""
    return importlib.import_module(f"{package.__name__}.{name}")


def best_us(call, inputs, passes):
    """Microseconds per ``call(x)``: the best of 3 timings of ``passes`` passes over ``inputs``."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(passes):
            for x in inputs:
                call(x)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / (passes * len(inputs))


def interleave(sides, time_case):
    """samples[i][case]: ``time_case(i, case)`` over ``REPEATS``, each repeat
    timing every case on every side in turn, the first side alternating;
    a None time is not kept."""
    samples = [{case: [] for case in sides[0]} for _ in sides]
    for k in range(REPEATS):
        for case in sides[0]:
            for i in (range(len(sides)) if k % 2 == 0 else reversed(range(len(sides)))):
                t = time_case(i, case)
                if t is not None:
                    samples[i][case].append(t)
    return samples


def median(times):
    return round(statistics.median(times), 2) if times else None


def compare(result, samples, bitwise):
    """Add ``against``, ``ratio`` and ``bitwise`` to ``result``, keyed as its
    medians are by each case (group, name); ``bitwise(case)`` tells whether
    the two sides' outputs are equal bit for bit."""
    for key in ("against", "ratio", "bitwise"):
        result[key] = {}
    for case in samples[0]:
        group, name = case
        mine, theirs = result[group][name], median(samples[1][case])
        result["against"].setdefault(group, {})[name] = theirs
        result["ratio"].setdefault(group, {})[name] = round(mine / theirs, 3) if mine and theirs else None
        result["bitwise"].setdefault(group, {})[name] = bitwise(case)


def counted(oracles, call, x):
    """(result, projections): ``call(x)``, None where it raises, and the
    ``project`` calls it made on ``oracles``, counted as perfbench counts
    a problem's X and Y: by a wrapper on each instance, removed afterwards."""
    count = [0]
    for oracle in oracles:
        def project(z, _project=oracle.project):
            count[0] += 1
            return _project(z)

        oracle.project = project
    try:
        return call(x), count[0]
    except (ArithmeticError, RuntimeError, ValueError):
        return None, count[0]
    finally:
        for oracle in oracles:
            del oracle.project
