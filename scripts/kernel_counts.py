"""Count what the exact scalar kernel does while models are verified, and
print the counts as JSON.

    PYTHONPATH=src python scripts/kernel_counts.py [--seed N] [--sizes 1 2]
        [--names NAME ...]

Run it from the root of a checkout.  The models are the curated zoo (or the
entries ``--names`` gives) and ``random_structure(seed, n)`` for each n of
``--sizes``, the model set of the benchmark's verify-zoo-rational workload
by default; each gets a ``Workspace`` and ``run_checks``, one model at a
time, in one interpreter, in rational mode.  The output holds these counts:

- ``rebuild_calls``: calls of ``scalars._rebuild``, the one place a kernel
  result is made;
- ``fractions_built``: ``Fraction`` objects that code in ``scalars.py``
  constructs, by the kernel function that constructs them (the arithmetic
  inside ``fractions.py`` is not counted), and their total;
- ``fraction_arrays``: the object arrays holding a ``Fraction`` that the
  kernel's functions hand out (``RETURNING``), counted at the outermost
  call;
- ``scale_calls`` and ``scaled_entries``: calls of ``scalars._scale``, which
  reads exact values (parsed tokens, scalar operands) into integers, and
  the values they read;
- ``widen_callers``: calls of ``scalars._widen``, the fall-back of a sum or
  a row division to Python ints, by the first function outside
  ``scalars.py`` on the stack;
- ``zero_results``: the ``einsum`` and ``combine`` calls that ended at an
  exact zero (an operand, or every term, with M = 0) without contracting or
  adding, by entry point, and their total.  An all-zero sum that
  ``_rebuild`` receives is not counted: it was contracted or added;
- ``entry_calls``: the outermost calls of the kernel's entry points
  (``ENTRY_POINTS``), by entry point, and their total: a call made inside
  another entry point's call would not be counted, so each count is a
  number of calls that code outside the kernel made;
- ``reentries``: the calls of an entry point made while a call of the same
  entry point is in progress, by entry point, and their total.  The kernel
  reads a scalar operand or term in its call's own pass, so this is 0.

Compare two checkouts by running it from the root of each.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from bcontact import scalars, zoo
from bcontact.checks import run_checks

# the kernel functions this script wraps, by their name in ``scalars``
TARGETS = ("_rebuild", "_scale", "_widen", "_zero")
# the kernel functions that hand out arrays, whose outermost calls are read
# for object arrays of ``Fraction``
RETURNING = (
    "array", "eye", "einsum", "combine", "divide_rows", "diagonalize", "row", "stack", "join",
    "fractions",
)
# the kernel's entry points whose outermost calls, and calls inside a call
# of themselves, this script counts
ENTRY_POINTS = ("einsum", "combine", "divide_rows", "zero_test", "is_zero", "zero_rows")
KERNEL_FILE = Path(scalars.__file__).name
# frames that ``_caller`` passes over when it looks outside the kernel: the
# kernel's, and those of this script's wrappers
INSIDE = {KERNEL_FILE, Path(__file__).name}


def _caller(depth: int, outside: bool = False) -> str:
    """``file:function`` of the frame ``depth`` levels above the caller, a
    comprehension or lambda named by the function it is in; with ``outside``
    the first function from there on that is not in ``scalars.py`` or in a
    wrapper of this script."""
    frame = sys._getframe(depth + 1)
    while frame.f_code.co_name.startswith("<") or (
        outside and Path(frame.f_code.co_filename).name in INSIDE
    ):
        frame = frame.f_back
    return f"{Path(frame.f_code.co_filename).name}:{frame.f_code.co_name}"


@contextmanager
def counting():
    """Wrap the ``TARGETS``, ``ENTRY_POINTS`` and ``RETURNING`` functions of
    ``scalars`` and ``Fraction.__new__`` while the block runs; yields the
    ``Counter`` they fill."""
    counts = Counter()
    real = {name: getattr(scalars, name) for name in TARGETS + ENTRY_POINTS + RETURNING}
    active = Counter()  # the entry-point calls in progress, by entry point
    returning = [0]  # the calls of RETURNING functions in progress
    real_new, raw_new = Fraction.__new__, vars(Fraction)["__new__"]

    def rebuild(n, den):
        counts["rebuild_calls"] += 1
        return real["_rebuild"](n, den)

    def scale(values, *shape):
        counts["scale_calls"] += 1
        counts["scaled_entries"] += len(values)
        return real["_scale"](values, *shape)

    def widen(ns):
        counts["widen:" + _caller(1, outside=True)] += 1
        return real["_widen"](ns)

    def zero(shape):
        counts["zero:" + _caller(1).partition(":")[2]] += 1
        return real["_zero"](shape)

    def new(cls, *args, **kwargs):
        where = _caller(1)
        if where.startswith(KERNEL_FILE + ":"):
            counts["fraction:" + where.partition(":")[2]] += 1
        return real_new(cls, *args, **kwargs)

    def entry(name):
        fn = real[name]

        def call(*args, **kwargs):
            if not any(active.values()):
                counts["entry:" + name] += 1
            if active[name]:
                counts["reentry:" + name] += 1
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1
        return call

    def handing_out(fn):
        def call(*args, **kwargs):
            returning[0] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                returning[0] -= 1
            if not returning[0] and isinstance(out, np.ndarray) and out.dtype == object:
                counts["fraction_arrays"] += any(type(x) is Fraction for x in out.flat)
            return out
        return call

    for name, wrapper in zip(TARGETS, (rebuild, scale, widen, zero)):
        setattr(scalars, name, wrapper)
    for name in ENTRY_POINTS:
        setattr(scalars, name, entry(name))
    for name in RETURNING:
        setattr(scalars, name, handing_out(getattr(scalars, name)))
    Fraction.__new__ = staticmethod(new)
    try:
        yield counts
    finally:
        Fraction.__new__ = raw_new
        for name, fn in real.items():
            setattr(scalars, name, fn)


def count(entries) -> dict:
    """The counts of rational ``Workspace`` plus ``run_checks`` over
    ``entries``."""
    with counting() as counts:
        failed = []
        for entry in entries:
            rows = run_checks(entry.workspace(scalars.RATIONAL))
            failed += [f"{entry.name}: {r.name}" for r in rows if not r.passed]
    built = {k.partition(":")[2]: n for k, n in sorted(counts.items()) if k.startswith("fraction:")}
    zeros = {name: counts["zero:" + name] for name in ("einsum", "combine")}
    calls = {name: counts["entry:" + name] for name in ENTRY_POINTS}
    reentries = {name: counts["reentry:" + name] for name in ENTRY_POINTS}
    return {
        "models": [e.name for e in entries],
        "failed_checks": failed,
        "rebuild_calls": counts["rebuild_calls"],
        "fractions_built": {"total": sum(built.values()), **built},
        "fraction_arrays": counts["fraction_arrays"],
        "scale_calls": counts["scale_calls"],
        "scaled_entries": counts["scaled_entries"],
        "widen_callers": {
            k.partition(":")[2]: n for k, n in sorted(counts.items()) if k.startswith("widen:")
        },
        "zero_results": {"total": sum(zeros.values()), **zeros},
        "entry_calls": {"total": sum(calls.values()), **calls},
        "reentries": {"total": sum(reentries.values()), **reentries},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--sizes", type=int, nargs="*", default=[1, 2])
    ap.add_argument("--names", nargs="*", help="curated or boundary entries (default: the curated zoo)")
    args = ap.parse_args(argv)
    entries = [zoo.builtin(n) for n in args.names] if args.names is not None else zoo.all_entries()
    entries += [zoo.random_structure(args.seed, n) for n in args.sizes]
    print(json.dumps(count(entries), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
