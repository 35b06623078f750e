"""``scripts/kernel_counts.py``, the counts of what the exact kernel does
while models are verified: every function it wraps still exists, so no
count reads 0 because its target was renamed, and it counts a dim-3 entry,
its exact zeros, the outermost calls of its entry points, their calls of
themselves (none), the ``Fraction`` arrays it hands out (none) and a forced
fall-back to Python ints.  The counts of the default model set are pinned,
so that a lost form, zero rule, ``Fraction`` built between kernel calls or
int64 path shows as a changed count, and so are those of single calls: what
each kind of operand costs in scalings, and when a sum leaves int64."""
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from bcontact import scalars, zoo
from bcontact.scalars import FLOAT, RATIONAL

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernel_counts.py"

# the counts of the default set (the curated zoo and random_structure(5, n)
# for n = 1, 2)
DEFAULT_COUNTS = {
    "failed_checks": [],
    "rebuild_calls": 4094,
    "fractions_built": {"total": 897, "_rebuild": 102, "exact": 795},
    "fraction_arrays": 0,
    "scale_calls": 330,
    "scaled_entries": 2270,
    "widen_callers": {"checks.py:_minus": 2, "curvature.py:formula": 16, "curvature.py:sectional": 18},
    "zero_results": {"total": 1797, "einsum": 908, "combine": 889},
    "entry_calls": {
        "total": 7548, "einsum": 3681, "combine": 2494, "divide_rows": 104, "zero_test": 306,
        "is_zero": 203, "zero_rows": 760,
    },
    "reentries": {
        "total": 0, "einsum": 0, "combine": 0, "divide_rows": 0, "zero_test": 0, "is_zero": 0,
        "zero_rows": 0,
    },
}


def _script():
    spec = importlib.util.spec_from_file_location("kernel_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    script = _script()
    for name in script.TARGETS + script.ENTRY_POINTS + script.RETURNING:
        assert callable(getattr(scalars, name)), name
    assert script.KERNEL_FILE == "scalars.py"


def test_counts_of_a_dim3_entry(monkeypatch, capsys):
    script = _script()
    wrapped = script.TARGETS + script.ENTRY_POINTS + script.RETURNING
    real = {name: getattr(scalars, name) for name in wrapped}
    real_new = Fraction.__new__
    out = script.count([zoo.builtin("solv3-f4")])
    assert out["models"] == ["solv3-f4"] and out["failed_checks"] == []
    assert out["rebuild_calls"] > 0 and out["scale_calls"] > 0
    assert out["scaled_entries"] >= out["scale_calls"]
    built = out["fractions_built"]
    assert built["_rebuild"] > 0  # the 0-d results
    assert built["total"] == sum(n for k, n in built.items() if k != "total")
    assert out["fraction_arrays"] == 0
    assert out["widen_callers"] == {}
    # calls that end at an exact zero without contracting or adding
    zeros = out["zero_results"]
    assert zeros["einsum"] > 0 and zeros["combine"] > 0
    assert zeros["total"] == zeros["einsum"] + zeros["combine"]
    # the outermost calls of every entry point the pipeline uses, each
    # exact zero among the calls of its entry point
    calls = out["entry_calls"]
    assert list(calls) == ["total", *script.ENTRY_POINTS]
    assert calls["total"] == sum(n for k, n in calls.items() if k != "total")
    assert all(calls[name] > 0 for name in script.ENTRY_POINTS), calls
    assert calls["einsum"] >= zeros["einsum"] and calls["combine"] >= zeros["combine"]
    # no entry point calls itself
    assert out["reentries"] == {"total": 0, **{name: 0 for name in script.ENTRY_POINTS}}
    # every wrapper is taken off again
    assert {name: getattr(scalars, name) for name in wrapped} == real
    assert Fraction.__new__ is real_new
    # a sum beyond int64 is widened, and named by the function outside the
    # kernel that asked for it
    big = scalars.array([2**62, -(2**62)], RATIONAL)
    with script.counting() as counts:
        scalars.combine([1, 1], [big, big])
    assert counts["widen:test_kernel_counts.py:test_counts_of_a_dim3_entry"] == 1
    # a call an entry point makes of another is not counted
    a = scalars.array([1, "1/2"], RATIONAL)
    with script.counting() as counts:
        assert scalars.is_zero(scalars.combine([1, -1], [a, a]), 0.0)
        scalars.zero_test([a], 0.0)
    entries = {k: n for k, n in counts.items() if k.startswith("entry:")}
    assert entries == {"entry:combine": 1, "entry:is_zero": 1, "entry:zero_test": 1}
    assert script.main(["--names", "solv3-f4", "--sizes"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["rebuild_calls"] == out["rebuild_calls"]


def test_a_scalar_operand_makes_no_reentry():
    # a scalar operand or term is read in the call's own pass, in either mode
    script = _script()
    for mode in (RATIONAL, FLOAT):
        x, y = (Fraction(t) if mode == RATIONAL else float(Fraction(t)) for t in ("2/3", "-5/7"))
        a = scalars.array(["1/2", -3], mode)
        with script.counting() as counts:
            assert scalars.fractions(scalars.einsum(",i->i", x, a)).tolist() == [x / 2, -3 * x]
            assert scalars.combine([1, -2], [x, y]) == x - 2 * y
        assert {k: n for k, n in counts.items() if k.startswith(("entry:", "reentry:"))} == {
            "entry:einsum": 1, "entry:combine": 1,
        }, mode


def test_counts_of_the_default_model_set():
    out = _script().count(zoo.all_entries() + [zoo.random_structure(5, n) for n in (1, 2)])
    del out["models"]
    assert out == DEFAULT_COUNTS


def _counted(script, *calls):
    with script.counting() as counts:
        for call in calls:
            call()
    return counts


def test_counts_of_single_kernel_calls():
    script = _script()

    def rat(nested):
        return scalars.array(nested, RATIONAL)

    def scalings(*calls):
        return _counted(script, *calls)["scale_calls"]

    def widened(*calls):
        return sum(n for k, n in _counted(script, *calls).items() if k.startswith("widen:"))

    # an array is scaled once, when its tokens are read, and never again,
    # also when the kernel transposes it
    assert scalings(lambda: rat([["1/2", "1/3", 0], ["-2/7", 5, "3/4"]])) == 1
    a = rat([["1/2", "1/3", 0], ["-2/7", 5, "3/4"]])
    v = rat(["1/5", -1, 2])
    assert scalings(
        lambda: scalars.einsum("ij,j->i", a, v),
        lambda: scalars.einsum("ij,j->i", a, v),
        lambda: scalars.combine([1, 1], [scalars.einsum("ij->ji", a), scalars.einsum("ij->ji", a)]),
        lambda: scalars.einsum("ij,jk->ik", a, scalars.einsum("ij->ji", a)),
    ) == 0
    # a kernel result, its kernel transpose and a transpose of that: never
    r = scalars.einsum("ij,kj->ik", a, a)
    t = scalars.einsum("ij->ji", r)
    assert scalings(
        lambda: scalars.combine([1, Fraction(-1, 2)], [r, t]),
        lambda: scalars.einsum("ij,jk->ik", r, r),
        lambda: scalars.residual(r),
        lambda: scalars.zero_test([scalars.einsum("ij->ji", t)], 0.0),
    ) == 0
    # a scalar operand: at each use
    half = Fraction(1, 2)
    assert scalings(lambda: scalars.einsum(",j->j", half, v), lambda: scalars.einsum(",j->j", half, v)) == 2
    # the one Fraction array is the reader's, at its outermost call
    assert _counted(script, lambda: scalars.fractions(scalars.row(a, 0)))["fraction_arrays"] == 1
    # each product fits int64, the sum of two does not
    big = rat([3037000499, 3037000499])
    assert widened(lambda: scalars.einsum("i,i->i", big, big)) == 0
    assert widened(lambda: scalars.einsum("i,i->", big, big)) == 1
    # quotients of rows that fit int64, and quotients that do not
    rows = rat([2**40, "-3/5", 0])
    assert widened(lambda: scalars.divide_rows(rows, rat([1, -7, "1/3"]))) == 0
    assert widened(lambda: scalars.divide_rows(rows, rat([Fraction(1, 2**30), -7, "1/3"]))) == 1
    # an all-zero term adds nothing to the bound, whatever its coefficient
    zero = rat([0, 0])
    assert widened(lambda: scalars.combine([2**70, 1, -(2**80)], [zero, scalars.row(v, np.s_[:2]), zero])) == 0
    # the bound 4 r^3 of a staged contraction, on either side of 2**63 - 1
    edge = 1 + round(((2**63 - 1) / 4) ** (1 / 3))
    while 4 * edge**3 > 2**63 - 1:
        edge -= 1
    for value, n in ((edge, 0), (edge + 1, 1)):
        operands = [rat(np.full(shape, value)) for shape in ((1, 2), (2, 2), (2, 1))]
        assert widened(lambda: scalars.einsum("ij,jk,kl->il", *operands)) == n
    # a whole rational run on a dim-5 model leaves int64 only where the
    # sectional values of its sampled planes are divided by their pi_1
    assert script.count([zoo.builtin("solv5-f1")])["widen_callers"] == {
        "curvature.py:formula": 1, "curvature.py:sectional": 2,
    }
