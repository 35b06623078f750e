"""``scripts/kernel_counts.py``, the counts of what the exact kernel does
while models are verified: every function it wraps still exists, so no
count reads 0 because its target was renamed, and it counts a dim-3 entry,
its exact zeros, the outermost calls of its entry points, their calls of
themselves (none) and a forced fall-back to Python ints."""
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from bcontact import scalars, zoo
from bcontact.scalars import FLOAT, RATIONAL

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernel_counts.py"


def _script():
    spec = importlib.util.spec_from_file_location("kernel_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    script = _script()
    for name in script.TARGETS + script.ENTRY_POINTS:
        assert callable(getattr(scalars, name)), name
    assert script.KERNEL_FILE == "scalars.py"


def test_counts_of_a_dim3_entry(monkeypatch, capsys):
    script = _script()
    # an empty table of shared Fractions, as in a fresh interpreter
    monkeypatch.setattr(scalars, "_FRACTIONS", {})
    wrapped = script.TARGETS + script.ENTRY_POINTS
    real = {name: getattr(scalars, name) for name in wrapped}
    real_new = Fraction.__new__
    out = script.count([zoo.builtin("solv3-f4")])
    assert out["models"] == ["solv3-f4"] and out["failed_checks"] == []
    assert out["rebuild_calls"] > 0 and out["scale_calls"] > 0
    assert out["scaled_entries"] >= out["scale_calls"]
    built = out["fractions_built"]
    assert built["_fraction"] > 0
    assert built["total"] == sum(n for k, n in built.items() if k != "total")
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
        x, y = scalars.parse_scalar("2/3", mode), scalars.parse_scalar("-5/7", mode)
        a = scalars.array(["1/2", -3], mode)
        with script.counting() as counts:
            assert scalars.einsum(",i->i", x, a).tolist() == [x / 2, -3 * x]
            assert scalars.combine([1, -2], [x, y]) == x - 2 * y
        assert {k: n for k, n in counts.items() if k.startswith(("entry:", "reentry:"))} == {
            "entry:einsum": 1, "entry:combine": 1,
        }, mode
