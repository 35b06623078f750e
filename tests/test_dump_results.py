"""``scripts/dump_results.py``, the result dump that two checkouts are
compared by: it runs on a model in both modes, and its output is plain JSON
that is the same on a second run."""
import importlib.util
import json
from pathlib import Path

from bcontact import zoo

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "dump_results.py"


def _script():
    spec = importlib.util.spec_from_file_location("dump_results", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_covers_rows_classes_planes_and_commands_in_both_modes():
    script = _script()
    entry = zoo.builtin("solv3-f4")
    out = script.dump([entry])
    assert sorted(out) == ["solv3-f4/float", "solv3-f4/rational"]
    for mode, result in ((m, out[f"solv3-f4/{m}"]) for m in ("float", "rational")):
        assert sorted(result) == ["checks", "classes", "commands", "sectional"]
        assert result["checks"] and all(row[1] for row in result["checks"])
        assert sorted(result["classes"]) == ["g", "gtilde"]
        assert result["sectional"]["g"]["planes"] == len(result["sectional"]["g"]["k"]) > 0
        assert {c["exit"] for c in result["commands"].values()} == {0}
        if mode == "rational":
            assert {row[2] for row in result["checks"]} == {"0.0"}
    text = json.dumps(out, sort_keys=True)
    assert text == json.dumps(script.dump([entry]), sort_keys=True)


def test_compare_names_the_keys_that_differ_and_the_largest_relative_change():
    script = _script()
    old = {
        "m/rational": {"checks": [["a[g]", True, "0.0", [], ""]], "sectional": {"g": {"k": ["1/2", "3"]}}},
        "m/float": {
            "checks": [["a[g]", True, "0.0", [], ""], ["b[g]", True, "2e-16", [], ""]],
            "sectional": {"g": {"k": ["0.5", "3.0"]}},
            "commands": {"curvature": {"stdout": "k[g] = 0.25\n"}},
        },
    }
    assert script.compare(old, old) == ["rational: identical", "float: identical"]
    new = json.loads(json.dumps(old))
    new["m/float"]["sectional"]["g"]["k"][1] = "3.0000000000000004"
    new["m/float"]["checks"][1][2] = "4e-16"
    new["m/float"]["commands"]["curvature"]["stdout"] = "k[g] = 0.5\n"
    assert script.compare(old, new) == [
        "rational: identical",
        "float: 3 values differ under 3 keys; largest relative change 0.5",
        "  checks/b[g]/residual: 1",
        "  commands/curvature/stdout: 1",
        "  sectional/g/k: 1",
    ]
    # a text that differs in more than its numbers has no relative change
    new["m/rational"]["checks"][0][4] = "1 sampled plane"
    assert script.compare(old, new)[0] == (
        "rational: 1 values differ under 1 keys; largest relative change inf"
    )
