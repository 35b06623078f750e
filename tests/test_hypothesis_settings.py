"""Every property test in ``tests/`` draws the same examples on every run,
so that a failure reproduces: an ``ast`` guard finds each ``@settings``
without ``derandomize=True``."""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _random_settings(path: Path) -> list[int]:
    """The lines of the ``@settings(...)`` decorators of ``path`` that do not
    pass ``derandomize=True``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        for deco in getattr(node, "decorator_list", []):
            func = getattr(deco, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "settings":
                continue
            fixed = any(
                k.arg == "derandomize" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in deco.keywords
            )
            if not fixed:
                lines.append(deco.lineno)
    return lines


def test_guard_sees_settings_without_derandomize(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        "@settings(max_examples=5, derandomize=True)\ndef test_a(x): pass\n\n"
        "@settings(max_examples=5)\ndef test_b(x): pass\n\n"
        "@hypothesis.settings(derandomize=False)\ndef test_c(x): pass\n"
    )
    assert _random_settings(probe) == [4, 7]


def test_every_property_test_is_derandomized():
    found = {path.name: _random_settings(path) for path in sorted(TESTS.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
