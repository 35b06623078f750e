"""``scripts/mutants.py``, the mutation survey of the curvature, SvK,
horizontal/vertical, structure, Lie algebra, tensor, pipeline and scalar kernel code
and of the sectional checks: every mutant it makes is valid Python (it
parses the statement each one changes) that differs from its file in one
line, each has a key of its own, and every target file is mutated; an
oracle that fails on the unmutated code stops the survey before any mutant
runs, and the copy an oracle runs in holds what its tests read.  The survey
itself runs outside these tests, and a mutant on which the suite oracle
times out does not run the tests oracle."""
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "mutants.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def found(script):
    return script.mutants(ROOT)


def test_each_mutant_changes_one_line_of_its_target(found):
    assert {m.kind for m, _ in found} == {"sign", "unary", "einsum"}
    assert {m.file for m, _ in found} == {
        f"src/bcontact/{name}.py"
        for name in ("curvature", "svk", "hv", "structure", "liegroup", "tensor", "pipeline", "scalars", "checks")
    }
    assert len({m.key for m, _ in found}) == len(found)
    for m, mutated in found:
        original = (ROOT / m.file).read_text().splitlines()
        changed = mutated.splitlines()
        differ = [i for i, (a, b) in enumerate(zip(original, changed)) if a != b]
        assert len(original) == len(changed) and differ == [m.line - 1], m


def test_checks_is_mutated_only_in_its_sectional_part(found):
    per_function = Counter(m.function for m, _ in found if m.file.endswith("checks.py"))
    assert per_function and set(per_function) <= {
        "sample_planes", "check_sectional_curvature", "_sectional_checks",
    }


@pytest.mark.parametrize("failing", ["suite", "tests"])
def test_a_failing_baseline_runs_no_mutant(script, monkeypatch, capsys, failing):
    runs = []

    def oracle(name):
        def run(copy, timeout):
            runs.append((name, timeout))
            return "killed: planted" if name == failing else "survived"
        return run

    monkeypatch.setattr(script, "_suite", oracle("suite"))
    monkeypatch.setattr(script, "_tests", oracle("tests"))
    monkeypatch.setattr(script, "mutants", lambda root: pytest.fail("a mutant was made"))
    monkeypatch.setattr(script, "ROOT", ROOT)
    assert script.main([]) == 1
    assert f"the {failing} oracle fails on the unmutated code" in capsys.readouterr().err
    limits = [("suite", script.SUITE_TIMEOUT), ("tests", script.TESTS_TIMEOUT)]
    assert runs == limits[: 1 if failing == "suite" else 2]


def test_a_suite_timeout_skips_the_tests_oracle(script, monkeypatch, tmp_path):
    # two faked mutants of one file: the suite oracle times out on the first
    # only, and the tests oracle runs on the unmutated copy and the second
    target = "src/bcontact/hv.py"

    def copy(root, into):
        (into / target).parent.mkdir(parents=True)
        (into / target).write_text("original")
        return into

    hangs, other = (script.Mutant(target, "f", "sign", 1, "+", after) for after in ("hangs", "other"))
    monkeypatch.setattr(script, "_copy", copy)
    monkeypatch.setattr(script, "mutants", lambda root: [(hangs, "hangs"), (other, "other")])
    monkeypatch.setattr(
        script, "_suite",
        lambda copy, timeout: script.TIMEOUT if (copy / target).read_text() == "hangs" else "survived",
    )
    tested = []
    monkeypatch.setattr(
        script, "_tests", lambda copy, timeout: tested.append((copy / target).read_text()) or "survived"
    )
    found = script.survey(tmp_path, 1)
    assert tested == ["original", "other"]
    assert [(m.suite, m.tests) for m in found] == [(script.TIMEOUT, script.SKIPPED), ("survived", "survived")]


def test_the_copy_of_an_oracle_runs_the_row_tests(script, tmp_path):
    # test_check_rows.py executes bench/tracer.py, which the copy must hold
    assert "tests/test_check_rows.py" in script.TESTS
    copy = script._copy(ROOT, tmp_path)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_check_rows.py"]
    proc = script._run(cmd, copy, 600)
    assert proc is not None and proc.returncode == 0, proc and proc.stdout[-2000:]


def test_targets_narrow_the_survey_to_the_files_they_name(script, monkeypatch, tmp_path):
    # --targets takes a file of TARGETS by its path or its name; the survey
    # then runs only the mutants of those files
    assert script._target("scalars.py") == script._target("src/bcontact/scalars.py") == "src/bcontact/scalars.py"
    with pytest.raises(Exception, match="is none of"):
        script._target("cli.py")
    made = [script.Mutant(f"src/bcontact/{name}.py", "f", "sign", 1, "+", "-") for name in ("hv", "scalars")]

    def copy(root, into):
        for m in made:
            (into / m.file).parent.mkdir(parents=True, exist_ok=True)
            (into / m.file).write_text("original")
        return into

    monkeypatch.setattr(script, "_copy", copy)
    monkeypatch.setattr(script, "mutants", lambda root: [(m, "mutated") for m in made])
    monkeypatch.setattr(script, "_suite", lambda copy, timeout: "survived")
    monkeypatch.setattr(script, "_tests", lambda copy, timeout: "survived")
    assert [m.file for m in script.survey(tmp_path, 1, ["src/bcontact/scalars.py"])] == ["src/bcontact/scalars.py"]
    assert [m.file for m in script.survey(tmp_path, 1)] == [m.file for m in made]


def test_the_copy_of_an_oracle_holds_the_counting_script(script, tmp_path):
    # test_scalar_kernel.py counts widenings with scripts/kernel_counts.py
    copy = script._copy(ROOT, tmp_path)
    assert (copy / "scripts" / "kernel_counts.py").read_text() == (ROOT / "scripts" / "kernel_counts.py").read_text()
