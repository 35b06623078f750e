"""Mutation survey of the curvature, SvK, horizontal/vertical, structure, Lie algebra, tensor, pipeline and scalar kernel code.

Which one-site changes of the code do the check suite and the tests notice?

    PYTHONPATH=src python scripts/mutants.py [--jobs N] [--out FILE] [--compare OLD.json]
        [--targets FILE ...]

Run it from the root of a checkout.  The mutated code is
``src/bcontact/curvature.py``, ``svk.py``, ``hv.py``, ``structure.py``,
``liegroup.py``, ``tensor.py``, ``pipeline.py``, ``scalars.py`` and the sectional part of
``src/bcontact/checks.py`` (from its "sectional-curvature sampling" header
to its "suite driver" header), or only the files ``--targets`` names
(``scalars.py`` or ``src/bcontact/scalars.py``, say), so that a survey of
one change mutates only what it touches.
Each mutant changes one site:

- ``sign``: a binary ``+`` becomes ``-`` or back (``+=`` and ``-=`` too),
  and a positive coefficient of a ``scalars.combine`` list gains a minus;
- ``unary``: a unary minus is dropped (a negative coefficient among them);
- ``einsum``: two output letters of an einsum spec are swapped (every string
  literal of the form ``ab,bc->ac``, each term led by the batch label ``B``
  or not, which is never swapped).

Each mutant runs against two oracles, each in a fresh interpreter on a copy
of the checkout that holds the mutant (its ``src``, ``tests``,
``pyproject.toml``, and ``bench/tracer.py`` and ``scripts/kernel_counts.py``,
which tests execute):

- ``suite``: ``run_checks`` in rational mode on every curated and boundary
  entry up to dimension 5; the mutant is killed when an entry's failing
  checks differ from its frozen ``failing_checks`` (none for a curated
  entry), or when a run raises or times out;
- ``tests``: pytest on ``tests/test_sectional.py``, ``test_curvature.py``,
  ``test_basis_change.py``, ``test_hv.py``, ``test_svk.py``,
  ``test_structure.py``, ``test_liegroup.py``, ``test_scalar_kernel.py``,
  ``test_tensor.py``, ``test_check_rows.py``, ``test_zoo.py`` and
  ``test_cli.py`` (so that a branch only CLI output reaches is seen); the
  mutant is killed when a test fails.  It is
  not run on a mutant that the suite oracle kills by timeout, which would
  most likely hang the tests too, and its verdict reads ``SKIPPED``.

Both oracles first run once on an unmutated copy, within ``SUITE_TIMEOUT``
and ``TESTS_TIMEOUT`` seconds.  When either fails or times out there, the
script names it and exits 1 without running a mutant, since every mutant
would read killed.  A mutant's run of an oracle times out at
``TIMEOUT_FACTOR`` times that oracle's unmutated run.

The script prints the survivors of each oracle and the counts.  ``--out``
writes every mutant with its verdicts as JSON.  ``--compare`` reads such a
file from another checkout and names each mutant of the code both share
(the same line, mutated the same way) that the old checkout kills and this
one does not, and each mutant that only the tests kill here.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path

ROOT = Path.cwd()
TARGETS = {
    "src/bcontact/curvature.py": None,
    "src/bcontact/svk.py": None,
    "src/bcontact/hv.py": None,
    "src/bcontact/structure.py": None,
    "src/bcontact/liegroup.py": None,
    "src/bcontact/tensor.py": None,
    "src/bcontact/pipeline.py": None,
    "src/bcontact/scalars.py": None,
    "src/bcontact/checks.py": ("# sectional-curvature sampling", "# suite driver"),
}
TESTS = [
    "tests/test_sectional.py", "tests/test_curvature.py", "tests/test_basis_change.py",
    "tests/test_hv.py", "tests/test_svk.py", "tests/test_structure.py", "tests/test_liegroup.py",
    "tests/test_scalar_kernel.py", "tests/test_tensor.py", "tests/test_check_rows.py", "tests/test_zoo.py",
    "tests/test_cli.py",
]
EINSUM_SPEC = re.compile(r"^(B?[a-z]+|B)(,(B?[a-z]+|B))*->B?[a-z]*$")
# the run of an oracle on the unmutated code times out at these seconds,
# and a mutant's run at TIMEOUT_FACTOR times that unmutated run
SUITE_TIMEOUT, TESTS_TIMEOUT = 120, 600
TIMEOUT_FACTOR = 10

# the verdict of an oracle whose run timed out, and the tests' verdict on a
# mutant whose suite run timed out
TIMEOUT = "killed: timeout"
SKIPPED = "skipped: the suite timed out"

# failing checks per entry that differ from the frozen ones, as JSON
SUITE_ORACLE = """
import json
from bcontact import zoo
from bcontact.checks import run_checks
out = {}
for name in zoo.names() + zoo.boundary_names():
    entry = zoo.builtin(name)
    if entry.dim > 5:
        continue
    try:
        failing = sorted(r.name for r in run_checks(entry.workspace("rational")) if not r.passed)
    except Exception as exc:
        failing = ["raised " + type(exc).__name__]
    if failing != sorted(entry.failing_checks):
        out[name] = failing
print(json.dumps(out))
"""


@dataclass
class Mutant:
    """One mutant: ``file`` with ``line`` (1-based) changed from ``before``
    to ``after``; ``key`` names it across checkouts."""

    file: str
    function: str
    kind: str
    line: int
    before: str
    after: str
    key: str = ""
    suite: str = ""  # "killed: <why>" or "survived"
    tests: str = ""  # the same, or SKIPPED


def _region(source: str, bounds) -> tuple[int, int]:
    """The first and last line (1-based) of the mutated part of a file."""
    lines = source.splitlines()
    if bounds is None:
        return 1, len(lines)
    start, end = (next(i for i, l in enumerate(lines, 1) if l.startswith(b)) for b in bounds)
    return start, end


def _edits(tree: ast.AST, lines: list[str]):
    """(kind, line, column, old text, new text) of every mutation site."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            # the operator is the first + or - after the left operand
            row, col = node.left.end_lineno, node.left.end_col_offset
            while True:
                text = lines[row - 1]
                hit = re.search(r"[+-]", text[col:].split("#")[0])
                if hit:
                    col += hit.start()
                    break
                row, col = row + 1, 0
            new = "-" if text[col] == "+" else "+"
            yield "sign", row, col, text[col], new
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
            row = node.target.end_lineno
            text = lines[row - 1]
            col = text.index("=", node.target.end_col_offset) - 1
            yield "sign", row, col, text[col], "-" if text[col] == "+" else "+"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield "unary", node.lineno, node.col_offset, "-", ""
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "combine"
            and node.args
            and isinstance(node.args[0], (ast.List, ast.BinOp))
        ):
            coefficients = node.args[0]
            if isinstance(coefficients, ast.BinOp):  # [1] * n
                coefficients = coefficients.left
            for c in getattr(coefficients, "elts", []):
                if not (isinstance(c, ast.UnaryOp) and isinstance(c.op, ast.USub)):
                    yield "sign", c.lineno, c.col_offset, "", "-"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            spec = node.value
            if EINSUM_SPEC.match(spec) and node.lineno == node.end_lineno:
                inputs, output = spec.split("->")
                for p, q in combinations(range(output[:1] == "B", len(output)), 2):
                    out = list(output)
                    out[p], out[q] = out[q], out[p]
                    new = f"{inputs}->{''.join(out)}"
                    text = lines[node.lineno - 1]
                    col = text.index(spec, node.col_offset)
                    yield "einsum", node.lineno, col, spec, new


def _functions(tree: ast.AST) -> dict[int, str]:
    """The innermost function or class around each line."""
    owner = {}
    nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    for node in sorted(nodes, key=lambda n: n.end_lineno - n.lineno, reverse=True):
        for row in range(node.lineno, node.end_lineno + 1):
            owner[row] = node.name
    return owner


def mutants(root: Path) -> list[tuple[Mutant, str]]:
    """Every mutant of the targets under ``root``, with the mutated source of
    its file."""
    out = []
    for file, bounds in TARGETS.items():
        source = (root / file).read_text()
        lines = source.splitlines(keepends=True)
        tree = ast.parse(source)
        first, last = _region(source, bounds)
        owner = _functions(tree)
        # the lines of each top-level statement, decorators included
        spans = [(min([n.lineno] + [d.lineno for d in getattr(n, "decorator_list", [])]), n.end_lineno)
                 for n in tree.body]
        seen = Counter()
        edits = sorted(set(_edits(tree, lines)))
        for kind, row, col, old, new in edits:
            if not first <= row <= last:
                continue
            text = lines[row - 1]
            assert text[col:col + len(old)] == old, (file, row, col, old)
            changed = text[:col] + new + text[col + len(old):]
            mutated = "".join(lines[: row - 1]) + changed + "".join(lines[row:])
            # every mutant is valid Python: the statement that holds the
            # changed line parses, and the others are those of the file
            start, end = next(span for span in spans if span[0] <= row <= span[1])
            ast.parse("".join(lines[start - 1: row - 1]) + changed + "".join(lines[row:end]))
            m = Mutant(file, owner.get(row, "<module>"), kind, row, text.strip(), changed.strip())
            base = f"{file}|{m.before}|{m.after}"
            m.key = f"{base}|{seen[base]}"
            seen[base] += 1
            out.append((m, mutated))
    return out


def _copy(root: Path, into: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(root / part, into / part, ignore=shutil.ignore_patterns("__pycache__"))
    for part in ("pyproject.toml", "bench/tracer.py", "scripts/kernel_counts.py"):
        (into / part).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(root / part, into / part)
    return into


def _run(cmd, cwd: Path, timeout: float):
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


def _suite(copy: Path, timeout: float) -> str:
    proc = _run([sys.executable, "-c", SUITE_ORACLE], copy, timeout)
    if proc is None:
        return TIMEOUT
    if proc.returncode != 0:
        return "killed: " + (proc.stderr.strip().splitlines() or ["exit"])[-1][:120]
    differ = json.loads(proc.stdout)
    if differ:
        name, failing = next(iter(sorted(differ.items())))
        return f"killed: {len(differ)} entries, first {name}: {', '.join(failing)[:200]}"
    return "survived"


def _tests(copy: Path, timeout: float) -> str:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    proc = _run(cmd, copy, timeout)
    if proc is None:
        return TIMEOUT
    if proc.returncode == 0:
        return "survived"
    failed = [l for l in proc.stdout.splitlines() if l.startswith(("FAILED", "ERROR"))]
    return "killed: " + (failed[0] if failed else f"exit {proc.returncode}")[:200]


class BaselineError(Exception):
    """An oracle fails on the unmutated code, so it would kill every mutant."""


def _timeouts(copy: Path) -> dict[str, float]:
    """Each oracle's timeout for a mutant: ``TIMEOUT_FACTOR`` times its run
    on the unmutated ``copy``, which times out at ``SUITE_TIMEOUT`` or
    ``TESTS_TIMEOUT``.  An oracle that fails there, or times out, raises
    BaselineError naming it."""
    out = {}
    for name, oracle, limit in (("suite", _suite, SUITE_TIMEOUT), ("tests", _tests, TESTS_TIMEOUT)):
        start = time.monotonic()
        verdict = oracle(copy, limit)
        if verdict != "survived":
            raise BaselineError(f"the {name} oracle fails on the unmutated code ({verdict})")
        out[name] = TIMEOUT_FACTOR * (time.monotonic() - start)
    return out


def survey(root: Path, jobs: int, targets=None) -> list[Mutant]:
    """Every mutant of ``root`` (of the files ``targets`` names, when it is
    given) with its verdicts, after both oracles passed on the unmutated
    code (else BaselineError, and no mutant runs)."""
    with tempfile.TemporaryDirectory() as tmp:
        copies = queue.Queue()
        for j in range(jobs):
            copies.put(_copy(root, Path(tmp) / str(j)))
        first = copies.get()
        timeouts = _timeouts(first)
        copies.put(first)
        print(f"timeouts: suite {timeouts['suite']:.0f} s, tests {timeouts['tests']:.0f} s", file=sys.stderr)

        def run(item):
            m, mutated = item
            copy = copies.get()
            target = copy / m.file
            original = target.read_text()
            try:
                target.write_text(mutated)
                m.suite = _suite(copy, timeouts["suite"])
                m.tests = SKIPPED if m.suite == TIMEOUT else _tests(copy, timeouts["tests"])
            finally:
                target.write_text(original)
                copies.put(copy)
            print(f"{m.suite[:8]:8} {m.tests[:8]:8} {m.file}:{m.line} {m.after}", file=sys.stderr)
            return m

        chosen = [item for item in mutants(root) if targets is None or item[0].file in targets]
        with ThreadPoolExecutor(jobs) as pool:
            return list(pool.map(run, chosen))


def _killed(m: dict) -> bool:
    return m["suite"] != "survived" or m["tests"] != "survived"


def report(found: list[dict], old: list[dict] | None = None) -> None:
    for oracle in ("suite", "tests"):
        survivors = [m for m in found if m[oracle] == "survived"]
        skipped = sum(m[oracle] == SKIPPED for m in found)
        print(f"\n{oracle}: {len(found) - len(survivors) - skipped} of {len(found)} killed, "
              f"{skipped} not run; survivors:")
        for m in survivors:
            print(f"  {m['file']}:{m['line']} [{m['function']}] {m['kind']}: {m['after']}")
    both = [m for m in found if not _killed(m)]
    print(f"\nboth oracles: {len(found) - len(both)} of {len(found)} killed, {len(both)} survive")
    only_tests = [m for m in found if m["suite"] == "survived" and m["tests"] != "survived"]
    print(f"killed by the tests only: {len(only_tests)}")
    for m in only_tests:
        print(f"  {m['file']}:{m['line']} [{m['function']}] {m['kind']}: {m['after']}")
    if old is None:
        return
    now = {m["key"]: m for m in found}
    shared = [m for m in old if m["key"] in now]
    lost = [m for m in shared if _killed(m) and not _killed(now[m["key"]])]
    print(f"\nshared with the old checkout: {len(shared)} mutants, "
          f"{sum(map(_killed, shared))} killed there, "
          f"{sum(_killed(now[m['key']]) for m in shared)} killed here")
    print(f"killed there, surviving here: {len(lost)}")
    for m in lost:
        print(f"  {m['file']} [{m['function']}] {m['kind']}: {m['after']}")


def _target(name: str) -> str:
    """The ``TARGETS`` file that ``name`` names, by its path or file name."""
    found = [file for file in TARGETS if name in (file, Path(file).name)]
    if not found:
        raise argparse.ArgumentTypeError(f"{name!r} is none of {', '.join(TARGETS)}")
    return found[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once (default 1)")
    parser.add_argument("--out", type=Path, help="write every mutant and its verdicts here")
    parser.add_argument("--compare", type=Path, help="a --out file of another checkout")
    parser.add_argument("--targets", type=_target, nargs="+", help="mutate only these files (default: all)")
    args = parser.parse_args(argv)
    try:
        found = [asdict(m) for m in survey(ROOT, max(1, args.jobs), args.targets)]
    except BaselineError as exc:
        print(f"mutants: {exc}; no mutant was run", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(json.dumps(found, indent=1) + "\n")
    old = json.loads(args.compare.read_text()) if args.compare else None
    report(found, old)
    return 0


if __name__ == "__main__":
    sys.exit(main())
