"""Structural guard: every zero test goes through ``scalars.zero_test`` with
the tolerance the model was loaded with.

The float tolerance ``eps`` is fixed once per model by the loaders below and
carried on the structure.  A default value for ``eps`` anywhere else is a
place where the loader's tolerance is silently replaced, and arithmetic or a
comparison on ``eps`` outside ``scalars`` is a second tolerance rule.
"""
import ast
from pathlib import Path

import bcontact

SRC = Path(bcontact.__file__).resolve().parent

# where a model and its tolerance enter the library
ENTRY_MODULES = {"cli", "modelfile", "zoo", "__init__"}
ENTRY_FUNCTIONS = {"modelfile.to_structure", "zoo.ZooEntry.structure", "zoo.ZooEntry.workspace"}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _functions(tree, prefix):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}.{node.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
            yield from _functions(node, f"{prefix}.{node.name}")


def _is_eps(node):
    return (isinstance(node, ast.Name) and node.id == "eps") or (
        isinstance(node, ast.Attribute) and node.attr == "eps"
    )


def test_eps_has_no_default_outside_the_entry_points():
    offenders = []
    for module, tree in _modules():
        for name, fn in _functions(tree, module):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            defaults.update(
                (a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            )
            if any(a.arg == "eps" for a in defaults) and name not in ENTRY_FUNCTIONS:
                offenders.append(name)
    assert offenders == []


def test_default_eps_read_only_by_scalars_and_the_entry_points():
    readers = {
        module
        for module, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "DEFAULT_EPS")
        or (isinstance(node, ast.Attribute) and node.attr == "DEFAULT_EPS")
        or (isinstance(node, ast.alias) and node.name == "DEFAULT_EPS")
    }
    assert readers <= ENTRY_MODULES | {"scalars"}


def test_only_scalars_computes_a_tolerance():
    offenders = []
    for module, tree in _modules():
        if module == "scalars":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp):
                operands = [node.left, node.right]
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            else:
                operands = []
            if any(_is_eps(x) for x in operands):
                offenders.append(f"{module}:{node.lineno}")
            if isinstance(node, (ast.Name, ast.Attribute)) and "tolerance" in (
                getattr(node, "id", None) or getattr(node, "attr", "")
            ):
                offenders.append(f"{module}:{node.lineno}")
    assert offenders == []


def test_environment_read_only_when_the_command_line_resolves_eps():
    # BCONTACT_EPS is read and checked by scalars.eps_or_env alone, so
    # importing the library never reads it and a bad value cannot escape
    # the --eps rule
    readers = []
    for module, tree in _modules():
        owners = {
            node: name for name, fn in _functions(tree, module) for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in {"environ", "getenv"}) or (
                isinstance(node, ast.alias) and node.name in {"environ", "getenv"}
            ):
                readers.append(owners.get(node, module))
    assert set(readers) == {"scalars.eps_or_env"}
