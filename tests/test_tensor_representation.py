"""Structural guard: a tensor is the array of its components, and a connection
is the array of its coefficients.

The library keeps no wrapper type around its component arrays, so no module
defines a ``Tensor`` or ``Connection`` class, reads a ``.data`` or ``.gamma``
attribute to unwrap one, or uses the former second names of the structure's
arrays.
"""
import ast
from pathlib import Path

import bcontact

SRC = Path(bcontact.__file__).resolve().parent

UNWRAPPING_NAMES = {"data", "gamma", "phi_m", "xi_v", "eta_v"}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _classes_named(name):
    return [
        f"{module}.{node.name}"
        for module, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    ]


def test_no_tensor_class():
    assert _classes_named("Tensor") == []


def test_no_connection_class():
    assert _classes_named("Connection") == []
    assert not hasattr(bcontact, "Connection")


def test_no_unwrapping_attribute_read():
    reads = [
        f"{module}:{node.lineno} .{node.attr}"
        for module, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in UNWRAPPING_NAMES
    ]
    assert reads == []
