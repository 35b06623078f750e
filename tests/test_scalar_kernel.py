"""The scalar kernel: ``scalars.einsum``, the one contraction path, and the
exact-zero shortcut of ``scalars.zero_test``.

A rational contraction of two or more operands runs over integers scaled by
a common denominator and must give exactly what ``np.einsum`` gives over
``Fraction`` objects; a float contraction is numpy's own call.  ``ast`` guards
keep every contraction of the library on this path, and every lowering of an
upper index by a metric in ``tensor.lower_out``.
"""
import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcontact
from bcontact import scalars
from bcontact.scalars import FLOAT, RATIONAL

SRC = Path(bcontact.__file__).resolve().parent

LETTERS = "ijkl"

values = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(min_value=-20, max_value=20),
)


def _object_array(entries, shape):
    out = np.empty(len(entries), dtype=object)
    out[:] = entries
    return out.reshape(shape)


@st.composite
def contractions(draw):
    """An einsum spec over up to three operands, with rational operands of
    axis lengths 0 to 3 (mixed denominators, integer-valued entries, Python
    ints) and an output of any rank, 0-d included."""
    sizes = {c: draw(st.integers(min_value=0, max_value=3)) for c in LETTERS}
    terms = draw(
        st.lists(st.lists(st.sampled_from(LETTERS), max_size=3), min_size=1, max_size=3)
    )
    used = sorted({c for t in terms for c in t})
    spec = ",".join("".join(t) for t in terms)
    if draw(st.booleans()):
        out = draw(st.lists(st.sampled_from(used), unique=True)) if used else []
        spec += "->" + "".join(out)
    operands = []
    for t in terms:
        shape = tuple(sizes[c] for c in t)
        n = math.prod(shape)
        entries = draw(st.lists(values, min_size=n, max_size=n))
        operands.append(_object_array(entries, shape))
    return spec, operands


@given(contractions())
# an empty summed axis, a 0-d result of mixed denominators, and an outer
# product, which sums no index
@example(("ij,jk->ik", [scalars.zeros((2, 0), RATIONAL), scalars.zeros((0, 3), RATIONAL)]))
@example(("i,i->", [scalars.array(["1/2", "-2/3", 5], RATIONAL),
                    scalars.array([3, "1/4", "-1/10"], RATIONAL)]))
@example(("i,j->ij", [scalars.array(["1/2", "-2/3", 5], RATIONAL),
                      scalars.array(["3/4", 0], RATIONAL)]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_rational_einsum_equals_numpy_exactly(case):
    spec, operands = case
    expected = np.einsum(spec, *operands)
    got = scalars.einsum(spec, *operands)
    if not isinstance(expected, np.ndarray):
        assert not isinstance(got, np.ndarray)
        assert got == expected
        if len(operands) >= 2:
            assert type(got) is Fraction
        return
    assert got.dtype == object and got.shape == expected.shape
    assert all(g == e for g, e in zip(got.flat, expected.flat))
    # every rational call of two or more operands runs on the integer kernel
    if len(operands) >= 2:
        assert all(type(x) is Fraction for x in got.flat)


@given(contractions())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_float_einsum_is_numpy_bit_for_bit(case):
    spec, operands = case
    operands = [scalars.to_float(a) for a in operands]
    expected = np.einsum(spec, *operands)
    got = scalars.einsum(spec, *operands)
    assert type(got) is type(expected)
    assert np.asarray(got).dtype == np.asarray(expected).dtype
    assert np.array_equal(got, expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_einsum_calls_numpy_through_its_module_attribute(monkeypatch, mode):
    # tools that wrap np.einsum at run time see every contraction
    real = np.einsum
    seen = []

    def spy(spec, *operands):
        seen.append(spec)
        return real(spec, *operands)

    monkeypatch.setattr(np, "einsum", spy)
    m = scalars.eye(3, mode)
    scalars.einsum("ij,j->i", m, m[0])
    scalars.einsum("ij->ji", m)
    assert seen == ["ij,j->i", "ij->ji"]


def test_no_numpy_einsum_outside_scalars():
    uses = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "scalars":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "einsum"
                and isinstance(node.value, ast.Name)
                and node.value.id in {"np", "numpy"}
            ) or (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "numpy"
                and any(alias.name == "einsum" for alias in node.names)
            ):
                uses.append(f"{path.stem}:{node.lineno}")
    assert uses == []


def test_exact_zero_is_tested_without_float_conversion(monkeypatch):
    def no_conversion(arr):
        raise AssertionError("an exactly zero array was converted to float")

    monkeypatch.setattr(scalars, "to_float", no_conversion)
    zero = scalars.zeros((3, 3, 3), RATIONAL)
    assert scalars.zero_test([zero, zero], 0.0) == (True, 0.0, None)


def test_nonzero_rational_array_keeps_residual_and_worst_index():
    a = scalars.zeros((3, 3), RATIONAL)
    a[1, 2] = Fraction(-3, 2)
    a[0, 0] = Fraction(1, 3)
    assert scalars.zero_test([a], 0.0) == (False, 1.5, (1, 2))
    assert scalars.zero_test([scalars.zeros((2,), RATIONAL), a], 0.0) == (
        False, 1.5, (1, 1, 2),
    )


def _lowers_first_index(spec: str) -> bool:
    """Whether an einsum spec has the shape "aR,az->Rz": the first index of
    the first operand summed against the first of a two-index second
    operand, whose other index comes last in the output."""
    inputs, arrow, output = spec.partition("->")
    terms = inputs.split(",")
    if len(terms) != 2:
        return False
    first, second = terms
    if not arrow:  # implicit output: the indices that occur once, sorted
        letters = first + second
        output = "".join(sorted(c for c in set(letters) if letters.count(c) == 1))
    return (
        len(second) == 2
        and first[:1] == second[0]
        and second[0] not in first[1:] + second[1]
        and output == first[1:] + second[1]
    )


def _hand_written_lowerings(tree):
    """The lines of ``scalars.einsum(spec, t, <...>.matrix)`` calls whose spec
    lowers the first index of t, outside ``lower_out``."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "scalars"
            and len(node.args) == 3
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and isinstance(node.args[2], ast.Attribute)
            and node.args[2].attr == "matrix"
            and _lowers_first_index(node.args[0].value)
            and function != "lower_out"
        ):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_lowering_pattern_recognized():
    assert _lowers_first_index("ki,kj->ij")
    assert _lowers_first_index("lijk,lw->ijkw")
    assert _lowers_first_index("ki,kj")
    assert not _lowers_first_index("kj,ki->ij")  # m(x, S(y)), a transpose
    assert not _lowers_first_index("ij,ij->")
    assert not _lowers_first_index("ij,j->i")


def test_every_lowering_is_lower_out():
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += [f"{path.stem}:{line}" for line in _hand_written_lowerings(tree)]
    assert uses == []
