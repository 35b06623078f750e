"""The scalar kernel: ``scalars.einsum``, the one contraction path, and the
exact-zero shortcut of ``scalars.zero_test``.

A rational contraction runs over integers scaled by a common denominator and
must give exactly what ``np.einsum`` gives over ``Fraction`` objects; a float
contraction is numpy's own call.  An ``ast`` guard keeps every contraction of
the library on this path.
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


def _contracts(spec, operands):
    """Whether the call multiplies two or more operands and sums an index."""
    inputs, arrow, output = spec.partition("->")
    letters = [c for c in inputs if c != ","]
    if not arrow:
        output = [c for c in letters if letters.count(c) == 1]
    return len(operands) >= 2 and bool(set(letters) - set(output))


@given(contractions())
# an empty summed axis, and a 0-d result of mixed denominators
@example(("ij,jk->ik", [scalars.zeros((2, 0), RATIONAL), scalars.zeros((0, 3), RATIONAL)]))
@example(("i,i->", [scalars.array(["1/2", "-2/3", 5], RATIONAL),
                    scalars.array([3, "1/4", "-1/10"], RATIONAL)]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_rational_einsum_equals_numpy_exactly(case):
    spec, operands = case
    expected = np.einsum(spec, *operands)
    got = scalars.einsum(spec, *operands)
    if not isinstance(expected, np.ndarray):
        assert not isinstance(got, np.ndarray)
        assert got == expected
        if _contracts(spec, operands):
            assert type(got) is Fraction
        return
    assert got.dtype == object and got.shape == expected.shape
    assert all(g == e for g, e in zip(got.flat, expected.flat))
    if _contracts(spec, operands):
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
