"""The scalar kernel through its contract: ``scalars.einsum``,
``scalars.combine``, ``scalars.divide_rows``, the zero tests and
``scalars.zero_rows``.

A rational call gives exactly what numpy gives over ``Fraction`` objects,
whatever kind of operand the library hands it (``KINDS``) and on both sides
of the int64 bound of its integer path; its array result is its own
read-only integers, whose denominator the kernel keeps, so that
``scalars.fractions`` reads its exact value; it is the one zero of its shape
when all-zero, and the zero tests read it exactly.  An integer array the
kernel did not make (a slice, a join or a copy taken outside it) is refused.
A rational contraction has an explicit output and gives each label one
length, and a rational combination takes terms of one shape.  A float call
is numpy's own (a contraction of three or more operands in pairwise stages,
bit for bit on integer-valued operands and within the rounding bound of its
sums otherwise), and a float zero test follows its plain rule.  Every array the kernel returns, ``array`` and
``eye`` included, is read-only in both modes, and ``exact`` refuses a
decimal token with more digits than Python converts to text.  ``ast``
guards keep every contraction on this path, every lowering in
``tensor.lower_out`` and every zero test of a stack in ``zero_rows``.  How
much work the kernel does is counted in ``test_kernel_counts.py``.
"""
import ast
import dataclasses
import gc
import importlib.util
import math
import operator
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcontact
from bcontact import scalars, zoo
from bcontact.checks import run_checks
from bcontact.liegroup import LieAlgebra
from bcontact.tensor import Metric, lower_out
from bcontact.scalars import FLOAT, RATIONAL

from support import rat

SRC = Path(bcontact.__file__).resolve().parent
INT64_MAX = 2**63 - 1

LETTERS = "ijklm"

values = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(min_value=-20, max_value=20),
)
integers = st.integers(min_value=-20, max_value=20)


def _object_array(entries, shape):
    out = np.empty(len(entries), dtype=object)
    out[:] = entries
    return out.reshape(shape)


def _values(a):
    """The exact values of a rational operand, an object array of
    ``Fraction`` for numpy's reference arithmetic (a scalar, and a float
    operand, as it is)."""
    return scalars.fractions(a) if isinstance(a, np.ndarray) and a.ndim else a


# numerators from 2**31 to 2**70 over small denominators: their sums of
# products fall on both sides of the int64 bound of the kernel
big_values = st.builds(
    Fraction,
    st.integers(min_value=2**31, max_value=2**70) | st.integers(min_value=-2**70, max_value=-2**31),
    st.integers(min_value=1, max_value=12),
)

# numerators from 2**10 to 2**22: the bound of a contraction of three or
# four of them, which the kernel stages, falls on either side of 2**63
edge_values = st.builds(
    Fraction,
    st.integers(min_value=2**10, max_value=2**22) | st.integers(min_value=-2**22, max_value=-2**10),
    st.integers(min_value=1, max_value=3),
)

# the kinds of operand the library hands the kernel, in each mode
KINDS = ("array", "result", "transpose", "row", "join", "kept zero", "scalar")
FLOAT_KINDS = ("fresh", "frozen", "frozen view", "view", "zero", "scalar")


def _as_kind(a, kind):
    """The array ``a`` of exact values (or floats) as an operand of
    ``kind``, with its values (zeros for a zero kind).  Rational: ``array``'s
    array of them, a kernel result, the kernel's transpose of an array, a row
    of a batch whose other row has another denominator, a join of two arrays,
    the kernel's zero, or the ``Fraction`` of a 0-d ``a``, which is otherwise
    the 0-d array of its value.  Float: ``a`` itself, ``a`` frozen, a
    reversed view of a frozen array, a read-only view of ``a``, which stays
    writable, a writable zero, or the numpy float of a 0-d ``a``."""
    if a.dtype == object:
        if not a.ndim:
            return Fraction(a[()]) if kind == "scalar" else a
        if kind == "result":
            return scalars.combine([1], [rat(a)])
        if kind == "transpose" and a.ndim > 1:
            labels = LETTERS[: a.ndim]
            return scalars.einsum(f"{labels}->{labels[::-1]}", rat(np.transpose(a)))
        if kind == "row":
            return scalars.row(scalars.stack([scalars.combine([Fraction(1, 3)], [rat(a)]), rat(a)]), 1)
        if kind == "join":
            return scalars.join([rat(a[: len(a) // 2]), rat(a[len(a) // 2:])])
        if kind == "kept zero":
            return scalars.combine([1, -1], [rat(a), rat(a)])
        return rat(a)
    if kind == "frozen":
        return scalars.freeze(a)
    if kind == "frozen view" and a.ndim:
        return scalars.freeze(a[::-1].copy())[::-1]
    if kind == "view":
        view = a.view()
        view.setflags(write=False)
        return view
    if kind == "zero":
        return np.zeros(a.shape)
    if kind == "scalar" and not a.ndim:
        return a[()]
    return a


@st.composite
def contractions(draw, values=values, min_operands=1, max_operands=4, mode=RATIONAL):
    """An einsum spec over ``min_operands`` to ``max_operands`` operands, with
    operands of axis lengths 0 to 4 (mixed denominators, integer-valued
    entries, Python ints), each of a drawn kind of ``mode``, and an explicit
    output of any rank, 0-d included, the exact kernel's grammar.  Labels
    are distinct within each term in about half of the draws, so that a
    spec of three or more operands is often one the kernel stages, summing
    in another order than numpy's one call."""
    sizes = {c: draw(st.integers(min_value=0, max_value=4)) for c in LETTERS}
    unique = draw(st.booleans())
    terms = draw(st.lists(
        st.lists(st.sampled_from(LETTERS), max_size=3, unique=unique),
        min_size=min_operands, max_size=max_operands,
    ))
    used = sorted({c for t in terms for c in t})
    out = draw(st.lists(st.sampled_from(used), unique=True)) if used else []
    spec = ",".join("".join(t) for t in terms) + "->" + "".join(out)
    operands = []
    for t in terms:
        shape = tuple(sizes[c] for c in t)
        n = math.prod(shape)
        entries = draw(st.lists(values, min_size=n, max_size=n))
        a = _object_array(entries, shape)
        if mode == FLOAT:
            a = a.astype(np.float64)
        operands.append(_as_kind(a, draw(st.sampled_from(KINDS if mode == RATIONAL else FLOAT_KINDS))))
    return spec, operands


@given(contractions())
# an empty summed axis, a 0-d result of mixed denominators, an outer
# product, which sums no index, and staged contractions of three and four
# operands
@example(("ij,jk->ik", [rat(np.zeros((2, 0), dtype=int)), rat(np.zeros((0, 3), dtype=int))]))
@example(("i,i->", [scalars.array(["1/2", "-2/3", 5], RATIONAL),
                    scalars.array([3, "1/4", "-1/10"], RATIONAL)]))
@example(("i,j->ij", [scalars.array(["1/2", "-2/3", 5], RATIONAL),
                      scalars.array(["3/4", 0], RATIONAL)]))
@example(("ij,jk,kl->li", [scalars.array([["1/2", 3], [-1, "2/7"]], RATIONAL),
                           scalars.array([[5, "-1/3", 0], ["1/4", 2, 1]], RATIONAL),
                           scalars.array([["2/3"], [-2], ["1/5"]], RATIONAL)]))
@example(("abm,ax,by,m->xy", [scalars.array(np.arange(-4, 4).reshape(2, 2, 2), RATIONAL),
                              scalars.array([["1/2", 1, 0], [-3, "3/4", 2]], RATIONAL),
                              scalars.array([[1, "-1/6"], ["5/2", 4]], RATIONAL),
                              scalars.array(["1/3", -1], RATIONAL)]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_rational_einsum_equals_numpy_exactly(case):
    _assert_einsum_is_exact(*case)


@given(contractions(big_values))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_rational_einsum_is_exact_at_the_int64_bound(case):
    _assert_einsum_is_exact(*case)


@given(contractions(edge_values, min_operands=3))
# stages past the bound whose first two keep no label: their 0-d results
# stay Python ints for the last stage
@example((",ij,,ij->", [scalars.array(1024, RATIONAL), scalars.array([[1024, "997879/2"]], RATIONAL),
                        scalars.array(2097048, RATIONAL), scalars.array([["1025/2", "2149/3"]], RATIONAL)]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_rational_staged_einsum_is_exact_on_both_sides_of_the_int64_bound(case):
    _assert_einsum_is_exact(*case)


def _assert_einsum_is_exact(spec, operands):
    values = [_values(a) for a in operands]
    expected = np.einsum(spec, *values)
    got = scalars.einsum(spec, *operands)
    _assert_kernel_result(got, expected, operands, values)


def _float_operands(operands):
    return [np.asarray(a, dtype=np.float64) for a in operands]


def _assert_read_only(result):
    """What the kernel returns is finished: an array result is read-only."""
    assert not (isinstance(result, np.ndarray) and result.flags.writeable)


def _assert_bit_for_bit(spec, operands):
    expected = np.einsum(spec, *operands)
    got = scalars.einsum(spec, *operands)
    _assert_read_only(got)
    assert type(got) is type(expected)
    assert np.asarray(got).dtype == np.asarray(expected).dtype
    assert np.array_equal(got, expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@given(contractions(max_operands=2, mode=FLOAT))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_float_einsum_of_one_or_two_operands_is_numpy_bit_for_bit(case):
    spec, operands = case
    _assert_bit_for_bit(spec, operands)


@given(contractions(integers, min_operands=3, mode=FLOAT))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_float_einsum_of_integers_is_numpy_bit_for_bit(case):
    # every product and partial sum of integers this small is exact in
    # float64, so the order of the stages does not show
    spec, operands = case
    _assert_bit_for_bit(spec, operands)


def _gamma(n: int) -> Fraction:
    """gamma_n = n u / (1 - n u), u = 2**-53 the unit roundoff of float64."""
    u = Fraction(1, 2**53)
    return n * u / (1 - n * u)


@given(contractions(min_operands=3, mode=FLOAT))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_float_einsum_of_three_or_more_operands_is_within_its_rounding_bound(case):
    # An entry is a sum of K products of p operand entries.  numpy's one
    # call makes p - 1 roundings in each product and K - 1 in the sum; the
    # stages make one rounding per product of two stage operands, p - 1 in
    # all, and K_s - 1 in the sum of stage s, with prod K_s = K, so
    # sum (K_s - 1) <= K - 1.  Either way each product carries at most
    # n = K + p - 2 roundings, and the entry is within gamma_n * E of the
    # exact value of the float operands, E being the same contraction of
    # their absolute values (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., ch. 3): the staged and the one-call results
    # differ by at most 2 gamma_n E.
    spec, floats = case
    got = scalars.einsum(spec, *floats)
    _assert_read_only(got)
    got = np.asarray(got)
    numpy = np.asarray(np.einsum(spec, *floats))
    exact = [_object_array([Fraction(x) for x in a.ravel().tolist()], a.shape) for a in floats]
    value = np.asarray(np.einsum(spec, *exact))
    size = np.asarray(np.einsum(spec, *(np.abs(a) for a in exact)))
    # every entry of a contraction of all-ones arrays is its number of terms
    ones = np.einsum(spec, *(np.ones(a.shape, dtype=np.int64) for a in floats))
    n = int(np.max(ones, initial=0)) + len(floats) - 2
    assert got.shape == numpy.shape == value.shape and got.dtype == np.float64
    for g, v, e in zip(got.ravel().tolist(), value.ravel().tolist(), size.ravel().tolist()):
        assert abs(Fraction(g) - v) <= _gamma(n) * e
    for g, v, e in zip(numpy.ravel().tolist(), value.ravel().tolist(), size.ravel().tolist()):
        assert abs(Fraction(g) - v) <= _gamma(n) * e


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
    scalars.einsum("ij,j->i", m, scalars.row(m, 0))
    scalars.einsum("ij->ji", m)
    # a staged contraction: each stage is a call
    scalars.einsum("ij,jk,k->i", m, m, scalars.row(m, 0))
    assert seen == ["ij,j->i", "ij->ji", "jk,k->j", "ij,j->i"]


def _outside_grammar(spec: str) -> bool:
    """Whether a spec has an implicit output or an ellipsis, which only a
    float contraction reads."""
    return "->" not in spec or "." in spec


@pytest.mark.parametrize("spec, stages", [
    # the dim^6 sandwich becomes two dim^5 stages
    ("ijab,ak,bl->ijkl", ["ijab,ak->ijbk", "bl,ijbk->ijkl"]),
    # the pair that shares a label and runs over the fewest labels first
    ("abm,ax,by,m->xy", ["abm,m->ab", "ax,ab->xb", "by,xb->xy"]),
    ("ij,nai,nbj->nab", ["ij,nai->jna", "nbj,jna->nab"]),
    # an outer product makes one product per entry instead of two
    ("x,y,z->xyz", ["x,y->xy", "z,xy->xyz"]),
    # one call: an implicit output and an ellipsis, which the exact kernel
    # refuses, a label repeated in a term, and a spec whose every stage
    # would loop over all its labels
    ("ij,jk,kl", ["ij,jk,kl"]),
    ("ij,...i,...j->...", ["ij,...i,...j->..."]),
    ("ii,ij,j->", ["ii,ij,j->"]),
    ("ij,ij,ij->ij", ["ij,ij,ij->ij"]),
])
@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_a_multi_operand_contraction_runs_in_pairwise_stages(monkeypatch, spec, stages, mode):
    rng = np.random.default_rng(5)
    inputs = spec.partition("->")[0].split(",")
    shapes = [(3,) * len(t.replace("...", "x")) for t in inputs]
    operands = [scalars.array(rng.integers(-3, 4, size=shape), mode) for shape in shapes]
    expected = np.einsum(spec, *map(_values, operands))
    real, seen = np.einsum, []
    monkeypatch.setattr(np, "einsum", lambda s, *ops: seen.append(s) or real(s, *ops))
    if mode == RATIONAL and _outside_grammar(spec):
        with pytest.raises(ValueError, match="explicit output"):
            scalars.einsum(spec, *operands)
        assert seen == []
        return
    got = scalars.einsum(spec, *operands)
    assert [s for s in seen if s.count(",") >= 1] == stages
    assert np.array_equal(_values(got), expected)


def _just_below_the_bound(k: int, p: int) -> int:
    """The largest r with k * r**p <= 2**63 - 1."""
    r = 1 + math.floor((INT64_MAX // k) ** (1 / p))
    while k * r**p > INT64_MAX:
        r -= 1
    return r


def test_staged_contraction_is_exact_on_both_sides_of_the_int64_bound():
    # K * prod(max(1, M_i)) bounds every stage: with all entries r, the
    # stage "jk,kl->jl" sums 2 r^2 and the result 4 r^3 = K r^3
    r = _just_below_the_bound(4, 3)
    for v in (r, r + 1):
        a, b, c = (scalars.array(np.full(shape, v), RATIONAL) for shape in ((1, 2), (2, 2), (2, 1)))
        assert _values(scalars.einsum("ij,jk,kl->il", a, b, c)).tolist() == [[4 * v**3]]


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


class _NoFloat(Fraction):
    """A ``Fraction`` that refuses to become a float."""

    def __float__(self):
        raise AssertionError("a rational entry was converted to float")


def test_exact_zero_is_tested_without_float_conversion():
    zero = rat(_object_array([_NoFloat(0)] * 27, (3, 3, 3)))
    assert scalars.zero_test([zero, zero], 0.0) == (True, 0.0, None)
    # a nonzero array: its worst index comes from its integers too
    a = _object_array([_NoFloat(0)] * 6, (2, 3))
    a[1, 0] = _NoFloat(-7, 3)
    assert scalars.zero_test([zero, rat(a)], 0.0) == (False, 7 / 3, (1, 1, 0))


def test_rational_worst_index_is_the_exact_largest_entry():
    # 10**17 and 10**17 + 1 round to one float: only exact comparison tells
    # them apart, within one array and across arrays
    close = scalars.array([10**17, 10**17 + 1, -5], RATIONAL)
    assert scalars.zero_test([close], 0.0) == (False, 1e17, (1,))
    low, high = scalars.array([10**17], RATIONAL), scalars.array([-(10**17 + 1)], RATIONAL)
    assert scalars.zero_test([low, high], 0.0) == (False, 1e17, (1, 0))
    # the first of equal largest entries, as numpy's argmax gives it
    tie = scalars.array(["1/3", "-1/3", 0], RATIONAL)
    assert scalars.zero_test([tie, tie], 0.0)[2] == (0, 0)


def test_rational_verdict_does_not_round_a_tiny_entry_to_zero():
    # 1/10**400 is below the smallest float: its float rounds to 0.0, but
    # the array is not zero, zero_rows agrees, and the failed test and
    # residual report the smallest positive float as its residual, never 0
    tiny = scalars.array([Fraction(1, 10**400), 0], RATIONAL)
    assert scalars.residual(tiny) == math.ulp(0.0)
    assert scalars.zero_test([tiny], 0.0) == (False, math.ulp(0.0), (0,))
    assert not scalars.is_zero(tiny, 1e-9)
    assert scalars.zero_rows([tiny], 0.0) == [(False, math.ulp(0.0), None), (True, 0.0, None)]
    # the exactly larger of two tiny entries is the worst one
    tinier = scalars.array([0, Fraction(-1, 10**401)], RATIONAL)
    assert scalars.zero_test([tinier, tiny], 0.0) == (False, math.ulp(0.0), (1, 0))
    zero = rat([0, 0])
    assert scalars.zero_test([zero, tinier], 0.0) == (False, math.ulp(0.0), (1, 1))
    # an entry beyond the float range reads as inf, and is located exactly
    huge = scalars.array([10**400, -(10**400 + 1)], RATIONAL)
    assert scalars.zero_test([tiny, huge], 0.0) == (False, math.inf, (1, 1))
    assert not scalars.is_zero(huge, 1e-9)
    assert scalars.residual(huge) == scalars.residual(huge, tiny) == math.inf


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("eps", [0.0, 1e-9, 0.5, 2.0])
def test_float_zero_test_never_passes_a_non_finite_residual(bad, eps):
    a = np.array([bad, 0.0])
    passed, residual, worst = scalars.zero_test([a], eps)
    assert not passed and not math.isfinite(residual) and worst is not None
    assert not scalars.is_zero(a, eps)
    assert not scalars.is_zero(a, eps, np.array([1e300]))
    assert _passed(scalars.zero_rows([np.stack([a, np.zeros(2)])], eps)) == [False, True]


def test_float_context_scale_ignores_nan_in_any_order():
    # 1e-3 is within 1e-9 of a scale of 1e9; a NaN context, or a NaN entry
    # of a context, changes nothing whichever comes first
    a = np.array([1e-3])
    nan, big, mixed = np.array([np.nan]), np.array([1e9]), np.array([np.nan, -1e9])
    for context in [(nan, big), (big, nan), (mixed,), (mixed[::-1],), (nan, mixed)]:
        assert scalars.is_zero(a, 1e-9, *context)
        assert scalars.zero_test([a], 1e-9, *context) == (True, 1e-3, None)
        assert scalars.zero_rows([a[None]], 1e-9, *(c[None] for c in context)) == [(True, 1e-3, None)]
    # a NaN context alone scales nothing
    assert not scalars.is_zero(a, 1e-9, nan)
    assert _passed(scalars.zero_rows([a[None]], 1e-9, nan[None])) == [False]


def test_failed_float_zero_test_reports_a_nan_array_in_either_order():
    one, nan = np.array([1.0]), np.array([np.nan])
    for arrays, worst in (([one, nan], (1, 0)), ([nan, one], (0, 0))):
        passed, residual, index = scalars.zero_test(arrays, 1e-9)
        assert not passed and math.isnan(residual) and index == worst


@pytest.mark.parametrize("value", [Fraction(10**30), Fraction(-(10**30), 7), Fraction(3)])
def test_zero_dimensional_rational_array_fails_without_an_index(value):
    # a 0-d array beyond int64 is scaled to a 0-d array of Python ints
    a = np.array(value, dtype=object)
    assert scalars.zero_test([a], 0.0) == (False, float(abs(value)), None)


def test_nonzero_rational_array_keeps_residual_and_worst_index():
    a = np.zeros((3, 3), dtype=object)
    a[1, 2] = Fraction(-3, 2)
    a[0, 0] = Fraction(1, 3)
    a = rat(a)
    assert scalars.zero_test([a], 0.0) == (False, 1.5, (1, 2))
    assert scalars.zero_test([rat([0, 0]), a], 0.0) == (
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


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_lower_out_spells_numpys_ellipsis(mode):
    rng = np.random.default_rng(3)
    m = Metric.from_matrix(scalars.array([[2, 1, 0], [1, -1, 0], [0, 0, 3]], mode), 1e-9)
    other = Metric.from_matrix(scalars.array([[1, 0, 0], [0, -2, 1], [0, 1, 1]], mode), 1e-9)
    pair = Metric.stack([m, other])
    for rank in range(1, 5):
        t = scalars.array(rng.integers(-4, 5, size=(2,) + (3,) * rank), mode)
        t = scalars.combine([Fraction(1, 3)], [t])  # denominators too
        expected = np.einsum("bl...,blz->b...z", _values(t), _values(pair.matrix))
        got = lower_out(t, pair)
        assert got.shape == expected.shape and scalars.mode_of(got) == mode
        assert _values(got).tolist() == expected.tolist(), rank


def test_every_lowering_is_lower_out():
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += [f"{path.stem}:{line}" for line in _hand_written_lowerings(tree)]
    assert uses == []


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------

coefficients = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5).map(np.int64),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


@st.composite
def combinations(draw, values=values):
    """Coefficients and arrays for ``combine``: up to four rational arrays of
    one shape, of axis lengths 0 to 3, each of a drawn kind."""
    shape = tuple(draw(st.lists(st.integers(min_value=0, max_value=3), max_size=3)))
    terms = draw(st.integers(min_value=1, max_value=4))
    cs, arrays = [], []
    for _ in range(terms):
        entries = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
        a = _object_array(entries, shape)
        cs.append(draw(coefficients))
        arrays.append(_as_kind(a, draw(st.sampled_from(KINDS))))
    return cs, arrays


def _fraction_sum(cs, arrays):
    """sum_t c_t a_t in plain ``Fraction`` arithmetic over object arrays, a
    numpy integer coefficient read as the Python int it holds."""
    cs = [int(c) if isinstance(c, np.integer) else c for c in cs]
    total = cs[0] * arrays[0]
    for c, a in zip(cs[1:], arrays[1:]):
        total = total + c * a
    return total


@given(combinations())
# mixed denominators, a zero-size result, Python-int entries, and a single
# term
@example(([Fraction(1, 2), -1], [scalars.array([["1/3", "2/5"]], RATIONAL),
                                 scalars.array([["1/7", 3]], RATIONAL)]))
@example(([1, 1], [rat(np.zeros((0, 2), dtype=int)), rat(np.zeros((0, 2), dtype=int))]))
@example(([3, -2], [rat(_object_array([1, 2], (2,))), rat(_object_array([5, -7], (2,)))]))
@example(([1], [scalars.array([["1/2", 0]], RATIONAL)]))
# a result [2, 2], whose gcd g with the denominator is the denominator, and
# an exact zero
@example(([2, 2], [scalars.array(["1/2", "3/2"], RATIONAL),
                   scalars.array(["1/2", "-1/2"], RATIONAL)]))
@example(([1, -1], [scalars.array(["1/6", "1/3"], RATIONAL),
                    scalars.array(["1/6", "1/3"], RATIONAL)]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_rational_combine_equals_fraction_arithmetic(case):
    _assert_combine_is_exact(*case)


@given(combinations(big_values))
# two int64 numerators whose sum is not
@example(([1, 1], [scalars.array([2**62, 1], RATIONAL), scalars.array([2**62, -1], RATIONAL)]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_rational_combine_is_exact_at_the_int64_bound(case):
    _assert_combine_is_exact(*case)


def _assert_combine_is_exact(cs, arrays):
    values = [_values(a) for a in arrays]
    expected = _fraction_sum(cs, values)
    got = scalars.combine(cs, arrays)
    _assert_kernel_result(got, expected, arrays, values)


floats = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def float_combinations(draw):
    """Signs (or a float coefficient) and float arrays of one shape, each of
    a drawn kind."""
    shape = tuple(draw(st.lists(st.integers(min_value=0, max_value=3), max_size=3)))
    terms = draw(st.integers(min_value=1, max_value=4))
    cs = draw(st.lists(st.one_of(st.sampled_from([1, -1]), floats), min_size=terms, max_size=terms))
    arrays = [
        _as_kind(
            np.array(draw(st.lists(floats, min_size=math.prod(shape), max_size=math.prod(shape))))
            .reshape(shape),
            draw(st.sampled_from(FLOAT_KINDS)),
        )
        for _ in range(terms)
    ]
    return cs, arrays


def _numpy_expression(cs, arrays):
    """The expression ``combine`` stands for in float mode, written out:
    a0 + a1 - a2 ... for signs, c * a for other coefficients."""
    def term(c, a):
        return a if c == 1 else -a if c == -1 else c * a

    total = term(cs[0], arrays[0])
    for c, a in zip(cs[1:], arrays[1:]):
        op = operator.sub if c == -1 else operator.add
        total = op(total, a if c in (1, -1) else c * a)
    return total


@given(float_combinations())
@example(([-1, 1], [np.array([0.0, -0.0]), np.array([0.0, 0.0])]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_float_combine_is_the_numpy_expression_bit_for_bit(case):
    cs, arrays = case
    expected = _numpy_expression(cs, arrays)
    got = scalars.combine(cs, arrays)
    _assert_read_only(got)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert all(a is not got for a in arrays if isinstance(a, np.ndarray))


def test_combine_of_no_arrays_is_an_error():
    with pytest.raises(ValueError):
        scalars.combine([], [])


# ---------------------------------------------------------------------------
# the forms the kernel keeps: only for the arrays it makes
# ---------------------------------------------------------------------------

def _refused(*calls):
    """Whether every call raises ValueError naming an operand the kernel did
    not make."""
    for call in calls:
        with pytest.raises(ValueError, match="operand [0-9]+ is an array the kernel did not make"):
            call()
    return True


def _skipped_the_kernel():
    """Arrays of kernel results made by plain numpy: a slice, a writable copy,
    an ``np.concatenate`` and an ``np.stack``, each next to what the kernel
    makes of the same parts (``row``, ``join``, ``stack``)."""
    a = rat([["1/2", "1/3"], ["-2/7", 5]])
    b = rat([[1, "-1/5"], [0, 3]])
    return [
        (a[0], scalars.row(a, 0)),
        (a.copy(), scalars.row(a, np.s_[:])),
        (np.concatenate([a, b]), scalars.join([a, b])),
        (np.stack([a, b]), scalars.stack([a, b])),
    ]


@pytest.mark.parametrize("index", range(4))
def test_an_array_the_kernel_did_not_make_is_refused(index):
    # its integers are numerators over no known denominator: a, b have 6
    # and 5, so np.concatenate would read -2/7 and -1/5 alike as integers
    skipped, made = _skipped_the_kernel()[index]
    labels = LETTERS[: skipped.ndim]
    assert _refused(
        lambda: scalars.einsum(f"{labels},{labels}->", skipped, made),
        lambda: scalars.einsum(f"{labels}->{labels[::-1]}", skipped),
        lambda: scalars.combine([1, -1], [made, skipped]),
        lambda: scalars.zero_test([made, skipped], 0.0),
        lambda: scalars.zero_rows([skipped], 0.0),
        lambda: scalars.fractions(skipped),
    )
    # what the kernel makes of the same parts is read exactly
    assert scalars.is_zero(scalars.combine([1, -1], [made, scalars.einsum(f"{labels}->{labels}", made)]), 0.0)
    assert scalars.fractions(made).tolist() == _values_of_parts(index)


def _values_of_parts(index):
    a = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(-2, 7), 5]]
    b = [[1, Fraction(-1, 5)], [0, 3]]
    return [a[0], a, a + b, [a, b]][index]


# each entry point that takes arrays, called with a rational array (at
# position 0) and a float one (at 1): the rational array's integers are not
# its values, so numpy would read 1/2 as 1
MIXED = {
    "einsum": lambda x, y: scalars.einsum("ij,jk->ik", x, y),
    "combine": lambda x, y: scalars.combine([1, 1], [x, y]),
    "divide_rows": lambda x, y: scalars.divide_rows(x, scalars.einsum("ii->i", y)),
    "stack": lambda x, y: scalars.stack([x, y]),
    "join": lambda x, y: scalars.join([x, y]),
}


@pytest.mark.parametrize("call", sorted(MIXED))
def test_a_rational_array_next_to_a_float_one_is_refused(call):
    half, identity = rat([["1/2", 0], [0, "1/2"]]), scalars.eye(2, FLOAT)
    run = MIXED[call]
    # a float first names the rational array; a rational first names it,
    # or, for a join, the float array it cannot read
    with pytest.raises(ValueError, match="operand 1 is a rational array in a call with a float one"):
        run(identity, half)
    named = "operand 1 is an array the kernel did not make" if call in ("stack", "join") else (
        "operand 0 is a rational array in a call with a float one"
    )
    with pytest.raises(ValueError, match=named):
        run(half, identity)
    # each mode on its own is read as it is
    exact = scalars.fractions(run(half, scalars.eye(2, RATIONAL)))
    assert np.array_equal(run(scalars.array(scalars.fractions(half), FLOAT), identity), exact.astype(np.float64))
    if call in ("einsum", "combine"):  # 1/2 I, and 1/2 I + I
        d = 1 if call == "einsum" else 3
        assert exact.tolist() == [[Fraction(d, 2), 0], [0, Fraction(d, 2)]]
    # a scalar that is no float is its own value next to a float array
    assert np.array_equal(scalars.einsum(",ij->ij", 2, identity), 2 * np.eye(2))
    assert np.array_equal(scalars.combine([1, 1], [2, identity]), 2 + np.eye(2))


def test_writable_array_is_not_served_from_the_memo():
    # a writable copy of a kernel result has no kept form: it is refused, so
    # a later write to it can never be read past
    a = rat([["1/2", "1/3"], ["-2/7", 5]])
    v = rat(["1/5", -1])
    copy = a.copy()
    copy[0, 0] = 9
    assert _refused(lambda: scalars.einsum("ij,j->i", copy, v), lambda: scalars.residual(copy))
    assert scalars.fractions(scalars.einsum("ij,j->i", a, v)).tolist() == [Fraction(-7, 30), Fraction(-177, 35)]


def test_read_only_view_of_a_writable_base_is_not_served_from_the_memo():
    base = rat([["1/2", "1/3"], ["-2/7", 5]]).copy()
    view = base.view()
    view.setflags(write=False)
    assert _refused(
        lambda: scalars.einsum("ij,j->i", view, rat(["1/5", -1])),
        lambda: scalars.combine([1, 1], [view, view]),
    )


def test_transpose_of_a_read_only_view_of_a_writable_base_is_never_stale():
    # the kernel takes no transpose of such a view: none can go stale when
    # the base is written
    base = rat([["1/2", "1/3"], ["-2/7", 5]]).copy()
    view = base.view()
    view.setflags(write=False)
    assert _refused(lambda: scalars.einsum("ij->ji", view))
    # the kernel's transpose of its own result keeps its denominator
    t = scalars.einsum("ij->ji", rat([["1/2", "1/3"], ["-2/7", 5]]))
    assert not t.flags.writeable
    assert scalars.fractions(scalars.combine([1, 1], [t, t]))[1, 0] == Fraction(2, 3)
    assert scalars.residual(t) == 5.0
    assert scalars.zero_test([t], 0.0)[2] == (1, 1)


def _growth(step, n: int) -> int:
    """The bytes still held after ``step(k)`` ran for each k < n and all
    it made was dropped: what the kernel keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(n):
            step(k)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_memo_entry_leaves_with_its_array():
    # 1,000 frozen arrays of the same values read by the kernel and dropped:
    # what the kernel keeps for a read-only array leaves with it (a kept
    # entry takes about 500 bytes)
    def step(k):
        a = rat([[1, 2], [2, 3]])
        scalars.combine([1, 1], [a, a])

    assert _growth(step, 1000) < 200_000


def test_float_calls_never_touch_the_fraction_table(monkeypatch):
    # a float call returns float64 values, and builds no Fraction in the
    # kernel, save the exact value of a token it parses
    workspace = zoo.builtin("solv3-f4").workspace(FLOAT)
    results, built = [], []
    for name in ("einsum", "combine", "divide_rows"):
        def call(*args, real=getattr(scalars, name)):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(scalars, name, call)
    real_new = Fraction.__new__

    def new(cls, *args, **kwargs):
        frame = sys._getframe(1)
        if frame.f_code.co_filename == scalars.__file__:
            built.append(frame.f_code.co_name)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
    a = scalars.array([["1/2", 3], [-1, "2/7"]], FLOAT)
    scalars.einsum("ij,jk,kl->il", a, a, a)
    scalars.combine([Fraction(1, 3), 2, -1], [a, a.T, a])
    scalars.divide_rows(a, np.array([2.0, -4.0]))
    assert all(r.passed for r in run_checks(workspace))
    assert set(built) <= {"exact"}
    assert len(results) > 3 and all(np.asarray(r).dtype == np.float64 for r in results)


class _Unread:
    """A context that fails the test that reads it."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("a context was read")


# ---------------------------------------------------------------------------
# the float tolerance short-cut and the coefficients of a combination
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_residual_within_eps_passes_whatever_the_context(eps):
    small = np.array([eps, -eps / 2, 0.0])
    contexts = [
        (), (np.array([np.nan]),), (np.array([np.inf, 1.0]),), (np.array([-np.inf]),),
        (np.array([1e308, np.nan]),), (np.array([np.nan]), np.array([np.inf])),
    ]
    for context in contexts:
        assert scalars.zero_test([small], eps, *context) == (True, eps, None)
        assert scalars.zero_test([small, np.zeros(2)], eps, *context) == (True, eps, None)
        assert scalars.zero_rows([small[None]], eps, *(c[None] for c in context)) == [(True, eps, None)]
        assert scalars.is_zero(small, eps, *context)
    # no context is read, and a residual above eps reads them
    assert scalars.zero_test([small], eps, _Unread()) == (True, eps, None)
    with pytest.raises(AssertionError, match="read"):
        scalars.is_zero(np.array([1.0]), eps, _Unread())


def test_residual_between_eps_and_the_scaled_tolerance_passes_only_by_its_context():
    a = np.array([0.0, -1e-6])
    eps = 1e-9
    assert scalars.zero_test([a], eps) == (False, 1e-6, (1,))
    assert scalars.zero_test([a], eps, np.array([1e2]))[:2] == (False, 1e-6)
    assert scalars.zero_test([a], eps, np.array([1e2]), np.array([-1e4])) == (True, 1e-6, None)
    assert scalars.zero_test([a], eps, np.array([np.nan, 1e4])) == (True, 1e-6, None)
    assert not scalars.is_zero(a, eps, np.array([np.nan]))
    # a failing rational array fails the test whatever the float one gives
    one = scalars.array([1], RATIONAL)
    assert scalars.is_zero(a, eps, np.array([1e4])) and not scalars.is_zero(one, eps, np.array([1e4]))
    assert scalars.zero_test([a, one], eps, np.array([1e4])) == (False, 1.0, (1, 0))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_combine_reads_int_numpy_and_fraction_coefficients_alike(mode):
    arrays = [
        scalars.array([["1/2", -3], ["2/7", 0]], mode),
        scalars.array([[1, "-5/3"], ["1/9", 4]], mode),
        scalars.array([["7/2", 1], [0, "-1/4"]], mode),
    ]
    ints = [1, -1, 6]
    results = [
        scalars.combine(coefficients, arrays)
        for coefficients in (ints, [np.int64(c) for c in ints], [Fraction(c) for c in ints])
    ]
    if mode == FLOAT:
        assert len({r.tobytes() for r in results}) == 1
        return
    # entry by entry, the same integers over the same denominator
    assert results[0].tolist() == results[1].tolist() == results[2].tolist()
    assert _values(results[0]).tolist() == _values(results[1]).tolist() == _values(results[2]).tolist()
    _assert_combine_is_exact([np.int64(c) for c in ints], arrays)
    # and no Fraction is built for such a coefficient, nor for a float one,
    # which an exact combination refuses
    built = []
    real_new, raw_new = Fraction.__new__, vars(Fraction)["__new__"]

    def new(cls, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "combine":
            built.append(args)
        return real_new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(new)
    try:
        for coefficients in (ints, [np.int64(c) for c in ints], [Fraction(1, 2), Fraction(-3), 2]):
            scalars.combine(coefficients, arrays)
        with pytest.raises(TypeError, match="int and Fraction coefficients, got 0.5"):
            scalars.combine([0.5, 1, 1], arrays)
    finally:
        Fraction.__new__ = raw_new
    assert built == []


@given(st.lists(values, min_size=1, max_size=12))
@example([Fraction(1, 3), Fraction(-1, 3), Fraction(333333333333333333, 10**18)])
@settings(max_examples=100, deadline=None, derandomize=True)
def test_rational_residual_is_the_rounded_exact_maximum(entries):
    a = rat(_object_array(entries, (len(entries),)))
    got = scalars.residual(a)
    assert type(got) is float
    assert got == float(max(abs(Fraction(x)) for x in entries))


def _assert_read_exactly(a):
    """The zero test of the rational array ``a`` is exact: its residual is
    the float of its largest absolute entry, and a failed test locates the
    first such entry."""
    mags = [abs(x) for x in _values(a).ravel().tolist()]
    peak = max(mags, default=0)
    where = tuple(int(i) for i in np.unravel_index(mags.index(peak), a.shape)) if peak else ()
    assert scalars.zero_test([a], 0.0) == (not peak, float(peak), where or None)


def _assert_kernel_result(result, expected, inputs=(), values=()):
    """A rational result of the kernel holds the exact value ``expected``
    and leaves its ``inputs`` at their ``values``.  A 0-d result is a
    ``Fraction``, ``ZERO`` when 0.  An array result is its own integers: a
    read-only int64 array, or an object array of Python ints when one is
    beyond int64, whose denominator the kernel keeps, so that
    ``scalars.fractions`` reads its value; unless it is a view of an
    operand, its denominator is the least common one of its values (the
    integers are in lowest terms) and it is the one zero of its shape when
    every entry is 0; and it is read exactly by the zero test."""
    for a, v in zip(inputs, values):
        assert np.array_equal(_values(a), v)
    if not isinstance(expected, np.ndarray):
        assert type(result) is Fraction and result == expected
        assert result or result is scalars.ZERO
        return
    assert isinstance(result, np.ndarray) and not result.flags.writeable
    assert result.shape == expected.shape
    entries = result.ravel().tolist()
    assert all(type(x) is int for x in entries)
    if result.dtype != np.int64:
        assert result.dtype == object and max(map(abs, entries)) > INT64_MAX
    exact = scalars.fractions(result).ravel().tolist()
    assert exact == expected.ravel().tolist()
    if result.base is None:  # not a view of an operand
        if not any(entries):
            assert result is scalars.combine([1, -1], [result, result])
        else:
            # n / d = x for an entry n of value x != 0
            n, x = next((n, x) for n, x in zip(entries, exact) if n)
            assert n * x.denominator // x.numerator == math.lcm(*(x.denominator for x in exact))
    _assert_read_exactly(result)


def test_residual_of_a_scaled_array_counts_no_fraction(monkeypatch):
    a = scalars.array([["1/2", "1/3"], ["-2/7", 0]], RATIONAL)
    r = scalars.einsum("ij,jk->ik", a, a)
    zero = scalars.combine([1, -1], [a, a])

    def no_count(arr):
        raise AssertionError("residual went through the Fraction entries")

    monkeypatch.setattr(np, "count_nonzero", no_count)
    assert scalars.residual(r) == float(max(abs(x) for x in np.einsum("ij,jk->ik", _values(a), _values(a)).flat))
    t = scalars.einsum("ij->ji", r)
    assert scalars.residual(t) == float(max(abs(x) for x in _values(t).flat))
    assert scalars.residual(zero) == 0.0


# ---------------------------------------------------------------------------
# int64 where a bound proves the sums fit, Python ints otherwise
# ---------------------------------------------------------------------------

def test_contraction_beyond_the_bound_stays_exact():
    # each product fits int64, the sum of two does not
    r = 3037000499  # floor(sqrt(2**63 - 1))
    a = rat([r, r])
    assert scalars.einsum("i,i->", a, a) == 2 * r * r > 2**63
    assert _values(scalars.einsum("i,i->i", a, a)).tolist() == [r * r, r * r]
    # a result of the exact path whose numerators fit int64
    _assert_einsum_is_exact("ij,j->i", [rat([[r, -r], [r, 0]]), a])
    fits = scalars.einsum("ij,j->i", rat([[r, -r], [r, 0]]), a)
    assert fits.dtype == np.int64 and _values(fits).tolist() == [0, r * r]
    _assert_combine_is_exact([1, -1], [fits, fits])
    # numerators that fit int64 only as Python ints: the result is exact
    b = rat([2**62, Fraction(-(2**63), 3)])
    assert scalars.einsum("i,i->", b, b) == Fraction(2**124) + Fraction(2**126, 9)
    assert _values(scalars.combine([1, 1], [b, b])).tolist() == [2**63, Fraction(-(2**64), 3)]
    _assert_combine_is_exact([1, 1], [b, b])


def test_all_zero_term_takes_any_coefficient():
    zero = rat([[0, 0], [0, 0]])
    a = rat([["1/2", -3], [0, 5]])
    _assert_combine_is_exact([2**70, 1, -(2**80)], [zero, a, zero])


def _loose(values):
    """The kernel array of the integers ``values``, made as the difference of
    two arrays near 2**40: the bound its call proved exceeds 2**41, far
    above its entries."""
    return scalars.combine([1, -1], [rat([v + 2**40 for v in values]), rat([2**40] * len(values))])


def _tightening_case(call: str, fits: bool):
    """A call of ``call`` whose operands' bounds put its sum or quotient
    beyond 2**63 - 1 while the exact entries of its result fit int64 (or,
    unless ``fits``, do not), and the exact values of that result."""
    v = 3 if fits else 2**34
    a = _loose([v, -1])
    return {
        "einsum": (lambda: scalars.einsum("i,i->i", a, rat([2**30, 5])), [v * 2**30, -5]),
        "combine": (lambda: scalars.combine([2**30, 1], [a, rat([1, 1])]), [v * 2**30 + 1, 1 - 2**30]),
        "divide_rows": (lambda: scalars.divide_rows(a, rat([Fraction(1, 2**30), 1])), [v * 2**30, -1]),
        "join": (lambda: scalars.join([a, rat([Fraction(1, 2**30)])]), [v, -1, Fraction(1, 2**30)]),
    }[call]


def _widenings(call) -> int:
    """The sums and quotients that ``call()`` takes out of int64, as
    ``scripts/kernel_counts.py`` counts them."""
    spec = importlib.util.spec_from_file_location("kernel_counts", SRC.parents[1] / "scripts" / "kernel_counts.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with script.counting() as counts:
        call()
    return sum(n for k, n in counts.items() if k.startswith("widen:"))


@pytest.mark.parametrize("fits", [True, False])
@pytest.mark.parametrize("call", ["einsum", "combine", "divide_rows", "join"])
def test_a_call_leaves_int64_only_when_its_exact_entries_do(call, fits):
    # the bound a result keeps may be far above its entries; a call whose
    # operands' bounds fail the int64 test reads their exact entries before
    # it takes Python ints, so its result is int64 exactly when they fit
    run, expected = _tightening_case(call, fits)
    got = run()
    _assert_kernel_result(got, _object_array([Fraction(x) for x in expected], (len(expected),)))
    assert (got.dtype == np.int64) is fits
    assert _widenings(_tightening_case(call, fits)[0]) == (not fits)


@pytest.mark.parametrize(
    "spec, shapes",
    [
        ("ij,jk", [(2, 3), (3, 4)]),
        ("ij,ij", [(2, 3), (2, 3)]),
        ("ii,i", [(3, 3), (3,)]),
        ("ij,jk,kl", [(2, 3), (3, 4), (4, 2)]),
        ("i,j->", [(3,), (2,)]),
        (" ij , jk -> ik ", [(2, 3), (3, 4)]),
        ("...i,...i", [(2, 3, 4), (3, 4)]),
        ("...i,...i->...", [(2, 3, 4), (3, 4)]),
        ("i...,i...->...", [(2, 1, 3), (2, 4, 1)]),
        ("...ij,jk->...ik", [(5, 2, 3), (3, 4)]),
        ("ij,...", [(2, 3), (4,)]),
        ("j...k,kl...", [(2, 3, 4), (4, 5, 3)]),
    ],
)
def test_term_count_is_the_brute_force_count(spec, shapes):
    # every entry of a contraction of all-ones arrays is its number of terms
    counts = np.einsum(spec, *(np.ones(s, dtype=np.int64) for s in shapes))
    assert np.all(counts == np.max(counts))
    if _outside_grammar(spec):  # the exact kernel reads no such spec
        with pytest.raises(ValueError, match="explicit output"):
            scalars.einsum(spec, *(rat(np.zeros(s, dtype=int)) for s in shapes))
        return
    # with every entry v, each entry is K v^p: the kernel's count K decides
    # whether the int64 path may run, so a count too low wraps around just
    # past the bound
    k, p = int(np.max(counts)), len(shapes)
    r = _just_below_the_bound(k, p)
    for v in (r, r + 1):
        got = scalars.einsum(spec, *(scalars.array(np.full(s, v), RATIONAL) for s in shapes))
        assert np.shape(got) == np.shape(counts)
        assert np.ravel(_values(got)).tolist() == [k * v**p] * counts.size


def test_views_of_an_int64_owner_read_its_entries():
    # the kernel's views of an int64 owner: a transpose, slices, a reversed
    # row, a fancy index and a new axis, each over the owner's denominator
    owner = rat([[Fraction(p * 7 - 40, p % 3 + 1) for p in range(q, q + 4)] for q in range(0, 12, 4)])
    values = _values(owner)
    views = [
        (scalars.einsum("ij->ji", owner), values.T),
        (scalars.row(owner, np.s_[1:, ::2]), values[1:, ::2]),
        (scalars.row(owner, np.s_[::-1, 1]), values[::-1, 1]),
        (scalars.row(owner, np.s_[:, [3, 0, 3]]), values[:, [3, 0, 3]]),
        (scalars.row(owner, np.s_[np.newaxis, 0]), values[np.newaxis, 0]),
    ]
    for view, expected in views:
        _assert_kernel_result(view, expected)
        vec = rat(list(range(1, view.shape[-1] + 1)))
        rows = "i"[: view.ndim - 1]
        _assert_einsum_is_exact(f"{rows}j,j->{rows}", [view, vec])
    # a single entry is its Fraction
    assert scalars.row(owner, (2, 1)) == values[2, 1] and type(scalars.row(owner, (2, 1))) is Fraction


def test_rational_verification_stays_on_int64(monkeypatch):
    # a whole rational run on a dim-5 model passes, and every array the
    # kernel returns is int64, every scalar a Fraction of Python ints (that
    # no sum leaves int64 is counted in test_kernel_counts.py)
    results = []
    for name in ("einsum", "combine", "divide_rows"):
        def call(*args, real=getattr(scalars, name)):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(scalars, name, call)
    rows = run_checks(zoo.builtin("solv5-f1").workspace(RATIONAL))
    assert all(r.passed for r in rows)
    assert results
    for out in results:
        if isinstance(out, np.ndarray):
            assert out.dtype == np.int64
            continue
        assert type(out) is Fraction
        assert type(out.numerator) is int and type(out.denominator) is int


# ---------------------------------------------------------------------------
# the zero test of a stack
# ---------------------------------------------------------------------------

def _per_row(a, eps, *context):
    return [
        scalars.zero_test([scalars.row(a, n)], eps, *(scalars.row(c, n) for c in context)) for n in range(len(a))
    ]


def _passed(rows):
    """The verdicts of the rows ``zero_rows`` decided."""
    return [passed for passed, _, _ in rows]


@st.composite
def stacks(draw):
    """A stack of rows (1-D rows of scalars, or rows of shape 2 or 2 x 2,
    some of them zero), of a drawn kind, and a context stack of the same
    length."""
    rows = draw(st.integers(min_value=0, max_value=5))
    shape = (rows, *draw(st.sampled_from([(), (2,), (2, 2)])))
    vanish = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    entries = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
    a = _object_array(entries, shape)
    a[np.array(vanish, dtype=bool)] = scalars.ZERO
    context = np.array(draw(st.lists(values, min_size=rows * 3, max_size=rows * 3)), dtype=float).reshape(rows, 3)
    return _as_kind(a, draw(st.sampled_from(KINDS))), context


@given(stacks())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rational_zero_rows_is_the_per_row_zero_test(case):
    a, context = case
    assert scalars.zero_rows([a], 0.0, context) == _per_row(a, 0.0, context)


float_values = st.one_of(
    values.map(float),
    st.floats(min_value=-1e-6, max_value=1e-6),
    st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 1e300]),
)


@st.composite
def float_stacks(draw):
    """A float stack of rows (scalars, or rows of shape 2 or 2 x 2), some of
    them 0.0 or -0.0, with entries that include +-inf, NaN and -0.0, and up
    to two contexts: each a stack of rows of 3 entries, drawn per row or one
    row broadcast to every row (``np.broadcast_to``)."""
    rows = draw(st.integers(min_value=0, max_value=5))
    shape = (rows, *draw(st.sampled_from([(), (2,), (2, 2)])))
    size = math.prod(shape)
    a = np.array(draw(st.lists(float_values, min_size=size, max_size=size))).reshape(shape)
    for n in range(rows):
        if draw(st.booleans()):
            a[n] = draw(st.sampled_from([0.0, -0.0]))
    contexts = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if draw(st.booleans()):
            one = np.array(draw(st.lists(float_values, min_size=3, max_size=3)))
            contexts.append(np.broadcast_to(one, (rows, 3)))
        else:
            entries = draw(st.lists(float_values, min_size=rows * 3, max_size=rows * 3))
            contexts.append(np.array(entries).reshape(rows, 3))
    return a, contexts


@given(float_stacks(), st.sampled_from([0.0, 1e-9, 0.5, 2.0]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_float_zero_rows_is_the_per_row_zero_test(case, eps):
    a, contexts = case
    rows = scalars.zero_rows([a], eps, *contexts)
    assert repr(rows) == repr(_per_row(a, eps, *contexts))  # NaN residuals compare by repr
    verdicts = _passed(rows)
    # the rule itself, in plain Python floats: a row whose residual r is
    # finite passes when r <= eps * max(1, r, scale), scale ignoring NaN
    # (eps 0 asks for r == 0, even when the scale is inf); any other fails
    for n, verdict in enumerate(verdicts):
        row = np.ravel(a[n]).tolist()
        if not all(math.isfinite(x) for x in row):
            assert verdict is False
            continue
        r = max((abs(x) for x in row), default=0.0)
        scale = max(
            (abs(x) for c in contexts for x in np.ravel(c[n]).tolist() if not math.isnan(x)),
            default=0.0,
        )
        tolerance = eps * max(1.0, r, scale) if eps else 0.0
        assert verdict is (r <= tolerance)
    # and zero_test on each row gives the same verdicts
    tested = [scalars.is_zero(a[n], eps, *(c[n] for c in contexts)) for n in range(len(a))]
    assert tested == verdicts


def test_float_zero_rows_makes_no_per_row_zero_test(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-row zero test")

    monkeypatch.setattr(scalars, "zero_test", refuse)
    monkeypatch.setattr(scalars, "is_zero", refuse)
    a = np.array([[1e-12, 0.0], [1.0, 0.0], [0.0, -0.0], [np.inf, 0.0]])
    metric = np.broadcast_to(np.diag([1.0, -1.0]), (4, 2, 2))
    assert _passed(scalars.zero_rows([a], 1e-9, metric, a)) == [True, False, True, False]


def test_a_float_context_of_another_length_is_an_error():
    a = np.zeros((3, 2))
    for context in (np.zeros((2, 2)), np.zeros((4,)), np.zeros(())):
        with pytest.raises(ValueError):
            scalars.zero_rows([a], 1e-9, context)
    with pytest.raises(ValueError):
        scalars.zero_rows([a], 1e-9, np.broadcast_to(np.eye(2), (2, 2, 2)))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize(
    "ints",
    [
        np.array(5),
        np.zeros((0, 3), dtype=np.int64),
        np.arange(-3, 4),
        np.arange(-6, 6, dtype=np.int8).reshape(3, 4),
        np.arange(7, dtype=np.uint16).reshape(7, 1),
        np.array([2**62 + 1, -(2**63), 2**63 - 1]),
    ],
)
def test_array_of_an_integer_array_is_the_array_of_its_list(mode, ints):
    got, want = scalars.array(ints, mode), scalars.array(ints.tolist(), mode)
    # ``tolist`` keeps no shape for an empty array
    assert np.shape(got) == ints.shape and type(got) is type(want)
    assert np.ravel(_values(got)).tolist() == np.ravel(_values(want)).tolist()
    if mode == RATIONAL and ints.ndim:
        _assert_kernel_result(got, _object_array(ints.ravel().tolist(), ints.shape))
    elif mode == RATIONAL:
        assert type(got) is Fraction and type(got.numerator) is int


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize(
    "nested",
    [["1/2", 0, "-3"], [[1, "0.25"], [2.5, "7/3"]], np.arange(-3, 4), np.array(5), np.zeros((0, 3), dtype=np.int64)],
)
def test_array_and_eye_are_born_read_only(mode, nested):
    tokens = np.asarray(nested, dtype=object)
    for got in (scalars.array(nested, mode), scalars.eye(3, mode)):
        # a single rational token is its Fraction
        assert not tokens.ndim and mode == RATIONAL or isinstance(got, np.ndarray) and not got.flags.writeable
    # an array of tokens and the identity are kernel results, with kept
    # integers
    if mode == RATIONAL and tokens.ndim:
        exact = _object_array([scalars.exact(t) for t in tokens.ravel().tolist()], tokens.shape)
        _assert_kernel_result(scalars.array(nested, mode), exact)
        _assert_kernel_result(scalars.eye(3, mode), np.eye(3, dtype=int))


@pytest.mark.parametrize(
    "m",
    [
        [[2, "1/2", 0], ["1/2", -3, 1], [0, 1, "5/7"]],
        [[0, 1, 0], [1, 0, 0], [0, 0, -1]],  # a zero diagonal that takes e_i -> e_i + e_j
        [[2**70, 1], [1, -(2**66)]],  # beyond int64
    ],
)
def test_diagonalize_gives_kernel_results(m):
    m = scalars.array(m, RATIONAL)
    e, d, signature = scalars.diagonalize(m)
    _assert_kernel_result(e, _values(e))
    _assert_kernel_result(d, _values(d))
    assert signature == (int(np.sum(_values(d) > 0)), int(np.sum(_values(d) < 0)))
    assert np.array_equal(_values(e) @ _values(m) @ _values(e).T, np.diag(_values(d)))


def test_float_verdict_of_a_row_depends_on_its_own_context():
    # one residual, 1e-6: within eps of row 1's context scale of 1e4 only
    a = np.array([[1e-6, 0.0], [1e-6, 0.0]])
    context = np.array([[1.0], [1e4]])
    assert _passed(scalars.zero_rows([a], 1e-9, context)) == [False, True]
    assert scalars.zero_rows([a], 1e-9, context) == _per_row(a, 1e-9, context)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_zero_rows_of_an_empty_stack_and_of_scalars(mode):
    def zeros(*shape):  # zeros, entered through ``array``
        return scalars.array(np.zeros(shape, dtype=int), mode)

    assert scalars.zero_rows([zeros(0, 3)], 0.0) == []
    assert scalars.zero_rows([zeros(0)], 0.0) == []
    col = scalars.array([0, "1/3", 0, "-2"], mode)
    assert _passed(scalars.zero_rows([col], 1e-9)) == [True, False, True, False]
    assert scalars.zero_rows([zeros(2, 0)], 0.0) == [(True, 0.0, None)] * 2


def _callee(call: ast.Call):
    """The name a call calls: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _over_range_len(gen: ast.comprehension) -> bool:
    it = gen.iter
    return (
        isinstance(it, ast.Call)
        and _callee(it) == "range"
        and any(isinstance(a, ast.Call) and _callee(a) == "len" for a in it.args)
    )


def _stack_tests_by_row(path: Path) -> list[str]:
    """The lines of ``is_zero``/``zero_test``/``verdict`` calls inside a
    comprehension that iterates over ``range(len(...))``."""
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    return [
        f"{path.stem}:{call.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, comprehensions) and any(map(_over_range_len, node.generators))
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and _callee(call) in {"is_zero", "zero_test", "verdict"}
    ]


def test_stack_guard_sees_a_per_row_zero_test(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "ok = [scalars.is_zero(r[n], eps) for n in range(len(r))]\n"
        "ok = all(zero_test([r[n]], eps)[0] for n in range(len(r)))\n"
        "ok = [scalars.verdict([r[n]], eps)[0] for n in range(len(r))]\n"
        "ok = [scalars.is_zero(a, eps) for a in arrays]\n"
    )
    assert sorted(_stack_tests_by_row(sample)) == ["sample:1", "sample:2", "sample:3"]


def test_stacks_are_tested_by_zero_rows():
    uses = []
    for stem in ("curvature", "checks"):
        uses += _stack_tests_by_row(SRC / f"{stem}.py")
    assert uses == []


# ---------------------------------------------------------------------------
# the row-wise division, scalar operands and single-operand sums
# ---------------------------------------------------------------------------

@st.composite
def row_divisions(draw, values=values, mode=RATIONAL):
    """A stack of rows (scalars, or rows of shape 2 or 2 x 2) and one
    nonzero scalar per row, each of a drawn kind of ``mode``."""
    rows = draw(st.integers(min_value=0, max_value=4))
    shape = (rows, *draw(st.sampled_from([(), (2,), (2, 2)])))
    entries = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
    dens = draw(st.lists(values.filter(bool), min_size=rows, max_size=rows))
    a, den = _object_array(entries, shape), _object_array(dens, (rows,))
    if mode == FLOAT:
        a, den = a.astype(np.float64), den.astype(np.float64)
    kinds = KINDS if mode == RATIONAL else FLOAT_KINDS
    den_kinds = ("array", "result", "row", "join") if mode == RATIONAL else ("fresh", "frozen", "view")
    return _as_kind(a, draw(st.sampled_from(kinds))), _as_kind(den, draw(st.sampled_from(den_kinds)))


def _assert_division_is_exact(a, den):
    values = [_values(a), _values(den)]
    expected = _object_array(
        [Fraction(x) / Fraction(d) for n, d in enumerate(values[1]) for x in np.ravel(values[0][n])], a.shape
    )
    got = scalars.divide_rows(a, den)
    _assert_kernel_result(got, expected, [a, den], values)
    return got


@given(row_divisions())
# a zero numerator, and a negative denominator
@example((scalars.array([0, "3/4", "-5/6"], RATIONAL),
          scalars.array(["2/3", -2, "-1/9"], RATIONAL)))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_row_division_is_fraction_division(case):
    _assert_division_is_exact(*case)


@given(row_divisions(big_values))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_row_division_is_exact_at_the_int64_bound(case):
    _assert_division_is_exact(*case)


def test_row_beyond_the_int64_bound_takes_python_ints():
    # numerators and denominators that fit int64, and a quotient that does
    # not: an int64 product would wrap around
    a = scalars.array([2**40, "-3/5", 0], RATIONAL)
    den = scalars.array([Fraction(1, 2**30), -7, "1/3"], RATIONAL)
    got = _assert_division_is_exact(a, den)
    assert got.dtype == object and _values(got).tolist() == [2**70, Fraction(3, 35), 0]
    _assert_combine_is_exact([1, 1], [got, got])


def test_row_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        scalars.divide_rows(scalars.array([1, 2], RATIONAL), scalars.array([1, 0], RATIONAL))


@given(row_divisions(floats, mode=FLOAT))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_float_row_division_is_numpy_bit_for_bit(case):
    a, den = case
    with np.errstate(all="ignore"):
        got = scalars.divide_rows(a, den)
        expected = a / den.reshape(-1, *[1] * (a.ndim - 1))
        plain = a / den if a.ndim == 1 else expected  # what ``Sectional`` divided by
    _assert_read_only(got)
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes() == plain.tobytes()


def test_scalar_operands_are_read_as_zero_dimensional_arrays():
    x, y = Fraction(2, 3), Fraction(-5, 7)
    assert scalars.einsum(",->", x, y) == x * y
    assert type(scalars.einsum(",->", x, y)) is Fraction
    a = scalars.array(["1/2", -3], RATIONAL)
    assert _values(scalars.einsum(",i->i", x, a)).tolist() == [x / 2, -3 * x]
    assert scalars.combine([1, -2], [x, y]) == x - 2 * y
    # float scalars: numpy's own operations
    fx, fy = 0.1, np.float64(0.7)
    assert scalars.einsum(",->", fx, fy) == fx * fy
    assert scalars.combine([1, -1], [fx, fy]) == fx - fy
    assert scalars.combine([1], [fx]) == fx and scalars.combine([-1], [fy]) == -fy


@pytest.mark.parametrize(
    "spec, sums",
    [("ij->ji", False), ("ii->i", False), ("ijk->kij", False), ("kk->", True), ("ij->i", True),
     ("ij,jk->ik", True), ("i,j->ij", False)],
)
def test_sums_tells_a_reduction_from_a_view(spec, sums):
    # a single operand that a spec sums over is contracted into a result of
    # its own, and one it does not sum over is numpy's view of it; two
    # operands always make a result.  Every axis is of length 2.
    terms = spec.partition("->")[0].split(",")
    operands = []
    for t in terms:
        ints = np.arange(2 ** len(t)).reshape((2,) * len(t))
        operands.append(scalars.combine([Fraction(1, 3)], [scalars.array(ints, RATIONAL)]))
    _assert_einsum_is_exact(spec, operands)
    got = scalars.einsum(spec, *operands)
    view = isinstance(got, np.ndarray) and np.shares_memory(got, operands[0])
    assert view is (len(terms) == 1 and not sums)


def test_rational_trace_runs_on_the_integer_kernel(monkeypatch):
    a = scalars.array([["1/2", 7], ["2/3", "-1/5"]], RATIONAL)

    def no_fraction_sum(self, other):
        raise AssertionError("a trace added Fraction objects")

    monkeypatch.setattr(Fraction, "__add__", no_fraction_sum)
    monkeypatch.setattr(Fraction, "__radd__", no_fraction_sum)
    tr = scalars.einsum("kk->", a)
    assert type(tr) is Fraction and tr == Fraction(3, 10)
    assert _values(scalars.einsum("ij->i", a)).tolist() == [Fraction(15, 2), Fraction(7, 15)]


# ---------------------------------------------------------------------------
# exact zeros: an operand or term whose kept bound is 0 ends the call at once
# ---------------------------------------------------------------------------

def _assert_zero_result(got, shape):
    """The kernel's zero of ``shape``: ``ZERO`` when 0-d, else the one
    read-only array of int64 zeros of that shape."""
    if not shape:
        assert got is scalars.ZERO
        return
    assert got.dtype == np.int64
    _assert_kernel_result(got, np.zeros(shape, dtype=int))


def _zero_operands():
    """Two exactly-zero operands, each of shape (2, 3): a result, which is
    the kernel's zero, and a row of a batch of a zero and a nonzero array,
    which is not."""
    a = scalars.array([["1/2", -3, 0], ["2/7", 0, "5/3"]], RATIONAL)
    zero = scalars.combine([1, -1], [a, a])
    return zero, scalars.row(scalars.stack([zero, a]), 0)


def test_contraction_with_a_zero_operand_is_the_fraction_contraction():
    b = scalars.array([["1/3", 2], [-1, "1/5"], [0, "7/4"]], RATIONAL)
    for zero in _zero_operands():
        for spec, operands, shape in (
            ("ij,jk->ik", (zero, b), (2, 2)),
            ("jk,ij->ik", (b, zero), (2, 2)),
            ("ij,jk,kl->il", (zero, b, zero), (2, 3)),
            ("ij,ij->", (zero, zero), ()),
            ("ij,jk->", (zero, b), ()),
        ):
            _assert_einsum_is_exact(spec, operands)
            _assert_zero_result(scalars.einsum(spec, *operands), shape)


def test_contraction_over_a_zero_length_axis_is_zero():
    empty = rat(np.zeros((2, 0), dtype=int))
    b = rat(np.zeros((0, 3), dtype=int))
    for spec, operands, shape in (
        ("ij,jk->ik", (empty, b), (2, 3)),
        ("ij,kj->ki", (empty, empty), (2, 2)),
        ("ij,jk->jk", (empty, b), (0, 3)),
    ):
        _assert_einsum_is_exact(spec, operands)
        _assert_zero_result(scalars.einsum(spec, *operands), shape)


def test_a_rational_spec_outside_the_grammar_raises():
    # an implicit output or an ellipsis: the exact kernel refuses it, naming
    # it, before it reads a number (an exactly-zero operand included), and
    # float mode reads it as numpy does
    zero, _ = _zero_operands()
    b = scalars.array([["1/3", 2], [-1, "1/5"], [0, "7/4"]], RATIONAL)
    stack = scalars.array([[[1, "1/2", 0]] * 2] * 4, RATIONAL)
    for spec, operands in (
        ("ij,jk", (zero, b)),
        ("ij,jk,kl", (zero, b, zero)),
        ("...ij,jk->...ik", (stack, b)),
        ("...j,ij->...i", (stack, zero)),
        ("i...->...", (stack,)),
    ):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            scalars.einsum(spec, *operands)
        floats = _float_operands(operands)
        assert np.array_equal(scalars.einsum(spec, *floats), np.einsum(spec, *floats))


def test_shapes_that_do_not_fit_the_spec_raise():
    # a rational call raises ValueError naming the spec, a zero operand
    # included, where numpy raises or stretches a label of length 1; a float
    # call is numpy's own
    zero, other = _zero_operands()
    row = scalars.array([[1, "1/2", 3]], RATIONAL)
    for spec, operands, stretches in (
        ("ij,jk->ik", (zero, zero), False),
        ("ij,kj->ik", (zero, scalars.row(zero, np.s_[:, 1:])), False),
        ("ii,i->i", (zero, scalars.row(zero, 0)), False),
        ("ij,j->ij", (zero, scalars.row(zero, 0), zero), False),
        ("ij,ij->ij", (row, zero), True),
        ("ij,jk->ik", (zero, scalars.row(scalars.einsum("ij->ji", row), np.s_[:1])), True),
        ("ij,ij->", (scalars.row(other, np.s_[:1]), zero), True),
    ):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            scalars.einsum(spec, *operands)
        floats = _float_operands(operands)
        if stretches:
            assert np.array_equal(scalars.einsum(spec, *floats), np.einsum(spec, *floats))
            continue
        with pytest.raises(ValueError) as numpys:
            np.einsum(spec, *floats)
        with pytest.raises(ValueError, match=re.escape(str(numpys.value))):
            scalars.einsum(spec, *floats)


def test_a_rational_combination_of_two_shapes_raises():
    # numpy would broadcast them, and float mode still does
    zero, other = _zero_operands()
    row = scalars.array([["1/2", -3, "5/7"]], RATIONAL)
    for cs, arrays in (
        ([1, 2], [row, zero]),
        ([Fraction(-4, 9), 1], [zero, scalars.row(zero, 0)]),
        ([1, 1], [scalars.row(other, np.s_[:, :1]), scalars.row(row, 0)]),
        ([1, -1], [Fraction(1, 3), row]),
    ):
        shapes = f"{np.shape(arrays[0])} and {np.shape(arrays[1])}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            scalars.combine(cs, arrays)
        floats = _float_operands(arrays)
        assert np.array_equal(scalars.combine(cs, floats), _numpy_expression(cs, floats))


def test_zero_terms_are_left_out_of_a_combination():
    a = scalars.array([["1/2", -3, "5/7"], [0, "1/4", 2]], RATIONAL)
    for zero in _zero_operands():
        for cs, arrays in (
            ([1, 2], [a, zero]),
            ([Fraction(1, 3), Fraction(-2, 7), 5], [zero, a, zero]),
            ([2, Fraction(1, 6)], [zero, a]),
        ):
            _assert_combine_is_exact(cs, arrays)
        _assert_zero_result(scalars.combine([Fraction(2, 3), -1], [zero, zero]), (2, 3))
        _assert_zero_result(scalars.combine([1, 1], [scalars.row(zero, (0, 0)), Fraction(0)]), ())


def test_widened_operands_next_to_a_zero_operand():
    big = scalars.array([2**70, Fraction(-(2**66), 3), 5], RATIONAL)
    for zero in _zero_operands():
        _assert_einsum_is_exact("ij,j->i", (zero, big))
        _assert_zero_result(scalars.einsum("ij,j->i", zero, big), (2,))
        _assert_zero_result(scalars.einsum("j,ij,k->ik", big, zero, big), (2, 3))
        rows = [scalars.row(zero, i) for i in range(2)]
        for cs, arrays in (([1, 3], [big, rows[0]]), ([Fraction(1, 5), 1, -1], [rows[1], big, rows[0]])):
            _assert_combine_is_exact(cs, arrays)


def test_a_kept_view_keeps_its_own_largest_numerator():
    # a transpose of a kept array, and a diagonal, which holds fewer
    # entries, each read as their own entries
    for a in (
        rat([[0, 5], [7, 0]]),
        scalars.einsum("ij,jk->ik", rat([[0, 5], [7, 0]]), scalars.eye(2, RATIONAL)),
        rat([["1/2", 5, 0], [7, "-2/3", 1], [0, 0, 9]]),
    ):
        for spec in ("ij->ji", "ii->i"):
            view = scalars.einsum(spec, a)
            _assert_read_exactly(view)
            _assert_combine_is_exact([1, Fraction(1, 3)], [view, view])
    diagonal = scalars.einsum("ii->i", rat([[0, 5], [7, 0]]))
    assert scalars.residual(diagonal) == 0.0 and scalars.is_zero(diagonal, 0.0)
    _assert_zero_result(scalars.einsum("i,i->i", diagonal, scalars.array([3, 4], RATIONAL)), (2,))


@pytest.fixture
def spies(monkeypatch):
    """The specs ``np.einsum`` is called with, and the arguments of every
    ``Fraction`` built, from here on."""
    einsums, built = [], []
    real_einsum, real_new = np.einsum, Fraction.__new__

    def einsum(*args, **kwargs):
        einsums.append(args[0])
        return real_einsum(*args, **kwargs)

    def new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
    return einsums, built


def test_an_exact_zero_makes_no_contraction_and_builds_no_fraction(spies):
    # the operands are built before the spies are installed
    einsums, built = spies
    b = scalars.array([["1/3", 2], [-1, "1/5"], [0, "7/4"]], RATIONAL)
    zeros, third = _zero_operands(), Fraction(1, 3)
    scalar, bt = scalars.einsum("ij,jk->", zeros[0], b), scalars.einsum("ij->ji", b)
    entry = scalars.row(zeros[0], (0, 0))
    del einsums[:], built[:]
    for zero in zeros:
        assert not scalars.einsum("ij,jk->ik", zero, b).any()
        assert not scalars.einsum("jk,ij,kl->il", b, zero, bt).any()
        assert not scalars.combine([1, third], [zero, zero]).any()
    assert einsums == [] and built == []
    # nor does a 0-d zero, which is ZERO
    assert scalars.einsum("ij,jk->", zeros[1], b) is scalars.ZERO
    assert scalars.combine([1, -1], [scalar, entry]) is scalars.ZERO
    assert einsums == [] and built == []


def test_float_calls_with_a_zero_operand_reach_numpy(spies):
    einsums, built = spies
    zero = np.zeros((2, 3))
    b = np.array([[0.1, 2.0], [-1.0, 0.2], [0.0, 1.75]])
    got = scalars.einsum("ij,jk->ik", zero, b)
    assert einsums == ["ij,jk->ik"]
    assert got.tobytes() == np.einsum("ij,jk->ik", zero, b).tobytes()
    got = scalars.combine([1, Fraction(1, 3)], [zero, b.T])
    assert got.tobytes() == (zero + float(Fraction(1, 3)) * b.T).tobytes()
    assert scalars.combine([1, -1], [zero, zero]).tobytes() == (zero - zero).tobytes()


# ---------------------------------------------------------------------------
# the zero results of one shape are one array
# ---------------------------------------------------------------------------

def test_zero_results_of_one_shape_are_its_one_template():
    zero, other = _zero_operands()
    b = scalars.array([["1/3", 2], [-1, "1/5"], [0, "7/4"]], RATIONAL)
    c = scalars.array([["1/2", 0], [3, "-1/4"]], RATIONAL)
    # the zero rule of a contraction, a sum of terms that cancel, and a
    # contraction whose products cancel: one array, which shares no memory
    # with an input
    results = (
        scalars.einsum("ij,jk->ik", zero, b),
        scalars.einsum("ij,jk->ik", other, b),
        scalars.combine([1, -1], [c, c]),
        scalars.einsum("ij,jk->ik", scalars.array([[1, 1], [2, 2]], RATIONAL),
                       scalars.array([[1, -1], [-1, 1]], RATIONAL)),
    )
    template = results[0]
    assert all(got is template for got in results)
    _assert_zero_result(template, (2, 2))
    assert not any(np.shares_memory(template, a) for a in (zero, other, b, c))
    # a 0-d zero is ZERO, from the zero rule and from sums that cancel
    third = Fraction(1, 3)
    assert scalars.einsum("ij,jk->", zero, b) is scalars.ZERO
    assert scalars.combine([1, -1], [third, third]) is scalars.ZERO
    ones, cancel = scalars.array([1, 1], RATIONAL), scalars.array([third, -third], RATIONAL)
    assert scalars.einsum("i,i->", ones, cancel) is scalars.ZERO


def test_zero_template_table_stays_within_its_bound():
    # the zeros of 4,000 shapes made and dropped: the kernel keeps the zeros
    # of at most 1,024 shapes (a zero takes about 700 bytes)
    def step(k):
        assert scalars.combine([1], [rat(np.zeros((k, 0), dtype=int))]).shape == (k, 0)

    assert _growth(step, 4000) < 1_500_000


# ---------------------------------------------------------------------------
# the float verdict against its rule, written out in plain Python
# ---------------------------------------------------------------------------

def _plain_float_test(arrays, eps, context):
    """``zero_test``'s rule for float arrays in plain Python: each array's
    residual r, its largest absolute entry (NaN when it holds one), passes
    when it is finite and r <= eps * max(1, r, scale), scale being the
    largest absolute context entry, NaN entries ignored, and eps 0 asking
    for r = 0; the residual is the worst r, and a failed test locates the
    first largest entry of the first worst array."""
    entries = [[abs(x) for x in np.asarray(a).ravel().tolist()] for a in arrays]
    rs = [math.nan if any(map(math.isnan, e)) else max(e, default=0.0) for e in entries]
    scale = max(
        (abs(x) for c in context for x in np.asarray(c).ravel().tolist() if not math.isnan(x)),
        default=0.0,
    )
    passed = all(math.isfinite(r) and r <= (eps * max(1.0, r, scale) if eps else 0.0) for r in rs)
    nans = [k for k, r in enumerate(rs) if math.isnan(r)]
    worst = nans[0] if nans else max(range(len(rs)), key=lambda k: (rs[k], -k), default=None)
    residual = math.nan if nans else max(rs, default=0.0)
    if passed:
        return passed, residual, None
    e = entries[worst]
    flat = next((i for i, x in enumerate(e) if math.isnan(x)), None)
    if flat is None:
        flat = e.index(max(e))
    where = tuple(int(i) for i in np.unravel_index(flat, np.shape(arrays[worst])))
    return passed, residual, (worst,) + where if len(arrays) > 1 else where or None


verdict_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-12, 1e-9, -2e-9, 1e-3, 1.0, 1e12]),
    st.floats(),
)


@st.composite
def float_arrays(draw):
    """A float array of 0, 1 or 2 axes, empty ones included."""
    shape = tuple(draw(st.lists(st.integers(min_value=0, max_value=3), max_size=2)))
    size = math.prod(shape)
    return np.array(draw(st.lists(verdict_floats, min_size=size, max_size=size)), dtype=np.float64).reshape(shape)


@given(
    st.lists(float_arrays(), min_size=1, max_size=3),
    st.sampled_from([0.0, 1e-9]),
    st.lists(float_arrays(), max_size=2),
)
@example([np.array(-0.0)], 0.0, [np.array([math.nan, math.inf])])
@example([np.array([1e-3]), np.array(math.nan)], 1e-9, [np.array(math.inf)])
@example([np.zeros(0), np.array([[2e-9, -3e-9]])], 1e-9, [np.array([math.nan]), np.array([1.0])])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_float_verdict_is_the_plain_rule(arrays, eps, context):
    passed, residual, where = _plain_float_test(arrays, eps, context)
    got = scalars.zero_test(arrays, eps, *context)
    assert got[0] == passed and got[2] == where
    assert repr(got[1]) == repr(residual)
    # a batch of one row decides as the test of that row
    (got,) = scalars.zero_rows([a[None] for a in arrays], eps, *(c[None] for c in context))
    assert got[0] == passed and got[2] == where and repr(got[1]) == repr(residual)
    assert scalars.is_zero(arrays[0], eps, *context) == _plain_float_test(arrays[:1], eps, context)[0]


def test_a_mixed_rational_and_float_test_takes_the_general_path():
    # a float array passes by its context, an exactly-zero rational one
    # passes, and a nonzero rational one fails whatever the context
    small, big = np.array([0.0, -1e-6]), np.array([1e4])
    assert scalars.zero_test([small, small], 1e-9, big) == (True, 1e-6, None)
    zero, half = rat([0, 0]), scalars.array(["1/2"], RATIONAL)
    assert scalars.zero_test([small, zero], 1e-9, big) == (True, 1e-6, None)
    assert scalars.zero_test([small, zero], 1e-9) == (False, 1e-6, (0, 1))
    assert scalars.zero_test([small, half], 1e-9, big) == (False, 0.5, (1, 0))
    # a rational context scales by its values, not by its integers (10000 is
    # 30000 over 3 next to 1/3)
    residual = [np.array([2e-5])]
    assert scalars.zero_test(residual, 1e-9, scalars.array(["10000", "1/3"], RATIONAL)) == (False, 2e-5, (0,))
    assert scalars.zero_test(residual, 1e-9, scalars.array(["30000", "1/3"], RATIONAL)) == (True, 2e-5, None)


def test_decimal_digits_are_limited_as_python_limits_integer_text():
    limit = sys.get_int_max_str_digits()
    assert scalars.exact(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert scalars.exact(f"0.{'0' * (limit - 2)}1") == Fraction(1, 10 ** (limit - 1))
    for token in (f"1e{limit}", f"10e{limit - 1}", f"1e-{limit}"):
        with pytest.raises(ValueError, match="digits"):
            scalars.exact(token)
    # a limit of 0 is no limit
    sys.set_int_max_str_digits(0)
    try:
        assert scalars.exact(f"1e{limit}") == 10**limit
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# freeze reads the fields that dataclasses.fields lists
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class _Holder:
    kept: np.ndarray
    items: list
    extra: dataclasses.InitVar[np.ndarray]
    shared: ClassVar[np.ndarray] = np.zeros(2)

    def __post_init__(self, extra):
        self.note = extra  # an attribute that is not a field


def test_freeze_reads_the_fields_dataclasses_lists():
    _Holder.shared = np.zeros(2)
    holder = _Holder(np.zeros(3), [np.ones(2), (np.ones(1),)], np.zeros(4))
    assert scalars.freeze(holder) is holder
    assert not holder.kept.flags.writeable
    assert not holder.items[0].flags.writeable and not holder.items[1][0].flags.writeable
    # neither the InitVar's value nor the ClassVar is a field
    assert holder.note.flags.writeable and _Holder.shared.flags.writeable
    # a dataclass whose InitVar is no attribute of its instances
    c = np.zeros((2, 2, 2))
    algebra = LieAlgebra(c, 1e-9)
    c.setflags(write=True)
    assert scalars.freeze(algebra) is algebra and not algebra.c.flags.writeable
    # a class is not an instance: its fields are not read; and a Fraction
    # holds no array
    assert scalars.freeze(_Holder) is _Holder
    assert scalars.freeze(Fraction(1, 2)) == Fraction(1, 2)
