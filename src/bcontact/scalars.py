"""Scalar backends.

Two interchangeable backends: exact rationals, held as integers over a
denominator, and binary floats.  Rational mode is the reference: all
formulas in this library are rational in their inputs (the Koszul formula
only divides by 2), so every identity can be verified with zero residual.
Float mode exists for speed and for data that arrives as decimals;
comparisons there use an absolute tolerance scaled by the magnitude of the
tensors involved: a float residual r passes when it is finite and
r <= eps * max(1, r, scale), scale being the largest absolute entry of the
context arrays, NaN entries ignored.  Every
zero test in the library goes through ``zero_test`` (verdict, residual and
worst index), ``is_zero`` (its verdict alone) or ``zero_rows`` (those of
every row of a stack, such as a batch axis), and all three decide by that
one rule, in ``_decide``; the tolerance ``eps`` is fixed once per model
when it is loaded and carried on the structure.  A test reads each array
once, by its dtype, as one table of rows, and its contexts only when a
float residual exceeds eps.

What the kernel returns is finished: every array that ``einsum``,
``combine``, ``divide_rows``, ``diagonalize``, ``array``, ``eye``, ``row``,
``stack`` and ``join`` return is read-only when it is made, in both modes.
A model pickles and copies through ``reduce_model``, which carries each
array with its kept form.

Exact arithmetic on a model happens only in this module: every rational
value that loading a model, its ``Workspace``, the check suite and the CLI
commands compute is made by ``einsum`` (contractions, products of scalars,
traces), ``combine`` (sums with rational coefficients), ``divide_rows`` (a
stack of rows, each over its own scalar) or ``diagonalize`` (the congruence
behind a metric's inverse and signature).

A contraction of three or more operands with an explicit output runs in
pairwise stages, one ``np.einsum`` call on two arrays each, in both modes:
numpy runs a single call as one loop over all its labels, so the dim^6
loop of R(x,y,a,b) phi^a_k phi^b_l, say, becomes two dim^5 ones.  The
stages of a spec are planned once, from the spec alone (``_stages``).  The
label ``B`` is a batch axis, such as the pair of metrics g and g~ that
every per-metric field carries: a batched spec is staged as its rows are.

A rational array is its own integer numerators: int64 when a bound proves
its entries fit, Python ints otherwise.  The kernel keeps, for each array
it makes, the denominator d of its value and a bound B of its absolute
numerators, 0 exactly when the array is zero (``_SCALED``, keyed by the
array and left when it dies), so the value is ``a / d``; ``_rebuild`` makes
every result, in lowest terms, with the bound its maker proved: K prod B_i
for a contraction of K products per entry, sum |k_t| B_t for a
combination, the operand's bound for a view, the largest numerator read
for the values ``array`` takes in, the largest integer built for
``diagonalize``'s.  Where such a bound fails the int64 test, the call
reads its operands' exact largest numerators (``_peak``) before it takes
Python ints, so that a sum leaves int64 only where those do not show it
fits; an exact largest numerator is read otherwise only where an object
result may fit int64.  ``einsum`` contracts and ``combine`` adds those
integers over a common denominator, and B = 0 proves an array zero: a
contraction with such an operand, and a combination of such terms alone,
return the exact zero at once (``ZERO`` when 0-d, else the one read-only
int64 zero of its shape, ``_zero``).  An exact contraction's spec has an
explicit output and no ellipsis, and gives each label one length in every
term; the terms of an exact combination have one shape; numpy's stretching
of a length of 1 raises ValueError.  The kernel makes its views and joins
itself: a transpose ``einsum`` takes, a part ``row`` takes, and a ``stack``
or ``join`` of kernel results, each over the denominator of its parts.  An
integer array it did not make, such as a slice or an ``np.concatenate``
taken outside it, raises ValueError naming the operand, since its integers
are not known to be numerators of anything; so does a rational array in a
call with a float one, which numpy would read as its integers.  A zero test
reads a result's integers: a rational verdict and worst index are exact,
and a residual is the float of the exact largest entry (the smallest
positive float when that rounds to 0 but the entry is not 0, and inf beyond
the float range).

A ``Fraction`` is built only where a scalar leaves the library: a 0-d
result (a trace, a row's entry) is one, and ``fractions`` is the reader of
the exact values of an array, for output and for tests.  Values enter
through ``array``, which parses tokens (``exact``) into integers.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import operator
import os
import re
import sys
import weakref
from fractions import Fraction
from typing import Union

import numpy as np

RATIONAL = "rational"
FLOAT = "float"

ScalarLike = Union[int, float, str, Fraction]

DEFAULT_EPS = 1e-9
EPS_VARIABLE = "BCONTACT_EPS"


def check_eps(eps: float) -> float:
    """``eps`` if it can serve as a tolerance: a finite number >= 0."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"must be a finite number >= 0, got {eps!r}")
    return eps


def eps_or_env(eps: float | None) -> float:
    """``eps`` when it is given, else the tolerance BCONTACT_EPS sets, else
    DEFAULT_EPS; a variable that is not ASCII, or that ``check_eps``
    rejects, raises ValueError naming it."""
    if eps is not None:
        return eps
    text = os.environ.get(EPS_VARIABLE)
    if text is None:
        return DEFAULT_EPS
    try:
        if not text.isascii():
            raise ValueError("non-ASCII character")
        return check_eps(float(text))
    except ValueError:
        raise ValueError(
            f"{EPS_VARIABLE} must be a finite number >= 0, got {text!r}"
        ) from None


# the exponent of a decimal token, as ``Fraction`` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def exact(tok: ScalarLike) -> Fraction:
    """The exact value of a scalar token ("p/q", decimal string, int, float).

    A float reads as its shortest decimal, so the number 1e-13 and the string
    "1e-13" are the same value; a non-finite float raises ValueError, and so
    does a string with a non-ASCII character (``Fraction`` would read other
    scripts' digits).  A boolean is not a scalar and raises TypeError.  A
    ``Fraction`` is its own value.  A decimal string whose digits and the
    size of its exponent add up to more than ``sys.get_int_max_str_digits()``
    (when that is not 0) raises ValueError before its power of 10 is
    computed: Python converts no longer integer to or from text, so its
    value could not be written back.
    """
    if type(tok) is Fraction:
        return tok
    if isinstance(tok, (bool, np.bool_)):
        raise TypeError("a boolean is not a number")
    if isinstance(tok, (float, np.floating)):
        return Fraction(repr(float(tok)))
    if isinstance(tok, str):
        if not tok.isascii():
            raise ValueError("non-ASCII character in a number")
        limit, power = sys.get_int_max_str_digits(), _EXPONENT.search(tok)
        if limit and power and sum(map(str.isdigit, tok[: power.start()])) + abs(int(power[1])) > limit:
            raise DigitLimitError(f"{tok!r} has more than {limit} digits")
    return Fraction(tok)


class DigitLimitError(ValueError):
    """A value with more digits than Python converts to or from text."""


def format_scalar(x) -> str:
    """Canonical string form: "p" or "p/q" for rationals, repr for floats;
    the one place a scalar leaves the library as text."""
    try:
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, (int, np.integer)):
            return str(int(x))
    except ValueError:  # Python converts no integer of more digits to text
        raise DigitLimitError(f"a value has more than {sys.get_int_max_str_digits()} digits") from None
    return repr(float(x))


# the exact zero, and every 0-d zero the kernel returns
ZERO = Fraction(0)

# the dtype of a float array, and of Python ints
_FLOAT = np.dtype(np.float64)
_OBJECT = np.dtype(object)


def _read_only(out):
    """``out``, made read-only when it is an array: what the kernel returns
    is finished."""
    if isinstance(out, np.ndarray):
        out.setflags(write=False)
    return out


def array(nested, mode: str) -> np.ndarray:
    """A read-only backend array of (possibly nested) scalar tokens, or of
    an integer array: in float mode the nearest float of each exact value,
    in rational mode the kernel's integers of the exact values, and the
    ``Fraction`` of a single token.  An int token is its own value.  An
    integer array's bound is its largest absolute entry, from one ``max``
    and one ``min`` read as Python ints, which do not wrap; its integers
    are int64 when that bound fits, else Python ints."""
    if isinstance(nested, np.ndarray) and nested.dtype.kind in "iu":
        if mode != RATIONAL:
            return _read_only(nested.astype(np.float64))
        bound = max(int(nested.max()), -int(nested.min())) if nested.size else 0
        return _rebuild(nested.astype(np.int64 if bound <= _INT64_MAX else object), 1, bound)
    nested = np.asarray(nested, dtype=object)
    values = [t if type(t) is int else exact(t) for t in nested.ravel().tolist()]
    if mode != RATIONAL:
        return _read_only(np.array(values, dtype=np.float64).reshape(nested.shape))
    return _rebuild(*_scale(values, nested.shape))


def eye(dim: int, mode: str) -> np.ndarray:
    """Identity matrix in the backend type."""
    return array(np.eye(dim, dtype=np.int64), mode)


# the largest int64; an int64 sum of products whose magnitude bound is at
# most this cannot wrap around
_INT64_MAX = int(np.iinfo(np.int64).max)


def _scale(values: list, shape: tuple = ()) -> tuple[np.ndarray, int, int]:
    """``(n, d, m)`` with ``n / d`` the array of ``shape`` of the exact
    ``values`` (``Fraction`` or int), in order: ``d`` their least common
    denominator, ``m`` the largest ``abs(n_i)`` and ``n`` an int64 array
    when ``m`` fits in int64, else an object array of Python ints."""
    ratios = [x.as_integer_ratio() for x in values]
    dens = {q for _, q in ratios}
    d = math.lcm(*dens)
    nums = [p for p, _ in ratios] if len(dens) == 1 else [p * (d // q) for p, q in ratios]
    m = max(map(abs, nums), default=0)
    n = np.empty(len(nums), dtype=np.int64 if m <= _INT64_MAX else object)
    n[:] = nums
    return n.reshape(shape), d, m


# id(a) -> (weak reference to a, its denominator, its bound), for each
# integer array a of the kernel: the form that makes a the numerators of
# its value, the bound being at least every absolute entry of a and 0
# exactly when a is all zero; an entry leaves when its array dies
_SCALED: dict[int, tuple] = {}


def _remember(n: np.ndarray, d: int, m: int) -> np.ndarray:
    """``n``, made read-only and kept as the numerators of ``n / d``, ``m``
    its bound: a kernel result."""
    key = id(n)
    n.setflags(write=False)
    _SCALED[key] = (weakref.ref(n, lambda _, k=key: _SCALED.pop(k, None)), d, m)
    return n


def _scaled(a: np.ndarray, call: str = "the kernel", operands=()) -> tuple[np.ndarray, int, int]:
    """``(n, d, m)`` with ``a == n / d`` and ``m`` a bound of ``abs(n)``, 0
    exactly when ``n`` is all zero: the kept form of a kernel result, whose
    numerators are ``a`` itself, or ``_scale``'s form of a 0-d value.
    Any other array raises ValueError naming ``call`` and the position of
    ``a`` among its ``operands``: its integers are not known to be
    numerators of anything."""
    hit = _SCALED.get(id(a))
    if hit is not None:
        ref, d, m = hit
        if ref() is a:
            return a, d, m
    if a.ndim:
        index = next((i for i, x in enumerate(operands) if x is a), 0)
        raise ValueError(
            f"{call}: operand {index} is an array the kernel did not make, or a view or a join of"
            " one taken outside scalars.row, scalars.stack and scalars.join; values enter through"
            " scalars.array"
        )
    return _scale([a.tolist()])


def row(a: np.ndarray, index):
    """``a[index]`` of a kernel result, for a basic index (a row of a batch
    axis, say), a list of rows or a boolean mask; a single entry is its
    scalar.  Read-only and, in rational mode, the integers of ``a`` there
    over the denominator of ``a``."""
    if a.dtype == _FLOAT:
        return _read_only(a[index])
    n, d, m = _scaled(a, "row")
    out = n[index]
    if not isinstance(out, np.ndarray) or not out.ndim:
        return _rebuild(out, d, m)
    return _view(out, n, d, m)


def _view(out: np.ndarray, n: np.ndarray, d: int, m: int) -> np.ndarray:
    """``out``, a part or a view of the kept integers ``n`` over ``d``
    with bound ``m``, kept over ``d`` with that bound: a view that holds
    every entry (a transpose) shares it, and a part fewer entries keeps it
    unless it is all zero, which one count finds."""
    if out.size != n.size and not np.count_nonzero(out):
        m = 0
    return _remember(out, d, m)


def stack(arrays, axis: int = 0) -> np.ndarray:
    """``np.stack(arrays, axis)``, read-only, as the rows of a batch axis,
    say; in rational mode its integers are those of the arrays over the
    least common multiple of their denominators."""
    return _joined(np.stack, arrays, axis)


def join(arrays, axis: int = 0) -> np.ndarray:
    """``np.concatenate(arrays, axis)``, read-only, formed as ``stack``
    forms its result."""
    return _joined(np.concatenate, arrays, axis)


def _joined(numpy_join, arrays, axis: int) -> np.ndarray:
    if arrays[0].dtype == _FLOAT:
        for b in arrays[1:]:
            if getattr(b, "dtype", _FLOAT) != _FLOAT and np.ndim(b):
                raise _mixed(numpy_join.__name__, arrays, b)
        return _read_only(numpy_join(arrays, axis=axis))
    forms = [_scaled(a, numpy_join.__name__, arrays) for a in arrays]
    d = math.lcm(*(q for _, q, _ in forms))
    m = max(k * (d // q) for _, q, k in forms)
    if m > _INT64_MAX:  # tightened before widening
        m = max(_peak(n) * (d // q) for n, q, _ in forms)
    ns = [n for n, _, _ in forms]
    if m > _INT64_MAX:
        ns = _widen(ns)
    parts = [n if q == d else n * (d // q) for n, (_, q, _) in zip(ns, forms)]
    return _remember(numpy_join(parts, axis=axis), d, m)


def _peak(n: np.ndarray) -> int:
    """The largest absolute entry of an integer array, 0 when it is empty:
    read only where a proved bound fails the int64 test, before a call
    widens its operands and where an object result may fit int64."""
    return int(np.maximum.reduce(np.abs(n), axis=None)) if n.size else 0


def _rebuild(n, den: int, bound: int):
    """The kernel's result ``n / den`` for an integer array (or integer)
    ``n``, int64 or Python ints, whose maker proved ``bound`` >= every
    ``abs(n_i)``: the read-only array ``n / g`` kept with
    denominator ``den / g`` and bound ``bound // g``, g = gcd(den, n_1, ...),
    int64 when its entries fit; the ``Fraction`` of a 0-d ``n``; ``_zero``'s
    array when ``n`` is all zero, which one reduction finds (the gcd of the
    entries, 0 exactly on zeros, when den > 1, else their nonzero count).
    ``_peak`` runs only where an object array's bound leaves in doubt
    whether it fits int64.  The one place a result of the kernel is made."""
    if not isinstance(n, np.ndarray) or not n.ndim:
        return Fraction(int(n), den) if n else ZERO
    if den > 1:
        g = int(np.gcd.reduce(n.ravel()))
        if not g:
            return _zero(n.shape)
        g = math.gcd(den, g)
        if g > 1:
            n, den, bound = n // g, den // g, bound // g
    elif not np.count_nonzero(n):
        return _zero(n.shape)
    if n.dtype == _OBJECT and bound > _INT64_MAX:
        bound = _peak(n)
    if n.dtype == _OBJECT and bound <= _INT64_MAX:
        n = n.astype(np.int64)
    return _remember(n, den, bound)


# shape -> the read-only int64 zeros that are the exact zero of that shape;
# emptied when it reaches _ZEROS_MAX entries, so that it stays small
_ZEROS: dict[tuple, np.ndarray] = {}
_ZEROS_MAX = 1024


def _zero(shape: tuple):
    """The exact zero of ``shape`` that the kernel returns: ``ZERO`` when
    0-d, else the shape's one array in ``_ZEROS``, kept as zeros over 1."""
    if not shape:
        return ZERO
    out = _ZEROS.get(shape)
    if out is None:
        if len(_ZEROS) >= _ZEROS_MAX:
            _ZEROS.clear()
        out = _ZEROS[shape] = _remember(np.zeros(shape, dtype=np.int64), 1, 0)
    return out


def fractions(a):
    """The exact values of a rational kernel result: an object array of
    ``Fraction``, the one place such an array is built, for output and for
    tests.  A float array, and a scalar, is returned as it is."""
    if not isinstance(a, np.ndarray) or a.dtype == _FLOAT:
        return a
    n, d, _ = _scaled(a, "fractions")
    out = np.empty(a.shape, dtype=object)
    out.reshape(-1)[:] = [Fraction(p, d) for p in n.ravel().tolist()]
    return out


def _widen(ns) -> list[np.ndarray]:
    """The integer arrays ``ns`` as object arrays of Python ints: the exact
    path for sums and quotients that int64 cannot be shown to hold."""
    return [n.astype(object) for n in ns]


def _mixed(call: str, operands, rational) -> ValueError:
    """The error of a float call whose operand ``rational`` is a rational
    array: numpy would read its integers as its value.  A float call
    compares each operand but its first float64 one with float64 once, and
    a scalar that is no array (an int, a ``Fraction``) is its own value."""
    j = next(k for k, a in enumerate(operands) if a is rational)
    return ValueError(f"{call}: operand {j} is a rational array in a call with a float one;"
                      " a call takes the arrays of one mode")


@functools.lru_cache(maxsize=4096)
def _plan(spec: str, shapes: tuple) -> tuple[bool, int, tuple]:
    """``(sums, K, shape)`` of ``np.einsum(spec, *operands)`` for operands
    of the given shapes: whether it sums over a label (one that the output
    leaves out), the number K of products it sums into one entry of its
    result (the product of the lengths of the summed labels), and the shape
    of its result.  The exact kernel's grammar is an explicit output and no
    ellipsis, and each label has one length in every term: any other spec,
    or shapes that do not fit it, raise ValueError naming the spec."""
    inputs, arrow, output = spec.replace(" ", "").partition("->")
    if not arrow or "." in spec:
        raise ValueError(f"an exact contraction needs an explicit output and no ellipsis, got {spec!r}")
    terms = inputs.split(",")
    sizes, fits = {}, len(terms) == len(shapes) and len(set(output)) == len(output)
    for term, shape in zip(terms, shapes):
        fits = fits and len(term) == len(shape)
        for c, k in zip(term, shape):
            fits = fits and sizes.setdefault(c, k) == k
    if not (fits and set(output) <= sizes.keys()):
        raise ValueError(f"operands of shapes {list(shapes)} do not fit the exact contraction {spec!r}")
    summed = [k for c, k in sizes.items() if c not in output]
    return bool(summed), math.prod(summed), tuple(sizes[c] for c in output)


@functools.lru_cache(maxsize=1024)
def _stages(spec: str) -> tuple | None:
    """The pairwise stages of a contraction of three or more operands, or
    None when one ``np.einsum`` call should run it.

    A stage ``(i, j, pair_spec)`` contracts operands i < j of the current
    list, removes them and appends the result; the last stage writes the
    output.  Stages are chosen greedily from the spec alone, so every call
    of one spec is staged the same way: of the pairs that share a label (any
    pair when none does), the one whose loop runs over the fewest labels,
    then whose result keeps the fewest, then the first.  A pair sums the
    labels that no other operand and not the output carries.

    One call of p operands makes p - 1 products at each point of its loop
    over all labels, a stage one product at each point of its own loop, so
    the stages never make more products; they are kept when they make fewer,
    that is when some stage's loop leaves a label out.  A label repeated
    inside one term takes the one call, and so do an implicit output and an
    ellipsis, which only a float call may use.

    ``B`` is the batch label: it leads every term that carries it, and the
    stages are planned as if no term did, so that a batched spec is staged
    as each of its rows would be, with the same float rounding.  A stage
    carries B on each operand that has it, and leads its result with B when
    either operand has it."""
    inputs, arrow, output = spec.replace(" ", "").partition("->")
    terms = inputs.split(",")
    labels = set(inputs) - {",", "B"}
    if (
        not arrow or len(terms) < 3 or "." in spec or not set(output) <= labels | {"B"}
        or any(len(set(t)) < len(t) for t in terms)
    ):
        return None
    batched = [t[:1] == "B" for t in terms]
    terms, rows = [t.lstrip("B") for t in terms], output.replace("B", "")
    stages, loops = [], []
    while len(terms) > 2:
        pairs = [(i, j) for i in range(len(terms)) for j in range(i + 1, len(terms))]
        shared = [(i, j) for i, j in pairs if set(terms[i]) & set(terms[j])]
        candidates = []
        for i, j in shared or pairs:
            rest = set(rows).union(*(t for k, t in enumerate(terms) if k not in (i, j)))
            loop = terms[i] + "".join(c for c in terms[j] if c not in terms[i])
            kept = "".join(c for c in loop if c in rest)
            candidates.append((len(loop), len(kept), i, j, loop, kept))
        *_, i, j, loop, kept = min(candidates)
        b = "B" * (batched[i] or batched[j])
        stages.append((i, j, f"{'B' * batched[i]}{terms[i]},{'B' * batched[j]}{terms[j]}->{b}{kept}"))
        loops.append(loop)
        terms = [t for k, t in enumerate(terms) if k not in (i, j)] + [kept]
        batched = [t for k, t in enumerate(batched) if k not in (i, j)] + [bool(b)]
    stages.append((0, 1, f"{'B' * batched[0]}{terms[0]},{'B' * batched[1]}{terms[1]}->{output}"))
    loops.append(set(terms[0]) | set(terms[1]))
    return tuple(stages) if any(len(loop) < len(labels) for loop in loops) else None


def _contract(spec: str, operands) -> np.ndarray:
    """``np.einsum(spec, *operands)``, run in the stages of ``_stages`` when
    it gives some: each stage is one ``np.einsum`` call on two arrays.  A
    stage that keeps no label gives a scalar, which is passed on as a 0-d
    array of its operands' dtype: numpy would read a Python int as int64."""
    stages = _stages(spec) if len(operands) > 2 else None
    if stages is None:
        return np.einsum(spec, *operands)
    operands = list(operands)
    for i, j, pair in stages[:-1]:
        b, a = operands.pop(j), operands.pop(i)
        operands.append(np.asarray(np.einsum(pair, a, b), dtype=np.result_type(a, b)))
    return np.einsum(stages[-1][2], *operands)


def einsum(spec: str, *operands: np.ndarray):
    """``np.einsum(spec, *operands)``: the library's one contraction.

    A rational call of two or more operands, or of one that it sums over (a
    trace), contracts the operands' integers: int64 when
    K * prod(B_i) <= 2**63 - 1, for K products per result entry and B_i the
    kept bound of operand i, tightened to its exact largest absolute
    numerator before the call widens, else Python ints; the result is made
    by ``_rebuild``, with the bound K * prod(B_i).  A rational spec has an
    explicit output and no ellipsis and gives each label one length, or the
    call raises ValueError naming it (``_plan``); an operand with B = 0, an
    exact zero, makes the result ``_zero``'s, uncontracted.  One rational
    operand that is not summed over (a transpose, a diagonal) gives numpy's
    view of its integers, over its denominator (``_view``).  An operand may
    be a scalar of the backend, read as a 0-d array.  A float call, one with
    a float64 operand, is numpy's own, of any spec numpy reads; a rational
    array next to a float one raises ValueError naming it (``_mixed``).  A
    call of three or more operands runs in the stages of ``_stages`` when
    it has some, in either mode: a float one matches numpy's single call
    bit for bit on integer-valued operands, and is within the rounding bound
    of its sums otherwise.  numpy is looked up at each call, so a wrapper
    installed on ``np.einsum`` sees every contraction, and every stage of
    one.
    """
    # one pass over the operands decides the backend (a float operand sends
    # the call to numpy at once) and collects the shapes and the forms
    shapes, ns, den, bound, wide = [], [], 1, 1, False
    for a in operands:
        try:
            dtype = a.dtype
        except AttributeError:  # a scalar operand: a 0-d array of its dtype
            dtype = (a := np.asarray(a)).dtype
        if dtype == _FLOAT:
            for b in operands:
                if b is not a and getattr(b, "dtype", _FLOAT) != _FLOAT and np.ndim(b):
                    raise _mixed(spec, operands, b)
            return _read_only(_contract(spec, operands))
        n, d, m = _scaled(a, spec, operands)
        shapes.append(a.shape)
        ns.append(n)
        den *= d
        bound *= m
        wide = wide or n.dtype == _OBJECT
    sums, k, shape = _plan(spec, tuple(shapes))
    if len(ns) == 1 and not sums:
        out = np.einsum(spec, ns[0])
        return _rebuild(out, den, bound) if not out.ndim else _view(out, ns[0], den, bound)
    if not bound:
        return _zero(shape)
    # the one bound covers every stage: each value a stage forms is a sum of
    # at most K products of entries of some of the operands
    bound *= k
    if not wide and bound > _INT64_MAX:  # tightened before widening
        bound = k * math.prod(map(_peak, ns))
    if wide or bound > _INT64_MAX:
        ns = _widen(ns)
    return _rebuild(_contract(spec, ns), den, bound)


def combine(coefficients, arrays):
    """sum_t c_t a_t of scalar coefficients and arrays, added left to right.

    A coefficient is an int (a numpy one too) or a ``Fraction`` in either
    mode, or a float in float mode; a rational call raises TypeError on a
    float one.  In float mode this is numpy's ``c_0 a_0 + c_1 a_1 + ...``,
    broadcasting included, where a coefficient of 1 adds and one of -1
    subtracts its array, and a ``Fraction`` coefficient is its nearest
    float.  In rational mode the terms have one shape (two shapes raise
    ValueError), and their integers are added over the least common
    multiple of their denominators: in int64 when sum_t |k_t| B_t <= 2**63 - 1,
    k_t being the integer factor of term t and B_t its kept bound, tightened
    to its exact largest absolute numerator before the call widens, else as
    Python ints; the result is made by ``_rebuild``, with the bound
    sum_t |k_t| B_t.  A term with B = 0, an exact zero, is left out.  A term
    may be a scalar of the backend, read as a 0-d array.  A rational array
    next to a float one raises ValueError naming it.  Both modes add in
    ``_sum``, the rational one with int coefficients alone.
    """
    if len(coefficients) != len(arrays) or not len(arrays):
        raise ValueError("combine needs one coefficient per array, and at least one array")
    # one pass over the terms decides the backend (a float array sends the
    # call to numpy's sum, the first one at once) and, while every array is
    # rational, reads each coefficient p / q once and collects each nonzero
    # term's integer factor p, denominator q d, integers and bound B, the
    # bound sum |p| B, which is the int64 bound when every q d is the same,
    # and whether any integers are Python ints
    ks, dens, ns, ms, bound, wide = [], [], [], [], 0, False
    shape = getattr(arrays[0], "shape", ())
    for c, a in zip(coefficients, arrays):
        try:
            dtype = a.dtype
        except AttributeError:  # a scalar term: a 0-d array of its dtype
            dtype = (a := np.asarray(a)).dtype
        if dtype == _FLOAT:
            for b in arrays:
                if b is not a and getattr(b, "dtype", _FLOAT) != _FLOAT and np.ndim(b):
                    raise _mixed("combine", arrays, b)
            return _read_only(_sum(coefficients, arrays))
        if a.shape != shape:
            raise ValueError(f"an exact combination takes terms of one shape, got {shape} and {a.shape}")
        if type(c) is int:
            p, q = c, 1
        elif isinstance(c, (int, np.integer, Fraction)):
            p, q = int(c.numerator), int(c.denominator)
        else:
            raise TypeError(f"an exact combination takes int and Fraction coefficients, got {c!r}")
        n, d, m = _scaled(a, "combine", arrays)
        if not m:  # an all-zero term adds nothing, whatever its coefficient
            continue
        ks.append(p)
        dens.append(q * d)
        ns.append(n)
        ms.append(m)
        bound += abs(p) * m
        wide = wide or n.dtype == _OBJECT
    if not ns:
        return _zero(shape)
    den = dens[0]
    if dens.count(den) != len(dens):
        den = math.lcm(*dens)
        ks = [p * (den // q) for p, q in zip(ks, dens)]
        bound = sum(map(operator.mul, map(abs, ks), ms))
    if not wide and bound > _INT64_MAX:  # tightened before widening
        bound = sum(map(operator.mul, map(abs, ks), map(_peak, ns)))
    if wide or bound > _INT64_MAX:
        ns = _widen(ns)
    return _rebuild(_sum(ks, ns), den, bound)


def _sum(coefficients, arrays):
    """c_0 a_0 + c_1 a_1 + ..., left to right: a coefficient of 1 adds and
    one of -1 subtracts its term, another int multiplies it as it is and
    any other as its float; a new array even for one term that is an array,
    which a rational call keeps over another denominator."""
    out = None
    for c, a in zip(coefficients, arrays):
        k = c if type(c) is int else float(c)
        if out is None:
            out = a if c == 1 else -a if c == -1 else k * a
        else:
            out = out + a if c == 1 else out - a if c == -1 else out + k * a
    return out.copy() if out is arrays[0] and isinstance(out, np.ndarray) else out


def divide_rows(a: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``a[n] / den[n]`` for every row n of ``a``, ``den`` holding one
    nonzero scalar per row.

    In float mode this is numpy's ``a / den``, ``den`` given an axis of
    length 1 for each further axis of ``a``.  In rational mode, with the
    integers a = A / p and den = B / q, every row is brought over one
    denominator: with L the least common multiple of the B[n],
    a[n] / den[n] = A[n] q (L / B[n]) / (p L), made by ``_rebuild``, as an
    ``einsum`` result is, with the bound max(1, B) * F, B the kept bound of
    A and F the largest factor q L / |B[n]|.  The products are int64 when
    that bound is at most 2**63 - 1, B tightened to max |A| before the call
    widens, and Python ints otherwise.  A zero in ``den`` raises
    ZeroDivisionError, and a rational array next to a float one ValueError
    naming it.
    """
    floats = a.dtype == _FLOAT
    if floats != (den.dtype == _FLOAT):
        raise _mixed("divide_rows", (a, den), den if floats else a)
    if floats:
        return _read_only(a / np.reshape(den, den.shape + (1,) * (a.ndim - den.ndim)))
    na, p, m = _scaled(a, "divide_rows", (a, den))
    nb, q, _ = _scaled(den, "divide_rows", (a, den))
    rows = nb.tolist()
    if not all(rows):
        raise ZeroDivisionError("division of a row by zero")
    lcm = math.lcm(*rows)
    factors = [q * (lcm // b) for b in rows]
    top = max(map(abs, factors), default=0)
    bound = max(1, m) * top
    if na.dtype != _OBJECT and bound > _INT64_MAX:  # tightened before widening
        bound = max(1, _peak(na)) * top
    if na.dtype == _OBJECT or bound > _INT64_MAX:
        (na,), factors = _widen([na]), np.array(factors, dtype=object)
    else:
        factors = np.array(factors, dtype=np.int64)
    shaped = factors.reshape(factors.shape + (1,) * (na.ndim - factors.ndim))
    return _rebuild(na * shaped, p * lcm, bound)


def diagonalize(m: np.ndarray):
    """Congruence diagonalization of a symmetric rational matrix:
    ``(e, d, signature)``, e and d kernel results with ``e m e^T = diag(d)``
    and every d[k] nonzero, so m^-1 = e^T diag(d)^-1 e, and the signature
    of m, the numbers of positive and of negative d[k]; None when m is
    degenerate.

    Fraction-free, over the integers M = q m of m: A = E M E^T starts as M
    with E the identity.  Each step takes a row k left whose diagonal entry
    p = A[k, k] is nonzero (creating one by e_i -> e_i + e_j when there is
    none), and clears A[r, k] and A[k, r] for every other row r left by
    row r -> p row r - A[r, k] row k, applied to the rows of A, then to its
    columns, and to the rows of E: a congruence by an integer matrix.  Row r
    of E is then divided by the gcd g of its entries, and row and column r
    of A by g, so the integers stay small.  Then e = E and d = diag(A) / q,
    both made by ``_rebuild``, each bound by its largest |integer|."""
    n, q, _ = _scaled(m, "diagonalize")
    a = n.tolist()
    size = len(a)
    e = [[int(i == j) for j in range(size)] for i in range(size)]
    rows = list(range(size))
    while rows:
        k = next((i for i in rows if a[i][i]), None)
        if k is None:
            off = next(((i, j) for i in rows for j in rows if i != j and a[i][j]), None)
            if off is None:
                return None
            i, j = off
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            e[i] = [x + y for x, y in zip(e[i], e[j])]
            k = i
        p = a[k][k]
        rows.remove(k)
        for r in rows:
            f = a[r][k]
            if not f:
                continue
            a[r] = [p * x - f * y for x, y in zip(a[r], a[k])]
            for row in a:
                row[r] = p * row[r] - f * row[k]
            e[r] = [p * x - f * y for x, y in zip(e[r], e[k])]
            g = math.gcd(*e[r])
            if g > 1:
                e[r] = [x // g for x in e[r]]
                a[r] = [x // g for x in a[r]]
                for row in a:
                    row[r] //= g
    d = [a[i][i] for i in range(size)]
    e_out = _rebuild(np.array(e, dtype=object).reshape(size, size), 1, max((abs(x) for r in e for x in r), default=0))
    d_out = _rebuild(np.array(d, dtype=object), q, max(map(abs, d), default=0))
    return e_out, d_out, (sum(x > 0 for x in d), sum(x < 0 for x in d))


def reduce_model(obj):
    """``obj.__reduce__`` for a model whose attributes hold kernel arrays:
    pickle and ``copy`` carry each array with its kept form, so that the
    arrays of the copy, in another process too, are kernel results again."""
    fields = vars(obj).items()
    forms = {k: v if v.dtype == _FLOAT else _scaled(v, "pickle") for k, v in fields if isinstance(v, np.ndarray)}
    return _rebuilt, (type(obj), {k: v for k, v in fields if k not in forms}, forms)


def _rebuilt(cls, state: dict, forms: dict):
    """The ``cls`` that ``reduce_model`` carries, its arrays read-only."""
    obj = cls.__new__(cls)
    arrays = {k: _read_only(f) if isinstance(f, np.ndarray) else _remember(*f) for k, f in forms.items()}
    vars(obj).update(state, **arrays)
    return obj


def mode_of(arr: np.ndarray) -> str:
    """The backend of an array: float64 is float mode, any other dtype
    rational."""
    return FLOAT if arr.dtype == _FLOAT else RATIONAL


def _rational_residual(p: int, d: int) -> float:
    """The exact largest absolute entry p / d of a rational array as a
    float; one that rounds to 0.0 but is not 0 is the smallest positive
    float, so a nonzero array never reports residual 0, and one beyond the
    float range is inf."""
    try:
        r = p / d
    except OverflowError:
        return math.inf
    return r if r or not p else math.ulp(0.0)


def residual(a: np.ndarray, b=None) -> float:
    """Max absolute entry of a - b (or of a alone), as a float: the residual
    ``zero_test`` reports for it."""
    d = a if b is None else combine([1, -1], [a, b])
    return _decide([np.asanyarray(d)], 0.0, (), None, False)[0][1]


def _within_tolerance(residual, eps: float, scale):
    """The float verdict: is ``residual`` within eps * max(1, residual,
    scale)?

    A non-finite residual never passes, and a NaN scale adds nothing.  The
    test is spelled as three comparisons, one per term of the max.  Wherever
    eps * max(...) is a number it is the same test, as multiplying by eps >=
    0 keeps the order of floats; where it is not (eps 0 times an infinite
    scale) eps 0 asks for a residual of 0."""
    return residual < math.inf and (
        residual <= eps or residual <= eps * residual or residual <= eps * scale
    )


def _decide(arrays: list, eps: float, context, rows, locate: bool = True) -> list:
    """``(passed, residual, worst_index)`` of each row of the arrays and
    contexts, stacks of ``rows`` rows (the whole arrays are one row when
    ``rows`` is None): the one place a zero test is decided, locating the
    worst entry of a failed row, read again, when ``locate``.  Each array
    is read once, as a table of the absolute values of each row that is not
    kept: a rational array's integers (not read when its bound is 0), a float
    array's entries.  A nonzero rational row fails; the contexts are read,
    as floats of their values, only when a float residual exceeds eps,
    their largest entry in the row, NaN ignored, being its scale."""
    count = 1 if rows is None else rows
    for x in () if rows is None else (*arrays, *context):
        if not np.ndim(x) or len(x) != rows:
            raise ValueError(f"a stack needs one row per row ({rows}), got shape {np.shape(x)}")
    sources, peaks, res, dens, failed = [], [], [], [], set()
    for a in arrays:
        n, d = a, None
        if a.dtype == _FLOAT:
            res.append(np.abs(_by_row(a, count)).max(axis=1, initial=0.0).tolist())
            col = res[-1]
        else:
            n, d, m = _scaled(a, "a zero test", arrays)
            col = np.abs(_by_row(n, count)).max(axis=1).tolist() if m else [0] * count
            failed.update(r for r, p in enumerate(col) if p)
            res.append([_rational_residual(p, d) if p else 0.0 for p in col] if m else [0.0] * count)
        sources.append(n)
        peaks.append(col)
        dens.append(d)
    scales, out = None, []
    for r in range(count):
        row = [col[r] for col in res]
        worst = 0.0
        for x in row:
            if x > worst or x != x:
                worst = x
        if r not in failed and worst <= eps:
            out.append((True, worst, None))
            continue
        if r not in failed and scales is None:
            scales = np.zeros(count)
            for c in context:
                scale = np.abs(_by_row(np.asarray(fractions(c), dtype=np.float64), count))
                scales = np.fmax(scales, np.fmax.reduce(scale, axis=1, initial=0.0))
            scales = scales.tolist()
        passed = r not in failed and all(_within_tolerance(x, eps, scales[r]) for x in row)
        where = None
        if locate and not passed:
            if None in dens:
                k = int(np.argmax(row))
            else:  # the exactly largest peak p_i / d_i, over one denominator
                common = math.lcm(*dens)
                k = max(range(len(arrays)), key=lambda i: peaks[i][r] * (common // dens[i]))
            shape = arrays[k].shape[rows is not None:]
            at = int(np.argmax(np.abs(_by_row(sources[k], count)[r])))
            where = tuple(int(i) for i in np.unravel_index(at, shape))
            where = (k,) + where if len(arrays) > 1 else where or None
        out.append((passed, worst, where))
    return out


def _by_row(a: np.ndarray, count: int) -> np.ndarray:
    """``a`` as a table of ``count`` rows of its entries in order."""
    return a.reshape(count, a.size // count if count else 0)


def zero_test(arrays, eps: float, *context: np.ndarray):
    """The library's one zero test: do all ``arrays`` vanish?

    Returns ``(passed, residual, worst_index)``: the residual is the largest
    absolute entry over all arrays, NaN when a float array holds one, and
    the verdict is the rule of the module docstring, the ``context`` arrays
    being those the compared quantities were built from.  ``worst_index`` is
    None on success; on failure it locates the first largest entry of the
    worst array, prefixed by that array's position when more than one array
    is tested, exactly when every array is rational.
    """
    return _decide([np.asanyarray(a) for a in arrays], eps, context, None)[0]


def is_zero(arr: np.ndarray, eps: float, *context: np.ndarray) -> bool:
    """The verdict of ``zero_test`` on a single array, without locating its
    worst entry."""
    return _decide([np.asanyarray(arr)], eps, context, None, False)[0][0]


def zero_rows(arrays, eps: float, *context, locate: bool = True) -> list[tuple[bool, float, tuple | None]]:
    """``zero_test([a[r] for a in arrays], eps, *(c[r] for c in context))``
    for every row r: each array and context a stack of one entry per row, as
    a batch axis or a stack of planes gives.  One pass over each whole stack
    decides every row, by its own verdict, residual and worst index (None
    for every row unless ``locate``); an array or a context of another
    length raises ValueError."""
    arrays = [np.asanyarray(a) for a in arrays]
    return _decide(arrays, eps, context, len(arrays[0]) if arrays else 0, locate)


def freeze(obj):
    """Make every array reachable from ``obj`` through tuples, lists and
    dataclass fields read-only, with the arrays of its ``.base`` chain, and
    return ``obj``: for a float array that plain numpy built (``np.linalg``,
    say) or a caller handed in, as the kernel's results are born read-only.
    """
    if isinstance(obj, np.ndarray):
        a = obj
        while isinstance(a, np.ndarray):
            a.setflags(write=False)
            a = a.base
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            freeze(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            freeze(getattr(obj, f.name))
    return obj
