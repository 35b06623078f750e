"""Scalar backends.

Two interchangeable backends: exact rationals (``fractions.Fraction``) and
binary floats.  Rational mode is the reference: all formulas in this library
are rational in their inputs (the Koszul formula only divides by 2), so every
identity can be verified with zero residual.  Float mode exists for speed and
for data that arrives as decimals; comparisons there use an absolute
tolerance scaled by the magnitude of the tensors involved.  Every zero test
in the library goes through ``zero_test``; the tolerance ``eps`` is fixed once
per model when it is loaded and carried on the structure.

The rational kernel does its arithmetic over Python ints.  ``einsum``
contracts and ``combine`` adds arrays scaled to integer numerators over a
common denominator, and each builds the ``Fraction`` entries of its result
once, with equal entries sharing one object (every 0 is ``ZERO``).  The
scaled form of a read-only array is computed once and kept while the array
lives.  A rational kernel result is born read-only with its scaled form
kept, so the next kernel call, ``max_abs`` and ``zero_rows`` read its
integers; ``freeze`` makes other arrays read-only, to be scaled once.
"""
from __future__ import annotations

import dataclasses
import math
import os
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
    DEFAULT_EPS; a variable that ``check_eps`` rejects raises ValueError
    naming it."""
    if eps is not None:
        return eps
    text = os.environ.get(EPS_VARIABLE)
    if text is None:
        return DEFAULT_EPS
    try:
        return check_eps(float(text))
    except ValueError:
        raise ValueError(
            f"{EPS_VARIABLE} must be a finite number >= 0, got {text!r}"
        ) from None


def exact(tok: ScalarLike) -> Fraction:
    """The exact value of a scalar token ("p/q", decimal string, int, float).

    A float reads as its shortest decimal, so the number 1e-13 and the string
    "1e-13" are the same value; a non-finite float raises ValueError.  A
    boolean is not a scalar and raises TypeError.
    """
    if isinstance(tok, (bool, np.bool_)):
        raise TypeError("a boolean is not a number")
    if isinstance(tok, (float, np.floating)):
        return Fraction(repr(float(tok)))
    return Fraction(tok)


def parse_scalar(tok: ScalarLike, mode: str):
    """Parse a scalar token into the backend type; float mode keeps a float
    token as it is."""
    if mode != RATIONAL and isinstance(tok, (float, np.floating)):
        return float(tok)
    val = exact(tok)
    return val if mode == RATIONAL else float(val)


def format_scalar(x) -> str:
    """Canonical string form: "p" or "p/q" for rationals, repr for floats."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


# the exact zero every rational zero entry built by this module shares
ZERO = Fraction(0)


def zeros(shape, mode: str) -> np.ndarray:
    if mode == RATIONAL:
        out = np.empty(shape, dtype=object)
        out[...] = ZERO
        return out
    return np.zeros(shape, dtype=np.float64)


def array(nested, mode: str) -> np.ndarray:
    """Build a backend array from (possibly nested) scalar tokens."""
    a = np.asarray(nested, dtype=object)
    out = np.empty(a.shape, dtype=object)
    for idx in np.ndindex(*a.shape) if a.shape else [()]:
        out[idx] = parse_scalar(a[idx], RATIONAL)
    if mode == RATIONAL:
        return out
    return out.astype(np.float64)


def eye(dim: int, mode: str) -> np.ndarray:
    """Identity matrix in the backend type."""
    out = zeros((dim, dim), mode)
    np.fill_diagonal(out, parse_scalar(1, mode))
    return out


def _scale(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(n, d)`` with ``a == n / d``: ``n`` an object array of Python ints
    and ``d`` the least common denominator of the entries of ``a``."""
    ratios = [x.as_integer_ratio() for x in a.ravel().tolist()]
    dens = {q for _, q in ratios}
    d = math.lcm(*dens)
    n = np.empty(len(ratios), dtype=object)
    n[:] = [p for p, _ in ratios] if len(dens) == 1 else [p * (d // q) for p, q in ratios]
    return n.reshape(a.shape), d


# id(owner) -> (weak reference to owner, scaled owner, its denominator), for
# read-only owners of object arrays; an entry leaves when its owner dies.
# Threads that race on one owner at worst scale it twice.
_SCALED: dict[int, tuple] = {}


def _frozen_owner(a: np.ndarray):
    """The array that owns the memory of ``a`` when ``a`` and every array of
    its ``.base`` chain are read-only, and it is C-contiguous; else None."""
    while not a.flags.writeable:
        base = a.base
        if base is None:
            return a if a.flags.c_contiguous else None
        if not isinstance(base, np.ndarray):
            return None
        a = base
    return None


def _memo(a: np.ndarray):
    """``(owner, entry)``: the read-only memory owner of ``a`` (None when it
    has none) and the owner's ``_SCALED`` entry (None when it is unscaled)."""
    owner = _frozen_owner(a) if a.size else None
    if owner is None:
        return None, None
    hit = _SCALED.get(id(owner))
    return owner, hit if hit is not None and hit[0]() is owner else None


def _remember(owner: np.ndarray, n: np.ndarray, d: int) -> None:
    """Keep ``(n, d)``, ``n`` flat, as the scaled form of ``owner``."""
    key = id(owner)
    _SCALED[key] = (weakref.ref(owner, lambda _, k=key: _SCALED.pop(k, None)), n, d)


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``_scale(a)``, computed once per read-only memory owner: the scaled
    form of a read-only array, or of a read-only view of one, is a view of
    its owner's scaled form, with the owner's denominator."""
    owner, hit = _memo(a)
    if owner is None:
        return _scale(a)
    if hit is None:
        n, d = _scale(owner.reshape(-1))
        _remember(owner, n, d)
    else:
        _, n, d = hit
    if a.size == owner.size and a.flags.c_contiguous:
        return n.reshape(a.shape), d
    offset = a.__array_interface__["data"][0] - owner.__array_interface__["data"][0]
    view = np.lib.stride_tricks.as_strided(
        n[offset // a.itemsize:], a.shape, a.strides, writeable=False
    )
    return view, d


def _rebuild(n, den: int):
    """The exact value of ``n / den`` for an integer array (or Python int)
    ``n``: a read-only object array of ``Fraction``, equal entries sharing
    one object, or a ``Fraction`` for a 0-d ``n``.

    ``n`` and ``den`` are first divided by g = gcd(den, n_1, ...), which
    gives ``_scale``'s form of the result: the least common multiple of the
    reduced denominators of n_i / den is den / g.  That form is kept for the
    result, so it is never scaled again."""
    n = np.asarray(n, dtype=object)
    if not n.ndim:
        return Fraction(n[()], den)
    ints = n.ravel()
    flat = ints.tolist()
    g = math.gcd(den, *flat)
    if g > 1:
        den //= g
        ints = ints // g
        flat = ints.tolist()
    built = {v: Fraction(v, den) for v in set(flat)}
    built[0] = ZERO
    out = np.empty(len(flat), dtype=object)
    out[:] = list(map(built.__getitem__, flat))
    out.setflags(write=False)
    _remember(out, ints, den)
    return out.reshape(n.shape)


def einsum(spec: str, *operands: np.ndarray):
    """``np.einsum(spec, *operands)``: the library's one contraction.

    Every rational call of two or more operands runs over integers instead
    of ``Fraction`` objects: each operand is scaled by the least common
    denominator of its entries, numpy contracts the integer arrays, and each
    entry of the result is the exact ``Fraction`` of its integer over the
    product of the scales (equal entries share one ``Fraction``).  A 0-d
    result is a ``Fraction`` scalar; an array result is read-only and
    carries its scaled form (see ``_rebuild``).  A read-only operand is
    scaled once in its lifetime (see ``_scaled``), and ``combine`` adds
    exact arrays on the same scaled integers.  Float calls and
    single-operand calls (transposes, traces) are numpy's own; numpy is
    looked up at each call, so a wrapper installed on ``np.einsum`` sees
    every contraction.
    """
    # the float test comes first: it is all a float call pays
    if (
        operands[0].dtype != object
        or len(operands) < 2
        or any(a.dtype != object for a in operands)
    ):
        return np.einsum(spec, *operands)
    scaled = [_scaled(a) for a in operands]
    den = math.prod(d for _, d in scaled)
    return _rebuild(np.einsum(spec, *(n for n, _ in scaled)), den)


def combine(coefficients, arrays):
    """sum_t c_t a_t of scalar coefficients and (broadcastable) arrays, added
    left to right.

    A coefficient is an int or a ``Fraction`` in either mode, or a float in
    float mode.  In float mode this is numpy's ``c_0 a_0 + c_1 a_1 + ...``,
    where a coefficient of 1 adds and one of -1 subtracts its array, and a
    ``Fraction`` coefficient is its nearest float.  In rational mode the
    arrays are scaled to integers (read-only ones once, see ``_scaled``),
    added over the least common multiple of the terms' denominators, and the
    ``Fraction`` entries are built once at the end; a 0-d result is a
    ``Fraction``, an array result is read-only and carries its scaled form.
    """
    if not len(arrays):
        raise ValueError("combine needs at least one array")
    # the float test comes first: it is all a float call pays
    if arrays[0].dtype != object or any(a.dtype != object for a in arrays):
        out = None
        for c, a in zip(coefficients, arrays, strict=True):
            if c == 1:
                out = a if out is None else out + a
            elif c == -1:
                out = -a if out is None else out - a
            else:
                out = float(c) * a if out is None else out + float(c) * a
        return out.copy() if out is arrays[0] else out
    scaled = [(Fraction(c), *_scaled(a)) for c, a in zip(coefficients, arrays, strict=True)]
    den = math.lcm(*(c.denominator * d for c, _, d in scaled))
    out = None
    for c, n, d in scaled:
        k = c.numerator * (den // (c.denominator * d))
        if out is None:
            out = n if k == 1 else n * k
        else:
            out = out + n if k == 1 else out - n if k == -1 else out + n * k
    return _rebuild(out, den)


def mode_of(arr: np.ndarray) -> str:
    return RATIONAL if arr.dtype == object else FLOAT


def to_float(arr: np.ndarray) -> np.ndarray:
    return arr.astype(np.float64) if arr.dtype == object else arr


def max_abs(arr: np.ndarray) -> float:
    """The largest absolute entry, as a float; a rational array's is the
    rounded exact maximum, found over its scaled integers."""
    if arr.size == 0:
        return 0.0
    if arr.dtype == object:
        # an unscaled array that is exactly zero is never scaled
        if _memo(arr)[1] is None and not np.count_nonzero(arr):
            return 0.0
        n, d = _scaled(arr)
        return max(map(abs, n.ravel().tolist())) / d
    return float(np.abs(arr).max())


def residual(a: np.ndarray, b=None) -> float:
    """Max absolute entry of a - b (or of a alone), as a float."""
    d = a if b is None else a - b
    return max_abs(np.asarray(d))


def _tolerance(eps: float, residual: float, context_scale: float) -> float:
    """Float tolerance for one compared array: eps scaled by the largest
    entry of the array itself and of its context arrays, and by at least 1."""
    return eps * max(1.0, residual, context_scale)


def zero_test(arrays, eps: float, *context: np.ndarray):
    """The library's one zero test: do all ``arrays`` vanish?

    Returns ``(passed, residual, worst_index)``.  The residual is the largest
    absolute entry over all arrays.  A rational (object) array passes only
    when it is exactly zero; a float array passes when its own largest entry
    is within the tolerance of ``_tolerance``, scaled by the ``context``
    arrays the compared quantities were built from.  ``worst_index`` is None
    on success; on failure it locates the largest entry of the worst array,
    prefixed by that array's position when more than one array is tested.
    """
    arrays = [np.asarray(a) for a in arrays]
    res = [max_abs(a) for a in arrays]
    exact = [a.dtype == object for a in arrays]
    scale = 0.0 if all(exact) else max((max_abs(c) for c in context), default=0.0)
    passed = all(
        r == 0.0 if e else r <= _tolerance(eps, r, scale) for e, r in zip(exact, res)
    )
    worst = max(res, default=0.0)
    if passed:
        return True, worst, None
    k = int(np.argmax(res))
    mag = np.abs(to_float(arrays[k]))
    where = tuple(int(i) for i in np.unravel_index(np.argmax(mag), mag.shape))
    if len(arrays) > 1:
        return False, worst, (k,) + where
    return False, worst, where or None


def is_zero(arr: np.ndarray, eps: float, *context: np.ndarray) -> bool:
    """``zero_test`` of a single array, as a boolean."""
    return zero_test([arr], eps, *context)[0]


def zero_rows(a: np.ndarray, eps: float, *context) -> list[bool]:
    """``is_zero(a[n], eps, *(c[n] for c in context))`` for every row n of
    ``a``, with each context a sequence of one entry per row: one exact pass
    over the scaled integers of a rational array, the per-row ``zero_test``
    of a float one."""
    a = np.asarray(a)
    if a.dtype != object:
        return [is_zero(row, eps, *rows) for row, *rows in zip(a, *context, strict=True)]
    if not len(a):
        return []
    n, _ = _scaled(a)
    return [not any(row) for row in n.reshape(len(a), -1).tolist()]


def freeze(obj):
    """Make every array reachable from ``obj`` read-only, with the arrays of
    its ``.base`` chain, and return ``obj``.

    Arrays are reached through tuples, lists, dict values and dataclass
    fields, so one call covers a model or a cached derived value.  A frozen
    array must not be written again (say, after ``setflags(write=True)``):
    the kernel keeps its scaled form.  A rational result of ``einsum`` or
    ``combine`` needs no call: it is born read-only and scaled.  Freeze an
    array built otherwise (by ``Fraction`` arithmetic, ``@``, a mask) that
    the kernel reads more than once, itself or through views.
    """
    if isinstance(obj, np.ndarray):
        # an array computed by numpy is often a view of a writable owner:
        # the owner is frozen too, so the kernel may keep its scaled form
        a = obj
        while isinstance(a, np.ndarray):
            a.setflags(write=False)
            a = a.base
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            freeze(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            freeze(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            freeze(getattr(obj, f.name))
    return obj
