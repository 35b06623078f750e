"""Scalar backends.

Two interchangeable backends: exact rationals (``fractions.Fraction``) and
binary floats.  Rational mode is the reference: all formulas in this library
are rational in their inputs (the Koszul formula only divides by 2), so every
identity can be verified with zero residual.  Float mode exists for speed and
for data that arrives as decimals; comparisons there use an absolute
tolerance scaled by the magnitude of the tensors involved.  Every zero test
in the library goes through ``zero_test``; the tolerance ``eps`` is fixed once
per model when it is loaded and carried on the structure.
"""
from __future__ import annotations

import dataclasses
import math
import os
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
    "1e-13" are the same value; a non-finite float raises ValueError.
    """
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


def zeros(shape, mode: str) -> np.ndarray:
    if mode == RATIONAL:
        out = np.empty(shape, dtype=object)
        out[...] = Fraction(0)
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


def _summed(spec: str) -> bool:
    """Whether an einsum spec sums over at least one index."""
    inputs, arrow, output = spec.partition("->")
    letters = [c for c in inputs if c.isalpha()]
    if not arrow:  # implicit output: the indices that occur once
        return len(set(letters)) < len(letters)
    return not set(letters) <= set(output)


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(n, d)`` with ``a == n / d``: ``n`` an object array of Python ints
    and ``d`` the least common denominator of the entries of ``a``."""
    ratios = [x.as_integer_ratio() for x in a.ravel().tolist()]
    d = math.lcm(*(q for _, q in ratios))
    n = np.empty(len(ratios), dtype=object)
    n[:] = [p * (d // q) for p, q in ratios]
    return n.reshape(a.shape), d


def einsum(spec: str, *operands: np.ndarray):
    """``np.einsum(spec, *operands)``: the library's one contraction.

    A rational contraction of two or more operands that sums over an index
    runs over integers instead of ``Fraction`` objects: each operand is
    scaled by the least common denominator of its entries, numpy contracts
    the integer arrays, and each entry of the result is the exact
    ``Fraction`` of its integer over the product of the scales.  A 0-d
    result is a ``Fraction`` scalar.  Every other call, float operands
    included, is numpy's own; numpy is looked up at each call, so a wrapper
    installed on ``np.einsum`` sees every contraction.
    """
    # the float test comes first: it is all a float call pays
    if (
        operands[0].dtype != object
        or len(operands) < 2
        or any(a.dtype != object for a in operands)
        or not _summed(spec)
    ):
        return np.einsum(spec, *operands)
    scaled = [_scaled(a) for a in operands]
    den = math.prod(d for _, d in scaled)
    out = np.einsum(spec, *(n for n, _ in scaled))
    if not isinstance(out, np.ndarray):
        return Fraction(out, den)
    res = np.empty(out.size, dtype=object)
    res[:] = [Fraction(n, den) for n in out.ravel().tolist()]
    return res.reshape(out.shape)


def mode_of(arr: np.ndarray) -> str:
    return RATIONAL if arr.dtype == object else FLOAT


def to_float(arr: np.ndarray) -> np.ndarray:
    return arr.astype(np.float64) if arr.dtype == object else arr


def max_abs(arr: np.ndarray) -> float:
    # an exactly zero rational array needs no conversion to float
    if arr.size == 0 or (arr.dtype == object and not np.count_nonzero(arr)):
        return 0.0
    return float(np.max(np.abs(to_float(arr))))


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


def freeze(obj):
    """Make every array reachable from ``obj`` read-only and return ``obj``.

    Arrays are reached through tuples, lists, dict values and dataclass
    fields, so one call covers a model or a cached derived value.
    """
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
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
