"""Scalar backends.

Two interchangeable backends: exact rationals (``fractions.Fraction``) and
binary floats.  Rational mode is the reference: all formulas in this library
are rational in their inputs (the Koszul formula only divides by 2), so every
identity can be verified with zero residual.  Float mode exists for speed and
for data that arrives as decimals; comparisons there use an absolute
tolerance scaled by the magnitude of the tensors involved.
"""
from __future__ import annotations

import os
from fractions import Fraction
from typing import Union

import numpy as np

RATIONAL = "rational"
FLOAT = "float"

ScalarLike = Union[int, float, str, Fraction]

DEFAULT_EPS = float(os.environ.get("BCONTACT_EPS", "1e-9"))


def parse_scalar(tok: ScalarLike, mode: str):
    """Parse a scalar token ("p/q", decimal string, int, float) into the backend type."""
    if isinstance(tok, Fraction):
        val = tok
    elif isinstance(tok, str):
        val = Fraction(tok)  # accepts "3", "-1/2", "0.25"
    elif isinstance(tok, (int, np.integer)):
        val = Fraction(int(tok))
    elif isinstance(tok, (float, np.floating)):
        if mode == RATIONAL:
            val = Fraction(tok).limit_denominator(10**12)
        else:
            return float(tok)
    else:
        raise TypeError(f"cannot parse scalar of type {type(tok)!r}")
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
    for i in range(dim):
        out[i, i] = one(mode)
    return out


def mode_of(arr: np.ndarray) -> str:
    return RATIONAL if arr.dtype == object else FLOAT


def one(mode: str):
    return Fraction(1) if mode == RATIONAL else 1.0


def half(mode: str):
    return Fraction(1, 2) if mode == RATIONAL else 0.5


def to_float(arr: np.ndarray) -> np.ndarray:
    return arr.astype(np.float64) if arr.dtype == object else arr


def max_abs(arr: np.ndarray) -> float:
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(to_float(arr))))


def residual(a: np.ndarray, b=None) -> float:
    """Max absolute entry of a - b (or of a alone), as a float."""
    d = a if b is None else a - b
    return max_abs(np.asarray(d))


def tolerance(eps: float, *arrays: np.ndarray) -> float:
    """Absolute comparison tolerance, scaled by the largest participating entry."""
    scale = 1.0
    for arr in arrays:
        scale = max(scale, max_abs(arr))
    return eps * scale


def is_zero(arr: np.ndarray, eps: float = DEFAULT_EPS, *context: np.ndarray) -> bool:
    """Zero test: exact in rational mode, scaled-eps in float mode."""
    arr = np.asarray(arr)
    if mode_of(arr) == RATIONAL:
        return residual(arr) == 0.0
    return residual(arr) <= tolerance(eps, arr, *context)
