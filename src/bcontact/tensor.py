"""Dense multilinear algebra over a small fixed dimension.

A tensor is the array of its components: an object array of ``Fraction`` in
rational mode, a float64 array in float mode.  Index conventions used
throughout the library (all components are taken in the fixed basis
e_0, ..., e_{dim-1}):

* a tensor of valence (r, s) stores its r contravariant axes first;
* an endomorphism A has ``A[i, j]`` = i-th component of A(e_j);
* connection coefficients: ``gamma[k, i, j]`` with nabla_{e_i} e_j =
  gamma^k_{ij} e_k, and structure constants ``c[k, i, j]`` with
  [e_i, e_j] = c^k_{ij} e_k;
* a (0,3) tensor B stores ``B[i, j, k]`` = B(e_i, e_j, e_k).

All operations are pure functions.  The arrays of a model and of the values
a ``Workspace`` caches are made read-only (``scalars.freeze``), so they are
safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scalars
from .scalars import RATIONAL


class DegenerateMetricError(ValueError):
    """Raised when a symmetric bilinear form has zero determinant."""


# ---------------------------------------------------------------------------
# exact linear algebra helpers (shared by both backends)
# ---------------------------------------------------------------------------

def _rational_inverse(m: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse over exact rationals."""
    n = m.shape[0]
    a = m.astype(object).copy()
    inv = scalars.eye(n, RATIONAL)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r, col] != 0), None)
        if pivot is None:
            raise DegenerateMetricError("matrix is singular")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        p = a[col, col]
        a[col] = a[col] / p
        inv[col] = inv[col] / p
        for r in range(n):
            if r != col and a[r, col] != 0:
                f = a[r, col]
                a[r] = a[r] - f * a[col]
                inv[r] = inv[r] - f * inv[col]
    return inv


def _rational_signature(m: np.ndarray) -> tuple[int, int]:
    """Signature of a symmetric rational matrix via congruence diagonalization."""
    n = m.shape[0]
    a = m.astype(object).copy()
    pos = neg = 0
    rows = list(range(n))
    while rows:
        # find a nonzero diagonal pivot, creating one by e_i -> e_i + e_j if needed
        piv = next((i for i in rows if a[i, i] != 0), None)
        if piv is None:
            off = next(
                ((i, j) for i in rows for j in rows if i != j and a[i, j] != 0), None
            )
            if off is None:
                raise DegenerateMetricError("matrix is singular")
            i, j = off
            a[i, :] = a[i, :] + a[j, :]
            a[:, i] = a[:, i] + a[:, j]
            piv = i
        p = a[piv, piv]
        if p > 0:
            pos += 1
        else:
            neg += 1
        rows.remove(piv)
        for r in rows:
            if a[r, piv] != 0:
                f = a[r, piv] / p
                a[r, :] = a[r, :] - f * a[piv, :]
                a[:, r] = a[:, r] - f * a[:, piv]
    return pos, neg


@dataclass(frozen=True)
class Metric:
    """Non-degenerate symmetric (0,2) tensor with its inverse (2,0) tensor and
    its signature."""

    matrix: np.ndarray
    inv: np.ndarray = field(repr=False)
    signature: tuple[int, int]

    @classmethod
    def from_matrix(cls, m: np.ndarray, eps: float) -> "Metric":
        if not scalars.is_zero(m - m.T, eps):
            raise ValueError("metric matrix must be symmetric")
        inv = metric_inverse(m, eps)
        if scalars.mode_of(m) == RATIONAL:
            sig = _rational_signature(m)
        else:
            ev = np.linalg.eigvalsh(m.astype(np.float64))
            if scalars.is_zero(np.min(np.abs(ev)), eps, m):
                raise DegenerateMetricError("metric has a numerically zero eigenvalue")
            sig = (int(np.sum(ev > 0)), int(np.sum(ev < 0)))
        return cls(m, inv, sig)

    def inner(self, x: np.ndarray, y: np.ndarray):
        """m(x, y) of two vectors or, row by row, of two stacks of vectors."""
        return scalars.einsum("ij,...i,...j->...", self.matrix, x, y)


def metric_inverse(m: np.ndarray, eps: float) -> np.ndarray:
    """Inverse of a symmetric non-degenerate (0,2) tensor, as a (2,0) tensor."""
    if scalars.mode_of(m) == RATIONAL:
        try:
            return _rational_inverse(m)
        except DegenerateMetricError:
            raise DegenerateMetricError("metric determinant is zero") from None
    det = np.linalg.det(m)
    if scalars.is_zero(det, eps, m):
        raise DegenerateMetricError(f"metric determinant {det} below tolerance")
    return np.linalg.inv(m)


def sharp(omega: np.ndarray, m: Metric) -> np.ndarray:
    """Raise a covector with the metric: g(sharp(w), y) = w(y)."""
    return scalars.einsum("ij,j->i", m.inv, omega)


def lower_out(t: np.ndarray, m: Metric) -> np.ndarray:
    """Lower the single contravariant slot of a (1,k) tensor into a trailing
    covariant slot: T(x_1,...,x_k, z) = g(T(x_1,...,x_k), z)."""
    return scalars.einsum("l...,lz->...z", t, m.matrix)
