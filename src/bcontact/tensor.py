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
# exact linear algebra of the rational backend
# ---------------------------------------------------------------------------

def _diagonalize(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Congruence diagonalization of a symmetric rational matrix: ``(e, d)``
    with ``e m e^T = diag(d)`` and every d[k] nonzero, so the signs of d are
    the signature and m^-1 = e^T diag(d)^-1 e.  Each row operation on m is
    also applied to ``e``, which starts as the identity."""
    n = m.shape[0]
    a = m.copy()
    e = scalars.eye(n, RATIONAL)
    rows = list(range(n))
    while rows:
        # find a nonzero diagonal pivot, creating one by e_i -> e_i + e_j if needed
        piv = next((i for i in rows if a[i, i] != 0), None)
        if piv is None:
            off = next(
                ((i, j) for i in rows for j in rows if i != j and a[i, j] != 0), None
            )
            if off is None:
                raise DegenerateMetricError("metric determinant is zero")
            i, j = off
            a[i, :] = a[i, :] + a[j, :]
            a[:, i] = a[:, i] + a[:, j]
            e[i] = e[i] + e[j]
            piv = i
        p = a[piv, piv]
        rows.remove(piv)
        for r in rows:
            if a[r, piv] != 0:
                f = a[r, piv] / p
                a[r, :] = a[r, :] - f * a[piv, :]
                a[:, r] = a[:, r] - f * a[:, piv]
                e[r] = e[r] - f * e[piv]
    return e, np.diagonal(a)


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
        if scalars.mode_of(m) == RATIONAL:
            e, d = _diagonalize(m)
            inv = scalars.einsum("ki,k,kj->ij", e, 1 / d, e)
            return cls(m, inv, (sum(x > 0 for x in d), sum(x < 0 for x in d)))
        det = np.linalg.det(m)
        if scalars.is_zero(det, eps, m):
            raise DegenerateMetricError(f"metric determinant {det} below tolerance")
        inv = np.linalg.inv(m)
        ev = np.linalg.eigvalsh(m.astype(np.float64))
        if scalars.is_zero(np.min(np.abs(ev)), eps, m):
            raise DegenerateMetricError("metric has a numerically zero eigenvalue")
        return cls(m, inv, (int(np.sum(ev > 0)), int(np.sum(ev < 0))))

    def inner(self, x: np.ndarray, y: np.ndarray):
        """m(x, y) of two vectors or, row by row, of two stacks of vectors."""
        return scalars.einsum("ij,...i,...j->...", self.matrix, x, y)


def sharp(omega: np.ndarray, m: Metric) -> np.ndarray:
    """Raise a covector with the metric: g(sharp(w), y) = w(y)."""
    return scalars.einsum("ij,j->i", m.inv, omega)


def lower_out(t: np.ndarray, m: Metric) -> np.ndarray:
    """Lower the single contravariant slot of a (1,k) tensor into a trailing
    covariant slot: T(x_1,...,x_k, z) = g(T(x_1,...,x_k), z)."""
    return scalars.einsum("l...,lz->...z", t, m.matrix)
