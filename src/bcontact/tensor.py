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
* a (0,3) tensor B stores ``B[i, j, k]`` = B(e_i, e_j, e_k);
* a field of the metrics of a pair leads with a batch axis, one row per
  metric, spelt ``B`` in a spec (see ``scalars._stages``).

All operations are pure functions.  Every array the scalar kernel returns is
read-only, and the arrays a model is built from are made so
(``scalars.freeze``), so they are safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scalars
from .scalars import RATIONAL


class DegenerateMetricError(ValueError):
    """Raised when a symmetric bilinear form has zero determinant."""


@dataclass(frozen=True)
class Metric:
    """Non-degenerate symmetric (0,2) tensor with its inverse (2,0) tensor and
    its signature."""

    matrix: np.ndarray
    inv: np.ndarray = field(repr=False)
    signature: tuple[int, int]

    @classmethod
    def from_matrix(cls, m: np.ndarray, eps: float) -> "Metric":
        """The metric of the symmetric matrix ``m``, which is made read-only."""
        scalars.freeze(m)
        if not scalars.is_zero(scalars.combine([1, -1], [m, scalars.einsum("ij->ji", m)]), eps):
            raise ValueError("metric matrix must be symmetric")
        if scalars.mode_of(m) == RATIONAL:
            diagonal = scalars.diagonalize(m)
            if diagonal is None:
                raise DegenerateMetricError("metric determinant is zero")
            e, d = diagonal
            # m^-1 = e^T diag(d)^-1 e: row k of e over d[k], contracted with e
            inv = scalars.einsum("ki,kj->ij", scalars.divide_rows(e, d), e)
            return cls(m, inv, (sum(x > 0 for x in d), sum(x < 0 for x in d)))
        # the smallest |eigenvalue| decides, not the determinant, which is tiny
        # for a well-conditioned metric in a frame of short vectors; it comes
        # before the inverse, which raises on a singular matrix
        ev = np.linalg.eigvalsh(m.astype(np.float64))
        smallest = np.min(np.abs(ev))
        if scalars.is_zero(smallest, eps, m):
            raise DegenerateMetricError(
                f"metric determinant is numerically zero: smallest |eigenvalue| {smallest}"
            )
        return cls(m, scalars.freeze(np.linalg.inv(m)), (int(np.sum(ev > 0)), int(np.sum(ev < 0))))

    @classmethod
    def stack(cls, metrics) -> "Metric":
        """The ``metrics`` on a batch axis, with the tuple of their signatures."""
        arrays = [scalars.stack([getattr(m, f) for m in metrics]) for f in ("matrix", "inv")]
        return cls(*arrays, tuple(m.signature for m in metrics))

    def inner(self, x: np.ndarray, y: np.ndarray):
        """m(x, y) of two vectors."""
        return scalars.einsum("ij,i,j->", self.matrix, x, y)


def sharp(omega: np.ndarray, m: Metric) -> np.ndarray:
    """Raise a batch of covectors with a batch of metrics: g(sharp(w), y) = w(y)."""
    return scalars.einsum("Bij,Bj->Bi", m.inv, omega)


def lower_out(t: np.ndarray, m: Metric) -> np.ndarray:
    """Lower the single contravariant slot of a batch of (1,k) tensors into a
    trailing covariant slot, each with the metric of its row:
    T(x_1,...,x_k, z) = g(T(x_1,...,x_k), z)."""
    rest = "abcdefgh"[: t.ndim - 2]
    return scalars.einsum(f"Bl{rest},Blz->B{rest}z", t, m.matrix)
