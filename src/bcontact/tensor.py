"""Dense multilinear algebra over a small fixed dimension.

Index conventions used throughout the library (all components are taken in
the fixed basis e_0, ..., e_{dim-1}):

* a tensor of valence (r, s) stores its r contravariant axes first;
* an endomorphism A has ``A.data[i, j]`` = i-th component of A(e_j);
* connection coefficients: ``gamma.data[k, i, j]`` with nabla_{e_i} e_j =
  gamma^k_{ij} e_k, and structure constants ``c.data[k, i, j]`` with
  [e_i, e_j] = c^k_{ij} e_k;
* a (0,3) tensor B stores ``B.data[i, j, k]`` = B(e_i, e_j, e_k).

Everything is immutable after construction and safe to share between
threads; all operations are pure functions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import scalars
from .scalars import RATIONAL


class DegenerateMetricError(ValueError):
    """Raised when a symmetric bilinear form has zero determinant."""


@dataclass(frozen=True)
class Tensor:
    """Dense tensor with ``up`` contravariant and ``down`` covariant slots."""

    up: int
    down: int
    data: np.ndarray

    def __post_init__(self):
        expected = (self.dim,) * self.rank if self.rank else ()
        if self.data.shape != expected:
            raise ValueError(
                f"valence ({self.up},{self.down}) needs shape {expected}, got {self.data.shape}"
            )
        self.data.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.up + self.down

    @property
    def dim(self) -> int:
        return self.data.shape[0] if self.data.ndim else 0

    @property
    def mode(self) -> str:
        return scalars.mode_of(self.data)

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self.rank:
            raise IndexError(f"need {self.rank} indices, got {len(idx)}")
        for i in idx:
            if not 0 <= i < self.dim:
                raise IndexError(f"index {i} out of range for dim {self.dim}")
        return self.data[tuple(idx)]

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return Tensor(self.up, self.down, self.data + other.data)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return Tensor(self.up, self.down, self.data - other.data)

    def __neg__(self) -> "Tensor":
        return Tensor(self.up, self.down, -self.data)

    def _check_compatible(self, other: "Tensor"):
        if (self.up, self.down, self.dim) != (other.up, other.down, other.dim):
            raise ValueError("tensor valence/dimension mismatch")


def alt2(t: Tensor) -> Tensor:
    """Alternation of a (0,2) tensor: Alt(B)(x,y) = (B(x,y) - B(y,x)) / 2."""
    if (t.up, t.down) != (0, 2):
        raise ValueError("alt2 expects a (0,2) tensor")
    h = scalars.half(t.mode)
    return Tensor(0, 2, (t.data - t.data.T) * h)


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


def _rational_det(m: np.ndarray):
    n = m.shape[0]
    a = m.astype(object).copy()
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r, col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            det = -det
        det *= a[col, col]
        for r in range(col + 1, n):
            if a[r, col] != 0:
                a[r] = a[r] - (a[r, col] / a[col, col]) * a[col]
    return det


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
    """Non-degenerate symmetric (0,2) tensor with its inverse and signature."""

    tensor: Tensor
    inverse: Tensor = field(repr=False)
    signature: tuple[int, int]

    @property
    def dim(self) -> int:
        return self.tensor.dim

    @property
    def matrix(self) -> np.ndarray:
        return self.tensor.data

    @property
    def inv(self) -> np.ndarray:
        return self.inverse.data

    @property
    def mode(self) -> str:
        return self.tensor.mode

    @classmethod
    def from_matrix(cls, m: np.ndarray, eps: float) -> "Metric":
        t = Tensor(0, 2, m)
        if not scalars.is_zero(m - m.T, eps):
            raise ValueError("metric matrix must be symmetric")
        inv = metric_inverse(t, eps)
        if t.mode == RATIONAL:
            sig = _rational_signature(m)
        else:
            ev = np.linalg.eigvalsh(m.astype(np.float64))
            if scalars.is_zero(np.min(np.abs(ev)), eps, m):
                raise DegenerateMetricError("metric has a numerically zero eigenvalue")
            sig = (int(np.sum(ev > 0)), int(np.sum(ev < 0)))
        return cls(t, inv, sig)

    def inner(self, x: np.ndarray, y: np.ndarray):
        return np.einsum("ij,i,j->", self.matrix, x, y)


def metric_inverse(m: Tensor, eps: float) -> Tensor:
    """Inverse of a symmetric non-degenerate (0,2) tensor, as a (2,0) tensor."""
    if (m.up, m.down) != (0, 2):
        raise ValueError("metric_inverse expects a (0,2) tensor")
    if m.mode == RATIONAL:
        if _rational_det(m.data) == 0:
            raise DegenerateMetricError("metric determinant is zero")
        return Tensor(2, 0, _rational_inverse(m.data))
    det = np.linalg.det(m.data)
    if scalars.is_zero(det, eps, m.data):
        raise DegenerateMetricError(f"metric determinant {det} below tolerance")
    return Tensor(2, 0, np.linalg.inv(m.data))


def sharp(omega: Tensor, m: Metric) -> Tensor:
    """Raise a covector with the metric: g(sharp(w), y) = w(y)."""
    if (omega.up, omega.down) != (0, 1):
        raise ValueError("sharp expects a (0,1) tensor")
    if omega.dim != m.dim:
        raise ValueError("dimension mismatch")
    return Tensor(1, 0, np.einsum("ij,j->i", m.inv, omega.data))


def lower_out(t: Tensor, m: Metric) -> Tensor:
    """Lower the single contravariant slot of a (1,k) tensor into a trailing
    covariant slot: T(x_1,...,x_k, z) = g(T(x_1,...,x_k), z)."""
    if t.up != 1:
        raise ValueError("lower_out expects a (1,k) tensor")
    data = np.einsum("l...,lz->...z", t.data, m.matrix)
    return Tensor(0, t.down + 1, data)
