"""Left-invariant homogeneous models.

A Lie algebra with structure constants carries every tensor field of the
model as an array of constant components; covariant derivatives then reduce
to finite algebra in the connection coefficients, which is what makes exact
verification possible at desk scale.  A connection is the array of those
coefficients, ``gamma[k, i, j]`` with nabla_{e_i} e_j = gamma^k_{ij} e_k,
with a leading batch axis for the connections of a pair of metrics.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction

import numpy as np

from . import scalars
from .tensor import Metric


class StructureError(ValueError):
    """Invalid Lie algebra data (antisymmetry or Jacobi failure)."""


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra given by structure constants [e_i, e_j] = c^k_{ij} e_k.

    Antisymmetry and the Jacobi identity are tested on construction with the
    tolerance ``eps`` of the model being loaded; the algebra does not keep it.
    ``c`` is made read-only.
    """

    c: np.ndarray  # (1,2), c[k,i,j]
    eps: InitVar[float]

    __reduce__ = scalars.reduce_model

    def __post_init__(self, eps: float):
        c = scalars.freeze(self.c)
        if not scalars.is_zero(scalars.combine([1, 1], [c, scalars.einsum("kij->kji", c)]), eps):
            raise StructureError("structure constants are not antisymmetric")
        ok, _, worst = scalars.zero_test([self._jacobiator()], eps, self.c)
        if not ok:
            raise StructureError(f"Jacobi identity fails, worst component at {worst}")

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def _jacobiator(self) -> np.ndarray:
        c = self.c
        # [[e_i,e_j],e_k] = c^m_{ij} c^l_{mk}
        t = scalars.einsum("mij,lmk->lijk", c, c)
        return scalars.combine(
            [1, 1, 1], [t, scalars.einsum("lijk->ljki", t), scalars.einsum("lijk->lkij", t)]
        )


def torsion(gamma: np.ndarray, c: np.ndarray) -> np.ndarray:
    """T(x,y) = nabla_x y - nabla_y x - [x,y], as a (1,2) tensor, ``c``
    holding the structure constants once per row of ``gamma``."""
    return scalars.combine([1, -1, -1], [gamma, scalars.einsum("Bkij->Bkji", gamma), c])


def levi_civita(algebra: LieAlgebra, m: Metric) -> np.ndarray:
    """Levi-Civita connection of each left-invariant metric of ``m`` via
    the Koszul formula

        m(nabla_x y, z) = 1/2 {m([x,y],z) - m([y,z],x) + m([z,x],y)},

    the only surviving terms for constant-component fields.  Returns the
    coefficient array ``gamma``; torsion-freeness and metric compatibility
    are checked by ``fundamental-identities``.
    """
    c, g = algebra.c, m.matrix
    half = Fraction(1, 2)
    rhs = scalars.combine(
        [half, Fraction(-1, 2), half],
        [
            scalars.einsum("lij,Blk->Bijk", c, g),
            scalars.einsum("ljk,Bli->Bijk", c, g),
            scalars.einsum("lki,Blj->Bijk", c, g),
        ],
    )
    return scalars.einsum("Bijk,Bkm->Bmij", rhs, m.inv)


def covariant_derivative(gamma: np.ndarray, t: np.ndarray, up: int, batched: bool = False) -> np.ndarray:
    """Covariant derivative of a constant-component tensor field with ``up``
    contravariant slots, stored first, and covariant slots after them, under
    each connection of ``gamma``; ``t`` has one row per connection when
    ``batched``.

    The direction slot is prepended to the covariant block, so a (r,s) input
    yields valence (r, s+1) with (nabla t)(x, y_1, ..., y_s) = (nabla_x t)(y_1, ...).
    Only connection terms survive since all components are constant.
    """
    src = "abcdefgh"[: t.ndim - batched]
    ups, downs, b = src[:up], src[up:], "B" * batched
    # result axes: up-axes of t, then direction axis, then down-axes of t
    terms = [
        scalars.einsum(f"B{src[a]}xm,{b}{src.replace(src[a], 'm')}->B{ups}x{downs}", gamma, t)
        for a in range(up)
    ] + [
        scalars.einsum(f"Bmx{src[pos]},{b}{src.replace(src[pos], 'm')}->B{ups}x{downs}", gamma, t)
        for pos in range(up, len(src))
    ]
    return scalars.combine([1] * up + [-1] * (len(src) - up), terms)


def curvature(algebra: LieAlgebra, gamma: np.ndarray) -> np.ndarray:
    """Curvature R(x,y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_{[x,y]} z
    as a (1,3) tensor with r[l, i, j, k] = component l of R(e_i, e_j) e_k."""
    g, c = gamma, algebra.c
    return scalars.combine(
        [1, -1, -1],
        [
            scalars.einsum("Bmjk,Blim->Blijk", g, g),
            scalars.einsum("Bmik,Bljm->Blijk", g, g),
            scalars.einsum("mij,Blmk->Blijk", c, g),
        ],
    )


def d_eta(algebra: LieAlgebra, eta: np.ndarray) -> np.ndarray:
    """Exterior derivative of a left-invariant 1-form: d eta (x,y) = -eta([x,y])."""
    return scalars.combine([-1], [scalars.einsum("kij,k->ij", algebra.c, eta)])


def lie_derivative_metric(algebra: LieAlgebra, xi: np.ndarray, m: Metric) -> np.ndarray:
    """(L_xi m)(x,y) = -m([xi,x],y) - m(x,[xi,y]) for left-invariant fields."""
    ad = scalars.einsum("kji,j,Bkl->Bil", algebra.c, xi, m.matrix)  # m([xi,e_i], e_l)
    return scalars.combine([-1, -1], [ad, scalars.einsum("Bil->Bli", ad)])
