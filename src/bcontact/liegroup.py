"""Left-invariant homogeneous models.

A Lie algebra with structure constants carries every tensor field of the
model as an array of constant components; covariant derivatives then reduce
to finite algebra in the connection coefficients, which is what makes exact
verification possible at desk scale.  A connection is the array of those
coefficients, ``gamma[k, i, j]`` with nabla_{e_i} e_j = gamma^k_{ij} e_k.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
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
    """

    c: np.ndarray  # (1,2), c[k,i,j]
    eps: InitVar[float]

    def __post_init__(self, eps: float):
        if not scalars.is_zero(self.c + np.swapaxes(self.c, 1, 2), eps):
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
        return t + scalars.einsum("lijk->ljki", t) + scalars.einsum("lijk->lkij", t)

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("bracket arguments must be vectors of the model dimension")
        return scalars.einsum("kij,i,j->k", self.c, x, y)


def nabla_of_constant(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(nabla v)[k, i] = component k of nabla_{e_i} v, for the connection
    with coefficients ``gamma``."""
    return scalars.einsum("kim,m->ki", gamma, v)


def torsion(gamma: np.ndarray, algebra: LieAlgebra) -> np.ndarray:
    """T(x,y) = nabla_x y - nabla_y x - [x,y], as a (1,2) tensor."""
    return gamma - np.swapaxes(gamma, 1, 2) - algebra.c


def levi_civita(algebra: LieAlgebra, m: Metric) -> np.ndarray:
    """Levi-Civita connection of a left-invariant metric via the Koszul formula

        2 m(nabla_x y, z) = m([x,y],z) - m([y,z],x) + m([z,x],y),

    the only surviving terms for constant-component fields.  Returns the
    coefficient array ``gamma``; torsion-freeness and metric compatibility
    are checked by ``fundamental-identities``.
    """
    c, g = algebra.c, m.matrix
    rhs = (
        scalars.einsum("lij,lk->ijk", c, g)
        - scalars.einsum("ljk,li->ijk", c, g)
        + scalars.einsum("lki,lj->ijk", c, g)
    )
    return scalars.einsum("ijk,km->mij", rhs, m.inv) / 2


def covariant_derivative(gamma: np.ndarray, t: np.ndarray, up: int) -> np.ndarray:
    """Covariant derivative of a constant-component tensor field with ``up``
    contravariant slots, stored first, and covariant slots after them.

    The direction slot is prepended to the covariant block, so a (r,s) input
    yields valence (r, s+1) with (nabla t)(x, y_1, ..., y_s) = (nabla_x t)(y_1, ...).
    Only connection terms survive since all components are constant.
    """
    out = scalars.zeros((gamma.shape[0],) * (t.ndim + 1), scalars.mode_of(gamma))
    src = "abcdefgh"[: t.ndim]
    ups, downs = src[:up], src[up:]
    # result axes: up-axes of t, then direction axis, then down-axes of t
    for a in range(up):
        repl = src.replace(src[a], "m")
        out = out + scalars.einsum(f"{src[a]}xm,{repl}->{ups}x{downs}", gamma, t)
    for pos in range(up, t.ndim):
        repl = src.replace(src[pos], "m")
        out = out - scalars.einsum(f"mx{src[pos]},{repl}->{ups}x{downs}", gamma, t)
    return out


def curvature(algebra: LieAlgebra, gamma: np.ndarray) -> np.ndarray:
    """Curvature R(x,y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_{[x,y]} z
    as a (1,3) tensor with r[l, i, j, k] = component l of R(e_i, e_j) e_k."""
    g, c = gamma, algebra.c
    return (
        scalars.einsum("mjk,lim->lijk", g, g)
        - scalars.einsum("mik,ljm->lijk", g, g)
        - scalars.einsum("mij,lmk->lijk", c, g)
    )


def d_eta(algebra: LieAlgebra, eta: np.ndarray) -> np.ndarray:
    """Exterior derivative of a left-invariant 1-form: d eta (x,y) = -eta([x,y])."""
    return -scalars.einsum("kij,k->ij", algebra.c, eta)


def lie_derivative_metric(gamma: np.ndarray, xi: np.ndarray, m: Metric) -> np.ndarray:
    """(L_xi g)(x,y) = g(nabla_x xi, y) + g(nabla_y xi, x) for torsion-free nabla."""
    nxi = nabla_of_constant(gamma, xi)  # [k, i]
    low = scalars.einsum("ki,kj->ij", nxi, m.matrix)
    return low + low.T

