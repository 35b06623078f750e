"""Curvature of the four connections and the sectional-curvature relations.

For each metric in the pair there are two connections (Levi-Civita and its
Schouten-van Kampen projection); the (0,4) curvature of each is lowered with
the metric the connection belongs to.  The SvK curvatures are also computed
through the closed relation

    R^D(x,y,z,w) = R(x, y, phi^2 z, phi^2 w) + pi_1(S(x), S(y), z, w)

so that the direct route has an independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import scalars
from .hv import ShapeData, pi1
from .liegroup import LieAlgebra, covariant_derivative, curvature, nabla_of_constant
from .structure import ACBStructure
from .tensor import Metric, _rational_det


class DegeneratePlaneError(ValueError):
    """The 2-plane is degenerate for the metric in use."""


def curvature_04(algebra: LieAlgebra, conn: np.ndarray, m: Metric) -> np.ndarray:
    """(0,4) curvature R(x,y,z,w) = m(R(x,y)z, w)."""
    r13 = curvature(algebra, conn)
    return scalars.einsum("lijk,lw->ijkw", r13, m.matrix)


def ricci(r04: np.ndarray, m: Metric) -> np.ndarray:
    """rho(y,z) = m^{ij} R(e_i, y, z, e_j)."""
    return scalars.einsum("ij,iabj->ab", m.inv, r04)


def scalar_curvature(rho: np.ndarray, m: Metric):
    return scalars.einsum("ij,ij->", m.inv, rho)


def svk_curvature_formula(
    s: ACBStructure, r04_base: np.ndarray, shape: ShapeData, m: Metric
) -> np.ndarray:
    """Right-hand side of the curvature relation tying the SvK connection to
    its base Levi-Civita connection."""
    phi2 = s.phi2
    first = scalars.einsum("ijab,ak,bl->ijkl", r04_base, phi2, phi2)
    sd = shape.diamond  # m(S(x), y)
    second = scalars.einsum("jk,il->ijkl", sd, sd) - scalars.einsum("ik,jl->ijkl", sd, sd)
    return first + second


def svk_ricci_formula(
    s: ACBStructure, r04_base: np.ndarray, rho_base: np.ndarray, shape: ShapeData, m: Metric
) -> np.ndarray:
    """rho^D(y,z) = rho(y,z) - eta(z) rho(y,xi) - R(xi,y,z,xi)
    - m(S(S(y)), z) + tr(S) m(S(y), z)."""
    xi, eta = s.xi, s.eta
    rho_y_xi = scalars.einsum("ym,m->y", rho_base, xi)
    r_xi = scalars.einsum("iyzj,i,j->yz", r04_base, xi, xi)
    sop, sd = shape.operator, shape.diamond
    ss = scalars.einsum("km,mi->ki", sop, sop)
    ss_low = scalars.einsum("ky,kz->yz", ss, m.matrix)
    return (
        rho_base
        - scalars.einsum("z,y->yz", eta, rho_y_xi)
        - r_xi
        - ss_low
        + sd * shape.trace
    )


def svk_scalar_formula(tau_base, rho_xi_xi, shape: ShapeData):
    """tau^D = tau - 2 rho(xi,xi) - tr(S^2) + (tr S)^2."""
    s2 = np.trace(shape.operator @ shape.operator)
    return tau_base - 2 * rho_xi_xi - s2 + shape.trace**2


def ricci_xi_formula(s: ACBStructure, conn: np.ndarray, shape: ShapeData, m: Metric):
    """rho(xi,xi) = tr(nabla_xi S) - div(S(xi)) - tr(S^2)."""
    xi = s.xi
    nS = covariant_derivative(conn, shape.operator, 1)  # [k, x, i]
    tr_nabla_xi_s = scalars.einsum("kxk,x->", nS, xi)
    s_xi = scalars.einsum("ki,i->k", shape.operator, xi)
    div_s_xi = scalars.einsum("ij,ki,kj->", m.inv, nabla_of_constant(conn, s_xi), m.matrix)
    s2 = np.trace(shape.operator @ shape.operator)
    return tr_nabla_xi_s - div_s_xi - s2


def curvature_reeb_identity(s: ACBStructure, conn: np.ndarray, shape: ShapeData) -> np.ndarray:
    """Residual of R(x,y) xi = -(nabla_x S) y + (nabla_y S) x over the basis."""
    r13 = curvature(s.algebra, conn)
    lhs = scalars.einsum("lijk,k->lij", r13, s.xi)
    nS = covariant_derivative(conn, shape.operator, 1)  # [l, x, y]
    rhs = -nS + scalars.einsum("lxy->lyx", nS)
    return lhs - rhs


def pair_symmetries(r: np.ndarray) -> dict[str, np.ndarray]:
    """The three pair symmetries every Levi-Civita (0,4) curvature has, each
    as the array that vanishes when ``r`` has it."""
    return {
        "first-pair-antisymmetric": r + scalars.einsum("ijkl->jikl", r),
        "last-pair-antisymmetric": r + scalars.einsum("ijkl->ijlk", r),
        "pair-exchange-symmetric": r - scalars.einsum("ijkl->klij", r),
    }


@dataclass(frozen=True)
class CurvatureData:
    """Curvature package of one metric: its Levi-Civita curvature and the
    curvature of the associated Schouten-van Kampen connection."""

    r04: np.ndarray
    rho: np.ndarray
    tau: object
    r04_svk: np.ndarray
    rho_svk: np.ndarray
    tau_svk: object


def curvature_data(
    s: ACBStructure, conn: np.ndarray, svk_conn: np.ndarray, m: Metric
) -> CurvatureData:
    r04 = curvature_04(s.algebra, conn, m)
    rho = ricci(r04, m)
    tau = scalar_curvature(rho, m)
    r04_d = curvature_04(s.algebra, svk_conn, m)
    rho_d = ricci(r04_d, m)
    tau_d = scalar_curvature(rho_d, m)
    return CurvatureData(r04, rho, tau, r04_d, rho_d, tau_d)


# ---------------------------------------------------------------------------
# 2-plane sections
# ---------------------------------------------------------------------------

XI_SECTION = "xi-section"
HOLOMORPHIC = "phi-holomorphic"
TOTALLY_REAL = "phi-totally-real"
GENERIC = "generic"


@dataclass(frozen=True)
class SectionPlane:
    x: np.ndarray
    y: np.ndarray

    def denominator(self, m: Metric):
        return pi1(m, self.x, self.y, self.y, self.x)

    def check_nondegenerate(self, m: Metric, eps: float):
        d = self.denominator(m)
        if scalars.is_zero(d, eps, m.matrix):
            raise DegeneratePlaneError("plane is degenerate for this metric")
        return d


def _in_span(vectors: list[np.ndarray], w: np.ndarray, eps: float) -> bool:
    """Exact (or eps-scaled) rank test: w in span(vectors) iff stacking does
    not raise the rank, decided via vanishing of all maximal minors."""
    a = np.stack(vectors + [w])
    k, dim = a.shape
    subs = [a[:, cols] for cols in combinations(range(dim), k)]
    if a.dtype == object:
        # exact minors are costly: stop at the first one that is nonzero
        return all(scalars.is_zero(_rational_det(sub), eps) for sub in subs)
    return scalars.is_zero(np.linalg.det(np.stack(subs).astype(np.float64)), eps, a)


def section_type(plane: SectionPlane, s: ACBStructure, m: Metric) -> tuple[str, bool]:
    """Classify the plane; returns (kind, orthogonal_to_xi).

    xi-section: xi lies in the plane.  phi-holomorphic: the plane is
    phi-invariant.  phi-totally-real: the plane is m-orthogonal to its
    phi-image (meaningful only from dimension 5 up).  The second value
    reports m-orthogonality of the plane to xi, which selects the right
    sectional-curvature specialization for totally-real planes.
    """
    eps = s.eps
    plane.check_nondegenerate(m, eps)
    x, y = plane.x, plane.y
    phi = s.phi
    span = [x, y]
    ortho_to_xi = scalars.is_zero(s.eta @ x, eps, x) and scalars.is_zero(
        s.eta @ y, eps, y
    )
    if _in_span(span, s.xi, eps):
        return XI_SECTION, ortho_to_xi
    if _in_span(span, phi @ x, eps) and _in_span(span, phi @ y, eps):
        return HOLOMORPHIC, ortho_to_xi
    pairs = [(x, x), (x, y), (y, y)]
    if all(
        scalars.is_zero(scalars.einsum("ij,i,j->", m.matrix, u, phi @ v), eps, m.matrix)
        for u, v in pairs
    ):
        if s.dim < 5:
            raise DegeneratePlaneError(
                "totally-real planes require dimension at least 5"
            )
        return TOTALLY_REAL, ortho_to_xi
    return GENERIC, ortho_to_xi


def sectional(r04: np.ndarray, m: Metric, plane: SectionPlane, eps: float):
    """k(plane) = R(x,y,y,x) / pi_1(x,y,y,x)."""
    den = plane.check_nondegenerate(m, eps)
    num = scalars.einsum("ijkl,i,j,k,l->", r04, plane.x, plane.y, plane.y, plane.x)
    return num / den


def svk_sectional_formula(
    plane: SectionPlane,
    r04_base: np.ndarray,
    shape: ShapeData,
    s: ACBStructure,
    m: Metric,
):
    """k^D through the base curvature:

    k^D = k + [pi_1(S x, S y, y, x) - eta(x) R(x,y,y,xi) - eta(y) R(x,y,xi,x)]
              / pi_1(x,y,y,x).
    """
    den = plane.check_nondegenerate(m, s.eps)
    x, y = plane.x, plane.y
    sx = shape.operator @ x
    sy = shape.operator @ y
    corr = (
        pi1(m, sx, sy, y, x)
        - (s.eta @ x) * scalars.einsum("ijkl,i,j,k,l->", r04_base, x, y, y, s.xi)
        - (s.eta @ y) * scalars.einsum("ijkl,i,j,k,l->", r04_base, x, y, s.xi, x)
    )
    return sectional(r04_base, m, plane, s.eps) + corr / den
