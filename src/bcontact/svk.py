"""The pair of Schouten-van Kampen connections adapted to the contact
distribution.

Each metric of the pair (g, g~) has a Levi-Civita connection; projecting
either one onto the splitting ker(eta) (+) span(xi) yields a non-symmetric
metric connection that keeps both distributions parallel.  Every derived
quantity here (the connection itself, its potential and torsion, the
covariant derivative of phi, the second connection of the pair) admits two
computation routes; the check suite compares them.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import scalars
from .liegroup import covariant_derivative
from .structure import ACBStructure
from .tensor import Metric


def svk_connection(conn: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The Schouten-van Kampen connection D_x y = nabla_x y + Q(x,y) of a
    Levi-Civita connection and its potential (``svk_potential_closed``)."""
    return scalars.combine([1, 1], [conn, q])


def svk_connection_projected(conn: np.ndarray, s: ACBStructure) -> np.ndarray:
    """Projector route D_x y = (nabla_x y^h)^h + (nabla_x y^v)^v.

    The vertical term (nabla_x y^v)^v = eta(y) eta(nabla_x xi) xi is not
    formed: it vanishes, because m(xi, .) = eta and m(xi, xi) = 1 for both
    metrics m of the pair, so eta(nabla_x xi) = m(nabla_x xi, xi) = 0.
    Independent of the closed form; the two must agree exactly.
    """
    ph = scalars.eye(s.dim, s.mode) - scalars.einsum("k,l->kl", s.xi, s.eta)
    return scalars.einsum("kl,lim,mj->kij", ph, conn, ph)


def svk_potential_closed(nxi: np.ndarray, neta: np.ndarray, s: ACBStructure) -> np.ndarray:
    """Q(x,y) = -eta(y) nabla_x xi + (nabla_x eta)(y) xi, from ``nxi`` and
    ``neta`` = nabla xi and nabla eta of the base Levi-Civita connection."""
    return scalars.combine(
        [-1, 1], [scalars.einsum("j,ki->kij", s.eta, nxi), scalars.einsum("ij,k->kij", neta, s.xi)]
    )


def svk_torsion_closed(nxi: np.ndarray, s: ACBStructure) -> np.ndarray:
    """T(x,y) = eta(x) nabla_y xi - eta(y) nabla_x xi + d eta(x,y) xi, from
    ``nxi`` = nabla xi of the base Levi-Civita connection."""
    return scalars.combine(
        [1, -1, 1],
        [
            scalars.einsum("i,kj->kij", s.eta, nxi),
            scalars.einsum("j,ki->kij", s.eta, nxi),
            scalars.einsum("ij,k->kij", s.d_eta, s.xi),
        ],
    )


# ---------------------------------------------------------------------------
# the torsion <-> potential bijection for metric connections
# ---------------------------------------------------------------------------

def torsion_from_potential(q: np.ndarray) -> np.ndarray:
    """T(x,y,z) = Q(x,y,z) - Q(y,x,z) on (0,3) tensors."""
    return scalars.combine([1, -1], [q, scalars.einsum("xyz->yxz", q)])


def potential_from_torsion(t: np.ndarray, eps: float) -> np.ndarray:
    """2 Q(x,y,z) = T(x,y,z) - T(y,z,x) + T(z,x,y); requires T antisymmetric
    in its first two slots (to within ``eps`` in float mode)."""
    if not scalars.is_zero(scalars.combine([1, 1], [t, scalars.einsum("xyz->yxz", t)]), eps, t):
        raise ValueError("torsion must be antisymmetric in its first two slots")
    # out[x,y,z] = (T(x,y,z) - T(y,z,x) + T(z,x,y)) / 2
    half = Fraction(1, 2)
    return scalars.combine(
        [half, -half, half], [t, scalars.einsum("yzx->xyz", t), scalars.einsum("zxy->xyz", t)]
    )


# ---------------------------------------------------------------------------
# covariant derivative of phi and naturality
# ---------------------------------------------------------------------------

def svk_covariant_phi_closed(
    nphi: np.ndarray, nxi: np.ndarray, neta: np.ndarray, s: ACBStructure
) -> np.ndarray:
    """(D_x phi) y = (nabla_x phi) y + eta(y) phi nabla_x xi + (nabla_x eta)(phi y) xi,

    expressing the Schouten-van Kampen derivative of phi through the base
    connection alone: ``nphi`` [l, x, y], ``nxi`` and ``neta`` are its
    derivatives of phi, xi and eta.
    """
    return scalars.combine(
        [1, 1, 1],
        [
            nphi,
            scalars.einsum("j,km,mi->kij", s.eta, s.phi, nxi),
            scalars.einsum("im,mj,k->kij", neta, s.phi, s.xi),
        ],
    )


def is_natural(conn: np.ndarray, s: ACBStructure, m: Metric) -> bool:
    """A connection is natural for the structure when phi, xi, eta and the
    metric are all parallel."""
    ok_phi = scalars.is_zero(covariant_derivative(conn, s.phi, 1), s.eps, s.phi)
    ok_xi = scalars.is_zero(covariant_derivative(conn, s.xi, 1), s.eps)
    ok_eta = scalars.is_zero(covariant_derivative(conn, s.eta, 0), s.eps)
    ok_m = scalars.is_zero(covariant_derivative(conn, m.matrix, 0), s.eps, m.matrix)
    return ok_phi and ok_xi and ok_eta and ok_m


def phi_b_connection(
    conn: np.ndarray, nphi: np.ndarray, nxi: np.ndarray, neta: np.ndarray, s: ACBStructure
) -> np.ndarray:
    """The phiB-connection of a Levi-Civita connection, from its derivatives
    ``nphi``, ``nxi`` and ``neta`` of phi, xi and eta:

    nabla*_x y = nabla_x y + 1/2 {(nabla_x phi) phi y + (nabla_x eta)(y) xi}
               - eta(y) nabla_x xi.
    """
    braces = scalars.combine(
        [1, 1],
        [scalars.einsum("kim,mj->kij", nphi, s.phi), scalars.einsum("ij,k->kij", neta, s.xi)],
    )
    return scalars.combine(
        [1, Fraction(1, 2), -1], [conn, braces, scalars.einsum("j,ki->kij", s.eta, nxi)]
    )


# ---------------------------------------------------------------------------
# relations between the two connections of the pair
# ---------------------------------------------------------------------------

def svk_pair_difference(p: np.ndarray, s: ACBStructure) -> np.ndarray:
    """D~ - D from the potential Phi of the second Levi-Civita connection:

    (D~ - D)(x,y) = Phi(x,y) - eta(Phi(x,y)) xi - eta(y) Phi(x,xi);

    it vanishes iff the two connections of the pair coincide.
    """
    p_xi = scalars.einsum("lim,m->li", p, s.xi)  # Phi(x, xi)
    return scalars.combine(
        [1, -1, -1],
        [
            p,
            scalars.einsum("m,mij,k->kij", s.eta, p, s.xi),
            scalars.einsum("j,ki->kij", s.eta, p_xi),
        ],
    )


def svk_pair_from_potential(svk: np.ndarray, p: np.ndarray, s: ACBStructure) -> np.ndarray:
    """Second connection of the pair from the first and the potential of the
    second Levi-Civita connection: D~ = D + ``svk_pair_difference``."""
    return scalars.combine([1, 1], [svk, svk_pair_difference(p, s)])


def svk_pair_covariant_phi(dphi: np.ndarray, p: np.ndarray, s: ACBStructure) -> np.ndarray:
    """(D~_x phi) y from (D_x phi) y and the potential:

    (D~_x phi) y = (D_x phi) y + Phi(x, phi y) - phi Phi(x,y)
                 + eta(y) phi Phi(x,xi) - eta(Phi(x, phi y)) xi.
    """
    phi = s.phi
    p_phiy = scalars.einsum("lim,mj->lij", p, phi)  # Phi(x, phi y)
    p_xi = scalars.einsum("lim,m->li", p, s.xi)
    return scalars.combine(
        [1, 1, -1, 1, -1],
        [
            dphi,
            p_phiy,
            scalars.einsum("km,mij->kij", phi, p),
            scalars.einsum("j,km,mi->kij", s.eta, phi, p_xi),
            scalars.einsum("m,mij,k->kij", s.eta, p_phiy, s.xi),
        ],
    )
