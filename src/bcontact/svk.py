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

import numpy as np

from . import scalars
from .liegroup import Connection, covariant_derivative, d_eta
from .structure import ACBStructure
from .tensor import Metric, Tensor


def project_h(s: ACBStructure, x: np.ndarray) -> np.ndarray:
    """Horizontal part x - eta(x) xi (equivalently -phi^2 x)."""
    return x - (s.eta_v @ x) * s.xi_v


def _nabla_xi(conn: Connection, s: ACBStructure) -> np.ndarray:
    return conn.nabla_of_constant(s.xi_v)  # [k, i]


def _nabla_eta(conn: Connection, s: ACBStructure) -> np.ndarray:
    return covariant_derivative(conn, s.eta).data  # [i, j]


def svk_connection(conn: Connection, s: ACBStructure) -> Connection:
    """The Schouten-van Kampen connection of a Levi-Civita connection, via the
    closed form D_x y = nabla_x y - eta(y) nabla_x xi + (nabla_x eta)(y) xi."""
    nxi = _nabla_xi(conn, s)
    neta = _nabla_eta(conn, s)
    gamma = (
        conn.gamma.data
        - np.einsum("j,ki->kij", s.eta_v, nxi)
        + np.einsum("ij,k->kij", neta, s.xi_v)
    )
    return Connection(Tensor(1, 2, gamma))


def svk_connection_projected(conn: Connection, s: ACBStructure) -> Connection:
    """Projector route D_x y = (nabla_x y^h)^h + (nabla_x y^v)^v.

    Independent of the closed form above; the two must agree exactly.
    """
    pv = np.einsum("k,l->kl", s.xi_v, s.eta_v)
    ph = scalars.eye(s.dim, s.mode) - pv
    g = conn.gamma.data
    gamma = np.einsum("kl,lim,mj->kij", ph, g, ph) + np.einsum(
        "kl,lim,mj->kij", pv, g, pv
    )
    return Connection(Tensor(1, 2, gamma))


def svk_potential_closed(conn: Connection, s: ACBStructure) -> Tensor:
    """Q(x,y) = -eta(y) nabla_x xi + (nabla_x eta)(y) xi."""
    nxi = _nabla_xi(conn, s)
    neta = _nabla_eta(conn, s)
    q = -np.einsum("j,ki->kij", s.eta_v, nxi) + np.einsum("ij,k->kij", neta, s.xi_v)
    return Tensor(1, 2, q)


def svk_torsion_closed(conn: Connection, s: ACBStructure) -> Tensor:
    """T(x,y) = eta(x) nabla_y xi - eta(y) nabla_x xi + d eta(x,y) xi."""
    nxi = _nabla_xi(conn, s)
    de = d_eta(s.algebra, s.eta).data
    t = (
        np.einsum("i,kj->kij", s.eta_v, nxi)
        - np.einsum("j,ki->kij", s.eta_v, nxi)
        + np.einsum("ij,k->kij", de, s.xi_v)
    )
    return Tensor(1, 2, t)


# ---------------------------------------------------------------------------
# the torsion <-> potential bijection for metric connections
# ---------------------------------------------------------------------------

def torsion_from_potential(q: Tensor) -> Tensor:
    """T(x,y,z) = Q(x,y,z) - Q(y,x,z) on (0,3) tensors."""
    if (q.up, q.down) != (0, 3):
        raise ValueError("expected a (0,3) potential")
    return Tensor(0, 3, q.data - np.einsum("xyz->yxz", q.data))


def potential_from_torsion(t: Tensor, eps: float) -> Tensor:
    """2 Q(x,y,z) = T(x,y,z) - T(y,z,x) + T(z,x,y); requires T antisymmetric
    in its first two slots (to within ``eps`` in float mode)."""
    if (t.up, t.down) != (0, 3):
        raise ValueError("expected a (0,3) torsion")
    if not scalars.is_zero(t.data + np.einsum("xyz->yxz", t.data), eps, t.data):
        raise ValueError("torsion must be antisymmetric in its first two slots")
    # out[x,y,z] = T(x,y,z) - T(y,z,x) + T(z,x,y)
    q2 = t.data - np.einsum("yzx->xyz", t.data) + np.einsum("zxy->xyz", t.data)
    return Tensor(0, 3, q2 * scalars.half(t.mode))


# ---------------------------------------------------------------------------
# covariant derivative of phi and naturality
# ---------------------------------------------------------------------------

def svk_covariant_phi_closed(conn: Connection, s: ACBStructure) -> Tensor:
    """(D_x phi) y = (nabla_x phi) y + eta(y) phi nabla_x xi + (nabla_x eta)(phi y) xi,

    expressing the Schouten-van Kampen derivative of phi through the base
    connection alone.
    """
    nphi = covariant_derivative(conn, s.phi).data  # [l, x, y]
    nxi = _nabla_xi(conn, s)
    neta = _nabla_eta(conn, s)
    out = (
        nphi
        + np.einsum("j,km,mi->kij", s.eta_v, s.phi_m, nxi)
        + np.einsum("im,mj,k->kij", neta, s.phi_m, s.xi_v)
    )
    return Tensor(1, 2, out)


def is_natural(conn: Connection, s: ACBStructure, m: Metric) -> bool:
    """A connection is natural for the structure when phi, xi, eta and the
    metric are all parallel."""
    ok_phi = scalars.is_zero(covariant_derivative(conn, s.phi).data, s.eps, s.phi_m)
    ok_xi = scalars.is_zero(conn.nabla_of_constant(s.xi_v), s.eps)
    ok_eta = scalars.is_zero(covariant_derivative(conn, s.eta).data, s.eps)
    ok_m = scalars.is_zero(covariant_derivative(conn, m.tensor).data, s.eps, m.matrix)
    return ok_phi and ok_xi and ok_eta and ok_m


def phi_b_connection(conn: Connection, s: ACBStructure) -> Connection:
    """The phiB-connection

    nabla*_x y = nabla_x y + 1/2 {(nabla_x phi) phi y + (nabla_x eta)(y) xi}
               - eta(y) nabla_x xi.
    """
    nphi = covariant_derivative(conn, s.phi).data
    nxi = _nabla_xi(conn, s)
    neta = _nabla_eta(conn, s)
    h = scalars.half(s.mode)
    gamma = (
        conn.gamma.data
        + (np.einsum("kim,mj->kij", nphi, s.phi_m) + np.einsum("ij,k->kij", neta, s.xi_v)) * h
        - np.einsum("j,ki->kij", s.eta_v, nxi)
    )
    return Connection(Tensor(1, 2, gamma))


# ---------------------------------------------------------------------------
# relations between the two connections of the pair
# ---------------------------------------------------------------------------

def svk_pair_from_potential(svk: Connection, pot: Tensor, s: ACBStructure) -> Connection:
    """Second connection of the pair from the first and the potential of the
    second Levi-Civita connection:

    D~_x y = D_x y + Phi(x,y) - eta(Phi(x,y)) xi - eta(y) Phi(x,xi).
    """
    p = pot.data  # (1,2): [l, x, y]
    p_xi = np.einsum("lim,m->li", p, s.xi_v)  # Phi(x, xi)
    gamma = (
        svk.gamma.data
        + p
        - np.einsum("m,mij,k->kij", s.eta_v, p, s.xi_v)
        - np.einsum("j,ki->kij", s.eta_v, p_xi)
    )
    return Connection(Tensor(1, 2, gamma))


def svk_pair_covariant_phi(dphi: Tensor, pot: Tensor, s: ACBStructure) -> Tensor:
    """(D~_x phi) y from (D_x phi) y and the potential:

    (D~_x phi) y = (D_x phi) y + Phi(x, phi y) - phi Phi(x,y)
                 + eta(y) phi Phi(x,xi) - eta(Phi(x, phi y)) xi.
    """
    p = pot.data
    phi = s.phi_m
    p_phiy = np.einsum("lim,mj->lij", p, phi)  # Phi(x, phi y)
    p_xi = np.einsum("lim,m->li", p, s.xi_v)
    out = (
        dphi.data
        + p_phiy
        - np.einsum("km,mij->kij", phi, p)
        + np.einsum("j,km,mi->kij", s.eta_v, phi, p_xi)
        - np.einsum("m,mij,k->kij", s.eta_v, p_phiy, s.xi_v)
    )
    return Tensor(1, 2, out)
