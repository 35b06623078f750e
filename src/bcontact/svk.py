"""The pair of Schouten-van Kampen connections adapted to the contact
distribution.

Each metric of the pair (g, g~) has a Levi-Civita connection; projecting
either one onto the splitting ker(eta) (+) span(xi) yields a non-symmetric
metric connection that keeps both distributions parallel.  Every derived
quantity here (the connection itself, its potential and torsion, the
covariant derivative of phi, the second connection of the pair) admits two
computation routes; the check suite compares them.  The functions that
relate the two connections of the pair take the tensors of g alone.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import scalars
from .hv import HVComponents, QComponents
from .structure import ACBStructure


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
    return scalars.einsum("kl,Blim,mj->Bkij", s.horizontal, conn, s.horizontal)


def svk_potential_closed(parts: QComponents) -> np.ndarray:
    """Q(x,y) = -eta(y) nabla_x xi + (nabla_x eta)(y) xi = Q^h + Q^v, from
    the components ``hv.potential_components`` of the base connection."""
    return scalars.combine([1, 1], [parts.q_h, parts.q_v])


def svk_torsion_closed(parts: HVComponents) -> np.ndarray:
    """T(x,y) = eta(x) nabla_y xi - eta(y) nabla_x xi + d eta(x,y) xi
    = T^h + T^v, from the components ``hv.connection_components``."""
    return scalars.combine([1, 1], [parts.t_h, parts.t_v])


# ---------------------------------------------------------------------------
# the torsion <-> potential bijection for metric connections
# ---------------------------------------------------------------------------

def torsion_from_potential(q: np.ndarray) -> np.ndarray:
    """T(x,y,z) = Q(x,y,z) - Q(y,x,z) on (0,3) tensors."""
    return scalars.combine([1, -1], [q, scalars.einsum("Bxyz->Byxz", q)])


def potential_from_torsion(t: np.ndarray, eps: float) -> np.ndarray:
    """2 Q(x,y,z) = T(x,y,z) - T(y,z,x) + T(z,x,y); requires T antisymmetric
    in its first two slots (to within ``eps`` in float mode)."""
    skew = scalars.zero_rows([scalars.combine([1, 1], [t, scalars.einsum("Bxyz->Byxz", t)])], eps, t, locate=False)
    if not all(passed for passed, _, _ in skew):
        raise ValueError("torsion must be antisymmetric in its first two slots")
    # out[x,y,z] = (T(x,y,z) - T(y,z,x) + T(z,x,y)) / 2
    half = Fraction(1, 2)
    return scalars.combine(
        [half, Fraction(-1, 2), half],
        [t, scalars.einsum("Byzx->Bxyz", t), scalars.einsum("Bzxy->Bxyz", t)],
    )


# ---------------------------------------------------------------------------
# covariant derivative of phi and the phiB-connection
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
            scalars.einsum("j,km,Bmi->Bkij", s.eta, s.phi, nxi),
            scalars.einsum("Bim,mj,k->Bkij", neta, s.phi, s.xi),
        ],
    )


def phi_b_connection(
    conn: np.ndarray, nphi: np.ndarray, parts: QComponents, s: ACBStructure
) -> np.ndarray:
    """The phiB-connection of a Levi-Civita connection, from its derivative
    ``nphi`` of phi and its components ``hv.potential_components``:

    nabla*_x y = nabla_x y + 1/2 {(nabla_x phi) phi y + (nabla_x eta)(y) xi}
               - eta(y) nabla_x xi
               = nabla_x y + 1/2 {(nabla_x phi) phi y + Q^v(x,y)} + Q^h(x,y).
    """
    braces = scalars.combine([1, 1], [scalars.einsum("kim,mj->kij", nphi, s.phi), parts.q_v])
    return scalars.combine([1, Fraction(1, 2), 1], [conn, braces, parts.q_h])


# ---------------------------------------------------------------------------
# relations between the two connections of the pair
# ---------------------------------------------------------------------------

def svk_pair_difference(p: np.ndarray, p_xi: np.ndarray, s: ACBStructure) -> np.ndarray:
    """D~ - D from the potential Phi of the second Levi-Civita connection
    and ``p_xi`` = Phi(., xi):

    (D~ - D)(x,y) = Phi(x,y) - eta(Phi(x,y)) xi - eta(y) Phi(x,xi);

    it vanishes iff the two connections of the pair coincide.
    """
    return scalars.combine(
        [1, -1, -1],
        [
            p,
            scalars.einsum("m,mij,k->kij", s.eta, p, s.xi),
            scalars.einsum("j,ki->kij", s.eta, p_xi),
        ],
    )


def svk_pair_from_potential(
    svk: np.ndarray, p: np.ndarray, p_xi: np.ndarray, s: ACBStructure
) -> np.ndarray:
    """Second connection of the pair from the first and the potential of the
    second Levi-Civita connection: D~ = D + ``svk_pair_difference``."""
    return scalars.combine([1, 1], [svk, svk_pair_difference(p, p_xi, s)])


def svk_pair_covariant_phi(
    dphi: np.ndarray, p: np.ndarray, p_xi: np.ndarray, s: ACBStructure
) -> np.ndarray:
    """(D~_x phi) y from (D_x phi) y, the potential and ``p_xi`` = Phi(., xi):

    (D~_x phi) y = (D_x phi) y + Phi(x, phi y) - phi Phi(x,y)
                 + eta(y) phi Phi(x,xi) - eta(Phi(x, phi y)) xi.
    """
    phi = s.phi
    p_phiy = scalars.einsum("lim,mj->lij", p, phi)  # Phi(x, phi y)
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
