"""Shape operators and the horizontal/vertical split of potential and torsion.

The splitting of the tangent bundle into ker(eta) and span(xi) turns the
potential Q and torsion T of a Schouten-van Kampen connection into four
components, each expressible through the shape operator S(x) = -nabla_x xi.
The wedge convention used throughout is

    (alpha ^ B)(x, y) = alpha(x) B(y) - alpha(y) B(x)

for a 1-form alpha and a vector-valued B; it is validated by the
cross-assertions in the check suite rather than assumed.  Self-adjointness of
operators is always tested through the bilinear form g(S(x), y), never via a
matrix transpose, because the metrics are indefinite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scalars
from .liegroup import covariant_derivative, d_eta, lie_derivative_metric, nabla_of_constant
from .structure import ACBStructure
from .tensor import Metric


@dataclass(frozen=True)
class ShapeData:
    """Shape operator of one metric of the pair: S as a (1,1) tensor
    (S(xi) = -nabla_xi xi included) and its bilinear form S<>(x,y) = m(S(x),y)."""

    operator: np.ndarray  # (1,1)
    diamond: np.ndarray  # (0,2)

    @property
    def trace(self):
        return np.trace(self.operator)


def shape_operator(s: ACBStructure, conn: np.ndarray, m: Metric) -> ShapeData:
    op = -nabla_of_constant(conn, s.xi)  # [k, i] = component k of S(e_i)
    diamond = scalars.einsum("ki,kj->ij", op, m.matrix)
    return ShapeData(op, diamond)


def pi1(m: Metric, x, y, z, w):
    """pi_1(x,y,z,w) = m(y,z) m(x,w) - m(x,z) m(y,w)."""
    g = m.matrix
    return scalars.einsum("ij,i,j->", g, y, z) * scalars.einsum(
        "ij,i,j->", g, x, w
    ) - scalars.einsum("ij,i,j->", g, x, z) * scalars.einsum("ij,i,j->", g, y, w)


@dataclass(frozen=True)
class HVComponents:
    """Horizontal/vertical components of a potential and torsion, all (1,2)."""

    q_h: np.ndarray
    q_v: np.ndarray
    t_h: np.ndarray
    t_v: np.ndarray


def hv_split(s: ACBStructure, q: np.ndarray, t: np.ndarray) -> HVComponents:
    """Split the output slot of Q and T into horizontal and vertical parts."""
    pv = scalars.einsum("k,l->kl", s.xi, s.eta)

    def split(x: np.ndarray):
        v = scalars.einsum("kl,lij->kij", pv, x)
        return x - v, v

    qh, qv = split(q)
    th, tv = split(t)
    return HVComponents(qh, qv, th, tv)


def wedge_form_operator(alpha: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(alpha ^ B)(x,y) = alpha(x) B(y) - alpha(y) B(x); b indexed [k, arg]."""
    return scalars.einsum("i,kj->kij", alpha, b) - scalars.einsum("j,ki->kij", alpha, b)


def reference_components(
    s: ACBStructure, conn: np.ndarray, shape: ShapeData
) -> tuple[HVComponents, HVComponents]:
    """The two sets of closed forms the split components must reproduce:

    through the connection:  Q^h = -(nabla xi) (x) eta,  Q^v = (nabla eta) (x) xi,
                             T^h = eta ^ (nabla xi),     T^v = d eta (x) xi;
    through the shape data:  Q^h = S (x) eta,            Q^v = -S<> (x) xi,
                             T^h = -eta ^ S,             T^v = -2 Alt(S<>) (x) xi.
    """
    nxi = nabla_of_constant(conn, s.xi)
    neta = covariant_derivative(conn, s.eta, 0)
    de = d_eta(s.algebra, s.eta)
    eta, xi = s.eta, s.xi

    by_conn = HVComponents(
        -scalars.einsum("ki,j->kij", nxi, eta),
        scalars.einsum("ij,k->kij", neta, xi),
        wedge_form_operator(eta, nxi),
        scalars.einsum("ij,k->kij", de, xi),
    )
    sop, sd = shape.operator, shape.diamond
    by_shape = HVComponents(
        scalars.einsum("ki,j->kij", sop, eta),
        -scalars.einsum("ij,k->kij", sd, xi),
        -wedge_form_operator(eta, sop),
        -scalars.einsum("ij,k->kij", sd - sd.T, xi),
    )
    return by_conn, by_shape


def potential_pi1_form(s: ACBStructure, shape: ShapeData, m: Metric) -> np.ndarray:
    """Q(x,y,z) = -pi_1(xi, S(x), y, z) as a (0,3) tensor."""
    # pi_1(xi, S(x), y, z) = m(S(x),y) m(xi,z) - m(xi,y) m(S(x),z)
    eta_like = scalars.einsum("ij,i->j", m.matrix, s.xi)
    sd = shape.diamond
    return -(
        scalars.einsum("xy,z->xyz", sd, eta_like) - scalars.einsum("y,xz->xyz", eta_like, sd)
    )


def torsion_pi1_form(s: ACBStructure, shape: ShapeData, m: Metric) -> np.ndarray:
    """T(x,y,z) = -pi_1(xi,S(x),y,z) + pi_1(xi,S(y),x,z)."""
    q = potential_pi1_form(s, shape, m)
    return q - scalars.einsum("xyz->yxz", q)


# ---------------------------------------------------------------------------
# equivalence chains: each is a family of predicates that provably agree
# ---------------------------------------------------------------------------

def equivalence_chains(
    s: ACBStructure,
    conn: np.ndarray,
    svk_conn: np.ndarray,
    shape: ShapeData,
    q: np.ndarray,
    t: np.ndarray,
    m: Metric,
) -> dict[str, dict[str, bool]]:
    """The three predicate chains for one metric of the pair, as chain ->
    predicate -> boolean: within each chain all predicates must evaluate to
    the same boolean on any model.  Each predicate is the vanishing of its
    list of arrays."""
    neta = covariant_derivative(conn, s.eta, 0)
    de = d_eta(s.algebra, s.eta)
    lg = lie_derivative_metric(conn, s.xi, m)
    comps = hv_split(s, q, t)
    qv = comps.q_v
    sd = shape.diamond
    sop = shape.operator
    g = m.matrix
    adj = scalars.einsum("ki,kj->ij", sop, g)  # m(S(x), y)
    adj_t = scalars.einsum("kj,ki->ij", sop, g)  # m(x, S(y))

    chains = {
        "symmetric": {
            "nabla-eta symmetric": [neta - neta.T],
            "eta closed": [de],
            "Q-vertical symmetric": [qv - scalars.einsum("kij->kji", qv)],
            "T-vertical vanishes": [comps.t_v],
            "shape self-adjoint": [adj - adj_t],
            "shape form symmetric": [sd - sd.T],
        },
        "skew": {
            "nabla-eta skew": [neta + neta.T],
            "reeb killing": [lg],
            "Q-vertical skew": [qv + scalars.einsum("kij->kji", qv)],
            "shape anti-self-adjoint": [adj + adj_t],
            "shape form skew": [sd + sd.T],
        },
        "vanishing": {
            "nabla-eta zero": [neta],
            "eta closed and reeb killing": [de, lg],
            "nabla-xi zero": [nabla_of_constant(conn, s.xi)],
            "shape zero": [sop],
            "shape form zero": [sd],
            "svk equals levi-civita": [svk_conn - conn],
        },
    }
    return {
        name: {k: scalars.zero_test(arrays, s.eps, conn)[0] for k, arrays in predicates.items()}
        for name, predicates in chains.items()
    }
