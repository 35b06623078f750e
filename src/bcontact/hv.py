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
from functools import cached_property

import numpy as np

from . import scalars
from .liegroup import lie_derivative_metric
from .structure import ACBStructure
from .tensor import Metric, lower_out


@dataclass(frozen=True)
class ShapeData:
    """Shape operators of the metrics of the pair: S as a (1,1) tensor
    (S(xi) = -nabla_xi xi included), its bilinear form S<>(x,y) = m(S(x),y)
    and S(xi).  S o S, tr S and tr(S^2) are computed on first use."""

    operator: np.ndarray  # (1,1)
    diamond: np.ndarray  # (0,2)
    reeb: np.ndarray  # (1,0)

    @cached_property
    def square(self) -> np.ndarray:
        """S o S, a (1,1) tensor."""
        return scalars.einsum("Bkm,Bmi->Bki", self.operator, self.operator)

    @cached_property
    def trace(self):
        return scalars.einsum("Bkk->B", self.operator)

    @cached_property
    def square_trace(self):
        """tr(S^2)."""
        return scalars.einsum("Bkk->B", self.square)


def shape_operator(nxi: np.ndarray, m: Metric, xi: np.ndarray) -> ShapeData:
    """The shape data of S = -nabla xi, from ``nxi`` = nabla xi of the
    Levi-Civita connection of each metric of ``m``."""
    op = scalars.combine([-1], [nxi])  # [k, i] = component k of S(e_i)
    return ShapeData(op, lower_out(op, m), scalars.einsum("Bki,i->Bk", op, xi))


@dataclass(frozen=True)
class QComponents:
    """Horizontal/vertical components of a potential, both (1,2)."""

    q_h: np.ndarray
    q_v: np.ndarray


@dataclass(frozen=True)
class HVComponents(QComponents):
    """Horizontal/vertical components of a potential and torsion, all (1,2)."""

    t_h: np.ndarray
    t_v: np.ndarray


def hv_split(s: ACBStructure, q: np.ndarray, t: np.ndarray) -> HVComponents:
    """Split the output slot of Q and T into horizontal and vertical parts."""

    def split(x: np.ndarray):
        v = scalars.einsum("kl,Blij->Bkij", s.vertical, x)
        return scalars.combine([1, -1], [x, v]), v

    qh, qv = split(q)
    th, tv = split(t)
    return HVComponents(qh, qv, th, tv)


def wedge_form_operator(alpha: np.ndarray, b: np.ndarray, sign: int = 1) -> np.ndarray:
    """sign (alpha ^ B)(x,y) = sign (alpha(x) B(y) - alpha(y) B(x)), ``sign``
    being 1 or -1; b indexed [B, k, arg]."""
    return scalars.combine(
        [sign, -sign],
        [scalars.einsum("i,Bkj->Bkij", alpha, b), scalars.einsum("j,Bki->Bkij", alpha, b)],
    )


def potential_components(s: ACBStructure, nxi: np.ndarray, neta: np.ndarray) -> QComponents:
    """Q^h = -(nabla xi) (x) eta and Q^v = (nabla eta) (x) xi, from ``nxi`` and
    ``neta`` = nabla xi and nabla eta of the Levi-Civita connection; Q is their sum."""
    return QComponents(
        scalars.combine([-1], [scalars.einsum("Bki,j->Bkij", nxi, s.eta)]),
        scalars.einsum("Bij,k->Bkij", neta, s.xi),
    )


def connection_components(s: ACBStructure, nxi: np.ndarray, q: QComponents, d_eta_xi) -> HVComponents:
    """The components ``q`` of ``potential_components`` with T^h = eta ^ (nabla xi)
    and T^v = ``d_eta_xi``, d eta (x) xi once per row, ``nxi`` being nabla xi
    of the Levi-Civita connection; the closed form of T is the sum of the
    last two."""
    return HVComponents(q.q_h, q.q_v, wedge_form_operator(s.eta, nxi), d_eta_xi)


def shape_components(s: ACBStructure, shape: ShapeData) -> HVComponents:
    """Q^h = S (x) eta, Q^v = -S<> (x) xi, T^h = -eta ^ S, T^v = -2 Alt(S<>) (x) xi."""
    eta, xi = s.eta, s.xi
    sop, sd = shape.operator, shape.diamond
    alt = scalars.combine([1, -1], [scalars.einsum("Bij->Bji", sd), sd])
    return HVComponents(
        scalars.einsum("Bki,j->Bkij", sop, eta),
        scalars.combine([-1], [scalars.einsum("Bij,k->Bkij", sd, xi)]),
        wedge_form_operator(eta, sop, -1),
        scalars.einsum("Bij,k->Bkij", alt, xi),
    )


def potential_pi1_form(s: ACBStructure, shape: ShapeData, m: Metric) -> np.ndarray:
    """Q(x,y,z) = -pi_1(xi, S(x), y, z) as a (0,3) tensor."""
    # pi_1(xi, S(x), y, z) = m(S(x),y) m(xi,z) - m(xi,y) m(S(x),z)
    eta_like = scalars.einsum("Bij,i->Bj", m.matrix, s.xi)
    sd = shape.diamond
    return scalars.combine(
        [-1, 1],
        [scalars.einsum("Bxy,Bz->Bxyz", sd, eta_like), scalars.einsum("By,Bxz->Bxyz", eta_like, sd)],
    )


# ---------------------------------------------------------------------------
# equivalence chains: each is a family of predicates that provably agree
# ---------------------------------------------------------------------------

def equivalence_chains(
    s: ACBStructure, conn: np.ndarray, nxi: np.ndarray, neta: np.ndarray,
    svk_conn: np.ndarray, shape: ShapeData, comps: HVComponents, m: Metric,
) -> list[dict[str, dict[str, bool]]]:
    """The three predicate chains of each metric of the pair, as chain ->
    predicate -> boolean, one dict per metric: within each chain all
    predicates must evaluate to the same boolean on any model.  Each
    predicate is the vanishing of its list of arrays; ``nxi`` and ``neta``
    are nabla xi and nabla eta of the Levi-Civita connection ``conn`` of
    ``m``, and ``comps`` is the ``hv_split`` of the potential and torsion of
    its SvK connection."""
    de = scalars.stack([s.d_eta] * len(conn))
    lg = lie_derivative_metric(s.algebra, s.xi, m)
    qv = comps.q_v
    sd = shape.diamond
    qv_t = scalars.einsum("Bkij->Bkji", qv)
    neta_t, sd_t = scalars.einsum("Bij->Bji", neta), scalars.einsum("Bij->Bji", sd)

    chains = {
        "symmetric": {
            "nabla-eta symmetric": [scalars.combine([1, -1], [neta, neta_t])],
            "eta closed": [de],
            "Q-vertical symmetric": [scalars.combine([1, -1], [qv, qv_t])],
            "T-vertical vanishes": [comps.t_v],
            "shape form symmetric": [scalars.combine([1, -1], [sd, sd_t])],
        },
        "skew": {
            "nabla-eta skew": [scalars.combine([1, 1], [neta, neta_t])],
            "reeb killing": [lg],
            "Q-vertical skew": [scalars.combine([1, 1], [qv, qv_t])],
            "shape form skew": [scalars.combine([1, 1], [sd, sd_t])],
        },
        "vanishing": {
            "nabla-eta zero": [neta],
            "eta closed and reeb killing": [de, lg],
            "nabla-xi zero": [nxi],
            "shape form zero": [sd],
            "svk equals levi-civita": [scalars.combine([1, -1], [svk_conn, conn])],
        },
    }
    rows = {k: scalars.zero_rows(a, s.eps, conn, locate=False) for c in chains.values() for k, a in c.items()}
    return [{name: {k: rows[k][r][0] for k in c} for name, c in chains.items()} for r in range(len(conn))]
