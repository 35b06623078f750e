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

import numpy as np

from . import scalars
from .hv import ShapeData, pi1
from .liegroup import covariant_derivative, curvature
from .structure import ACBStructure
from .tensor import Metric, lower_out


class DegeneratePlaneError(ValueError):
    """The 2-plane is degenerate for the metric in use."""


def ricci(r04: np.ndarray, m: Metric) -> np.ndarray:
    """rho(y,z) = m^{ij} R(e_i, y, z, e_j)."""
    return scalars.einsum("ij,iabj->ab", m.inv, r04)


def scalar_curvature(rho: np.ndarray, m: Metric):
    return scalars.einsum("ij,ij->", m.inv, rho)


def svk_curvature_formula(s: ACBStructure, r04_base: np.ndarray, shape: ShapeData) -> np.ndarray:
    """Right-hand side of the curvature relation tying the SvK connection to
    its base Levi-Civita connection."""
    phi2 = s.phi2
    first = scalars.einsum("ijab,ak,bl->ijkl", r04_base, phi2, phi2)
    sd = shape.diamond  # m(S(x), y)
    # first + (second term - third term), added in that order in float mode
    return scalars.combine(
        [1, -1, 1],
        [scalars.einsum("jk,il->ijkl", sd, sd), scalars.einsum("ik,jl->ijkl", sd, sd), first],
    )


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
    return (
        rho_base
        - scalars.einsum("z,y->yz", eta, rho_y_xi)
        - r_xi
        - lower_out(ss, m)
        + sd * shape.trace
    )


def svk_scalar_formula(tau_base, rho_xi_xi, shape: ShapeData):
    """tau^D = tau - 2 rho(xi,xi) - tr(S^2) + (tr S)^2."""
    s2 = np.trace(shape.operator @ shape.operator)
    return tau_base - 2 * rho_xi_xi - s2 + shape.trace**2


def ricci_xi_formula(
    s: ACBStructure, conn: np.ndarray, n_s: np.ndarray, shape: ShapeData, m: Metric
):
    """rho(xi,xi) = tr(nabla_xi S) - div(S(xi)) - tr(S^2), with ``n_s`` the
    covariant derivative nabla S indexed [k, x, i]."""
    xi = s.xi
    tr_nabla_xi_s = scalars.einsum("kxk,x->", n_s, xi)
    s_xi = scalars.einsum("ki,i->k", shape.operator, xi)
    div_s_xi = scalars.einsum(
        "ij,ki,kj->", m.inv, covariant_derivative(conn, s_xi, 1), m.matrix
    )
    s2 = np.trace(shape.operator @ shape.operator)
    return tr_nabla_xi_s - div_s_xi - s2


def curvature_reeb_identity(s: ACBStructure, r13: np.ndarray, n_s: np.ndarray) -> np.ndarray:
    """Residual of R(x,y) xi = -(nabla_x S) y + (nabla_y S) x over the basis,
    from the (1,3) curvature and nabla S indexed [l, x, y]."""
    lhs = scalars.einsum("lijk,k->lij", r13, s.xi)
    rhs = scalars.combine([-1, 1], [n_s, scalars.einsum("lxy->lyx", n_s)])
    return scalars.combine([1, -1], [lhs, rhs])


def pair_symmetries(r: np.ndarray) -> dict[str, np.ndarray]:
    """The three pair symmetries every Levi-Civita (0,4) curvature has, each
    as the array that vanishes when ``r`` has it."""
    return {
        "first-pair-antisymmetric": scalars.combine([1, 1], [r, scalars.einsum("ijkl->jikl", r)]),
        "last-pair-antisymmetric": scalars.combine([1, 1], [r, scalars.einsum("ijkl->ijlk", r)]),
        "pair-exchange-symmetric": scalars.combine([1, -1], [r, scalars.einsum("ijkl->klij", r)]),
    }


@dataclass(frozen=True)
class CurvatureData:
    """Curvature package of one metric: its Levi-Civita curvature, as (1,3)
    and (0,4) tensors, and the curvature of the associated Schouten-van
    Kampen connection."""

    r13: np.ndarray
    r04: np.ndarray
    rho: np.ndarray
    tau: object
    r04_svk: np.ndarray
    rho_svk: np.ndarray
    tau_svk: object


def curvature_data(
    s: ACBStructure, conn: np.ndarray, svk_conn: np.ndarray, m: Metric
) -> CurvatureData:
    r13 = curvature(s.algebra, conn)
    r04 = lower_out(r13, m)
    rho = ricci(r04, m)
    tau = scalar_curvature(rho, m)
    r04_d = lower_out(curvature(s.algebra, svk_conn), m)
    rho_d = ricci(r04_d, m)
    tau_d = scalar_curvature(rho_d, m)
    return CurvatureData(r13, r04, rho, tau, r04_d, rho_d, tau_d)


# ---------------------------------------------------------------------------
# 2-plane sections
# ---------------------------------------------------------------------------
# Sectional values are computed over a ``PlaneStack``: the planes of one
# metric, plane n spanned by x[n] and y[n].  Each curvature tensor then enters
# one contraction per stack instead of one per plane.

XI_SECTION = "xi-section"
HOLOMORPHIC = "phi-holomorphic"
TOTALLY_REAL = "phi-totally-real"
GENERIC = "generic"


@dataclass(frozen=True)
class PlaneStack:
    """Non-degenerate 2-planes of one metric: plane n is spanned by x[n] and
    y[n] (x, y of shape planes x dim), and den[n] = pi_1(x,y,y,x) is the
    denominator of its sectional curvature.  The stacks that a mask,
    ``concat``, ``nondegenerate`` and ``of`` return hold read-only copies."""

    metric: Metric
    x: np.ndarray
    y: np.ndarray
    den: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, keep) -> "PlaneStack":
        """The planes where the boolean mask ``keep`` is true, in order."""
        keep = np.asarray(keep, dtype=bool)
        arrays = (self.x[keep], self.y[keep], self.den[keep])
        return PlaneStack(self.metric, *scalars.freeze(arrays))

    @classmethod
    def concat(cls, stacks: list["PlaneStack"]) -> "PlaneStack":
        """The planes of ``stacks`` (of one metric), one stack after the other."""
        arrays = tuple(np.concatenate([getattr(p, f) for p in stacks]) for f in ("x", "y", "den"))
        return cls(stacks[0].metric, *scalars.freeze(arrays))

    @classmethod
    def nondegenerate(cls, m: Metric, x: np.ndarray, y: np.ndarray, eps: float):
        """The planes x[n], y[n] that are non-degenerate for ``m``, in order."""
        # read-only copies: the kernel scales x and y once for the four inner
        # products of pi_1, and once for every later use of the stack
        x, y = scalars.freeze((np.array(x), np.array(y)))
        planes = cls(m, x, y, scalars.freeze(pi1(m, x, y, y, x)))
        metric = np.broadcast_to(m.matrix, (len(x), *m.matrix.shape))
        keep = [not d for d in scalars.zero_rows(planes.den, eps, metric)]
        return planes if all(keep) else planes[keep]

    @classmethod
    def of(cls, m: Metric, x: np.ndarray, y: np.ndarray, eps: float):
        """The planes x[n], y[n]; raises DegeneratePlaneError when one of them
        is degenerate for ``m``."""
        planes = cls.nondegenerate(m, x, y, eps)
        if len(planes) < len(x):
            raise DegeneratePlaneError("plane is degenerate for this metric")
        return planes


def _in_planes(planes: PlaneStack, w: np.ndarray, eps: float) -> list[bool]:
    """Whether w[n] lies in plane n, for every plane of the stack.

    With m the stack's metric, w lies in the plane iff its m-orthogonal
    projection onto the plane, multiplied through by den = pi_1(x,y,y,x),
    gives den w back:

        den w - (m(y,y) m(x,w) - m(x,y) m(y,w)) x - (m(x,x) m(y,w) - m(x,y) m(x,w)) y = 0.

    Exact in rational mode; a float test is scaled by the three terms."""
    x, y, m = planes.x, planes.y, planes.metric
    xx, xy, yy, xw, yw = m.inner(x, x), m.inner(x, y), m.inner(y, y), m.inner(x, w), m.inner(y, w)
    terms = (
        planes.den[:, None] * w,
        (yy * xw - xy * yw)[:, None] * x,
        (xx * yw - xy * xw)[:, None] * y,
    )
    return scalars.zero_rows(scalars.combine([1, -1, -1], terms), eps, *terms)


def section_type(planes: PlaneStack, s: ACBStructure) -> list[tuple[str, bool]]:
    """Classify every plane of the stack, with the stack's metric m; returns
    one (kind, orthogonal_to_xi) per plane.

    xi-section: xi lies in the plane.  phi-holomorphic: the plane is
    phi-invariant.  phi-totally-real: the plane is m-orthogonal to its
    phi-image (meaningful only from dimension 5 up, so a totally-real plane
    below it raises DegeneratePlaneError).  The second value reports
    m-orthogonality of the plane to xi, which selects the right
    sectional-curvature specialization for totally-real planes.
    """
    eps, m = s.eps, planes.metric
    x, y = planes.x, planes.y
    phi_x = scalars.einsum("ki,ni->nk", s.phi, x)
    phi_y = scalars.einsum("ki,ni->nk", s.phi, y)
    reeb = _in_planes(planes, np.broadcast_to(s.xi, x.shape), eps)
    phi_x_in = _in_planes(planes, phi_x, eps)
    phi_y_in = _in_planes(planes, phi_y, eps)
    kinds = [
        XI_SECTION if on_reeb else HOLOMORPHIC if in_x and in_y else None
        for on_reeb, in_x, in_y in zip(reeb, phi_x_in, phi_y_in)
    ]
    # each other plane is totally real when m(u, phi v) vanishes for the
    # pairs (x,x), (x,y), (y,y)
    rest = np.array([k is None for k in kinds], dtype=bool)
    metric = np.broadcast_to(m.matrix, (int(rest.sum()), *m.matrix.shape))
    forms = [
        scalars.zero_rows(m.inner(u, v)[rest], eps, metric)
        for u, v in ((x, phi_x), (x, phi_y), (y, phi_y))
    ]
    real = map(all, zip(*forms))
    kinds = [k or (TOTALLY_REAL if next(real) else GENERIC) for k in kinds]
    if TOTALLY_REAL in kinds and s.dim < 5:
        raise DegeneratePlaneError("totally-real planes require dimension at least 5")
    eta_x = scalars.zero_rows(x @ s.eta, eps, x)
    eta_y = scalars.zero_rows(y @ s.eta, eps, y)
    return [(kind, ox and oy) for kind, ox, oy in zip(kinds, eta_x, eta_y)]


def sectional(r04: np.ndarray, planes: PlaneStack) -> np.ndarray:
    """k = R(x,y,y,x) / pi_1(x,y,y,x) of every plane of the stack."""
    x, y = planes.x, planes.y
    return scalars.einsum("ijkl,ni,nj,nk,nl->n", r04, x, y, y, x) / planes.den


def svk_sectional_formula(
    planes: PlaneStack, r04_base: np.ndarray, shape: ShapeData, s: ACBStructure
) -> np.ndarray:
    """k^D through the base curvature, for every plane of the stack:

    k^D = k + [pi_1(S x, S y, y, x) - eta(x) R(x,y,y,xi) - eta(y) R(x,y,xi,x)]
              / pi_1(x,y,y,x).
    """
    x, y, den = planes.x, planes.y, planes.den
    rxy = scalars.einsum("ijkl,ni,nj->nkl", r04_base, x, y)  # R(x, y, ., .)
    sx = scalars.einsum("ki,ni->nk", shape.operator, x)
    sy = scalars.einsum("ki,ni->nk", shape.operator, y)
    corr = (
        pi1(planes.metric, sx, sy, y, x)
        - (x @ s.eta) * scalars.einsum("nkl,nk,l->n", rxy, y, s.xi)
        - (y @ s.eta) * scalars.einsum("nkl,k,nl->n", rxy, s.xi, x)
    )
    return scalars.einsum("nkl,nk,nl->n", rxy, y, x) / den + corr / den


# ---------------------------------------------------------------------------
# polarized forms: the plane-wise relations as tensor identities
# ---------------------------------------------------------------------------
# A relation Q(x, y) = T(x,y,y,x) = 0 holds on every plane iff it holds for
# all x, y, iff the symmetrization of T under the index permutations that fix
# the monomial x_i y_j y_k x_l vanishes (polarization; Kobayashi-Nomizu I,
# ch. V).

# the identity, (i<->l), (j<->k) and both, as einsum transpositions
_PLANE_SYMMETRIES = ("ijkl->ijkl", "ijkl->ljki", "ijkl->ikjl", "ijkl->lkji")


def svk_sectional_polarized(
    s: ACBStructure, r04_svk: np.ndarray, r04_base: np.ndarray, shape: ShapeData
) -> np.ndarray:
    """The relation of ``svk_sectional_formula`` multiplied through by
    pi_1(x,y,y,x), as the tensor

    T = R^D - R - (S<>_jk S<>_il - S<>_ik S<>_jl) + R_ijkm xi_m eta_l + R_ijml xi_m eta_k

    with T(x,y,y,x) = pi_1(x,y,y,x) (k^D - formula); returns its
    (i<->l),(j<->k)-symmetrization, which vanishes iff the relation holds on
    every plane."""
    sd = shape.diamond
    sdsd = scalars.einsum("jk,il->ijkl", sd, sd)
    t = scalars.combine(
        [1, -1, -1, 1, 1, 1],
        [
            r04_svk,
            r04_base,
            sdsd,
            sdsd.transpose(1, 0, 2, 3),
            scalars.einsum("ijkm,m,l->ijkl", r04_base, s.xi, s.eta),
            scalars.einsum("ijml,m,k->ijkl", r04_base, s.xi, s.eta),
        ],
    )
    return scalars.combine([1] * 4, [scalars.einsum(p, t) for p in _PLANE_SYMMETRIES])

