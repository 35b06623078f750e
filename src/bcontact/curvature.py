"""Curvature of the four connections and the sectional-curvature relations.

For each metric in the pair there are two connections (Levi-Civita and its
Schouten-van Kampen projection); the (0,4) curvature of each is lowered with
the metric the connection belongs to.  The SvK curvatures are also computed
through the closed relation

    R^D(x,y,z,w) = R(x, y, phi^2 z, phi^2 w) + pi_1(S(x), S(y), z, w)

so that the direct route has an independent oracle.  Since phi^2 = -id +
xi (x) eta and R is antisymmetric in its last pair (so R(x,y,xi,xi) = 0),

    R(x, y, phi^2 z, phi^2 w) = R(x,y,z,w) - eta(z) R(x,y,xi,w) - eta(w) R(x,y,z,xi),

which takes dim^5 products where the sandwich of R between two phi^2 takes
dim^6; the sum of the two eta terms is ``CurvatureData.reeb_term``.  The
sectional values of sampled planes are computed per metric.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import scalars
from .hv import ShapeData
from .liegroup import covariant_derivative, curvature
from .structure import ACBStructure
from .tensor import Metric, lower_out


class DegeneratePlaneError(ValueError):
    """The 2-plane is degenerate for the metric in use."""


def ricci(r04: np.ndarray, m: Metric) -> np.ndarray:
    """rho(y,z) = m^{ij} R(e_i, y, z, e_j)."""
    return scalars.einsum("Bij,Biabj->Bab", m.inv, r04)


def scalar_curvature(rho: np.ndarray, m: Metric):
    return scalars.einsum("Bij,Bij->B", m.inv, rho)


def svk_curvature_formula(curv: CurvatureData, shape: ShapeData) -> np.ndarray:
    """Right-hand side of the curvature relation tying the SvK connection to
    its base Levi-Civita connection, with R(x,y,phi^2 z,phi^2 w) taken
    as R - ``curv.reeb_term``."""
    sdsd = shape.diamond_product
    # pi_1(S x, S y, z, w) + R(x,y,phi^2 z,phi^2 w), added left to right in
    # float mode
    return scalars.combine(
        [1, -1, 1, -1], [sdsd, scalars.einsum("Bijkl->Bjikl", sdsd), curv.r04, curv.reeb_term]
    )


def svk_ricci_formula(
    s: ACBStructure, r04_base: np.ndarray, rho_base: np.ndarray, shape: ShapeData, m: Metric
) -> np.ndarray:
    """rho^D(y,z) = rho(y,z) - eta(z) rho(y,xi) - R(xi,y,z,xi)
    - m(S(S(y)), z) + tr(S) m(S(y), z)."""
    xi, eta = s.xi, s.eta
    rho_y_xi = scalars.einsum("Bym,m->By", rho_base, xi)
    r_xi = scalars.einsum("Biyzj,i,j->Byz", r04_base, xi, xi)
    return scalars.combine(
        [1, -1, -1, -1, 1],
        [
            rho_base,
            scalars.einsum("z,By->Byz", eta, rho_y_xi),
            r_xi,
            lower_out(shape.square, m),
            scalars.einsum("B,Byz->Byz", shape.trace, shape.diamond),
        ],
    )


def svk_scalar_formula(tau_base, rho_xi_xi, shape: ShapeData):
    """tau^D = tau - 2 rho(xi,xi) - tr(S^2) + (tr S)^2."""
    trace_squared = scalars.einsum("B,B->B", shape.trace, shape.trace)
    return scalars.combine(
        [1, -2, -1, 1], [tau_base, rho_xi_xi, shape.square_trace, trace_squared]
    )


def ricci_xi_formula(
    s: ACBStructure, conn: np.ndarray, n_s: np.ndarray, shape: ShapeData, m: Metric
):
    """rho(xi,xi) = tr(nabla_xi S) - div(S(xi)) - tr(S^2), with ``n_s`` the
    covariant derivative nabla S indexed [k, x, i]."""
    xi = s.xi
    tr_nabla_xi_s = scalars.einsum("Bkxk,x->B", n_s, xi)
    div_s_xi = scalars.einsum(
        "Bij,Bki,Bkj->B", m.inv, covariant_derivative(conn, shape.reeb, 1, batched=True), m.matrix
    )
    return scalars.combine([1, -1, -1], [tr_nabla_xi_s, div_s_xi, shape.square_trace])


def curvature_reeb_identity(s: ACBStructure, r13: np.ndarray, n_s: np.ndarray) -> np.ndarray:
    """Residual of R(x,y) xi = -(nabla_x S) y + (nabla_y S) x over the basis,
    from the (1,3) curvature and nabla S indexed [l, x, y]."""
    lhs = scalars.einsum("Blijk,k->Blij", r13, s.xi)
    rhs = scalars.combine([-1, 1], [n_s, scalars.einsum("Blxy->Blyx", n_s)])
    return scalars.combine([1, -1], [lhs, rhs])


def pair_symmetries(r: np.ndarray) -> dict[str, np.ndarray]:
    """The three pair symmetries every Levi-Civita (0,4) curvature has, each
    as the array that vanishes when ``r`` has it."""
    return {
        "first-pair-antisymmetric": scalars.combine([1, 1], [r, scalars.einsum("Bijkl->Bjikl", r)]),
        "last-pair-antisymmetric": scalars.combine([1, 1], [r, scalars.einsum("Bijkl->Bijlk", r)]),
        "pair-exchange-symmetric": scalars.combine([1, -1], [r, scalars.einsum("Bijkl->Bklij", r)]),
    }


@dataclass(frozen=True)
class CurvatureData:
    """Curvature package of the metrics of the pair: their Levi-Civita
    curvature, as (1,3) and (0,4) tensors, and the curvature of the
    associated Schouten-van Kampen connection; ``_xi`` and ``_eta`` are the
    structure's, private so that a metric's view never takes a row of them."""

    r13: np.ndarray
    r04: np.ndarray
    rho: np.ndarray
    tau: object
    r04_svk: np.ndarray
    rho_svk: np.ndarray
    tau_svk: object
    _xi: np.ndarray = field(repr=False)
    _eta: np.ndarray = field(repr=False)

    @cached_property
    def reeb_term(self) -> np.ndarray:
        """eta(z) R(x,y,xi,w) + eta(w) R(x,y,z,xi), by which R exceeds
        R(x,y,phi^2 z,phi^2 w) (module docstring); the polarized sectional
        relation reads it too."""
        r, xi, eta = self.r04, self._xi, self._eta
        return scalars.combine(
            [1, 1],
            [scalars.einsum("Bijml,m,k->Bijkl", r, xi, eta), scalars.einsum("Bijkm,m,l->Bijkl", r, xi, eta)],
        )


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
    return CurvatureData(r13, r04, rho, tau, r04_d, rho_d, tau_d, s.xi, s.eta)


# ---------------------------------------------------------------------------
# 2-plane sections
# ---------------------------------------------------------------------------
# Sectional values are computed over a ``PlaneStack``: the planes of one
# metric, plane n spanned by x[n] and y[n].  Every per-plane inner product
# comes from one Gram contraction per stack, and each curvature tensor enters
# one contraction per stack instead of one per plane.

XI_SECTION = "xi-section"
HOLOMORPHIC = "phi-holomorphic"
TOTALLY_REAL = "phi-totally-real"
GENERIC = "generic"


def _gram(form: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """form(u[n, a], v[n, b]) for two stacks of shape planes x k x dim."""
    return scalars.einsum("ij,nai,nbj->nab", form, u, v)


def _pi1(gram: np.ndarray) -> np.ndarray:
    """B(y,y) B(x,x) - B(x,y) B(y,x) of each plane from its Gram block of a
    form B: pi_1(x,y,y,x) for the metric, pi_1(Sx,Sy,y,x) for m(S., .)."""
    g = [[scalars.row(gram, np.s_[:, a, b]) for b in range(2)] for a in range(2)]
    yy_xx = scalars.einsum("n,n->n", g[1][1], g[0][0])
    return scalars.combine([1, -1], [yy_xx, scalars.einsum("n,n->n", g[0][1], g[1][0])])


@dataclass(frozen=True)
class PlaneStack:
    """2-planes of one metric m: plane n is spanned by x = xy[n, 0] and
    y = xy[n, 1] (xy of shape planes x 2 x dim), gram[n] is its Gram block
    m(u, v) for u, v in (x, y), and den[n] = pi_1(x,y,y,x) is the
    denominator of its sectional curvature.  All three are read-only."""

    metric: Metric
    xy: np.ndarray
    gram: np.ndarray
    den: np.ndarray

    def __len__(self) -> int:
        return len(self.xy)

    def __getitem__(self, keep) -> "PlaneStack":
        """The planes where the boolean mask ``keep`` is true, in order."""
        keep = np.asarray(keep, dtype=bool)
        return PlaneStack(self.metric, *(scalars.row(a, keep) for a in (self.xy, self.gram, self.den)))

    @classmethod
    def concat(cls, stacks: list["PlaneStack"]) -> "PlaneStack":
        """The planes of ``stacks`` (of one metric), one stack after the
        other; a single stack is returned as it is."""
        if len(stacks) == 1:
            return stacks[0]
        joined = (scalars.join([getattr(p, f) for p in stacks]) for f in ("xy", "gram", "den"))
        return cls(stacks[0].metric, *joined)

    @classmethod
    def spanned(cls, m: Metric, xy) -> "PlaneStack":
        """Every plane xy[n], degenerate ones included, ``xy`` being a
        planes x 2 x dim array or a list of pairs of vectors, which are
        stacked."""
        if isinstance(xy, list):
            xy = scalars.stack([scalars.stack(pair) for pair in xy])
        gram = _gram(m.matrix, xy, xy)
        return cls(m, xy, gram, _pi1(gram))

    @classmethod
    def nondegenerate(cls, m: Metric, xy, eps: float) -> "PlaneStack":
        """The planes xy[n] that are non-degenerate for ``m``, in order: those
        whose den does not vanish on the scale of the metric."""
        planes = cls.spanned(m, xy)
        scale = np.broadcast_to(m.matrix, (len(planes), *m.matrix.shape))
        keep = [not d for d in _vanish(planes.den, eps, scale)]
        return planes if all(keep) else planes[keep]

    @classmethod
    def of(cls, m: Metric, xy, eps: float) -> "PlaneStack":
        """The planes xy[n]; raises DegeneratePlaneError when one of them is
        degenerate for ``m``."""
        planes = cls.nondegenerate(m, xy, eps)
        if len(planes) < len(xy):
            raise DegeneratePlaneError("plane is degenerate for this metric")
        return planes


def _vanish(a: np.ndarray, eps: float, *context) -> list[bool]:
    """Whether each row of the stack ``a`` vanishes (``scalars.zero_rows``)."""
    return [passed for passed, _, _ in scalars.zero_rows([a], eps, *context, locate=False)]


def _in_planes(planes: PlaneStack, w: np.ndarray, gw: np.ndarray, eps: float) -> np.ndarray:
    """Whether w[n, b] lies in plane n (w of shape planes x k x dim), from
    the Gram block gw[n, a, b] = m(xy[n, a], w[n, b]); planes x k booleans.

    With m the stack's metric, w lies in the plane iff its m-orthogonal
    projection onto the plane, multiplied through by den = pi_1(x,y,y,x),
    gives den w back; the coefficients of x and y are adj(gram) gw:

        den w - (m(y,y) m(x,w) - m(x,y) m(y,w)) x - (m(x,x) m(y,w) - m(x,y) m(x,w)) y = 0.

    Exact in rational mode; a float test is scaled by the three terms."""
    g = [[scalars.row(planes.gram, np.s_[:, a, b]) for b in range(2)] for a in range(2)]
    minus_g01 = scalars.combine([-1], [g[0][1]])
    adjugate = scalars.stack(
        [scalars.stack(r, axis=1) for r in ([g[1][1], minus_g01], [minus_g01, g[0][0]])], axis=1
    )
    coefficients = scalars.einsum("nts,nsb->nbt", adjugate, gw)
    parts = scalars.einsum("nbt,ntk->tnbk", coefficients, planes.xy)
    terms = (scalars.einsum("n,nbk->nbk", planes.den, w), scalars.row(parts, 0), scalars.row(parts, 1))
    # one row per vector w[n, b], the rows of b = 0 first
    k = w.shape[1]
    residual, *context = (
        scalars.join([scalars.row(t, np.s_[:, b]) for b in range(k)])
        for t in (scalars.combine([1, -1, -1], terms), *terms)
    )
    return np.reshape(_vanish(residual, eps, *context), (k, len(planes))).T


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
    eps, m, xy, n, dim = s.eps, planes.metric, planes.xy, len(planes), s.dim
    # w = (xi, phi x, phi y) of every plane, and its Gram block with (x, y)
    phi_xy = scalars.einsum("ki,nai->nak", s.phi, xy)
    w = scalars.join([scalars.stack([scalars.stack([s.xi])] * n), phi_xy], axis=1)
    gw = _gram(m.matrix, xy, w)
    reeb, phi_x_in, phi_y_in = _in_planes(planes, w, gw, eps).T
    # totally real: m(u, phi v) vanishes for (u, v) = (x,x), (x,y), (y,y)
    metric = np.broadcast_to(m.matrix, (n, dim, dim))
    real = _vanish(scalars.row(gw, np.s_[:, [0, 0, 1], [1, 2, 2]]), eps, metric)
    kinds = [
        XI_SECTION if on_reeb else HOLOMORPHIC if in_x and in_y else TOTALLY_REAL if r else GENERIC
        for on_reeb, in_x, in_y, r in zip(reeb, phi_x_in, phi_y_in, real)
    ]
    if TOTALLY_REAL in kinds and s.dim < 5:
        raise DegeneratePlaneError("totally-real planes require dimension at least 5")
    # eta(x) and eta(y), each on the scale of its own vector: the rows of x
    # first
    eta = scalars.einsum("nai,i->an", xy, s.eta)
    eta, vectors = (
        scalars.join([scalars.row(a, i) for i in range(2)]) for a in (eta, scalars.einsum("nai->ani", xy))
    )
    orthogonal = np.reshape(_vanish(eta, eps, vectors), (2, n)).all(axis=0)
    return list(zip(kinds, orthogonal.tolist()))


@dataclass(frozen=True)
class Sectional:
    """Sectional values of the planes of a stack, one entry per plane: k of
    R, k_svk of R^D, and the numerator terms of the relation
    k^D = k + [pi_1(Sx,Sy,y,x) - eta(x) R(x,y,y,xi) - eta(y) R(x,y,xi,x)] / den."""

    den: np.ndarray  # pi_1(x,y,y,x)
    k: np.ndarray
    k_svk: np.ndarray
    shape_term: np.ndarray  # pi_1(Sx,Sy,y,x)
    reeb_x: np.ndarray  # eta(x) R(x,y,y,xi)
    reeb_y: np.ndarray  # eta(y) R(x,y,xi,x)

    @property
    def formula(self) -> np.ndarray:
        """k^D through the base curvature."""
        numerator = scalars.combine([1, -1, -1], [self.shape_term, self.reeb_x, self.reeb_y])
        return scalars.combine([1, 1], [self.k, scalars.divide_rows(numerator, self.den)])


def sectional(planes: PlaneStack, curv: CurvatureData, shape: ShapeData, s: ACBStructure):
    """The ``Sectional`` values of the stack: R and R^D each enter one
    contraction R(x, y, ., .), which gives k and the eta terms, and
    pi_1(Sx,Sy,y,x) comes from one Gram block of the shape form m(S., .)."""
    (x, y), den = (scalars.row(planes.xy, np.s_[:, a]) for a in range(2)), planes.den
    rxy = scalars.einsum("ijkl,ni,nj->nkl", curv.r04, x, y)
    rxy_svk = scalars.einsum("ijkl,ni,nj->nkl", curv.r04_svk, x, y)
    eta_xy = scalars.einsum("nai,i->an", planes.xy, s.eta)
    eta_x, eta_y = scalars.row(eta_xy, 0), scalars.row(eta_xy, 1)
    return Sectional(
        den,
        scalars.divide_rows(scalars.einsum("nkl,nk,nl->n", rxy, y, x), den),
        scalars.divide_rows(scalars.einsum("nkl,nk,nl->n", rxy_svk, y, x), den),
        _pi1(_gram(shape.diamond, planes.xy, planes.xy)),
        scalars.einsum("n,n->n", eta_x, scalars.einsum("nkl,nk,l->n", rxy, y, s.xi)),
        scalars.einsum("n,n->n", eta_y, scalars.einsum("nkl,k,nl->n", rxy, s.xi, x)),
    )


# ---------------------------------------------------------------------------
# polarized forms: the plane-wise relations as tensor identities
# ---------------------------------------------------------------------------
# A relation Q(x, y) = T(x,y,y,x) = 0 holds on every plane iff it holds for
# all x, y, iff the symmetrization of T under the index permutations that fix
# the monomial x_i y_j y_k x_l vanishes (polarization; Kobayashi-Nomizu I,
# ch. V).

# the identity, (i<->l), (j<->k) and both, as einsum transpositions
_PLANE_SYMMETRIES = ("Bijkl->Bijkl", "Bijkl->Bljki", "Bijkl->Bikjl", "Bijkl->Blkji")


def _plane_symmetrization(t: np.ndarray) -> np.ndarray:
    """The sum of ``t`` over ``_PLANE_SYMMETRIES``: the tensor B with
    B(x,y,y,x) = 4 t(x,y,y,x), invariant under (i<->l) and under (j<->k)."""
    return scalars.combine([1] * 4, [scalars.einsum(p, t) for p in _PLANE_SYMMETRIES])


def svk_sectional_polarized(curv: CurvatureData, shape: ShapeData) -> np.ndarray:
    """The relation of ``Sectional.formula`` multiplied through by
    pi_1(x,y,y,x), as the tensor

    T = R^D - R - (S<>_jk S<>_il - S<>_ik S<>_jl) + R_ijkm xi_m eta_l + R_ijml xi_m eta_k

    with T(x,y,y,x) = pi_1(x,y,y,x) (k^D - formula), its last two terms
    ``curv.reeb_term``; returns its (i<->l),(j<->k)-symmetrization, which
    vanishes iff the relation holds on every plane."""
    sdsd = shape.diamond_product
    return _plane_symmetrization(scalars.combine(
        [1, -1, -1, 1, 1],
        [curv.r04_svk, curv.r04, sdsd, scalars.einsum("Bijkl->Bjikl", sdsd), curv.reeb_term],
    ))


def basis_invariance_forms(r: np.ndarray) -> list[np.ndarray]:
    """Two tensors that both vanish iff N(x,y) = r(x,y,y,x) scales by det^2
    under every change of basis of the plane, so that N / pi_1(x,y,y,x) is a
    function of the plane alone.

    The shears y -> y + s x and x -> x + s y, with the scalings, generate
    GL(2); with B the plane symmetrization of r, N is invariant under the
    first iff B(x,x,y,x) = 0 and under the second iff B(x,y,y,y) = 0 for all
    x, y (the s^2 terms are the cases y = x).  Each cubic condition is
    polarized over its three repeated slots, modulo the symmetry B already
    has there.  Weaker than antisymmetry in both pairs, and exact."""
    b = _plane_symmetrization(r)
    return [
        scalars.combine([1, 1, 1], [b, scalars.einsum("Bijkl->Bjikl", b), scalars.einsum("Bijkl->Bilkj", b)]),
        scalars.combine([1, 1, 1], [b, scalars.einsum("Bijkl->Bilkj", b), scalars.einsum("Bijkl->Bijlk", b)]),
    ]


def horizontal_restriction(t: np.ndarray, s: ACBStructure) -> np.ndarray:
    """t(x^h, y^h, z^h, w^h) of a (0,4) tensor, x^h = -phi^2 x being the
    horizontal part: each slot contracted with phi^2 (the four signs
    cancel), which the kernel stages one slot at a time."""
    p = s.phi2
    return scalars.einsum("Babcd,ai,bj,ck,dl->Bijkl", t, p, p, p, p)
