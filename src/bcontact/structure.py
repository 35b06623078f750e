"""Almost contact B-metric structures and their basic-class lattice.

The structure is the quadruple (phi, xi, eta, g) on an odd-dimensional model,
where phi restricts to an anti-isometry of the contact distribution ker(eta)
and g has signature (n+1, n).  The associated metric

    g~(x,y) = g(x, phi y) + eta(x) eta(y)

is again a B-metric of the same signature, so every structure carries a pair
of Levi-Civita connections and a pair of fundamental tensors; the conversion
formulas between them are implemented here; each conversion is a second
derivation route, compared with the primary one by the check suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional

import numpy as np

from . import scalars
from .liegroup import LieAlgebra, d_eta
from .tensor import Metric, lower_out, sharp


@dataclass(frozen=True)
class CheckResult:
    """One named result of an axiom or of a check.  Zero tests are built as
    ``CheckResult(name, *scalars.zero_test(arrays, eps, *context))``."""

    name: str
    passed: bool
    residual: float
    worst_index: Optional[tuple] = None
    detail: str = ""

    def __str__(self):
        """The axiom line printed by ``validate`` and for a broken model."""
        status = "ok" if self.passed else "FAIL"
        where = "" if self.worst_index is None else f" at {self.worst_index}"
        return f"{self.name}: {status} (residual {self.residual:.3g}{where})"

    def line(self) -> str:
        """The check line printed by ``verify``."""
        status = "PASS" if self.passed else "FAIL"
        where = f" at {self.worst_index}" if self.worst_index else ""
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{status}  {self.name}  (max residual {self.residual:.3g}{where}){extra}"


@dataclass(frozen=True)
class ValidationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class ACBStructure:
    """Almost contact B-metric structure on a left-invariant model.

    ``eps`` is the float tolerance of every zero test made on this model,
    fixed when the model is loaded.  ``phi2`` = phi o phi is computed on
    construction, and the component arrays are then made read-only.
    """

    algebra: LieAlgebra
    phi: np.ndarray  # (1,1)
    xi: np.ndarray  # (1,0)
    eta: np.ndarray  # (0,1)
    metric: Metric
    eps: float
    phi2: np.ndarray = field(init=False, repr=False)  # (1,1)

    __reduce__ = scalars.reduce_model

    def __post_init__(self):
        if self.dim % 2 == 0:
            raise ValueError("almost contact structures need odd dimension")
        if self.dim < 3:
            raise ValueError(f"almost contact structures need dimension 3 or more, got {self.dim}")
        object.__setattr__(self, "phi2", scalars.einsum("ij,jk->ik", self.phi, self.phi))
        scalars.freeze(self)

    @cached_property
    def assoc(self) -> Metric:
        """g~(x,y) = g(x, phi y) + eta(x) eta(y); built on first use, since it
        is a metric only when the axioms on g hold."""
        return associated_of(self.metric, self)

    @cached_property
    def d_eta(self) -> np.ndarray:
        """d eta as a (0,2) tensor, the same for both metrics of the pair."""
        return d_eta(self.algebra, self.eta)

    @cached_property
    def eta_eta(self) -> np.ndarray:
        """eta (x) eta, which the associated metric and the B-metric axioms
        add."""
        return scalars.einsum("i,j->ij", self.eta, self.eta)

    @cached_property
    def vertical(self) -> np.ndarray:
        """xi (x) eta, the (1,1) projector onto span(xi) along ker(eta)."""
        return scalars.einsum("k,l->kl", self.xi, self.eta)

    @cached_property
    def horizontal(self) -> np.ndarray:
        """id - xi (x) eta, the (1,1) projector onto ker(eta) along span(xi)."""
        eye = scalars.eye(self.dim, self.mode)
        return scalars.combine([1, -1], [eye, self.vertical])

    @cached_property
    def d_eta_xi(self) -> np.ndarray:
        """d eta(x,y) xi [k, x, y], the vertical torsion of both SvK connections."""
        return scalars.einsum("ij,k->kij", self.d_eta, self.xi)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    @property
    def mode(self) -> str:
        return scalars.mode_of(self.phi)


def associated_of(m: Metric, s: "ACBStructure") -> Metric:
    """Associated metric of an arbitrary B-metric for the same (phi, eta)."""
    mat = scalars.combine([1, 1], [scalars.einsum("im,mj->ij", m.matrix, s.phi), s.eta_eta])
    return Metric.from_matrix(mat, s.eps)


def validate_structure(s: ACBStructure) -> ValidationReport:
    """Check every algebraic axiom of the structure, reporting each identity
    with its worst residual instead of raising, so callers can print
    diagnostics.  The associated metric is built only once the axioms on g
    hold (only then is it a metric); until then its rows are reported failed
    with residual 1, like a wrong signature."""
    n, eps = s.n, s.eps
    phi, xi, eta, g = s.phi, s.xi, s.eta, s.metric.matrix

    def row(name, arr, *context):
        return CheckResult(name, *scalars.zero_test([arr], eps, *context))

    def minus(a, b):
        return scalars.combine([1, -1], [a, b])

    def b_metric(m):
        return scalars.combine(
            [1, 1, -1],
            [scalars.einsum("mi,rj,mr->ij", phi, phi, m), m, s.eta_eta],
        )

    def signature(name, m: Metric):
        ok = m.signature == (n + 1, n)
        return CheckResult(name, ok, 0.0 if ok else 1.0)

    checks = [
        row("phi(xi) = 0", scalars.einsum("ij,j->i", phi, xi), phi),
        row(
            "phi^2 = -id + eta (x) xi",
            scalars.combine([1, 1, -1], [s.phi2, scalars.eye(s.dim, s.mode), s.vertical]),
            phi,
        ),
        row("eta o phi = 0", scalars.einsum("i,ij->j", eta, phi), phi),
        row("eta(xi) = 1", minus(scalars.einsum("i,i->", eta, xi), 1)),
        row("g(phi x, phi y) = -g(x,y) + eta(x) eta(y)", b_metric(g), g),
        row("g(xi, xi) = 1", minus(s.metric.inner(xi, xi), 1), g),
        row("g(xi, .) = eta", minus(scalars.einsum("ij,i->j", g, xi), eta), g),
        signature(f"signature of g is ({n + 1},{n})", s.metric),
    ]
    assoc_names = [
        f"signature of associated metric is ({n + 1},{n})",
        "g~(xi, xi) = 1",
        "g~ is itself a B-metric",
    ]
    if not all(c.passed for c in checks):
        return ValidationReport(checks + [CheckResult(k, False, 1.0) for k in assoc_names])
    gt = s.assoc
    checks += [
        signature(assoc_names[0], gt),
        row(assoc_names[1], minus(gt.inner(xi, xi), 1), gt.matrix),
        row(assoc_names[2], b_metric(gt.matrix), gt.matrix),
    ]
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# fundamental tensor and Lee forms
# ---------------------------------------------------------------------------

def fundamental_tensor(nphi: np.ndarray, m: Metric) -> np.ndarray:
    """F(x,y,z) = m((nabla_x phi) y, z), from ``nphi`` = nabla phi of the
    Levi-Civita connection of m.

    Its defining symmetries are checked by ``fundamental-identities``.
    """
    return lower_out(nphi, m)


@dataclass(frozen=True)
class LeeForms:
    """The three metric contractions of a fundamental tensor, with the
    values of theta and theta* at xi and theta o phi^2, which the classifier
    and the checks read."""

    theta: np.ndarray
    theta_star: np.ndarray
    omega: np.ndarray
    omega_sharp: np.ndarray
    theta_xi: object
    theta_star_xi: object
    theta_phi2: np.ndarray


def lee_forms(s: ACBStructure, f: np.ndarray, m: Metric) -> LeeForms:
    """theta(z) = m^{ij} F(e_i,e_j,z), theta*(z) = m^{ij} F(e_i, phi e_j, z),
    omega(z) = F(xi, xi, z).

    The trace defining theta runs over an adapted basis of the contact
    distribution: in a frame where xi is a basis vector orthogonal to the
    rest, the full m-trace of F picks up an extra F(xi,xi,z) term, which is
    removed here.  This is the convention under which the standard identity
    theta* o phi = -theta o phi^2 holds with no omega correction (the two
    readings agree on every structure with omega = 0, and always agree at
    z = xi since omega(xi) = 0).  Both identities are checked by
    ``lee-form-identities``.
    """
    phi, xi = s.phi, s.xi
    omega = scalars.einsum("i,j,Bijz->Bz", xi, xi, f)
    theta = scalars.combine([1, -1], [scalars.einsum("Bij,Bijz->Bz", m.inv, f), omega])
    theta_star = scalars.einsum("Bij,mj,Bimz->Bz", m.inv, phi, f)
    return LeeForms(
        theta,
        theta_star,
        omega,
        sharp(omega, m),
        scalars.einsum("Bi,i->B", theta, xi),
        scalars.einsum("Bi,i->B", theta_star, xi),
        scalars.einsum("Bi,ij->Bj", theta, s.phi2),
    )


def divergences(neta: np.ndarray, m: Metric, assoc_inv: np.ndarray):
    """div(eta) and div*(eta) for the structure carried by the metric m.

    Both divergences contract ``neta`` = nabla eta of the Levi-Civita
    connection of m; the plain one traces with m, the starred one with
    ``assoc_inv``, the inverse of the associated metric of m.  The trace
    identities theta(xi) = div*(eta) and theta*(xi) = div(eta) are checked
    by ``divergence-trace``.
    """
    div = scalars.einsum("Bij,Bij->B", m.inv, neta)
    div_star = scalars.einsum("Bij,Bij->B", assoc_inv, neta)
    return div, div_star


# ---------------------------------------------------------------------------
# potential of the second Levi-Civita connection and the conversion formulas
# ---------------------------------------------------------------------------

def potential_from_fundamental(s: ACBStructure, f: np.ndarray, lee: LeeForms) -> np.ndarray:
    """Closed form of the potential (0,3) tensor in terms of F:

    2 Phi(x,y,z) = -F(x,y,phi z) - F(y,x,phi z) + F(phi z,x,y)
                 + eta(x) {F(y,z,xi) + F(phi z, phi y, xi)}
                 + eta(y) {F(x,z,xi) + F(phi z, phi x, xi)}
                 + eta(z) {-F(xi,x,y) + F(x,y,xi) + F(x,phi y,xi) - omega(phi x) eta(y)
                           + F(y,x,xi) + F(y,phi x,xi) - omega(phi y) eta(x)}.
    """
    phi, xi, eta = s.phi, s.xi, s.eta
    om_phi = scalars.einsum("m,mz->z", lee.omega, phi)  # omega(phi .)
    fxi = scalars.einsum("xym,m->xy", f, xi)  # F(x,y,xi)
    fphiphixi = scalars.einsum("abm,ax,by,m->xy", f, phi, phi, xi)  # F(phi x, phi y, xi)
    f_xyphiz = scalars.einsum("xym,mz->xyz", f, phi)  # F(x,y,phi z)
    fphiz_xy = scalars.einsum("mxy,mz->xyz", f, phi)  # F(phi z,x,y) indexed [x,y,z]
    fxiphiy = scalars.einsum("xam,ay,m->xy", f, phi, xi)  # F(x, phi y, xi)
    f_xi_first = scalars.einsum("mxy,m->xy", f, xi)  # F(xi, x, y)

    # bracket shared by the eta(x) and eta(y) terms: F(u,v,xi) + F(phi v, phi u, xi)
    b = scalars.combine([1, 1], [fxi, scalars.einsum("xy->yx", fphiphixi)])
    zc = scalars.combine(
        [-1, 1, 1, -1, 1, 1, -1],
        [
            f_xi_first,
            fxi,
            fxiphiy,
            scalars.einsum("x,y->xy", om_phi, eta),
            scalars.einsum("xy->yx", fxi),
            scalars.einsum("xy->yx", fxiphiy),
            scalars.einsum("y,x->xy", om_phi, eta),
        ],
    )
    half, minus_half = Fraction(1, 2), Fraction(-1, 2)
    return scalars.combine(
        [minus_half, minus_half, half, half, half, half],
        [
            f_xyphiz,
            scalars.einsum("xyz->yxz", f_xyphiz),
            fphiz_xy,
            scalars.einsum("x,yz->xyz", eta, b),
            scalars.einsum("y,xz->xyz", eta, b),
            scalars.einsum("z,xy->xyz", eta, zc),
        ],
    )


def fundamental_from_potential(s: ACBStructure, phi03: np.ndarray) -> np.ndarray:
    """Reconstruct F from the potential:

    F(x,y,z) = Phi(x,y,phi z) + Phi(x,z,phi y)
             + 1/2 eta(z) {Phi(x,y,xi) - Phi(x,phi y,xi) + Phi(xi,x,y) - Phi(xi,x,phi y)}
             + 1/2 eta(y) {Phi(x,z,xi) - Phi(x,phi z,xi) + Phi(xi,x,z) - Phi(xi,x,phi z)}.
    """
    p, phi, xi, eta = phi03, s.phi, s.xi, s.eta
    p_xyphiz = scalars.einsum("xym,mz->xyz", p, phi)
    pxi = scalars.einsum("xym,m->xy", p, xi)  # Phi(x,y,xi)
    pxiphiy = scalars.einsum("xam,ay,m->xy", p, phi, xi)  # Phi(x,phi y,xi)
    pfirst = scalars.einsum("mxy,m->xy", p, xi)  # Phi(xi,x,y)
    pfirstphi = scalars.einsum("mxa,m,ay->xy", p, xi, phi)  # Phi(xi,x,phi y)
    bracket = scalars.combine([1, -1, 1, -1], [pxi, pxiphiy, pfirst, pfirstphi])  # indexed [x,y]
    half = Fraction(1, 2)
    return scalars.combine(
        [1, 1, half, half],
        [
            p_xyphiz,
            scalars.einsum("xyz->xzy", p_xyphiz),
            scalars.einsum("z,xy->xyz", eta, bracket),
            scalars.einsum("y,xz->xyz", eta, bracket),
        ],
    )


def assoc_fundamental_from_fundamental(s: ACBStructure, f: np.ndarray) -> np.ndarray:
    """Fundamental tensor of the associated structure computed from F alone:

    2 F~(x,y,z) = F(phi y,z,x) - F(y,phi z,x) + F(phi z,y,x) - F(z,phi y,x)
                + eta(x) {F(y,z,xi) + F(phi z,phi y,xi) + F(z,y,xi) + F(phi y,phi z,xi)}
                + eta(y) {F(x,z,xi) + F(phi z,phi x,xi) + F(x,phi z,xi)}
                + eta(z) {F(x,y,xi) + F(phi y,phi x,xi) + F(x,phi y,xi)}.
    """
    phi, xi, eta = s.phi, s.xi, s.eta
    fxi = scalars.einsum("xym,m->xy", f, xi)
    fphiphixi = scalars.einsum("abm,ax,by,m->xy", f, phi, phi, xi)
    fxiphiy = scalars.einsum("xam,ay,m->xy", f, phi, xi)

    t1 = scalars.einsum("azx,ay->xyz", f, phi)  # F(phi y, z, x)
    t2 = scalars.einsum("yax,az->xyz", f, phi)  # F(y, phi z, x)
    t3 = scalars.einsum("ayx,az->xyz", f, phi)  # F(phi z, y, x)
    t4 = scalars.einsum("zax,ay->xyz", f, phi)  # F(z, phi y, x)
    fphiphixi_t = scalars.einsum("xy->yx", fphiphixi)
    fxi_t = scalars.einsum("xy->yx", fxi)
    bx = scalars.combine([1] * 4, [fxi, fphiphixi_t, fxi_t, fphiphixi])  # [y,z] bracket of eta(x)
    by = scalars.combine([1] * 3, [fxi, fphiphixi_t, fxiphiy])  # [x,z] bracket of eta(y)
    half, minus_half = Fraction(1, 2), Fraction(-1, 2)
    return scalars.combine(
        [half, minus_half, half, minus_half, half, half, half],
        [
            t1,
            t2,
            t3,
            t4,
            scalars.einsum("x,yz->xyz", eta, bx),
            scalars.einsum("y,xz->xyz", eta, by),
            scalars.einsum("z,xy->xyz", eta, by),
        ],
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

BASIC_CLASSES = [f"F{i}" for i in range(1, 12)]
ALL_FLAGS = ["F0"] + BASIC_CLASSES + ["U1", "U2", "U3", "U1_assoc", "F3+U3", "F1+F2+U3"]


@dataclass(frozen=True)
class ClassificationReport:
    """Membership booleans over the basic classes and the named unions.

    Membership in a class means the fundamental tensor satisfies that class's
    defining identity, so the zero tensor (class F0) belongs to every listed
    set.  Each flag carries the residual of its defining condition.
    """

    metric_role: str
    membership: dict[str, bool]
    residuals: dict[str, float]
    scalars: dict[str, float]

    def __getitem__(self, flag: str) -> bool:
        return self.membership[flag]


def _over_2n(s: ACBStructure, x, sign: int = 1):
    """sign x / 2n of a scalar, or of each of a batch of them."""
    return scalars.combine([Fraction(sign, 2 * s.n)], [x])


def _class_conditions(s: ACBStructure, f: np.ndarray, lee: LeeForms, m: Metric):
    """Residual arrays for the defining identity of each basic class, and
    the residual of the U2 condition F(x,y,z) = F(x,y,xi) eta(z) +
    F(x,z,xi) eta(y), which shares its two terms with F6-F9; for each
    metric m of the batch, with its F and Lee forms."""
    phi, xi, eta, g = s.phi, s.xi, s.eta, m.matrix
    theta, theta_star = lee.theta, lee.theta_star
    omega = lee.omega

    g_phi = scalars.einsum("Bim,mj->Bij", g, phi)  # g(e_i, phi e_j)
    g_phiphi = scalars.einsum("mi,rj,Bmr->Bij", phi, phi, g)  # g(phi e_i, phi e_j)
    th_phi = scalars.einsum("Bi,ij->Bj", theta, phi)
    th_phi2 = lee.theta_phi2
    fxi = scalars.einsum("Bxym,m->Bxy", f, xi)  # F(x,y,xi)
    f_first_xi = scalars.einsum("Bmxy,m->Bxy", f, xi)  # F(xi,y,z)
    f_mid_xi = scalars.einsum("Bxmy,m->Bxy", f, xi)  # F(x,xi,z)
    fxi_phiphi = scalars.einsum("Babm,ax,by,m->Bxy", f, phi, phi, xi)  # F(phi x, phi y, xi)

    conds: dict[str, list[np.ndarray]] = {}

    def minus_f(a):  # f - a
        return scalars.combine([1, -1], [f, a])

    def total(*arrays):
        return scalars.combine([1] * len(arrays), arrays)

    rhs1 = total(
        scalars.einsum("Bxy,Bz->Bxyz", g_phi, th_phi),
        scalars.einsum("Bxy,Bz->Bxyz", g_phiphi, th_phi2),
        scalars.einsum("Bxz,By->Bxyz", g_phi, th_phi),
        scalars.einsum("Bxz,By->Bxyz", g_phiphi, th_phi2),
    )
    conds["F1"] = [scalars.combine([1, Fraction(-1, 2 * s.n)], [f, rhs1])]

    f_phi_z = scalars.einsum("Bxym,mz->Bxyz", f, phi)  # F(x,y,phi z)
    cyc_phi = total(
        f_phi_z, scalars.einsum("Bxyz->Byzx", f_phi_z), scalars.einsum("Bxyz->Bzxy", f_phi_z)
    )
    cyc = total(f, scalars.einsum("Bxyz->Byzx", f), scalars.einsum("Bxyz->Bzxy", f))
    conds["F2"] = [f_first_xi, f_mid_xi, cyc_phi, theta]
    conds["F3"] = [f_first_xi, f_mid_xi, cyc]

    # F4, F5: f = -(theta(xi) / 2n) (...) and f = -(theta*(xi) / 2n) (...),
    # the coefficient of each row an operand of one contraction
    def scaled(coefficient, a, b):
        return scalars.einsum("B,Bxyz->Bxyz", _over_2n(s, coefficient), total(
            scalars.einsum("Bxy,z->Bxyz", a, b), scalars.einsum("Bxz,y->Bxyz", a, b)
        ))

    conds["F4"] = [total(f, scaled(lee.theta_xi, g_phiphi, eta))]
    conds["F5"] = [total(f, scaled(lee.theta_star_xi, g_phi, eta))]

    vert_terms = [scalars.einsum("Bxy,z->Bxyz", fxi, eta), scalars.einsum("Bxz,y->Bxyz", fxi, eta)]
    form_res = minus_f(total(*vert_terms))
    fxi_t = scalars.einsum("Bxy->Byx", fxi)
    skew, sym = scalars.combine([1, -1], [fxi, fxi_t]), total(fxi, fxi_t)
    plus_phiphi = total(fxi, fxi_phiphi)
    minus_phiphi = scalars.combine([1, -1], [fxi, fxi_phiphi])
    conds["F6"] = [form_res, skew, plus_phiphi, theta, theta_star]
    conds["F7"] = [form_res, sym, plus_phiphi]
    conds["F8"] = [form_res, skew, minus_phiphi]
    conds["F9"] = [form_res, sym, minus_phiphi]

    f_xi_phiphi = scalars.einsum("Bmab,m,ay,bz->Byz", f, xi, phi, phi)  # F(xi, phi y, phi z)
    conds["F10"] = [minus_f(scalars.einsum("x,Byz->Bxyz", eta, f_xi_phiphi))]

    rhs11 = total(
        scalars.einsum("x,y,Bz->Bxyz", eta, eta, omega), scalars.einsum("x,z,By->Bxyz", eta, eta, omega)
    )
    conds["F11"] = [minus_f(rhs11)]
    return conds, scalars.combine([1, -1, -1], [f, *vert_terms])


def classify(
    s: ACBStructure,
    f: np.ndarray,
    lee: LeeForms,
    m: Metric,
    nxi: np.ndarray,
    pot03: np.ndarray,
    div_pair,
    roles,
) -> list[ClassificationReport]:
    """Decide every membership flag of each metric of the pair by direct
    substitution into the defining identities over the whole basis: one
    report per row of the batch, for the metric role ``roles`` names.

    ``nxi`` is nabla xi for the Levi-Civita connection of each metric of
    ``m``; the U1_assoc flag of a row is the U1 flag of the other row.
    ``pot03`` is the (0,3) potential of the partner connection with respect
    to the one of the row's metric, lowered by that metric.
    """
    phi, phi2 = s.phi, s.phi2
    basic, u2 = _class_conditions(s, f, lee, m)
    conds = {"F0": [f], **basic, "U1": [nxi], "U1_assoc": None, "U2": [u2]}

    p = pot03
    conds["F3+U3"] = [scalars.combine(
        [1, 1],
        [
            scalars.einsum("Bxab,ay,bz->Bxyz", p, phi2, phi2),
            scalars.einsum("Bxab,ay,bz->Bxyz", p, phi, phi),
        ],
    )]

    # F(phi y,phi z,x) + F(phi^2 y,phi^2 z,x) - F(phi z,phi y,x) - F(phi^2 z,phi^2 y,x)
    e1 = scalars.einsum("Babx,ay,bz->Bxyz", f, phi, phi)
    e2 = scalars.einsum("Babx,ay,bz->Bxyz", f, phi2, phi2)
    conds["F1+F2+U3"] = [scalars.combine(
        [1, 1, -1, -1], [e1, e2, scalars.einsum("Bxyz->Bxzy", e1), scalars.einsum("Bxyz->Bxzy", e2)]
    )]

    decided = {flag: arrays and scalars.zero_rows(arrays, s.eps, f, locate=False) for flag, arrays in conds.items()}
    decided["U1_assoc"] = decided["U1"][::-1]  # U1 of the other metric
    names = ("theta(xi)", "theta*(xi)", "div(eta)", "div*(eta)")
    reports = []
    for r, role in enumerate(roles):
        membership = {flag: rows[r][0] for flag, rows in decided.items()}
        residuals = {flag: rows[r][1] for flag, rows in decided.items()}
        membership["U3"] = membership["U2"] and membership["F3+U3"]
        residuals["U3"] = max(residuals["U2"], residuals["F3+U3"])
        values = [scalars.row(v, r) for v in (lee.theta_xi, lee.theta_star_xi, *div_pair)]
        reports.append(ClassificationReport(role, membership, residuals, dict(zip(names, values))))
    return reports


def nabla_xi_class_conditions(
    s: ACBStructure,
    nxi: np.ndarray,
    lam: np.ndarray,
    lee: LeeForms,
    div_pair,
    report: ClassificationReport,
) -> dict[str, list[np.ndarray]]:
    """For each basic class the structure belongs to, the arrays that vanish
    by the covariant-derivative-of-xi identity that class forces:

      F1,F2,F3,F10: nabla xi = 0         F4: nabla xi = (div*(eta)/2n) phi
      F5: nabla xi = -(div(eta)/2n) phi^2
      F6: symmetric, sign-reversed under phi, both divergences vanish
      F7/F8/F9: the corresponding symmetry pattern of m(nabla_. xi, .)
      F11: nabla xi = eta (x) (phi omega#)

    with ``nxi`` = nabla xi [k, i] for the Levi-Civita connection of a metric
    m of the pair, and ``lam`` [i, j] = m(nabla_{e_i} xi, e_j).
    """
    phi, eta = s.phi, s.eta
    div, div_star = div_pair

    @cache
    def lam_t():
        return scalars.einsum("ij->ji", lam)

    @cache
    def lam_phiphi():
        return scalars.einsum("ab,ai,bj->ij", lam, phi, phi)

    @cache
    def lam_plus(k, term):  # lam + k term, built once for F6-F9
        return scalars.combine([1, k], [lam, term()])

    def reeb_form():
        phi_om = scalars.einsum("ki,i->k", phi, lee.omega_sharp)
        return [scalars.combine([1, -1], [nxi, scalars.einsum("k,i->ki", phi_om, eta)])]

    # the arrays of each flag, built only for the classes the model is in
    conds = {
        **{flag: lambda: [nxi] for flag in ("F1", "F2", "F3", "F10")},
        "F4": lambda: [scalars.combine([1, _over_2n(s, div_star, -1)], [nxi, phi])],
        "F5": lambda: [scalars.combine([1, _over_2n(s, div)], [nxi, s.phi2])],
        "F6": lambda: [lam_plus(-1, lam_t), lam_plus(1, lam_phiphi), div, div_star],
        "F7": lambda: [lam_plus(1, lam_t), lam_plus(1, lam_phiphi)],
        "F8": lambda: [lam_plus(1, lam_t), lam_plus(-1, lam_phiphi)],
        "F9": lambda: [lam_plus(-1, lam_t), lam_plus(-1, lam_phiphi)],
        "F11": reeb_form,
    }
    return {flag: build() for flag, build in conds.items() if report.membership[flag]}
