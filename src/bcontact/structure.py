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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import scalars
from .liegroup import LieAlgebra, covariant_derivative, nabla_of_constant
from .tensor import Metric, sharp


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
    fixed when the model is loaded.  The component arrays are made read-only
    on construction.
    """

    algebra: LieAlgebra
    phi: np.ndarray  # (1,1)
    xi: np.ndarray  # (1,0)
    eta: np.ndarray  # (0,1)
    metric: Metric
    eps: float

    def __post_init__(self):
        if self.dim % 2 == 0:
            raise ValueError("almost contact structures need odd dimension")
        scalars.freeze(self)

    @cached_property
    def assoc(self) -> Metric:
        """g~(x,y) = g(x, phi y) + eta(x) eta(y); built on first use, since it
        is a metric only when the axioms on g hold."""
        return scalars.freeze(associated_of(self.metric, self))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    @property
    def mode(self) -> str:
        return scalars.mode_of(self.phi)

    @property
    def phi2(self) -> np.ndarray:
        return self.phi @ self.phi


def associated_of(m: Metric, s: "ACBStructure") -> Metric:
    """Associated metric of an arbitrary B-metric for the same (phi, eta)."""
    mat = scalars.einsum("im,mj->ij", m.matrix, s.phi) + scalars.einsum(
        "i,j->ij", s.eta, s.eta
    )
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

    def b_metric(m):
        return scalars.einsum("mi,rj,mr->ij", phi, phi, m) + m - scalars.einsum("i,j->ij", eta, eta)

    def signature(name, m: Metric):
        ok = m.signature == (n + 1, n)
        return CheckResult(name, ok, 0.0 if ok else 1.0)

    checks = [
        row("phi(xi) = 0", phi @ xi, phi),
        row(
            "phi^2 = -id + eta (x) xi",
            phi @ phi + scalars.eye(s.dim, s.mode) - scalars.einsum("i,j->ij", xi, eta),
            phi,
        ),
        row("eta o phi = 0", eta @ phi, phi),
        row("eta(xi) = 1", eta @ xi - 1),
        row("g(phi x, phi y) = -g(x,y) + eta(x) eta(y)", b_metric(g), g),
        row("g(xi, xi) = 1", s.metric.inner(xi, xi) - 1, g),
        row("g(xi, .) = eta", scalars.einsum("ij,i->j", g, xi) - eta, g),
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
        row(assoc_names[1], gt.inner(xi, xi) - 1, gt.matrix),
        row(assoc_names[2], b_metric(gt.matrix), gt.matrix),
    ]
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# fundamental tensor and Lee forms
# ---------------------------------------------------------------------------

def fundamental_tensor(s: ACBStructure, conn: np.ndarray, m: Metric) -> np.ndarray:
    """F(x,y,z) = m((nabla_x phi) y, z) for the Levi-Civita connection of m.

    Its defining symmetries are checked by ``fundamental-identities``.
    """
    nphi = covariant_derivative(conn, s.phi, 1)  # [l, x, y]
    return scalars.einsum("lxy,lz->xyz", nphi, m.matrix)


@dataclass(frozen=True)
class LeeForms:
    """The three metric contractions of a fundamental tensor."""

    theta: np.ndarray
    theta_star: np.ndarray
    omega: np.ndarray
    omega_sharp: np.ndarray

    def theta_xi(self, s: ACBStructure):
        return self.theta @ s.xi

    def theta_star_xi(self, s: ACBStructure):
        return self.theta_star @ s.xi


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
    omega = scalars.einsum("i,j,ijz->z", xi, xi, f)
    theta = scalars.einsum("ij,ijz->z", m.inv, f) - omega
    theta_star = scalars.einsum("ij,mj,imz->z", m.inv, phi, f)
    return LeeForms(theta, theta_star, omega, sharp(omega, m))


def divergences(s: ACBStructure, conn: np.ndarray, m: Metric, m_assoc: Metric):
    """div(eta) and div*(eta) for the structure carried by the metric m.

    Both divergences contract the same covariant derivative of eta (taken
    with the Levi-Civita connection of m); the plain one traces with m, the
    starred one with the associated metric of m.  The trace identities
    theta(xi) = div*(eta) and theta*(xi) = div(eta) are checked by
    ``divergence-trace``.
    """
    neta = covariant_derivative(conn, s.eta, 0)
    div = scalars.einsum("ij,ij->", m.inv, neta)
    div_star = scalars.einsum("ij,ij->", m_assoc.inv, neta)
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
    b = fxi + fphiphixi.T
    zc = (
        -f_xi_first
        + fxi
        + fxiphiy
        - scalars.einsum("x,y->xy", om_phi, eta)
        + fxi.T
        + fxiphiy.T
        - scalars.einsum("y,x->xy", om_phi, eta)
    )
    two_phi = (
        -f_xyphiz
        - scalars.einsum("xyz->yxz", f_xyphiz)
        + fphiz_xy
        + scalars.einsum("x,yz->xyz", eta, b)
        + scalars.einsum("y,xz->xyz", eta, b)
        + scalars.einsum("z,xy->xyz", eta, zc)
    )
    return two_phi / 2


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
    bracket = pxi - pxiphiy + pfirst - pfirstphi  # indexed [x,y]
    return (
        p_xyphiz
        + scalars.einsum("xyz->xzy", p_xyphiz)
        + scalars.einsum("z,xy->xyz", eta, bracket) / 2
        + scalars.einsum("y,xz->xyz", eta, bracket) / 2
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
    bx = fxi + fphiphixi.T + fxi.T + fphiphixi  # [y,z] bracket of the eta(x) term
    by = fxi + fphiphixi.T + fxiphiy  # [x,z] bracket of the eta(y) term
    two_ft = (
        t1
        - t2
        + t3
        - t4
        + scalars.einsum("x,yz->xyz", eta, bx)
        + scalars.einsum("y,xz->xyz", eta, by)
        + scalars.einsum("z,xy->xyz", eta, by)
    )
    return two_ft / 2


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


def _inv2n(s: ACBStructure):
    """1 / 2n in the structure's scalar mode."""
    return scalars.parse_scalar(Fraction(1, 2 * s.n), s.mode)


def _class_conditions(s: ACBStructure, f: np.ndarray, lee: LeeForms, m: Metric):
    """Residual arrays for the defining identity of each basic class."""
    phi, xi, eta, g = s.phi, s.xi, s.eta, m.matrix
    phi2 = s.phi2
    theta, theta_star = lee.theta, lee.theta_star
    omega = lee.omega
    inv2n = _inv2n(s)

    g_phi = scalars.einsum("im,mj->ij", g, phi)  # g(e_i, phi e_j)
    g_phiphi = scalars.einsum("mi,rj,mr->ij", phi, phi, g)  # g(phi e_i, phi e_j)
    th_phi = theta @ phi
    th_phi2 = theta @ phi2
    fxi = scalars.einsum("xym,m->xy", f, xi)  # F(x,y,xi)
    f_first_xi = scalars.einsum("mxy,m->xy", f, xi)  # F(xi,y,z)
    f_mid_xi = scalars.einsum("xmy,m->xy", f, xi)  # F(x,xi,z)
    fxi_phiphi = scalars.einsum("abm,ax,by,m->xy", f, phi, phi, xi)  # F(phi x, phi y, xi)

    conds: dict[str, list[np.ndarray]] = {}

    rhs1 = (
        scalars.einsum("xy,z->xyz", g_phi, th_phi)
        + scalars.einsum("xy,z->xyz", g_phiphi, th_phi2)
        + scalars.einsum("xz,y->xyz", g_phi, th_phi)
        + scalars.einsum("xz,y->xyz", g_phiphi, th_phi2)
    ) * inv2n
    conds["F1"] = [f - rhs1]

    f_phi_z = scalars.einsum("xym,mz->xyz", f, phi)  # F(x,y,phi z)
    cyc_phi = f_phi_z + scalars.einsum("xyz->yzx", f_phi_z) + scalars.einsum("xyz->zxy", f_phi_z)
    cyc = f + scalars.einsum("xyz->yzx", f) + scalars.einsum("xyz->zxy", f)
    conds["F2"] = [f_first_xi, f_mid_xi, cyc_phi, theta]
    conds["F3"] = [f_first_xi, f_mid_xi, cyc]

    txi = lee.theta_xi(s)
    rhs4 = -(
        scalars.einsum("xy,z->xyz", g_phiphi, eta) + scalars.einsum("xz,y->xyz", g_phiphi, eta)
    ) * (txi * inv2n)
    conds["F4"] = [f - rhs4]

    tsxi = lee.theta_star_xi(s)
    rhs5 = -(
        scalars.einsum("xy,z->xyz", g_phi, eta) + scalars.einsum("xz,y->xyz", g_phi, eta)
    ) * (tsxi * inv2n)
    conds["F5"] = [f - rhs5]

    vert_form = scalars.einsum("xy,z->xyz", fxi, eta) + scalars.einsum("xz,y->xyz", fxi, eta)
    form_res = f - vert_form
    conds["F6"] = [form_res, fxi - fxi.T, fxi + fxi_phiphi, theta, theta_star]
    conds["F7"] = [form_res, fxi + fxi.T, fxi + fxi_phiphi]
    conds["F8"] = [form_res, fxi - fxi.T, fxi - fxi_phiphi]
    conds["F9"] = [form_res, fxi + fxi.T, fxi - fxi_phiphi]

    f_xi_phiphi = scalars.einsum("mab,m,ay,bz->yz", f, xi, phi, phi)  # F(xi, phi y, phi z)
    conds["F10"] = [f - scalars.einsum("x,yz->xyz", eta, f_xi_phiphi)]

    rhs11 = scalars.einsum("x,y,z->xyz", eta, eta, omega) + scalars.einsum(
        "x,z,y->xyz", eta, eta, omega
    )
    conds["F11"] = [f - rhs11]
    return conds


def classify(
    s: ACBStructure,
    f: np.ndarray,
    lee: LeeForms,
    m: Metric,
    conn: np.ndarray,
    conn_partner: np.ndarray,
    pot03: np.ndarray,
    div_pair,
    metric_role: str = "g",
) -> ClassificationReport:
    """Decide every membership flag by direct substitution into the defining
    identities over the whole basis.

    ``conn`` is the Levi-Civita connection belonging to ``m``; ``conn_partner``
    is the one belonging to the other metric of the pair, used for the
    U1_assoc flag.  ``pot03`` is the (0,3) potential of the partner connection
    with respect to ``conn``, lowered by ``m``.
    """
    phi, xi, eta = s.phi, s.xi, s.eta
    phi2 = s.phi2
    conds = {"F0": [f], **_class_conditions(s, f, lee, m)}
    conds["U1"] = [nabla_of_constant(conn, xi)]
    conds["U1_assoc"] = [nabla_of_constant(conn_partner, xi)]

    fxi = scalars.einsum("xym,m->xy", f, xi)
    conds["U2"] = [
        f - scalars.einsum("xy,z->xyz", fxi, eta) - scalars.einsum("xz,y->xyz", fxi, eta)
    ]

    p = pot03
    conds["F3+U3"] = [
        scalars.einsum("xab,ay,bz->xyz", p, phi2, phi2)
        + scalars.einsum("xab,ay,bz->xyz", p, phi, phi)
    ]

    # F(phi y,phi z,x) + F(phi^2 y,phi^2 z,x) - F(phi z,phi y,x) - F(phi^2 z,phi^2 y,x)
    e1 = scalars.einsum("abx,ay,bz->xyz", f, phi, phi)
    e2 = scalars.einsum("abx,ay,bz->xyz", f, phi2, phi2)
    conds["F1+F2+U3"] = [e1 + e2 - scalars.einsum("xyz->xzy", e1) - scalars.einsum("xyz->xzy", e2)]

    membership: dict[str, bool] = {}
    residuals: dict[str, float] = {}
    for flag, arrays in conds.items():
        membership[flag], residuals[flag], _ = scalars.zero_test(arrays, s.eps, f)
    membership["U3"] = membership["U2"] and membership["F3+U3"]
    residuals["U3"] = max(residuals["U2"], residuals["F3+U3"])

    div, div_star = div_pair
    report_scalars = {
        "theta(xi)": lee.theta_xi(s),
        "theta*(xi)": lee.theta_star_xi(s),
        "div(eta)": div,
        "div*(eta)": div_star,
    }
    return ClassificationReport(metric_role, membership, residuals, report_scalars)


def nabla_xi_class_conditions(
    s: ACBStructure,
    conn: np.ndarray,
    m: Metric,
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
    """
    phi, xi, eta = s.phi, s.xi, s.eta
    nxi = nabla_of_constant(conn, xi)  # [k, i]
    lam = scalars.einsum("ki,kj->ij", nxi, m.matrix)  # m(nabla_{e_i} xi, e_j)
    lam_phiphi = scalars.einsum("ab,ai,bj->ij", lam, phi, phi)
    div, div_star = div_pair
    inv2n = _inv2n(s)
    phi_om = phi @ sharp(lee.omega, m)

    conds = {flag: [nxi] for flag in ("F1", "F2", "F3", "F10")}
    conds["F4"] = [nxi - phi * (div_star * inv2n)]
    conds["F5"] = [nxi + s.phi2 * (div * inv2n)]
    conds["F6"] = [lam - lam.T, lam + lam_phiphi, div, div_star]
    conds["F7"] = [lam + lam.T, lam + lam_phiphi]
    conds["F8"] = [lam + lam.T, lam - lam_phiphi]
    conds["F9"] = [lam - lam.T, lam - lam_phiphi]
    conds["F11"] = [nxi - scalars.einsum("k,i->ki", phi_om, eta)]
    return {flag: arrays for flag, arrays in conds.items() if report.membership[flag]}
