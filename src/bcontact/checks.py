"""Executable verification suite.

Every statement the library relies on is run as a named check against a
concrete model: identities are evaluated over the whole basis, equivalences
as pairs of independently computed booleans, and quantities with two
derivation routes are compared entry by entry.  In rational mode a check
passes only with residual exactly zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import scalars, svk as svk_mod
from .curvature import (
    DegeneratePlaneError,
    HOLOMORPHIC,
    SectionPlane,
    TOTALLY_REAL,
    curvature_reeb_identity,
    ricci_xi_formula,
    section_type,
    sectional,
    svk_curvature_formula,
    svk_ricci_formula,
    svk_scalar_formula,
    svk_sectional_formula,
)
from .hv import (
    equivalence_chains,
    hv_split,
    potential_pi1_form,
    reference_components,
    torsion_pi1_form,
    wedge_form_operator,
)
from .liegroup import covariant_derivative
from .pipeline import MetricView, Workspace
from .structure import (
    assoc_fundamental_from_fundamental,
    fundamental_from_potential,
    potential_from_fundamental,
)
from .svk import (
    potential_from_torsion,
    svk_connection_projected,
    svk_covariant_phi_closed,
    svk_pair_covariant_phi,
    svk_pair_from_potential,
    svk_potential_closed,
    svk_torsion_closed,
    torsion_from_potential,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{status}  {self.name}  (max residual {self.residual:.3g}){extra}"


def _result(name, arrays, eps, ctx=(), detail="") -> CheckResult:
    residual = 0.0
    ok = True
    for a in arrays:
        a = np.asarray(a)
        residual = max(residual, scalars.residual(a))
        ok = ok and scalars.is_zero(a, eps, *ctx)
    return CheckResult(name, ok, residual, detail)


def _bool_result(name, booleans: dict[str, bool]) -> CheckResult:
    consistent = len(set(booleans.values())) <= 1
    detail = ", ".join(f"{k}={v}" for k, v in booleans.items())
    return CheckResult(name, consistent, 0.0 if consistent else 1.0, detail)


def _zero(arr, eps, *ctx):
    return scalars.is_zero(np.asarray(arr), eps, *ctx)


# ---------------------------------------------------------------------------
# individual checks; each takes the workspace and yields CheckResults
# ---------------------------------------------------------------------------

def check_structure_axioms(ws: Workspace):
    rep = ws.validation
    worst = max((c.residual for c in rep.checks), default=0.0)
    failed = [c.name for c in rep.failures()]
    yield CheckResult(
        "structure-axioms", rep.passed, worst, "; ".join(failed) if failed else ""
    )


def check_fundamental_identities(ws: Workspace):
    s, eps = ws.s, ws.eps
    phi, xi, eta = s.phi_m, s.xi_v, s.eta_v
    for view in (ws.g, ws.gt):
        f = view.fundamental.data
        fxiz = np.einsum("xmz,m->xz", f, xi)
        proj = (
            np.einsum("xab,ay,bz->xyz", f, phi, phi)
            + np.einsum("y,xz->xyz", eta, fxiz)
            + np.einsum("z,xy->xyz", eta, fxiz)
        )
        # F(x, phi y, xi) = (nabla_x eta)(y) = m(nabla_x xi, y)
        lam = np.einsum("ki,kj->ij", view.conn.nabla_of_constant(xi), view.metric.matrix)
        neta = covariant_derivative(view.conn, s.eta).data
        yield _result(
            f"fundamental-identities[{view.role}]",
            [
                f - np.einsum("xyz->xzy", f),
                f - proj,
                np.einsum("xaz,ay,z->xy", f, phi, xi) - lam,
                neta - lam,
            ],
            eps,
            (f,),
        )


def check_lee_identities(ws: Workspace):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        lee = view.lee
        yield _result(
            f"lee-form-identities[{view.role}]",
            [
                np.asarray(lee.omega.data @ s.xi_v),
                lee.theta_star.data @ s.phi_m + lee.theta.data @ s.phi2,
            ],
            eps,
            (view.fundamental.data,),
        )


def check_divergence_traces(ws: Workspace):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        div, div_star = view.div_pair
        yield _result(
            f"divergence-trace[{view.role}]",
            [
                np.asarray(view.lee.theta_xi(s) - div_star),
                np.asarray(view.lee.theta_star_xi(s) - div),
            ],
            eps,
        )


def check_nabla_xi_table(ws: Workspace):
    for view in (ws.g, ws.gt):
        res = view.nabla_xi_residuals
        worst = max(res.values(), default=0.0)
        classes = sorted(res)
        ok = all(
            v == 0.0 if ws.mode == scalars.RATIONAL else v <= ws.eps for v in res.values()
        )
        yield CheckResult(
            f"class-nabla-xi-table[{view.role}]",
            ok,
            worst,
            f"classes checked: {', '.join(classes) if classes else 'none'}",
        )


def check_potential_routes(ws: Workspace):
    s, eps = ws.s, ws.eps
    direct = ws.pot03.data
    closed = potential_from_fundamental(s, ws.g.fundamental, ws.g.lee).data
    yield _result(
        "potential-closed-form",
        [direct - closed, direct - np.einsum("xyz->yxz", direct)],
        eps,
        (direct,),
    )
    rebuilt = fundamental_from_potential(s, ws.pot03).data
    yield _result(
        "fundamental-reconstruction",
        [rebuilt - ws.g.fundamental.data],
        eps,
        (ws.g.fundamental.data,),
    )
    # full metric trace of the potential in its last two slots, at the Reeb slot
    yield _result(
        "potential-vertical-trace",
        [np.einsum("ij,mij,m->", s.metric.inv, direct, s.xi_v)],
        eps,
        (direct,),
    )


def check_assoc_fundamental(ws: Workspace):
    s, eps = ws.s, ws.eps
    direct = ws.gt.fundamental.data
    converted = assoc_fundamental_from_fundamental(s, ws.g.fundamental).data
    yield _result(
        "assoc-fundamental-two-routes", [direct - converted], eps, (direct,)
    )


def check_zero_class_equivalences(ws: Workspace):
    eps = ws.eps
    booleans = {
        "fundamental zero": _zero(ws.g.fundamental.data, eps),
        "potential zero": _zero(ws.pot.data, eps),
        "assoc fundamental zero": _zero(ws.gt.fundamental.data, eps),
        "connections coincide": _zero(
            ws.g.conn.gamma.data - ws.gt.conn.gamma.data, eps, ws.g.conn.gamma.data
        ),
    }
    yield _bool_result("zero-class-equivalences", booleans)


def check_svk_preserves_structure(ws: Workspace):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        d = view.svk
        yield _result(
            f"svk-preserves-structure[{view.role}]",
            [
                covariant_derivative(d, view.metric.tensor).data,
                d.nabla_of_constant(s.xi_v),
                covariant_derivative(d, s.eta).data,
            ],
            eps,
            (d.gamma.data, view.metric.matrix),
        )


def check_svk_two_routes(ws: Workspace):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        proj = svk_connection_projected(view.conn, s)
        yield _result(
            f"svk-projector-route[{view.role}]",
            [proj.gamma.data - view.svk.gamma.data],
            eps,
            (view.svk.gamma.data,),
        )


def check_svk_distributions(ws: Workspace):
    s, eps = ws.s, ws.eps
    eta, xi = s.eta_v, s.xi_v
    pv = np.einsum("k,l->kl", xi, eta)
    ph = scalars.eye(s.dim, s.mode) - pv
    for view in (ws.g, ws.gt):
        d = view.svk.gamma.data
        horiz_stays = np.einsum("k,kim,mj->ij", eta, d, ph)
        vert_stays = np.einsum("kl,lim,mj->kij", ph, d, pv)
        yield _result(
            f"svk-distributions-parallel[{view.role}]",
            [horiz_stays, vert_stays],
            eps,
            (d,),
        )


def check_svk_closed_forms(ws: Workspace):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        q_closed = svk_potential_closed(view.conn, s)
        t_closed = svk_torsion_closed(view.conn, s)
        yield _result(
            f"svk-potential-torsion-closed-forms[{view.role}]",
            [
                view.potential.data - q_closed.data,
                view.torsion.data - t_closed.data,
                view.torsion.data + np.einsum("kij->kji", view.torsion.data),
            ],
            eps,
            (view.potential.data, view.torsion.data),
        )


def check_torsion_potential_bijection(ws: Workspace):
    eps = ws.eps
    for view in (ws.g, ws.gt):
        q03, t03 = view.potential03, view.torsion03
        t_from_q = torsion_from_potential(q03)
        q_from_t = potential_from_torsion(t03)
        yield _result(
            f"torsion-potential-bijection[{view.role}]",
            [
                t_from_q.data - t03.data,
                q_from_t.data - q03.data,
                q03.data + np.einsum("xyz->xzy", q03.data),  # metric potentials
            ],
            eps,
            (q03.data, t03.data),
        )


def check_svk_coincidence(ws: Workspace):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        eq = _zero(view.svk.gamma.data - view.conn.gamma.data, eps, view.conn.gamma.data)
        par = _zero(view.conn.nabla_of_constant(s.xi_v), eps, view.conn.gamma.data)
        yield _bool_result(
            f"svk-coincides-iff-reeb-parallel[{view.role}]",
            {"svk equals levi-civita": eq, "nabla xi zero": par},
        )


def check_reeb_parallel_transfer(ws: Workspace):
    s, eps = ws.s, ws.eps
    booleans = {
        "svk(g) = lc(g)": _zero(
            ws.g.svk.gamma.data - ws.g.conn.gamma.data, eps, ws.g.conn.gamma.data
        ),
        "nabla xi = 0": _zero(ws.g.conn.nabla_of_constant(s.xi_v), eps),
        "svk(g~) = lc(g~)": _zero(
            ws.gt.svk.gamma.data - ws.gt.conn.gamma.data, eps, ws.gt.conn.gamma.data
        ),
        "nabla~ xi = 0": _zero(ws.gt.conn.nabla_of_constant(s.xi_v), eps),
    }
    yield _bool_result("reeb-parallel-transfer", booleans)


def check_svk_naturality(ws: Workspace):
    s, eps = ws.s, ws.eps
    u2 = ws.g.classification["U2"]
    dphi_zero = _zero(ws.g.svk_phi.data, eps, ws.g.svk.gamma.data)
    natural = svk_mod.is_natural(ws.g.svk, s, s.metric, eps)
    yield _bool_result(
        "svk-natural-iff-vertical-fundamental",
        {"svk-phi zero": dphi_zero, "U2 condition": u2, "is-natural": natural},
    )
    if u2:
        phib = svk_mod.phi_b_connection(ws.g.conn, s)
        yield _result(
            "phib-coincidence-on-u2",
            [phib.gamma.data - ws.g.svk.gamma.data],
            eps,
            (ws.g.svk.gamma.data,),
        )


def check_svk_pair_coincide(ws: Workspace):
    s, eps = ws.s, ws.eps
    same = _zero(
        ws.gt.svk.gamma.data - ws.g.svk.gamma.data, eps, ws.g.svk.gamma.data
    )
    # the potential-level condition that is exactly equivalent to the pair
    # coinciding: Phi(x,y) - eta(Phi(x,y)) xi - eta(y) Phi(x,xi) = 0
    p = ws.pot.data
    p_xi = np.einsum("lim,m->li", p, s.xi_v)
    vert = (
        p
        - np.einsum("m,mij,k->kij", s.eta_v, p, s.xi_v)
        - np.einsum("j,ki->kij", s.eta_v, p_xi)
    )
    yield _bool_result(
        "svk-pair-coincide-iff-potential-vertical",
        {"pair coincide": same, "potential vertical": _zero(vert, eps, p)},
    )
    yield _bool_result(
        "svk-pair-coincide-iff-u2",
        {"pair coincide": same, "U2 condition": ws.g.classification["U2"]},
    )


def check_svk_pair_routes(ws: Workspace):
    s, eps = ws.s, ws.eps
    via_pot = svk_pair_from_potential(ws.g.svk, ws.pot, s)
    yield _result(
        "svk-pair-potential-route",
        [via_pot.gamma.data - ws.gt.svk.gamma.data],
        eps,
        (ws.gt.svk.gamma.data,),
    )


def check_svk_phi_forms(ws: Workspace):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        closed = svk_covariant_phi_closed(view.conn, s)
        yield _result(
            f"svk-phi-closed-form[{view.role}]",
            [view.svk_phi.data - closed.data],
            eps,
            (view.svk_phi.data,),
        )
    relation = svk_pair_covariant_phi(ws.g.svk_phi, ws.pot, s)
    yield _result(
        "svk-pair-phi-relation",
        [relation.data - ws.gt.svk_phi.data],
        eps,
        (ws.gt.svk_phi.data,),
    )


def check_svk_phi_equalities(ws: Workspace):
    eps = ws.eps
    cls = ws.g.classification
    dphi_equal = _zero(
        ws.gt.svk_phi.data - ws.g.svk_phi.data, eps, ws.g.svk_phi.data
    )
    yield _bool_result(
        "svk-pair-phi-equal-iff",
        {"derivatives of phi coincide": dphi_equal, "F3+U3 condition": cls["F3+U3"]},
    )
    assoc_natural = _zero(ws.gt.svk_phi.data, eps, ws.gt.svk.gamma.data)
    yield _bool_result(
        "assoc-svk-natural-iff",
        {"assoc svk-phi zero": assoc_natural, "F1+F2+U3 condition": cls["F1+F2+U3"]},
    )
    both = _zero(ws.g.svk_phi.data, eps, ws.g.svk.gamma.data) and assoc_natural
    yield _bool_result(
        "both-svk-natural-iff-u3",
        {"both svk-phi zero": both, "U3 condition": cls["U3"]},
    )


def check_shape_operators(ws: Workspace):
    s, eps = ws.s, ws.eps
    from .tensor import sharp

    for view in (ws.g, ws.gt):
        sop = view.shape.operator.data
        horiz = np.einsum("ki,kj,j->i", sop, view.metric.matrix, s.xi_v)
        omega_sharp = sharp(view.lee.omega, view.metric).data
        reeb_row = sop @ s.xi_v + s.phi_m @ omega_sharp
        yield _result(
            f"shape-operator-identities[{view.role}]",
            [horiz, reeb_row],
            eps,
            (sop,),
        )
    # pair relations through the potential
    pot = ws.pot.data
    pot_xi = np.einsum("lim,m->li", pot, s.xi_v)
    yield _result(
        "shape-pair-relations",
        [
            ws.gt.shape.operator.data - (ws.g.shape.operator.data - pot_xi),
            ws.gt.shape.diamond.data
            - (
                np.einsum("im,mj->ij", ws.g.shape.diamond.data, s.phi_m)
                - np.einsum("mia,ab,m->ib", ws.pot03.data, s.phi_m, s.xi_v)
            ),
        ],
        eps,
        (ws.g.shape.diamond.data,),
    )


def check_trace_identity(ws: Workspace):
    s, eps = ws.s, ws.eps
    div, _ = ws.g.div_pair
    tr = ws.g.shape.trace
    tr_assoc = ws.gt.shape.trace
    theta_star_xi = ws.g.lee.theta_star_xi(s)
    yield _result(
        "shape-trace-identity",
        [
            np.asarray(tr - tr_assoc),
            np.asarray(tr + div),
            np.asarray(tr + theta_star_xi),
        ],
        eps,
    )


def check_qt_components(ws: Workspace):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        comps = hv_split(s, view.potential, view.torsion)
        by_conn, by_shape = reference_components(s, view.conn, view.shape)
        arrays = [
            comps.q_h.data + comps.q_v.data - view.potential.data,
            comps.t_h.data + comps.t_v.data - view.torsion.data,
            comps.q_h.data - by_conn.q_h.data,
            comps.q_v.data - by_conn.q_v.data,
            comps.t_h.data - by_conn.t_h.data,
            comps.t_v.data - by_conn.t_v.data,
            comps.q_h.data - by_shape.q_h.data,
            comps.q_v.data - by_shape.q_v.data,
            comps.t_h.data - by_shape.t_h.data,
            comps.t_v.data - by_shape.t_v.data,
        ]
        yield _result(
            f"potential-torsion-hv-components[{view.role}]",
            arrays,
            eps,
            (view.potential.data, view.torsion.data),
        )
        yield _result(
            f"potential-torsion-pi1-forms[{view.role}]",
            [
                view.potential03.data - potential_pi1_form(s, view.shape, view.metric).data,
                view.torsion03.data - torsion_pi1_form(s, view.shape, view.metric).data,
            ],
            eps,
            (view.potential03.data,),
        )


def check_qt_pair_relations(ws: Workspace):
    s, eps = ws.s, ws.eps
    pot = ws.pot.data
    eta, xi = s.eta_v, s.xi_v
    pot_xi = np.einsum("lim,m->li", pot, xi)
    eta_pot = np.einsum("m,mij->ij", eta, pot)

    q, qt = ws.g.potential.data, ws.gt.potential.data
    t, tt = ws.g.torsion.data, ws.gt.torsion.data
    rel_q = qt - (
        q - np.einsum("j,ki->kij", eta, pot_xi) - np.einsum("ij,k->kij", eta_pot, xi)
    )
    rel_t = tt - (
        t + np.einsum("i,kj->kij", eta, pot_xi) - np.einsum("j,ki->kij", eta, pot_xi)
    )

    ds = ws.gt.shape.operator.data - ws.g.shape.operator.data
    dsd = ws.gt.shape.diamond.data - ws.g.shape.diamond.data
    rel_q_shape = qt - (
        q + np.einsum("ki,j->kij", ds, eta) - np.einsum("ij,k->kij", dsd, xi)
    )
    rel_t_shape = tt - (t - wedge_form_operator(eta, ds))

    comps = hv_split(s, ws.g.potential, ws.g.torsion)
    comps_t = hv_split(s, ws.gt.potential, ws.gt.torsion)
    arrays = [
        rel_q,
        rel_t,
        rel_q_shape,
        rel_t_shape,
        comps_t.t_v.data - comps.t_v.data,
        comps_t.q_h.data - (comps.q_h.data + np.einsum("ki,j->kij", ds, eta)),
        comps_t.q_v.data - (comps.q_v.data - np.einsum("ij,k->kij", dsd, xi)),
        comps_t.t_h.data - (comps.t_h.data - wedge_form_operator(eta, ds)),
    ]
    yield _result(
        "potential-torsion-pair-relations", arrays, eps, (q, t, qt, tt)
    )


def check_equivalence_chains(ws: Workspace):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        chains = equivalence_chains(
            s, view.conn, view.svk, view.shape, view.potential, view.torsion,
            view.metric, eps,
        )
        for chain in chains:
            yield _bool_result(f"chain-{chain.name}[{view.role}]", chain.predicates)


def check_svk_curvature(ws: Workspace):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        formula = svk_curvature_formula(s, view.curv.r04, view.shape, view.metric)
        yield _result(
            f"svk-curvature-relation[{view.role}]",
            [view.curv.r04_svk.data - formula.data],
            eps,
            (view.curv.r04.data, view.curv.r04_svk.data),
        )
        rho_formula = svk_ricci_formula(
            s, view.curv.r04, view.curv.rho, view.shape, view.metric
        )
        yield _result(
            f"svk-ricci-relation[{view.role}]",
            [view.curv.rho_svk.data - rho_formula.data],
            eps,
            (view.curv.rho.data,),
        )
        tau_formula = svk_scalar_formula(view.curv.tau, view.rho_xi_xi, view.shape)
        yield _result(
            f"svk-scalar-relation[{view.role}]",
            [np.asarray(view.curv.tau_svk - tau_formula)],
            eps,
        )
        via_shape = ricci_xi_formula(s, view.conn, view.shape, view.metric)
        yield _result(
            f"ricci-reeb-formula[{view.role}]",
            [np.asarray(view.rho_xi_xi - via_shape)],
            eps,
        )
        yield _result(
            f"curvature-reeb-identity[{view.role}]",
            [curvature_reeb_identity(s, view.conn, view.shape)],
            eps,
            (view.curv.r04.data,),
        )


def check_curvature_symmetries(ws: Workspace):
    eps = ws.eps
    for view in (ws.g, ws.gt):
        r = view.curv.r04.data
        bianchi = r + np.einsum("ijkl->jkil", r) + np.einsum("ijkl->kijl", r)
        yield _result(
            f"curvature-symmetries[{view.role}]",
            [
                r + np.einsum("ijkl->jikl", r),
                r + np.einsum("ijkl->ijlk", r),
                r - np.einsum("ijkl->klij", r),
                bianchi,
            ],
            eps,
            (r,),
        )
        rd = view.curv.r04_svk.data
        measured = {
            "last-pair-antisymmetric": _zero(rd + np.einsum("ijkl->ijlk", rd), eps, rd),
            "pair-exchange-symmetric": _zero(rd - np.einsum("ijkl->klij", rd), eps, rd),
        }
        yield _result(
            f"svk-curvature-first-pair-antisymmetry[{view.role}]",
            [rd + np.einsum("ijkl->jikl", rd)],
            eps,
            (rd,),
            detail="measured: " + ", ".join(f"{k}={v}" for k, v in measured.items()),
        )


# ---------------------------------------------------------------------------
# sectional-curvature sampling
# ---------------------------------------------------------------------------

def _random_vector(rng: np.random.Generator, dim: int, mode: str) -> np.ndarray:
    vals = rng.integers(-3, 4, size=dim)
    if mode == scalars.RATIONAL:
        from fractions import Fraction

        out = np.empty(dim, dtype=object)
        for i, v in enumerate(vals):
            out[i] = Fraction(int(v))
        return out
    return vals.astype(np.float64)


def sample_planes(ws: Workspace, view: MetricView, seed: int, count: int = 20):
    """Seeded non-degenerate 2-planes for the sectional-curvature checks."""
    rng = np.random.default_rng(seed)
    planes = []
    attempts = 0
    while len(planes) < count and attempts < 60 * count:
        attempts += 1
        x = _random_vector(rng, ws.s.dim, ws.mode)
        y = _random_vector(rng, ws.s.dim, ws.mode)
        plane = SectionPlane(x, y)
        try:
            plane.check_nondegenerate(view.metric, ws.eps)
        except DegeneratePlaneError:
            continue
        planes.append(plane)
    return planes


def xi_section_candidates(ws: Workspace, view: MetricView):
    """Non-degenerate planes containing the Reeb vector."""
    s = ws.s
    out = []
    for e in scalars.eye(s.dim, ws.mode):
        h = svk_mod.project_h(s, e)  # horizontal part, so the plane is honest
        if _zero(h, ws.eps):
            continue
        for cand in (h, h + s.phi_m @ h):
            plane = SectionPlane(cand, s.xi_v)
            try:
                plane.check_nondegenerate(view.metric, ws.eps)
            except DegeneratePlaneError:
                continue
            out.append(plane)
    return out


def check_sectional_curvature(ws: Workspace, seed: int = 0, count: int = 20):
    s, eps = ws.s, ws.eps
    for view in (ws.g, ws.gt):
        planes = sample_planes(ws, view, seed + (0 if view.role == "g" else 1), count)
        residual = 0.0
        ok = True
        for plane in planes:
            direct = sectional(view.curv.r04_svk, view.metric, plane, eps)
            formula = svk_sectional_formula(
                plane, view.curv.r04, view.shape, s, view.metric, eps
            )
            r = scalars.residual(np.asarray(direct - formula))
            residual = max(residual, r)
            ok = ok and _zero(np.asarray(direct - formula), eps, view.curv.r04.data)
        yield CheckResult(
            f"sectional-relation[{view.role}]",
            ok and len(planes) >= count,
            residual,
            f"{len(planes)} sampled planes",
        )

        xi_planes = xi_section_candidates(ws, view)
        arrays = [
            np.asarray(sectional(view.curv.r04_svk, view.metric, p, eps))
            for p in xi_planes
        ]
        yield _result(
            f"reeb-section-flatness[{view.role}]",
            arrays,
            eps,
            (view.curv.r04_svk.data,),
            detail=f"{len(xi_planes)} reeb sections",
        )

        # invariance of the sectional value under change of plane basis
        rng = np.random.default_rng(seed + 17)
        inv_res = 0.0
        inv_ok = True
        for plane in planes[:5]:
            for _ in range(3):
                a, b, c, d = (int(v) for v in rng.integers(-3, 4, size=4))
                if a * d - b * c == 0:
                    continue
                conv = scalars.one(ws.mode)
                x2 = plane.x * (conv * a) + plane.y * (conv * b)
                y2 = plane.x * (conv * c) + plane.y * (conv * d)
                other = SectionPlane(x2, y2)
                try:
                    v1 = sectional(view.curv.r04_svk, view.metric, plane, eps)
                    v2 = sectional(view.curv.r04_svk, view.metric, other, eps)
                except DegeneratePlaneError:
                    continue
                diff = scalars.residual(np.asarray(v1 - v2))
                inv_res = max(inv_res, diff)
                inv_ok = inv_ok and _zero(np.asarray(v1 - v2), eps, np.asarray([v1]))
        yield CheckResult(
            f"sectional-basis-invariance[{view.role}]", inv_ok, inv_res
        )

        # specialized forms for distinguished section types
        spec_res = 0.0
        spec_ok = True
        counted = {HOLOMORPHIC: 0, TOTALLY_REAL: 0}
        hol = _holomorphic_candidates(ws, view)
        tre = _totally_real_candidates(ws, view)
        for plane, kind in [(p, HOLOMORPHIC) for p in hol] + [
            (p, TOTALLY_REAL) for p in tre
        ]:
            k_direct = sectional(view.curv.r04_svk, view.metric, plane, eps)
            x, y = plane.x, plane.y
            sx = view.shape.operator.data @ x
            sy = view.shape.operator.data @ y
            from .hv import pi1

            corr = pi1(view.metric, sx, sy, y, x) / plane.denominator(view.metric)
            k_base = sectional(view.curv.r04, view.metric, plane, eps)
            diff = scalars.residual(np.asarray(k_direct - (k_base + corr)))
            spec_res = max(spec_res, diff)
            spec_ok = spec_ok and _zero(
                np.asarray(k_direct - (k_base + corr)), eps, view.curv.r04.data
            )
            counted[kind] += 1
        yield CheckResult(
            f"sectional-special-types[{view.role}]",
            spec_ok,
            spec_res,
            f"holomorphic={counted[HOLOMORPHIC]}, totally-real={counted[TOTALLY_REAL]}",
        )


def _horizontal_basis(ws: Workspace):
    s = ws.s
    out = []
    for e in scalars.eye(s.dim, ws.mode):
        h = svk_mod.project_h(s, e)
        if not _zero(h, ws.eps):
            out.append(h)
    return out


def _holomorphic_candidates(ws: Workspace, view: MetricView):
    s = ws.s
    out = []
    for h in _horizontal_basis(ws):
        plane = SectionPlane(h, s.phi_m @ h)
        try:
            kind, _ = section_type(plane, s, view.metric, ws.eps)
        except DegeneratePlaneError:
            continue
        if kind == HOLOMORPHIC:
            out.append(plane)
    return out


def _totally_real_candidates(ws: Workspace, view: MetricView):
    s = ws.s
    if s.dim < 5:
        return []
    out = []
    basis = _horizontal_basis(ws)
    for hi, hj in combinations(basis, 2):
        plane = SectionPlane(hi, hj)
        try:
            kind, ortho = section_type(plane, s, view.metric, ws.eps)
        except DegeneratePlaneError:
            continue
        if kind == TOTALLY_REAL and ortho:
            out.append(plane)
    return out


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

CHECKS = [
    check_fundamental_identities,
    check_lee_identities,
    check_divergence_traces,
    check_nabla_xi_table,
    check_potential_routes,
    check_assoc_fundamental,
    check_zero_class_equivalences,
    check_svk_preserves_structure,
    check_svk_two_routes,
    check_svk_distributions,
    check_svk_closed_forms,
    check_torsion_potential_bijection,
    check_svk_coincidence,
    check_reeb_parallel_transfer,
    check_svk_naturality,
    check_svk_pair_coincide,
    check_svk_pair_routes,
    check_svk_phi_forms,
    check_svk_phi_equalities,
    check_shape_operators,
    check_trace_identity,
    check_qt_components,
    check_qt_pair_relations,
    check_equivalence_chains,
    check_svk_curvature,
    check_curvature_symmetries,
]


def run_checks(ws: Workspace, seed: int = 0, plane_count: int = 20) -> list[CheckResult]:
    """Every check on one model; the only place where the second derivation
    routes are computed and compared with the Workspace's primary ones.

    ``structure-axioms`` comes first; when it fails the suite stops there,
    because nothing derived from an invalid structure is meaningful.
    """
    results = list(check_structure_axioms(ws))
    if not ws.validation.passed:
        return results
    for fn in CHECKS:
        results.extend(fn(ws))
    results.extend(check_sectional_curvature(ws, seed=seed, count=plane_count))
    return results
