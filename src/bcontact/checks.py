"""Executable verification suite.

Every statement the library relies on is run as a named check against a
concrete model: identities are evaluated over the whole basis, equivalences
as pairs of independently computed booleans, and quantities with two
derivation routes are compared entry by entry.  In rational mode a check
passes only with residual exactly zero.
"""
from __future__ import annotations

from fractions import Fraction
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
    svk_curvature_symmetries,
    svk_ricci_formula,
    svk_scalar_formula,
    svk_sectional_formula,
)
from .hv import (
    equivalence_chains,
    hv_split,
    pi1,
    potential_pi1_form,
    reference_components,
    torsion_pi1_form,
    wedge_form_operator,
)
from .liegroup import covariant_derivative, nabla_of_constant, torsion
from .pipeline import MetricView, Workspace
from .structure import (
    CheckResult,
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

# sampled planes per metric in the sectional-curvature checks
PLANE_COUNT = 20


def _bool_result(name, booleans: dict[str, bool]) -> CheckResult:
    consistent = len(set(booleans.values())) <= 1
    detail = ", ".join(f"{k}={v}" for k, v in booleans.items())
    return CheckResult(name, consistent, 0.0 if consistent else 1.0, detail=detail)


# ---------------------------------------------------------------------------
# individual checks; each takes the workspace and yields CheckResults
# ---------------------------------------------------------------------------

def check_structure_axioms(ws: Workspace):
    rep = ws.validation
    worst = max((c.residual for c in rep.checks), default=0.0)
    failed = [c.name for c in rep.failures()]
    yield CheckResult("structure-axioms", rep.passed, worst, detail="; ".join(failed))


def check_fundamental_identities(ws: Workspace):
    """The identities F is built on: its symmetries, the projection identity,
    F(x, phi y, xi) = m(nabla_x xi, y) = (nabla_x eta)(y), and the two
    properties of the Levi-Civita connection F is taken with (torsion-free,
    metric)."""
    s = ws.s
    phi, xi, eta = s.phi, s.xi, s.eta
    for view in (ws.g, ws.gt):
        conn, m = view.conn, view.metric
        f = view.fundamental
        fxiz = np.einsum("xmz,m->xz", f, xi)
        proj = (
            np.einsum("xab,ay,bz->xyz", f, phi, phi)
            + np.einsum("y,xz->xyz", eta, fxiz)
            + np.einsum("z,xy->xyz", eta, fxiz)
        )
        # F(x, phi y, xi) = (nabla_x eta)(y) = m(nabla_x xi, y)
        lam = np.einsum("ki,kj->ij", nabla_of_constant(conn, xi), m.matrix)
        neta = covariant_derivative(conn, s.eta, 0)
        yield CheckResult(
            f"fundamental-identities[{view.role}]",
            *scalars.zero_test(
                [
                    f - np.einsum("xyz->xzy", f),
                    f - proj,
                    np.einsum("xaz,ay,z->xy", f, phi, xi) - lam,
                    neta - lam,
                    torsion(conn, s.algebra),
                    covariant_derivative(conn, m.matrix, 0),
                ],
                s.eps,
                f,
                conn,
                m.matrix,
            ),
        )


def check_lee_identities(ws: Workspace):
    s = ws.s
    for view in (ws.g, ws.gt):
        lee = view.lee
        yield CheckResult(
            f"lee-form-identities[{view.role}]",
            *scalars.zero_test(
                [
                    lee.omega @ s.xi,
                    lee.theta_star @ s.phi + lee.theta @ s.phi2,
                ],
                s.eps,
                view.fundamental,
            ),
        )


def check_divergence_traces(ws: Workspace):
    s = ws.s
    for view in (ws.g, ws.gt):
        div, div_star = view.div_pair
        yield CheckResult(
            f"divergence-trace[{view.role}]",
            *scalars.zero_test(
                [view.lee.theta_xi(s) - div_star, view.lee.theta_star_xi(s) - div],
                s.eps,
            ),
        )


def check_nabla_xi_table(ws: Workspace):
    for view in (ws.g, ws.gt):
        conds = view.nabla_xi_conditions
        yield CheckResult(
            f"class-nabla-xi-table[{view.role}]",
            *scalars.zero_test(
                [a for arrays in conds.values() for a in arrays],
                ws.s.eps,
                view.conn,
            ),
            detail=f"classes checked: {', '.join(sorted(conds)) or 'none'}",
        )


def check_potential_routes(ws: Workspace):
    s = ws.s
    direct = ws.pot03
    closed = potential_from_fundamental(s, ws.g.fundamental, ws.g.lee)
    yield CheckResult(
        "potential-closed-form",
        *scalars.zero_test(
            [direct - closed, direct - np.einsum("xyz->yxz", direct)], s.eps, direct
        ),
    )
    f = ws.g.fundamental
    rebuilt = fundamental_from_potential(s, ws.pot03)
    yield CheckResult(
        "fundamental-reconstruction", *scalars.zero_test([rebuilt - f], s.eps, f)
    )
    # full metric trace of the potential in its last two slots, at the Reeb slot
    yield CheckResult(
        "potential-vertical-trace",
        *scalars.zero_test(
            [np.einsum("ij,mij,m->", s.metric.inv, direct, s.xi)], s.eps, direct
        ),
    )


def check_assoc_fundamental(ws: Workspace):
    s = ws.s
    direct = ws.gt.fundamental
    converted = assoc_fundamental_from_fundamental(s, ws.g.fundamental)
    yield CheckResult(
        "assoc-fundamental-two-routes",
        *scalars.zero_test([direct - converted], s.eps, direct),
    )


def check_zero_class_equivalences(ws: Workspace):
    eps = ws.s.eps
    gamma, gamma_t = ws.g.conn, ws.gt.conn
    booleans = {
        "fundamental zero": scalars.is_zero(ws.g.fundamental, eps),
        "potential zero": scalars.is_zero(ws.pot, eps),
        "assoc fundamental zero": scalars.is_zero(ws.gt.fundamental, eps),
        "connections coincide": scalars.is_zero(gamma - gamma_t, eps, gamma),
    }
    yield _bool_result("zero-class-equivalences", booleans)


def check_svk_preserves_structure(ws: Workspace):
    s = ws.s
    for view in (ws.g, ws.gt):
        d = view.svk
        yield CheckResult(
            f"svk-preserves-structure[{view.role}]",
            *scalars.zero_test(
                [
                    covariant_derivative(d, view.metric.matrix, 0),
                    nabla_of_constant(d, s.xi),
                    covariant_derivative(d, s.eta, 0),
                ],
                s.eps,
                d,
                view.metric.matrix,
            ),
        )


def check_svk_two_routes(ws: Workspace):
    s = ws.s
    for view in (ws.g, ws.gt):
        proj = svk_connection_projected(view.conn, s)
        d = view.svk
        yield CheckResult(
            f"svk-projector-route[{view.role}]", *scalars.zero_test([proj - d], s.eps, d)
        )


def check_svk_distributions(ws: Workspace):
    s = ws.s
    eta, xi = s.eta, s.xi
    pv = np.einsum("k,l->kl", xi, eta)
    ph = scalars.eye(s.dim, s.mode) - pv
    for view in (ws.g, ws.gt):
        d = view.svk
        horiz_stays = np.einsum("k,kim,mj->ij", eta, d, ph)
        vert_stays = np.einsum("kl,lim,mj->kij", ph, d, pv)
        yield CheckResult(
            f"svk-distributions-parallel[{view.role}]",
            *scalars.zero_test([horiz_stays, vert_stays], s.eps, d),
        )


def check_svk_closed_forms(ws: Workspace):
    s = ws.s
    for view in (ws.g, ws.gt):
        q, t = view.potential, view.torsion
        yield CheckResult(
            f"svk-potential-torsion-closed-forms[{view.role}]",
            *scalars.zero_test(
                [
                    q - svk_potential_closed(view.conn, s),
                    t - svk_torsion_closed(view.conn, s),
                    t + np.einsum("kij->kji", t),
                ],
                s.eps,
                q,
                t,
            ),
        )


def check_torsion_potential_bijection(ws: Workspace):
    eps = ws.s.eps
    for view in (ws.g, ws.gt):
        q03, t03 = view.potential03, view.torsion03
        yield CheckResult(
            f"torsion-potential-bijection[{view.role}]",
            *scalars.zero_test(
                [
                    torsion_from_potential(view.potential03) - t03,
                    potential_from_torsion(view.torsion03, eps) - q03,
                    q03 + np.einsum("xyz->xzy", q03),  # metric potentials
                ],
                eps,
                q03,
                t03,
            ),
        )


def check_svk_coincidence(ws: Workspace):
    s = ws.s
    for view in (ws.g, ws.gt):
        gamma = view.conn
        eq = scalars.is_zero(view.svk - gamma, s.eps, gamma)
        par = scalars.is_zero(nabla_of_constant(gamma, s.xi), s.eps, gamma)
        yield _bool_result(
            f"svk-coincides-iff-reeb-parallel[{view.role}]",
            {"svk equals levi-civita": eq, "nabla xi zero": par},
        )


def check_reeb_parallel_transfer(ws: Workspace):
    s = ws.s
    lc, lc_t = ws.g.conn, ws.gt.conn
    booleans = {
        "svk(g) = lc(g)": scalars.is_zero(ws.g.svk - lc, s.eps, lc),
        "nabla xi = 0": scalars.is_zero(nabla_of_constant(lc, s.xi), s.eps),
        "svk(g~) = lc(g~)": scalars.is_zero(ws.gt.svk - lc_t, s.eps, lc_t),
        "nabla~ xi = 0": scalars.is_zero(nabla_of_constant(lc_t, s.xi), s.eps),
    }
    yield _bool_result("reeb-parallel-transfer", booleans)


def check_svk_naturality(ws: Workspace):
    s = ws.s
    d = ws.g.svk
    u2 = ws.g.classification["U2"]
    dphi_zero = scalars.is_zero(ws.g.svk_phi, s.eps, d)
    natural = svk_mod.is_natural(ws.g.svk, s, s.metric)
    yield _bool_result(
        "svk-natural-iff-vertical-fundamental",
        {"svk-phi zero": dphi_zero, "U2 condition": u2, "is-natural": natural},
    )
    if u2:
        phib = svk_mod.phi_b_connection(ws.g.conn, s)
        yield CheckResult(
            "phib-coincidence-on-u2", *scalars.zero_test([phib - d], s.eps, d)
        )


def check_svk_pair_coincide(ws: Workspace):
    s = ws.s
    d = ws.g.svk
    same = scalars.is_zero(ws.gt.svk - d, s.eps, d)
    # the potential-level condition that is exactly equivalent to the pair
    # coinciding: Phi(x,y) - eta(Phi(x,y)) xi - eta(y) Phi(x,xi) = 0
    p = ws.pot
    p_xi = np.einsum("lim,m->li", p, s.xi)
    vert = (
        p
        - np.einsum("m,mij,k->kij", s.eta, p, s.xi)
        - np.einsum("j,ki->kij", s.eta, p_xi)
    )
    yield _bool_result(
        "svk-pair-coincide-iff-potential-vertical",
        {"pair coincide": same, "potential vertical": scalars.is_zero(vert, s.eps, p)},
    )
    yield _bool_result(
        "svk-pair-coincide-iff-u2",
        {"pair coincide": same, "U2 condition": ws.g.classification["U2"]},
    )


def check_svk_pair_routes(ws: Workspace):
    s = ws.s
    via_pot = svk_pair_from_potential(ws.g.svk, ws.pot, s)
    d = ws.gt.svk
    yield CheckResult(
        "svk-pair-potential-route", *scalars.zero_test([via_pot - d], s.eps, d)
    )


def check_svk_phi_forms(ws: Workspace):
    s = ws.s
    for view in (ws.g, ws.gt):
        dphi = view.svk_phi
        closed = svk_covariant_phi_closed(view.conn, s)
        yield CheckResult(
            f"svk-phi-closed-form[{view.role}]",
            *scalars.zero_test([dphi - closed], s.eps, dphi),
        )
    relation = svk_pair_covariant_phi(ws.g.svk_phi, ws.pot, s)
    dphi_t = ws.gt.svk_phi
    yield CheckResult(
        "svk-pair-phi-relation", *scalars.zero_test([relation - dphi_t], s.eps, dphi_t)
    )


def check_svk_phi_equalities(ws: Workspace):
    eps = ws.s.eps
    cls = ws.g.classification
    dphi, dphi_t = ws.g.svk_phi, ws.gt.svk_phi
    yield _bool_result(
        "svk-pair-phi-equal-iff",
        {
            "derivatives of phi coincide": scalars.is_zero(dphi_t - dphi, eps, dphi),
            "F3+U3 condition": cls["F3+U3"],
        },
    )
    assoc_natural = scalars.is_zero(dphi_t, eps, ws.gt.svk)
    yield _bool_result(
        "assoc-svk-natural-iff",
        {"assoc svk-phi zero": assoc_natural, "F1+F2+U3 condition": cls["F1+F2+U3"]},
    )
    both = scalars.is_zero(dphi, eps, ws.g.svk) and assoc_natural
    yield _bool_result(
        "both-svk-natural-iff-u3",
        {"both svk-phi zero": both, "U3 condition": cls["U3"]},
    )


def check_shape_operators(ws: Workspace):
    s = ws.s
    for view in (ws.g, ws.gt):
        sop = view.shape.operator
        horiz = np.einsum("ki,kj,j->i", sop, view.metric.matrix, s.xi)
        reeb_row = sop @ s.xi + s.phi @ view.lee.omega_sharp
        yield CheckResult(
            f"shape-operator-identities[{view.role}]",
            *scalars.zero_test([horiz, reeb_row], s.eps, sop),
        )
    # pair relations through the potential
    pot_xi = np.einsum("lim,m->li", ws.pot, s.xi)
    sd = ws.g.shape.diamond
    yield CheckResult(
        "shape-pair-relations",
        *scalars.zero_test(
            [
                ws.gt.shape.operator - (ws.g.shape.operator - pot_xi),
                ws.gt.shape.diamond
                - (
                    np.einsum("im,mj->ij", sd, s.phi)
                    - np.einsum("mia,ab,m->ib", ws.pot03, s.phi, s.xi)
                ),
            ],
            s.eps,
            sd,
        ),
    )


def check_trace_identity(ws: Workspace):
    s = ws.s
    div, _ = ws.g.div_pair
    tr = ws.g.shape.trace
    yield CheckResult(
        "shape-trace-identity",
        *scalars.zero_test(
            [tr - ws.gt.shape.trace, tr + div, tr + ws.g.lee.theta_star_xi(s)], s.eps
        ),
    )


def check_qt_components(ws: Workspace):
    s = ws.s
    for view in (ws.g, ws.gt):
        q, t = view.potential, view.torsion
        comps = hv_split(s, view.potential, view.torsion)
        by_conn, by_shape = reference_components(s, view.conn, view.shape)
        arrays = [
            comps.q_h + comps.q_v - q,
            comps.t_h + comps.t_v - t,
        ]
        for ref in (by_conn, by_shape):
            arrays += [
                comps.q_h - ref.q_h,
                comps.q_v - ref.q_v,
                comps.t_h - ref.t_h,
                comps.t_v - ref.t_v,
            ]
        yield CheckResult(
            f"potential-torsion-hv-components[{view.role}]",
            *scalars.zero_test(arrays, s.eps, q, t),
        )
        q03 = view.potential03
        yield CheckResult(
            f"potential-torsion-pi1-forms[{view.role}]",
            *scalars.zero_test(
                [
                    q03 - potential_pi1_form(s, view.shape, view.metric),
                    view.torsion03 - torsion_pi1_form(s, view.shape, view.metric),
                ],
                s.eps,
                q03,
            ),
        )


def check_qt_pair_relations(ws: Workspace):
    s = ws.s
    pot = ws.pot
    eta, xi = s.eta, s.xi
    pot_xi = np.einsum("lim,m->li", pot, xi)
    eta_pot = np.einsum("m,mij->ij", eta, pot)

    q, qt = ws.g.potential, ws.gt.potential
    t, tt = ws.g.torsion, ws.gt.torsion
    rel_q = qt - (
        q - np.einsum("j,ki->kij", eta, pot_xi) - np.einsum("ij,k->kij", eta_pot, xi)
    )
    rel_t = tt - (
        t + np.einsum("i,kj->kij", eta, pot_xi) - np.einsum("j,ki->kij", eta, pot_xi)
    )

    ds = ws.gt.shape.operator - ws.g.shape.operator
    dsd = ws.gt.shape.diamond - ws.g.shape.diamond
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
        comps_t.t_v - comps.t_v,
        comps_t.q_h - (comps.q_h + np.einsum("ki,j->kij", ds, eta)),
        comps_t.q_v - (comps.q_v - np.einsum("ij,k->kij", dsd, xi)),
        comps_t.t_h - (comps.t_h - wedge_form_operator(eta, ds)),
    ]
    yield CheckResult(
        "potential-torsion-pair-relations", *scalars.zero_test(arrays, s.eps, q, t, qt, tt)
    )


def check_equivalence_chains(ws: Workspace):
    for view in (ws.g, ws.gt):
        chains = equivalence_chains(
            ws.s, view.conn, view.svk, view.shape, view.potential, view.torsion,
            view.metric,
        )
        for chain in chains:
            yield _bool_result(f"chain-{chain.name}[{view.role}]", chain.predicates)


def check_svk_curvature(ws: Workspace):
    s = ws.s
    for view in (ws.g, ws.gt):
        curv = view.curv
        formula = svk_curvature_formula(s, curv.r04, view.shape, view.metric)
        yield CheckResult(
            f"svk-curvature-relation[{view.role}]",
            *scalars.zero_test(
                [curv.r04_svk - formula], s.eps, curv.r04, curv.r04_svk
            ),
        )
        rho_formula = svk_ricci_formula(s, curv.r04, curv.rho, view.shape, view.metric)
        yield CheckResult(
            f"svk-ricci-relation[{view.role}]",
            *scalars.zero_test([curv.rho_svk - rho_formula], s.eps, curv.rho),
        )
        tau_formula = svk_scalar_formula(curv.tau, view.rho_xi_xi, view.shape)
        yield CheckResult(
            f"svk-scalar-relation[{view.role}]",
            *scalars.zero_test([curv.tau_svk - tau_formula], s.eps),
        )
        via_shape = ricci_xi_formula(s, view.conn, view.shape, view.metric)
        yield CheckResult(
            f"ricci-reeb-formula[{view.role}]",
            *scalars.zero_test([view.rho_xi_xi - via_shape], s.eps),
        )
        yield CheckResult(
            f"curvature-reeb-identity[{view.role}]",
            *scalars.zero_test(
                [curvature_reeb_identity(s, view.conn, view.shape)], s.eps, curv.r04
            ),
        )


def check_curvature_symmetries(ws: Workspace):
    eps = ws.s.eps
    for view in (ws.g, ws.gt):
        r = view.curv.r04
        bianchi = r + np.einsum("ijkl->jkil", r) + np.einsum("ijkl->kijl", r)
        yield CheckResult(
            f"curvature-symmetries[{view.role}]",
            *scalars.zero_test(
                [
                    r + np.einsum("ijkl->jikl", r),
                    r + np.einsum("ijkl->ijlk", r),
                    r - np.einsum("ijkl->klij", r),
                    bianchi,
                ],
                eps,
                r,
            ),
        )
        measured = svk_curvature_symmetries(view.curv.r04_svk, eps)
        first_pair = measured.pop("first-pair-antisymmetric")
        yield CheckResult(
            f"svk-curvature-first-pair-antisymmetry[{view.role}]",
            *first_pair,
            detail="measured: " + ", ".join(f"{k}={v[0]}" for k, v in measured.items()),
        )


# ---------------------------------------------------------------------------
# sectional-curvature sampling
# ---------------------------------------------------------------------------

def _random_vector(rng: np.random.Generator, dim: int, mode: str) -> np.ndarray:
    vals = rng.integers(-3, 4, size=dim)
    if mode == scalars.RATIONAL:
        out = np.empty(dim, dtype=object)
        for i, v in enumerate(vals):
            out[i] = Fraction(int(v))
        return out
    return vals.astype(np.float64)


def sample_planes(ws: Workspace, view: MetricView, seed: int):
    """Seeded non-degenerate 2-planes for the sectional-curvature checks."""
    rng = np.random.default_rng(seed)
    planes = []
    attempts = 0
    while len(planes) < PLANE_COUNT and attempts < 60 * PLANE_COUNT:
        attempts += 1
        x = _random_vector(rng, ws.s.dim, ws.s.mode)
        y = _random_vector(rng, ws.s.dim, ws.s.mode)
        plane = SectionPlane(x, y)
        try:
            plane.check_nondegenerate(view.metric, ws.s.eps)
        except DegeneratePlaneError:
            continue
        planes.append(plane)
    return planes


def _horizontal_basis(ws: Workspace):
    """The nonzero horizontal parts of the basis vectors."""
    s = ws.s
    parts = (svk_mod.project_h(s, e) for e in scalars.eye(s.dim, s.mode))
    return [h for h in parts if not scalars.is_zero(h, s.eps)]


def xi_section_candidates(ws: Workspace, view: MetricView):
    """Non-degenerate planes containing the Reeb vector."""
    s = ws.s
    out = []
    for h in _horizontal_basis(ws):  # horizontal, so the plane is honest
        for cand in (h, h + s.phi @ h):
            plane = SectionPlane(cand, s.xi)
            try:
                plane.check_nondegenerate(view.metric, s.eps)
            except DegeneratePlaneError:
                continue
            out.append(plane)
    return out


def check_sectional_curvature(ws: Workspace, seed: int = 0):
    s, eps = ws.s, ws.s.eps
    for view in (ws.g, ws.gt):
        r04, r04_svk, m = view.curv.r04, view.curv.r04_svk, view.metric
        planes = sample_planes(ws, view, seed + (0 if view.role == "g" else 1))
        passed, residual, worst = scalars.zero_test(
            [
                sectional(r04_svk, m, p, eps)
                - svk_sectional_formula(p, r04, view.shape, s, m)
                for p in planes
            ],
            eps,
            r04,
        )
        yield CheckResult(
            f"sectional-relation[{view.role}]",
            passed and len(planes) >= PLANE_COUNT,
            residual,
            worst,
            f"{len(planes)} sampled planes",
        )

        xi_planes = xi_section_candidates(ws, view)
        yield CheckResult(
            f"reeb-section-flatness[{view.role}]",
            *scalars.zero_test(
                [sectional(r04_svk, m, p, eps) for p in xi_planes], eps, r04_svk
            ),
            detail=f"{len(xi_planes)} reeb sections",
        )

        # invariance of the sectional value under change of plane basis
        rng = np.random.default_rng(seed + 17)
        values, diffs = [], []
        for plane in planes[:5]:
            k = sectional(r04_svk, m, plane, eps)
            for _ in range(3):
                a, b, c, d = (int(v) for v in rng.integers(-3, 4, size=4))
                if a * d - b * c == 0:
                    continue
                other = SectionPlane(
                    plane.x * a + plane.y * b,
                    plane.x * c + plane.y * d,
                )
                try:
                    diffs.append(k - sectional(r04_svk, m, other, eps))
                except DegeneratePlaneError:
                    continue
                values.append(k)
        yield CheckResult(
            f"sectional-basis-invariance[{view.role}]",
            *scalars.zero_test(diffs, eps, np.array(values)),
        )

        # specialized forms for distinguished section types
        sop = view.shape.operator
        counted = {HOLOMORPHIC: 0, TOTALLY_REAL: 0}
        diffs = []
        for plane, kind in [(p, HOLOMORPHIC) for p in _holomorphic_candidates(ws, view)] + [
            (p, TOTALLY_REAL) for p in _totally_real_candidates(ws, view)
        ]:
            x, y = plane.x, plane.y
            corr = pi1(m, sop @ x, sop @ y, y, x) / plane.denominator(m)
            k_base = sectional(r04, m, plane, eps)
            diffs.append(sectional(r04_svk, m, plane, eps) - (k_base + corr))
            counted[kind] += 1
        yield CheckResult(
            f"sectional-special-types[{view.role}]",
            *scalars.zero_test(diffs, eps, r04),
            detail=f"holomorphic={counted[HOLOMORPHIC]}, "
            f"totally-real={counted[TOTALLY_REAL]}",
        )


def _holomorphic_candidates(ws: Workspace, view: MetricView):
    s = ws.s
    out = []
    for h in _horizontal_basis(ws):
        plane = SectionPlane(h, s.phi @ h)
        try:
            kind, _ = section_type(plane, s, view.metric)
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
    for hi, hj in combinations(_horizontal_basis(ws), 2):
        plane = SectionPlane(hi, hj)
        try:
            kind, ortho = section_type(plane, s, view.metric)
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


def run_checks(ws: Workspace, seed: int = 0) -> list[CheckResult]:
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
    results.extend(check_sectional_curvature(ws, seed=seed))
    return results
