"""Executable verification suite.

Every statement the library relies on is run as a named check against a
concrete model: identities are evaluated over the whole basis, equivalences
as pairs of independently computed booleans, and quantities with two
derivation routes are compared entry by entry.  In rational mode a check
passes only with residual exactly zero.

A check family states its checks as rows, and ``_result`` turns each row into
a ``CheckResult``:

* ``(name, arrays, context[, detail])`` passes when every array vanishes
  (``scalars.zero_test`` with the model's eps; ``context`` holds the arrays
  the compared ones were built from);
* ``(name, booleans)`` passes when the named booleans of a dict agree.

A family decorated with ``_rows`` yields the rows of one model; one decorated
with ``_per_view`` is stated once for a ``MetricView`` and runs on g, then on
g~, each name suffixed with the metric's role.
"""
from __future__ import annotations

import functools
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
    pair_symmetries,
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


# ---------------------------------------------------------------------------
# rows to results
# ---------------------------------------------------------------------------

def _result(eps: float, name: str, tested, context=(), detail: str = "") -> CheckResult:
    """The ``CheckResult`` of one row (see the module docstring)."""
    if isinstance(tested, dict):
        agree = len(set(tested.values())) <= 1
        detail = ", ".join(f"{k}={v}" for k, v in tested.items())
        return CheckResult(name, agree, 0.0 if agree else 1.0, detail=detail)
    return CheckResult(name, *scalars.zero_test(tested, eps, *context), detail=detail)


# the row families in the order run_checks runs them: the order of definition
CHECKS = []


def _rows(family):
    """A check family from a generator of the rows of one model, appended to
    ``CHECKS``."""

    @functools.wraps(family)
    def checks(ws: Workspace):
        for row in family(ws):
            yield _result(ws.s.eps, *row)

    CHECKS.append(checks)
    return checks


def _views(ws: Workspace, rows):
    """The rows of ``rows(ws, view)`` on g, then on g~, each name suffixed
    with the metric's role."""
    for view in (ws.g, ws.gt):
        for name, *rest in rows(ws, view):
            yield (f"{name}[{view.role}]", *rest)


def _per_view(rows):
    """A check family stated once for a ``MetricView``; see ``_views``."""
    return _rows(functools.wraps(rows)(lambda ws: _views(ws, rows)))


# ---------------------------------------------------------------------------
# individual checks; each takes the workspace and yields CheckResults
# ---------------------------------------------------------------------------

def check_structure_axioms(ws: Workspace):
    rep = ws.validation
    worst = max((c.residual for c in rep.checks), default=0.0)
    failed = [c.name for c in rep.failures()]
    yield CheckResult("structure-axioms", rep.passed, worst, detail="; ".join(failed))


@_per_view
def check_fundamental_identities(ws: Workspace, view: MetricView):
    """The identities F is built on: its symmetries, the projection identity,
    F(x, phi y, xi) = m(nabla_x xi, y) = (nabla_x eta)(y), and the two
    properties of the Levi-Civita connection F is taken with (torsion-free,
    metric)."""
    s = ws.s
    phi, xi, eta = s.phi, s.xi, s.eta
    conn, m = view.conn, view.metric
    f = view.fundamental
    fxiz = scalars.einsum("xmz,m->xz", f, xi)
    proj = (
        scalars.einsum("xab,ay,bz->xyz", f, phi, phi)
        + scalars.einsum("y,xz->xyz", eta, fxiz)
        + scalars.einsum("z,xy->xyz", eta, fxiz)
    )
    # F(x, phi y, xi) = (nabla_x eta)(y) = m(nabla_x xi, y)
    lam = scalars.einsum("ki,kj->ij", nabla_of_constant(conn, xi), m.matrix)
    neta = covariant_derivative(conn, s.eta, 0)
    yield "fundamental-identities", [
        f - scalars.einsum("xyz->xzy", f),
        f - proj,
        scalars.einsum("xaz,ay,z->xy", f, phi, xi) - lam,
        neta - lam,
        torsion(conn, s.algebra),
        covariant_derivative(conn, m.matrix, 0),
    ], (f, conn, m.matrix)


@_per_view
def check_lee_identities(ws: Workspace, view: MetricView):
    s, lee = ws.s, view.lee
    yield "lee-form-identities", [
        lee.omega @ s.xi,
        lee.theta_star @ s.phi + lee.theta @ s.phi2,
    ], (view.fundamental,)


@_per_view
def check_divergence_traces(ws: Workspace, view: MetricView):
    s = ws.s
    div, div_star = view.div_pair
    yield "divergence-trace", [
        view.lee.theta_xi(s) - div_star,
        view.lee.theta_star_xi(s) - div,
    ], ()


@_per_view
def check_nabla_xi_table(ws: Workspace, view: MetricView):
    conds = view.nabla_xi_conditions
    yield (
        "class-nabla-xi-table",
        [a for arrays in conds.values() for a in arrays],
        (view.conn,),
        f"classes checked: {', '.join(sorted(conds)) or 'none'}",
    )


@_rows
def check_potential_routes(ws: Workspace):
    s = ws.s
    direct = ws.pot03
    closed = potential_from_fundamental(s, ws.g.fundamental, ws.g.lee)
    yield "potential-closed-form", [
        direct - closed,
        direct - scalars.einsum("xyz->yxz", direct),
    ], (direct,)
    f = ws.g.fundamental
    rebuilt = fundamental_from_potential(s, ws.pot03)
    yield "fundamental-reconstruction", [rebuilt - f], (f,)
    # full metric trace of the potential in its last two slots, at the Reeb slot
    yield "potential-vertical-trace", [
        scalars.einsum("ij,mij,m->", s.metric.inv, direct, s.xi)
    ], (direct,)


@_rows
def check_assoc_fundamental(ws: Workspace):
    direct = ws.gt.fundamental
    converted = assoc_fundamental_from_fundamental(ws.s, ws.g.fundamental)
    yield "assoc-fundamental-two-routes", [direct - converted], (direct,)


@_rows
def check_zero_class_equivalences(ws: Workspace):
    eps = ws.s.eps
    gamma, gamma_t = ws.g.conn, ws.gt.conn
    yield "zero-class-equivalences", {
        "fundamental zero": scalars.is_zero(ws.g.fundamental, eps),
        "potential zero": scalars.is_zero(ws.pot, eps),
        "assoc fundamental zero": scalars.is_zero(ws.gt.fundamental, eps),
        "connections coincide": scalars.is_zero(gamma - gamma_t, eps, gamma),
    }


@_per_view
def check_svk_preserves_structure(ws: Workspace, view: MetricView):
    s, d = ws.s, view.svk
    yield "svk-preserves-structure", [
        covariant_derivative(d, view.metric.matrix, 0),
        nabla_of_constant(d, s.xi),
        covariant_derivative(d, s.eta, 0),
    ], (d, view.metric.matrix)


@_per_view
def check_svk_two_routes(ws: Workspace, view: MetricView):
    # svk-projector-route is D's independent oracle; the closed forms share one formula
    proj = svk_connection_projected(view.conn, ws.s)
    d = view.svk
    yield "svk-projector-route", [proj - d], (d,)


@_per_view
def check_svk_distributions(ws: Workspace, view: MetricView):
    s, d = ws.s, view.svk
    pv = scalars.einsum("k,l->kl", s.xi, s.eta)
    ph = scalars.eye(s.dim, s.mode) - pv
    horiz_stays = scalars.einsum("k,kim,mj->ij", s.eta, d, ph)
    vert_stays = scalars.einsum("kl,lim,mj->kij", ph, d, pv)
    yield "svk-distributions-parallel", [horiz_stays, vert_stays], (d,)


@_per_view
def check_svk_closed_forms(ws: Workspace, view: MetricView):
    s = ws.s
    q, t = view.potential, view.torsion
    yield "svk-potential-torsion-closed-forms", [
        q - svk_potential_closed(view.conn, s),
        t - svk_torsion_closed(view.conn, s),
        t + scalars.einsum("kij->kji", t),
    ], (q, t)


@_per_view
def check_torsion_potential_bijection(ws: Workspace, view: MetricView):
    q03, t03 = view.potential03, view.torsion03
    yield "torsion-potential-bijection", [
        torsion_from_potential(q03) - t03,
        potential_from_torsion(t03, ws.s.eps) - q03,
        q03 + scalars.einsum("xyz->xzy", q03),  # metric potentials
    ], (q03, t03)


@_per_view
def check_svk_coincidence(ws: Workspace, view: MetricView):
    s, gamma = ws.s, view.conn
    yield "svk-coincides-iff-reeb-parallel", {
        "svk equals levi-civita": scalars.is_zero(view.svk - gamma, s.eps, gamma),
        "nabla xi zero": scalars.is_zero(nabla_of_constant(gamma, s.xi), s.eps, gamma),
    }


@_rows
def check_reeb_parallel_transfer(ws: Workspace):
    s = ws.s
    lc, lc_t = ws.g.conn, ws.gt.conn
    yield "reeb-parallel-transfer", {
        "svk(g) = lc(g)": scalars.is_zero(ws.g.svk - lc, s.eps, lc),
        "nabla xi = 0": scalars.is_zero(nabla_of_constant(lc, s.xi), s.eps),
        "svk(g~) = lc(g~)": scalars.is_zero(ws.gt.svk - lc_t, s.eps, lc_t),
        "nabla~ xi = 0": scalars.is_zero(nabla_of_constant(lc_t, s.xi), s.eps),
    }


@_rows
def check_svk_naturality(ws: Workspace):
    s = ws.s
    d = ws.g.svk
    u2 = ws.g.classification["U2"]
    yield "svk-natural-iff-vertical-fundamental", {
        "svk-phi zero": scalars.is_zero(ws.g.svk_phi, s.eps, d),
        "U2 condition": u2,
        "is-natural": svk_mod.is_natural(d, s, s.metric),
    }
    if u2:
        phib = svk_mod.phi_b_connection(ws.g.conn, s)
        yield "phib-coincidence-on-u2", [phib - d], (d,)


@_rows
def check_svk_pair_coincide(ws: Workspace):
    s = ws.s
    d = ws.g.svk
    same = scalars.is_zero(ws.gt.svk - d, s.eps, d)
    # the potential-level condition that is exactly equivalent to the pair
    # coinciding: Phi(x,y) - eta(Phi(x,y)) xi - eta(y) Phi(x,xi) = 0
    p = ws.pot
    p_xi = scalars.einsum("lim,m->li", p, s.xi)
    vert = (
        p
        - scalars.einsum("m,mij,k->kij", s.eta, p, s.xi)
        - scalars.einsum("j,ki->kij", s.eta, p_xi)
    )
    yield "svk-pair-coincide-iff-potential-vertical", {
        "pair coincide": same,
        "potential vertical": scalars.is_zero(vert, s.eps, p),
    }
    yield "svk-pair-coincide-iff-u2", {
        "pair coincide": same,
        "U2 condition": ws.g.classification["U2"],
    }


@_rows
def check_svk_pair_routes(ws: Workspace):
    via_pot = svk_pair_from_potential(ws.g.svk, ws.pot, ws.s)
    d = ws.gt.svk
    yield "svk-pair-potential-route", [via_pot - d], (d,)


def _svk_phi_closed_form(ws: Workspace, view: MetricView):
    dphi = view.svk_phi
    yield "svk-phi-closed-form", [dphi - svk_covariant_phi_closed(view.conn, ws.s)], (dphi,)


@_rows
def check_svk_phi_forms(ws: Workspace):
    yield from _views(ws, _svk_phi_closed_form)
    relation = svk_pair_covariant_phi(ws.g.svk_phi, ws.pot, ws.s)
    dphi_t = ws.gt.svk_phi
    yield "svk-pair-phi-relation", [relation - dphi_t], (dphi_t,)


@_rows
def check_svk_phi_equalities(ws: Workspace):
    eps = ws.s.eps
    cls = ws.g.classification
    dphi, dphi_t = ws.g.svk_phi, ws.gt.svk_phi
    yield "svk-pair-phi-equal-iff", {
        "derivatives of phi coincide": scalars.is_zero(dphi_t - dphi, eps, dphi),
        "F3+U3 condition": cls["F3+U3"],
    }
    assoc_natural = scalars.is_zero(dphi_t, eps, ws.gt.svk)
    yield "assoc-svk-natural-iff", {
        "assoc svk-phi zero": assoc_natural,
        "F1+F2+U3 condition": cls["F1+F2+U3"],
    }
    both = scalars.is_zero(dphi, eps, ws.g.svk) and assoc_natural
    yield "both-svk-natural-iff-u3", {"both svk-phi zero": both, "U3 condition": cls["U3"]}


def _shape_operator_identities(ws: Workspace, view: MetricView):
    s = ws.s
    sop = view.shape.operator
    horiz = scalars.einsum("ki,kj,j->i", sop, view.metric.matrix, s.xi)
    reeb_row = sop @ s.xi + s.phi @ view.lee.omega_sharp
    yield "shape-operator-identities", [horiz, reeb_row], (sop,)


@_rows
def check_shape_operators(ws: Workspace):
    s = ws.s
    yield from _views(ws, _shape_operator_identities)
    # pair relations through the potential
    pot_xi = scalars.einsum("lim,m->li", ws.pot, s.xi)
    sd = ws.g.shape.diamond
    yield "shape-pair-relations", [
        ws.gt.shape.operator - (ws.g.shape.operator - pot_xi),
        ws.gt.shape.diamond
        - (
            scalars.einsum("im,mj->ij", sd, s.phi)
            - scalars.einsum("mia,ab,m->ib", ws.pot03, s.phi, s.xi)
        ),
    ], (sd,)


@_rows
def check_trace_identity(ws: Workspace):
    div, _ = ws.g.div_pair
    tr = ws.g.shape.trace
    yield "shape-trace-identity", [
        tr - ws.gt.shape.trace,
        tr + div,
        tr + ws.g.lee.theta_star_xi(ws.s),
    ], ()


@_per_view
def check_qt_components(ws: Workspace, view: MetricView):
    s = ws.s
    q, t = view.potential, view.torsion
    comps = hv_split(s, q, t)
    arrays = [comps.q_h + comps.q_v - q, comps.t_h + comps.t_v - t]
    for ref in reference_components(s, view.conn, view.shape):
        arrays += [
            comps.q_h - ref.q_h,
            comps.q_v - ref.q_v,
            comps.t_h - ref.t_h,
            comps.t_v - ref.t_v,
        ]
    yield "potential-torsion-hv-components", arrays, (q, t)
    q03 = view.potential03
    yield "potential-torsion-pi1-forms", [
        q03 - potential_pi1_form(s, view.shape, view.metric),
        view.torsion03 - torsion_pi1_form(s, view.shape, view.metric),
    ], (q03,)


@_rows
def check_qt_pair_relations(ws: Workspace):
    s = ws.s
    pot = ws.pot
    eta, xi = s.eta, s.xi
    pot_xi = scalars.einsum("lim,m->li", pot, xi)
    eta_pot = scalars.einsum("m,mij->ij", eta, pot)

    q, qt = ws.g.potential, ws.gt.potential
    t, tt = ws.g.torsion, ws.gt.torsion
    rel_q = qt - (
        q - scalars.einsum("j,ki->kij", eta, pot_xi) - scalars.einsum("ij,k->kij", eta_pot, xi)
    )
    rel_t = tt - (
        t + scalars.einsum("i,kj->kij", eta, pot_xi) - scalars.einsum("j,ki->kij", eta, pot_xi)
    )

    ds = ws.gt.shape.operator - ws.g.shape.operator
    dsd = ws.gt.shape.diamond - ws.g.shape.diamond
    rel_q_shape = qt - (
        q + scalars.einsum("ki,j->kij", ds, eta) - scalars.einsum("ij,k->kij", dsd, xi)
    )
    rel_t_shape = tt - (t - wedge_form_operator(eta, ds))

    comps = hv_split(s, q, t)
    comps_t = hv_split(s, qt, tt)
    yield "potential-torsion-pair-relations", [
        rel_q,
        rel_t,
        rel_q_shape,
        rel_t_shape,
        comps_t.t_v - comps.t_v,
        comps_t.q_h - (comps.q_h + scalars.einsum("ki,j->kij", ds, eta)),
        comps_t.q_v - (comps.q_v - scalars.einsum("ij,k->kij", dsd, xi)),
        comps_t.t_h - (comps.t_h - wedge_form_operator(eta, ds)),
    ], (q, t, qt, tt)


@_per_view
def check_equivalence_chains(ws: Workspace, view: MetricView):
    chains = equivalence_chains(
        ws.s, view.conn, view.svk, view.shape, view.potential, view.torsion, view.metric
    )
    for chain, predicates in chains.items():
        yield f"chain-{chain}", predicates


@_per_view
def check_svk_curvature(ws: Workspace, view: MetricView):
    s, curv = ws.s, view.curv
    formula = svk_curvature_formula(s, curv.r04, view.shape, view.metric)
    yield "svk-curvature-relation", [curv.r04_svk - formula], (curv.r04, curv.r04_svk)
    rho_formula = svk_ricci_formula(s, curv.r04, curv.rho, view.shape, view.metric)
    yield "svk-ricci-relation", [curv.rho_svk - rho_formula], (curv.rho,)
    tau_formula = svk_scalar_formula(curv.tau, view.rho_xi_xi, view.shape)
    yield "svk-scalar-relation", [curv.tau_svk - tau_formula], ()
    via_shape = ricci_xi_formula(s, view.conn, view.shape, view.metric)
    yield "ricci-reeb-formula", [view.rho_xi_xi - via_shape], ()
    yield "curvature-reeb-identity", [
        curvature_reeb_identity(s, view.conn, view.shape)
    ], (curv.r04,)


@_per_view
def check_curvature_symmetries(ws: Workspace, view: MetricView):
    r = view.curv.r04
    bianchi = r + scalars.einsum("ijkl->jkil", r) + scalars.einsum("ijkl->kijl", r)
    yield "curvature-symmetries", [*pair_symmetries(r).values(), bianchi], (r,)
    # the SvK curvature keeps the first-pair antisymmetry; the other two
    # pair symmetries are measured only
    rd = view.curv.r04_svk
    others = pair_symmetries(rd)
    first_pair = others.pop("first-pair-antisymmetric")
    measured = ", ".join(f"{k}={scalars.is_zero(a, ws.s.eps, rd)}" for k, a in others.items())
    yield "svk-curvature-first-pair-antisymmetry", [first_pair], (rd,), "measured: " + measured


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

def run_checks(ws: Workspace, seed: int = 0) -> list[CheckResult]:
    """Every check on one model; the only place where the second derivation
    routes are computed and compared with the Workspace's primary ones.

    ``structure-axioms`` comes first; when it fails the suite stops there,
    because nothing derived from an invalid structure is meaningful.  The
    families of ``CHECKS`` follow, then the sectional-curvature checks.
    """
    results = list(check_structure_axioms(ws))
    if not ws.validation.passed:
        return results
    for fn in CHECKS:
        results.extend(fn(ws))
    results.extend(check_sectional_curvature(ws, seed=seed))
    return results
