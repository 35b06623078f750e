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

import numpy as np

from . import scalars, svk as svk_mod
from .curvature import (
    PlaneStack,
    basis_invariance_forms,
    curvature_reeb_identity,
    horizontal_restriction,
    pair_symmetries,
    ricci_xi_formula,
    sectional,
    svk_curvature_formula,
    svk_ricci_formula,
    svk_scalar_formula,
    svk_sectional_polarized,
)
from .hv import potential_pi1_form, shape_components, wedge_form_operator
from .liegroup import covariant_derivative, torsion
from .pipeline import MetricView, Workspace
from .structure import (
    CheckResult,
    assoc_fundamental_from_fundamental,
    fundamental_from_potential,
    nabla_xi_class_conditions,
    potential_from_fundamental,
)
from .svk import (
    potential_from_torsion,
    svk_connection_projected,
    svk_covariant_phi_closed,
    svk_pair_covariant_phi,
    svk_pair_difference,
    svk_pair_from_potential,
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


def _minus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b, added by the scalar kernel in rational mode."""
    return scalars.combine([1, -1], [a, b])


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
    proj = scalars.combine(
        [1, 1, 1],
        [
            scalars.einsum("xab,ay,bz->xyz", f, phi, phi),
            scalars.einsum("y,xz->xyz", eta, fxiz),
            scalars.einsum("z,xy->xyz", eta, fxiz),
        ],
    )
    # F(x, phi y, xi) = (nabla_x eta)(y) = m(nabla_x xi, y)
    lam = view.nabla_xi02
    yield "fundamental-identities", [
        _minus(f, scalars.einsum("xyz->xzy", f)),
        _minus(f, proj),
        _minus(scalars.einsum("xaz,ay,z->xy", f, phi, xi), lam),
        _minus(view.nabla_eta, lam),
        torsion(conn, s.algebra),
        covariant_derivative(conn, m.matrix, 0),
    ], (f, conn, m.matrix)


@_per_view
def check_lee_identities(ws: Workspace, view: MetricView):
    s, lee = ws.s, view.lee
    yield "lee-form-identities", [
        scalars.einsum("i,i->", lee.omega, s.xi),
        scalars.combine([1, 1], [scalars.einsum("i,ij->j", lee.theta_star, s.phi), lee.theta_phi2]),
    ], (view.fundamental,)


@_per_view
def check_divergence_traces(ws: Workspace, view: MetricView):
    div, div_star = view.div_pair
    yield "divergence-trace", [
        _minus(view.lee.theta_xi, div_star),
        _minus(view.lee.theta_star_xi, div),
    ], ()


@_per_view
def check_nabla_xi_table(ws: Workspace, view: MetricView):
    conds = nabla_xi_class_conditions(
        ws.s, view.nabla_xi, view.nabla_xi02, view.lee, view.div_pair, view.classification
    )
    yield (
        "class-nabla-xi-table",
        [a for arrays in conds.values() for a in arrays],
        (view.conn,),
        f"classes checked: {', '.join(sorted(conds)) or 'none'}",
    )


@_rows
def check_potential_routes(ws: Workspace):
    s = ws.s
    direct = ws.g.partner_potential03
    closed = potential_from_fundamental(s, ws.g.fundamental, ws.g.lee)
    yield "potential-closed-form", [
        _minus(direct, closed),
        _minus(direct, scalars.einsum("xyz->yxz", direct)),
    ], (direct,)
    f = ws.g.fundamental
    rebuilt = fundamental_from_potential(s, direct)
    yield "fundamental-reconstruction", [_minus(rebuilt, f)], (f,)
    # full metric trace of the potential in its last two slots, at the Reeb slot
    yield "potential-vertical-trace", [
        scalars.einsum("ij,mij,m->", s.metric.inv, direct, s.xi)
    ], (direct,)


@_rows
def check_assoc_fundamental(ws: Workspace):
    direct = ws.gt.fundamental
    converted = assoc_fundamental_from_fundamental(ws.s, ws.g.fundamental)
    yield "assoc-fundamental-two-routes", [_minus(direct, converted)], (direct,)


@_rows
def check_zero_class_equivalences(ws: Workspace):
    eps = ws.s.eps
    gamma, gamma_t = ws.g.conn, ws.gt.conn
    yield "zero-class-equivalences", {
        "fundamental zero": scalars.is_zero(ws.g.fundamental, eps),
        "potential zero": scalars.is_zero(ws.g.partner_potential, eps),
        "assoc fundamental zero": scalars.is_zero(ws.gt.fundamental, eps),
        "connections coincide": scalars.is_zero(_minus(gamma, gamma_t), eps, gamma),
    }


@_per_view
def check_svk_preserves_structure(ws: Workspace, view: MetricView):
    derivatives = [view.svk_metric, view.svk_xi, view.svk_eta]
    yield "svk-preserves-structure", derivatives, (view.svk, view.metric.matrix)


@_per_view
def check_svk_two_routes(ws: Workspace, view: MetricView):
    # svk-projector-route is D's independent oracle; the closed forms share one formula
    proj = svk_connection_projected(view.conn, ws.s)
    d = view.svk
    yield "svk-projector-route", [_minus(proj, d)], (d,)


@_per_view
def check_svk_distributions(ws: Workspace, view: MetricView):
    s, d = ws.s, view.svk
    horiz_stays = scalars.einsum("k,kim,mj->ij", s.eta, d, s.horizontal)
    vert_stays = scalars.einsum("kl,lim,mj->kij", s.horizontal, d, s.vertical)
    yield "svk-distributions-parallel", [horiz_stays, vert_stays], (d,)


@_per_view
def check_svk_closed_forms(ws: Workspace, view: MetricView):
    # the potential is built from its closed form, so only the torsion is
    # compared (svk-projector-route tests the potential)
    t = view.torsion
    yield "svk-potential-torsion-closed-forms", [
        _minus(t, svk_torsion_closed(view.hv_closed)),
        scalars.combine([1, 1], [t, scalars.einsum("kij->kji", t)]),
    ], (view.potential, t)


@_per_view
def check_torsion_potential_bijection(ws: Workspace, view: MetricView):
    q03, t03 = view.potential03, view.torsion03
    yield "torsion-potential-bijection", [
        _minus(torsion_from_potential(q03), t03),
        _minus(potential_from_torsion(t03, ws.s.eps), q03),
        scalars.combine([1, 1], [q03, scalars.einsum("xyz->xzy", q03)]),  # metric potentials
    ], (q03, t03)


@_per_view
def check_svk_coincidence(ws: Workspace, view: MetricView):
    vanishing = view.chains["vanishing"]
    yield "svk-coincides-iff-reeb-parallel", {
        "svk equals levi-civita": vanishing["svk equals levi-civita"],
        "nabla xi zero": vanishing["nabla-xi zero"],
    }


@_rows
def check_reeb_parallel_transfer(ws: Workspace):
    g, gt = ws.g.chains["vanishing"], ws.gt.chains["vanishing"]
    yield "reeb-parallel-transfer", {
        "svk(g) = lc(g)": g["svk equals levi-civita"],
        "nabla xi = 0": g["nabla-xi zero"],
        "svk(g~) = lc(g~)": gt["svk equals levi-civita"],
        "nabla~ xi = 0": gt["nabla-xi zero"],
    }


@_rows
def check_svk_naturality(ws: Workspace):
    s, g = ws.s, ws.g
    d = g.svk
    u2 = g.classification["U2"]
    natural = (  # phi, xi, eta and the metric all parallel
        scalars.is_zero(g.svk_phi, s.eps, s.phi)
        and scalars.is_zero(g.svk_xi, s.eps)
        and scalars.is_zero(g.svk_eta, s.eps)
        and scalars.is_zero(g.svk_metric, s.eps, s.metric.matrix)
    )
    yield "svk-natural-iff-vertical-fundamental", {
        "svk-phi zero": scalars.is_zero(g.svk_phi, s.eps, d),
        "U2 condition": u2,
        "is-natural": natural,
    }
    if u2:
        phib = svk_mod.phi_b_connection(g.conn, g.nabla_phi, g.q_closed, s)
        yield "phib-coincidence-on-u2", [_minus(phib, d)], (d,)


@_rows
def check_svk_pair_coincide(ws: Workspace):
    s = ws.s
    d, pot = ws.g.svk, ws.g.partner_potential
    same = scalars.is_zero(_minus(ws.gt.svk, d), s.eps, d)
    difference = svk_pair_difference(pot, ws.g.partner_potential_xi, s)
    yield "svk-pair-coincide-iff-potential-vertical", {
        "pair coincide": same,
        "potential vertical": scalars.is_zero(difference, s.eps, pot),
    }
    yield "svk-pair-coincide-iff-u2", {
        "pair coincide": same,
        "U2 condition": ws.g.classification["U2"],
    }


@_rows
def check_svk_pair_routes(ws: Workspace):
    g = ws.g
    via_pot = svk_pair_from_potential(g.svk, g.partner_potential, g.partner_potential_xi, ws.s)
    d = ws.gt.svk
    yield "svk-pair-potential-route", [_minus(via_pot, d)], (d,)


def _svk_phi_closed_form(ws: Workspace, view: MetricView):
    dphi = view.svk_phi
    closed = svk_covariant_phi_closed(view.nabla_phi, view.nabla_xi, view.nabla_eta, ws.s)
    yield "svk-phi-closed-form", [_minus(dphi, closed)], (dphi,)


@_rows
def check_svk_phi_forms(ws: Workspace):
    yield from _views(ws, _svk_phi_closed_form)
    g = ws.g
    relation = svk_pair_covariant_phi(g.svk_phi, g.partner_potential, g.partner_potential_xi, ws.s)
    dphi_t = ws.gt.svk_phi
    yield "svk-pair-phi-relation", [_minus(relation, dphi_t)], (dphi_t,)


@_rows
def check_svk_phi_equalities(ws: Workspace):
    eps = ws.s.eps
    cls = ws.g.classification
    dphi, dphi_t = ws.g.svk_phi, ws.gt.svk_phi
    yield "svk-pair-phi-equal-iff", {
        "derivatives of phi coincide": scalars.is_zero(_minus(dphi_t, dphi), eps, dphi),
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
    reeb_row = scalars.combine(
        [1, 1], [view.shape.reeb, scalars.einsum("ki,i->k", s.phi, view.lee.omega_sharp)]
    )
    yield "shape-operator-identities", [horiz, reeb_row], (sop,)


@_rows
def check_shape_operators(ws: Workspace):
    s = ws.s
    yield from _views(ws, _shape_operator_identities)
    # pair relations through the potential
    sd = ws.g.shape.diamond
    yield "shape-pair-relations", [
        _minus(ws.gt.shape.operator, _minus(ws.g.shape.operator, ws.g.partner_potential_xi)),
        _minus(
            ws.gt.shape.diamond,
            _minus(
                scalars.einsum("im,mj->ij", sd, s.phi),
                scalars.einsum("mia,ab,m->ib", ws.g.partner_potential03, s.phi, s.xi),
            ),
        ),
    ], (sd,)


@_rows
def check_trace_identity(ws: Workspace):
    div, _ = ws.g.div_pair
    tr = ws.g.shape.trace
    yield "shape-trace-identity", [
        _minus(tr, ws.gt.shape.trace),
        scalars.combine([1, 1], [tr, div]),
        scalars.combine([1, 1], [tr, ws.g.lee.theta_star_xi]),
    ], ()


@_per_view
def check_qt_components(ws: Workspace, view: MetricView):
    s = ws.s
    q, t = view.potential, view.torsion
    comps = view.hv
    arrays = [
        scalars.combine([1, 1, -1], [comps.q_h, comps.q_v, q]),
        scalars.combine([1, 1, -1], [comps.t_h, comps.t_v, t]),
    ]
    for ref in (view.hv_closed, shape_components(s, view.shape)):
        arrays += [
            _minus(comps.q_h, ref.q_h),
            _minus(comps.q_v, ref.q_v),
            _minus(comps.t_h, ref.t_h),
            _minus(comps.t_v, ref.t_v),
        ]
    yield "potential-torsion-hv-components", arrays, (q, t)
    q03 = view.potential03
    q_pi1 = potential_pi1_form(s, view.shape, view.metric)
    yield "potential-torsion-pi1-forms", [
        _minus(q03, q_pi1),
        _minus(view.torsion03, torsion_from_potential(q_pi1)),
    ], (q03,)


@_rows
def check_qt_pair_relations(ws: Workspace):
    s = ws.s
    eta, xi = s.eta, s.xi
    pot_xi = ws.g.partner_potential_xi
    eta_pot = scalars.einsum("m,mij->ij", eta, ws.g.partner_potential)

    q, qt = ws.g.potential, ws.gt.potential
    t, tt = ws.g.torsion, ws.gt.torsion
    eta_pot_xi = scalars.einsum("j,ki->kij", eta, pot_xi)
    rel_q = _minus(qt, scalars.combine(
        [1, -1, -1], [q, eta_pot_xi, scalars.einsum("ij,k->kij", eta_pot, xi)]
    ))
    rel_t = _minus(tt, scalars.combine(
        [1, 1, -1], [t, scalars.einsum("i,kj->kij", eta, pot_xi), eta_pot_xi]
    ))

    ds = _minus(ws.gt.shape.operator, ws.g.shape.operator)
    dsd = _minus(ws.gt.shape.diamond, ws.g.shape.diamond)
    ds_eta = scalars.einsum("ki,j->kij", ds, eta)
    dsd_xi = scalars.einsum("ij,k->kij", dsd, xi)
    wedge_ds = wedge_form_operator(eta, ds)
    rel_q_shape = _minus(qt, scalars.combine([1, 1, -1], [q, ds_eta, dsd_xi]))
    rel_t_shape = _minus(tt, _minus(t, wedge_ds))

    comps, comps_t = ws.g.hv, ws.gt.hv
    yield "potential-torsion-pair-relations", [
        rel_q,
        rel_t,
        rel_q_shape,
        rel_t_shape,
        _minus(comps_t.t_v, comps.t_v),
        _minus(comps_t.q_h, scalars.combine([1, 1], [comps.q_h, ds_eta])),
        _minus(comps_t.q_v, _minus(comps.q_v, dsd_xi)),
        _minus(comps_t.t_h, _minus(comps.t_h, wedge_ds)),
    ], (q, t, qt, tt)


@_per_view
def check_equivalence_chains(ws: Workspace, view: MetricView):
    for chain, predicates in view.chains.items():
        yield f"chain-{chain}", predicates


@_per_view
def check_svk_curvature(ws: Workspace, view: MetricView):
    s, curv = ws.s, view.curv
    formula = svk_curvature_formula(curv, view.shape)
    yield "svk-curvature-relation", [_minus(curv.r04_svk, formula)], (curv.r04, curv.r04_svk)
    rho_formula = svk_ricci_formula(s, curv.r04, curv.rho, view.shape, view.metric)
    yield "svk-ricci-relation", [_minus(curv.rho_svk, rho_formula)], (curv.rho,)
    tau_formula = svk_scalar_formula(curv.tau, view.rho_xi_xi, view.shape)
    yield "svk-scalar-relation", [_minus(curv.tau_svk, tau_formula)], ()
    n_s = covariant_derivative(view.conn, view.shape.operator, 1)
    via_shape = ricci_xi_formula(s, view.conn, n_s, view.shape, view.metric)
    yield "ricci-reeb-formula", [_minus(view.rho_xi_xi, via_shape)], ()
    yield "curvature-reeb-identity", [curvature_reeb_identity(s, curv.r13, n_s)], (curv.r04,)


@_per_view
def check_curvature_symmetries(ws: Workspace, view: MetricView):
    r = view.curv.r04
    bianchi = scalars.combine(
        [1, 1, 1], [r, scalars.einsum("ijkl->jkil", r), scalars.einsum("ijkl->kijl", r)]
    )
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

def sample_planes(ws: Workspace, view: MetricView, seed: int) -> PlaneStack:
    """Seeded non-degenerate 2-planes for the sectional-curvature checks: the
    first PLANE_COUNT non-degenerate planes of up to 60 * PLANE_COUNT seeded
    draws, each draw tested in a batch of the draws still needed."""
    s = ws.s
    rng = np.random.default_rng(seed)
    batches = []
    accepted = attempts = 0
    while accepted < PLANE_COUNT and attempts < 60 * PLANE_COUNT:
        n = min(PLANE_COUNT - accepted, 60 * PLANE_COUNT - attempts)
        attempts += n
        draws = scalars.array(rng.integers(-3, 4, size=(2 * n, s.dim)), s.mode)
        batch = PlaneStack.nondegenerate(view.metric, draws.reshape(n, 2, s.dim), s.eps)
        batches.append(batch)
        accepted += len(batch)
    return PlaneStack.concat(batches)


def check_sectional_curvature(ws: Workspace, seed: int = 0):
    """The checks of ``_sectional_checks`` on g, then on g~."""
    for view in (ws.g, ws.gt):
        yield from _sectional_checks(ws, view, seed)


def _sectional_checks(ws: Workspace, view: MetricView, seed: int):
    """The sectional-curvature relations of one metric: the relation between
    k^D and k on the sampled planes, which witness the plane evaluator
    ``sectional``, and the tensor identities that state the relation, and
    its forms on Reeb, re-based and horizontal planes, for every plane at
    once.  R^D can vanish exactly, and its float entries are then roundoff,
    so R, not R^D, scales the float tolerance of the relation, of the basis
    invariance and of the horizontal restriction."""
    s, eps, role = ws.s, ws.s.eps, view.role
    r04, r04_svk = view.curv.r04, view.curv.r04_svk
    planes = sample_planes(ws, view, seed + (0 if role == "g" else 1))
    sampled = sectional(planes, view.curv, view.shape, s)

    polarized = svk_sectional_polarized(view.curv, view.shape)
    relation = [_minus(sampled.k_svk, sampled.formula), polarized]
    passed, residual, worst = scalars.zero_test(relation, eps, r04)
    yield CheckResult(
        f"sectional-relation[{role}]",
        passed and len(planes) >= PLANE_COUNT,
        residual,
        worst,
        f"{len(planes)} sampled planes",
    )

    # R^D(x,y,z,xi) = -(R^D(x,y) eta)(z) = 0 as D eta = 0; as D is metric,
    # it gives R^D(x,xi,xi,x) = 0 on every plane through xi
    flat = [scalars.einsum("ijkm,m->ijk", r04_svk, s.xi)]
    yield _result(eps, f"reeb-section-flatness[{role}]", flat, (r04_svk,), "R^D(x,y,z,xi) = 0")

    # k^D does not depend on the basis of the plane
    yield _result(eps, f"sectional-basis-invariance[{role}]", basis_invariance_forms(r04_svk), (r04,))

    # on planes orthogonal to xi, the phi-holomorphic and phi-totally-real
    # ones among them, the eta terms of the relation vanish:
    # k^D = k + pi_1(Sx,Sy,y,x) / pi_1(x,y,y,x)
    horizontal = [horizontal_restriction(polarized, s)]
    detail = "every plane orthogonal to xi"
    yield _result(eps, f"sectional-special-types[{role}]", horizontal, (r04,), detail)


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
