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

A family decorated with ``_rows`` yields the rows of one model.  One
decorated with ``_per_view`` yields rows of the model's ``Batch``, whose
arrays carry g and g~ on a batch axis (a list holds a dict or a detail per
metric); its results are those of g, then of g~, each name suffixed with
the metric's role.
"""
from __future__ import annotations

import functools

import numpy as np

from . import scalars, svk as svk_mod
from .curvature import PlaneStack, basis_invariance_forms, curvature_reeb_identity, horizontal_restriction
from .curvature import pair_symmetries, ricci_xi_formula, sectional, svk_curvature_formula
from .curvature import svk_ricci_formula, svk_scalar_formula, svk_sectional_polarized
from .hv import potential_pi1_form, shape_components, wedge_form_operator
from .liegroup import covariant_derivative, torsion
from .pipeline import ROLES, Batch, MetricView, Workspace
from .structure import CheckResult, assoc_fundamental_from_fundamental, fundamental_from_potential
from .structure import nabla_xi_class_conditions, potential_from_fundamental
from .svk import potential_from_torsion, svk_connection_projected, svk_covariant_phi_closed
from .svk import svk_pair_covariant_phi, svk_pair_difference, svk_pair_from_potential
from .svk import svk_torsion_closed, torsion_from_potential

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
            yield row if isinstance(row, CheckResult) else _result(ws.s.eps, *row)

    CHECKS.append(checks)
    return checks


def _each_view(eps: float, name: str, tested, context=(), detail="") -> list[CheckResult]:
    """The ``CheckResult`` of a batched row for each metric, in ``ROLES``
    order, its arrays decided by one zero test of their rows."""
    names = [f"{name}[{role}]" for role in ROLES]
    if isinstance(tested[0], dict):
        return [_result(eps, n, t) for n, t in zip(names, tested)]
    details = detail if isinstance(detail, list) else [detail] * len(ROLES)
    rows = scalars.zero_rows(tested, eps, *context)
    return [CheckResult(n, *v, detail=d) for n, v, d in zip(names, rows, details)]


def _view_rows(ws: Workspace, rows) -> list[CheckResult]:
    """The results of the batched rows ``rows(ws, ws.batch)``: g's, then g~'s."""
    results = [_each_view(ws.s.eps, *row) for row in rows(ws, ws.batch)]
    return [by_metric[i] for i in range(len(ROLES)) for by_metric in results]


def _per_view(rows):
    """A check family stated once for the ``Batch`` (module docstring)."""
    return _rows(functools.wraps(rows)(lambda ws: _view_rows(ws, rows)))


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
def check_fundamental_identities(ws: Workspace, b: Batch):
    """The identities F is built on: its symmetries, the projection identity,
    F(x, phi y, xi) = m(nabla_x xi, y) = (nabla_x eta)(y), and the two
    properties of the Levi-Civita connection F is taken with (torsion-free,
    metric)."""
    s = ws.s
    phi, xi, eta = s.phi, s.xi, s.eta
    conn, m = b.conn, b.metric
    f = b.fundamental
    fxiz = scalars.einsum("Bxmz,m->Bxz", f, xi)
    proj = scalars.combine(
        [1, 1, 1],
        [
            scalars.einsum("Bxab,ay,bz->Bxyz", f, phi, phi),
            scalars.einsum("y,Bxz->Bxyz", eta, fxiz),
            scalars.einsum("z,Bxy->Bxyz", eta, fxiz),
        ],
    )
    # F(x, phi y, xi) = (nabla_x eta)(y) = m(nabla_x xi, y)
    lam = b.nabla_xi02
    yield "fundamental-identities", [
        _minus(f, scalars.einsum("Bxyz->Bxzy", f)),
        _minus(f, proj),
        _minus(scalars.einsum("Bxaz,ay,z->Bxy", f, phi, xi), lam),
        _minus(b.nabla_eta, lam),
        torsion(conn, b.c),
        covariant_derivative(conn, m.matrix, 0, batched=True),
    ], (f, conn, m.matrix)


@_per_view
def check_lee_identities(ws: Workspace, b: Batch):
    s, lee = ws.s, b.lee
    yield "lee-form-identities", [
        scalars.einsum("Bi,i->B", lee.omega, s.xi),
        scalars.combine([1, 1], [scalars.einsum("Bi,ij->Bj", lee.theta_star, s.phi), lee.theta_phi2]),
    ], (b.fundamental,)


@_per_view
def check_divergence_traces(ws: Workspace, b: Batch):
    div, div_star = b.div_pair
    yield "divergence-trace", [
        _minus(b.lee.theta_xi, div_star),
        _minus(b.lee.theta_star_xi, div),
    ], ()


@_rows
def check_nabla_xi_table(ws: Workspace):
    for view in (ws.g, ws.gt):  # per metric: built for the classes it is in
        conds = nabla_xi_class_conditions(
            ws.s, view.nabla_xi, view.nabla_xi02, view.lee, view.div_pair, view.classification
        )
        yield (
            f"class-nabla-xi-table[{view.role}]",
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
def check_svk_preserves_structure(ws: Workspace, b: Batch):
    derivatives = [b.svk_metric, b.svk_xi, b.svk_eta]
    yield "svk-preserves-structure", derivatives, (b.svk, b.metric.matrix)


@_per_view
def check_svk_two_routes(ws: Workspace, b: Batch):
    # svk-projector-route is D's independent oracle; the closed forms share one formula
    proj = svk_connection_projected(b.conn, ws.s)
    d = b.svk
    yield "svk-projector-route", [_minus(proj, d)], (d,)


@_per_view
def check_svk_distributions(ws: Workspace, b: Batch):
    s, d = ws.s, b.svk
    horiz_stays = scalars.einsum("k,Bkim,mj->Bij", s.eta, d, s.horizontal)
    vert_stays = scalars.einsum("kl,Blim,mj->Bkij", s.horizontal, d, s.vertical)
    yield "svk-distributions-parallel", [horiz_stays, vert_stays], (d,)


@_per_view
def check_svk_closed_forms(ws: Workspace, b: Batch):
    # the potential is built from its closed form, so only the torsion is
    # compared (svk-projector-route tests the potential)
    t = b.torsion
    yield "svk-potential-torsion-closed-forms", [
        _minus(t, svk_torsion_closed(b.hv_closed)),
        scalars.combine([1, 1], [t, scalars.einsum("Bkij->Bkji", t)]),
    ], (b.potential, t)


@_per_view
def check_torsion_potential_bijection(ws: Workspace, b: Batch):
    q03, t03 = b.potential03, b.torsion03
    yield "torsion-potential-bijection", [
        _minus(torsion_from_potential(q03), t03),
        _minus(potential_from_torsion(t03, ws.s.eps), q03),
        scalars.combine([1, 1], [q03, scalars.einsum("Bxyz->Bxzy", q03)]),  # metric potentials
    ], (q03, t03)


@_per_view
def check_svk_coincidence(ws: Workspace, b: Batch):
    yield "svk-coincides-iff-reeb-parallel", [
        {
            "svk equals levi-civita": chains["vanishing"]["svk equals levi-civita"],
            "nabla xi zero": chains["vanishing"]["nabla-xi zero"],
        }
        for chains in b.chains
    ]


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


def _svk_phi_closed_form(ws: Workspace, b: Batch):
    dphi = b.svk_phi
    closed = svk_covariant_phi_closed(b.nabla_phi, b.nabla_xi, b.nabla_eta, ws.s)
    yield "svk-phi-closed-form", [_minus(dphi, closed)], (dphi,)


@_rows
def check_svk_phi_forms(ws: Workspace):
    yield from _view_rows(ws, _svk_phi_closed_form)
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


def _shape_operator_identities(ws: Workspace, b: Batch):
    s = ws.s
    sop = b.shape.operator
    horiz = scalars.einsum("Bki,Bkj,j->Bi", sop, b.metric.matrix, s.xi)
    reeb_row = scalars.combine(
        [1, 1], [b.shape.reeb, scalars.einsum("ki,Bi->Bk", s.phi, b.lee.omega_sharp)]
    )
    yield "shape-operator-identities", [horiz, reeb_row], (sop,)


@_rows
def check_shape_operators(ws: Workspace):
    s = ws.s
    yield from _view_rows(ws, _shape_operator_identities)
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
def check_qt_components(ws: Workspace, b: Batch):
    s = ws.s
    q, t = b.potential, b.torsion
    comps = b.hv
    arrays = [
        scalars.combine([1, 1, -1], [comps.q_h, comps.q_v, q]),
        scalars.combine([1, 1, -1], [comps.t_h, comps.t_v, t]),
    ]
    for ref in (b.hv_closed, shape_components(s, b.shape)):
        arrays += [
            _minus(comps.q_h, ref.q_h),
            _minus(comps.q_v, ref.q_v),
            _minus(comps.t_h, ref.t_h),
            _minus(comps.t_v, ref.t_v),
        ]
    yield "potential-torsion-hv-components", arrays, (q, t)
    q03 = b.potential03
    q_pi1 = potential_pi1_form(s, b.shape, b.metric)
    yield "potential-torsion-pi1-forms", [
        _minus(q03, q_pi1),
        _minus(b.torsion03, torsion_from_potential(q_pi1)),
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
    wedge_ds = scalars.row(wedge_form_operator(eta, scalars.row(ds, np.newaxis)), 0)
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
def check_equivalence_chains(ws: Workspace, b: Batch):
    for chain in b.chains[0]:
        yield f"chain-{chain}", [chains[chain] for chains in b.chains]


@_per_view
def check_svk_curvature(ws: Workspace, b: Batch):
    s, curv = ws.s, b.curv
    formula = svk_curvature_formula(curv, b.shape)
    yield "svk-curvature-relation", [_minus(curv.r04_svk, formula)], (curv.r04, curv.r04_svk)
    rho_formula = svk_ricci_formula(s, curv.r04, curv.rho, b.shape, b.metric)
    yield "svk-ricci-relation", [_minus(curv.rho_svk, rho_formula)], (curv.rho,)
    tau_formula = svk_scalar_formula(curv.tau, b.rho_xi_xi, b.shape)
    yield "svk-scalar-relation", [_minus(curv.tau_svk, tau_formula)], ()
    n_s = covariant_derivative(b.conn, b.shape.operator, 1, batched=True)
    via_shape = ricci_xi_formula(s, b.conn, n_s, b.shape, b.metric)
    yield "ricci-reeb-formula", [_minus(b.rho_xi_xi, via_shape)], ()
    yield "curvature-reeb-identity", [curvature_reeb_identity(s, curv.r13, n_s)], (curv.r04,)


@_per_view
def check_curvature_symmetries(ws: Workspace, b: Batch):
    r = b.curv.r04
    bianchi = scalars.combine(
        [1, 1, 1], [r, scalars.einsum("Bijkl->Bjkil", r), scalars.einsum("Bijkl->Bkijl", r)]
    )
    yield "curvature-symmetries", [*pair_symmetries(r).values(), bianchi], (r,)
    # the SvK curvature keeps the first-pair antisymmetry; the other two
    # pair symmetries are measured only
    rd = b.curv.r04_svk
    others = pair_symmetries(rd)
    first_pair = others.pop("first-pair-antisymmetric")
    measured = {k: scalars.zero_rows([a], ws.s.eps, rd, locate=False) for k, a in others.items()}
    details = [
        "measured: " + ", ".join(f"{k}={rows[r][0]}" for k, rows in measured.items())
        for r in range(len(ROLES))
    ]
    yield "svk-curvature-first-pair-antisymmetry", [first_pair], (rd,), details


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
        draws = scalars.array(rng.integers(-3, 4, size=(n, 2, s.dim)), s.mode)
        batch = PlaneStack.nondegenerate(view.metric, draws, s.eps)
        batches.append(batch)
        accepted += len(batch)
    return PlaneStack.concat(batches)


def check_sectional_curvature(ws: Workspace, seed: int = 0):
    """The checks of ``_sectional_checks`` on g, then on g~.  The tensor
    identities that state the relation, and its forms on Reeb, re-based and
    horizontal planes, hold for every plane at once; each is decided for
    both metrics by one zero test.  R^D can vanish exactly, and its float
    entries are then roundoff, so R, not R^D, scales the float tolerance of
    the relation, of the basis invariance and of the horizontal
    restriction."""
    s, eps, b = ws.s, ws.s.eps, ws.batch
    r04, r04_svk = b.curv.r04, b.curv.r04_svk
    polarized = svk_sectional_polarized(b.curv, b.shape)
    # R^D(x,y,z,xi) = -(R^D(x,y) eta)(z) = 0 as D eta = 0; as D is metric,
    # it gives R^D(x,xi,xi,x) = 0 on every plane through xi
    flat = [scalars.einsum("Bijkm,m->Bijk", r04_svk, s.xi)]
    flat = _each_view(eps, "reeb-section-flatness", flat, (r04_svk,), "R^D(x,y,z,xi) = 0")
    # k^D does not depend on the basis of the plane
    invariance = _each_view(eps, "sectional-basis-invariance", basis_invariance_forms(r04_svk), (r04,))
    # on planes orthogonal to xi, the phi-holomorphic and phi-totally-real
    # ones among them, the eta terms of the relation vanish:
    # k^D = k + pi_1(Sx,Sy,y,x) / pi_1(x,y,y,x)
    special = [horizontal_restriction(polarized, s)]
    special = _each_view(eps, "sectional-special-types", special, (r04,), "every plane orthogonal to xi")
    for index, view in enumerate((ws.g, ws.gt)):
        yield from _sectional_checks(ws, view, seed + index, scalars.row(polarized, index))
        yield from (flat[index], invariance[index], special[index])


def _sectional_checks(ws: Workspace, view: MetricView, seed: int, polarized: np.ndarray):
    """The relation between k^D and k of one metric on the planes sampled
    for it, which witness the plane evaluator ``sectional``, with
    ``polarized``, its row of the relation as a tensor identity."""
    eps = ws.s.eps
    planes = sample_planes(ws, view, seed)
    sampled = sectional(planes, view.curv, view.shape, ws.s)
    relation = [_minus(sampled.k_svk, sampled.formula), polarized]
    passed, residual, worst = scalars.zero_test(relation, eps, view.curv.r04)
    enough = passed and len(planes) >= PLANE_COUNT
    yield CheckResult(f"sectional-relation[{view.role}]", enough, residual, worst, f"{len(planes)} sampled planes")


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
