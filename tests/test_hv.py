
import numpy as np

from bcontact import scalars, zoo
from bcontact.curvature import PlaneStack
from bcontact.hv import (
    connection_components,
    equivalence_chains,
    hv_split,
    potential_components,
    potential_pi1_form,
    shape_components,
)
from bcontact.scalars import RATIONAL

from support import pi1, result_map, workspace

ALL_NAMES = zoo.names()


def test_shape_operator_vanishes_on_parallel_entries():
    for name in ("abelian3", "nil5-u1", "nil5-f2"):
        ws = workspace(name)
        assert scalars.residual(ws.g.shape.operator) == 0.0


def test_shape_trace_identity_three_routes():
    for name in ALL_NAMES:
        ws = workspace(name)
        div = ws.g.div_pair[0]
        assert ws.g.shape.trace == ws.gt.shape.trace == -div, name
        assert ws.g.shape.trace == -ws.g.lee.theta_star_xi


def test_shape_of_reeb_is_minus_phi_omega_sharp():
    ws = workspace("solv3-f11")
    s_xi = ws.g.shape.operator @ ws.s.xi
    assert np.array_equal(s_xi, -(ws.s.phi @ ws.g.lee.omega_sharp))
    assert scalars.residual(s_xi) > 0  # genuinely nonzero for this entry


def test_shape_range_is_horizontal():
    for name in ALL_NAMES:
        ws = workspace(name)
        for view in (ws.g, ws.gt):
            sop = view.shape.operator
            paired = np.einsum("ki,kj,j->i", sop, view.metric.matrix, ws.s.xi)
            assert scalars.residual(paired) == 0.0


def _den(m, *planes):
    """pi_1(x,y,y,x) of each plane (x, y), by the Gram block of a PlaneStack."""
    return list(PlaneStack.spanned(m, planes).den)


def test_pi1_flat_model_values():
    ws = workspace("abelian3")
    e1, e2 = scalars.eye(3, RATIONAL)[:2]
    # g(e2,e2) g(e1,e1) - g(e1,e2)^2 = (-1)(1) - 0
    assert pi1(ws.s.metric, e1, e2, e2, e1) == -1
    assert _den(ws.s.metric, (e1, e2)) == [-1]
    # with the associated metric: 0*0 - (-1)^2
    assert pi1(ws.s.assoc, e1, e2, e2, e1) == -1
    assert _den(ws.s.assoc, (e1, e2)) == [-1]


def test_pi1_antisymmetries():
    ws = workspace("solv3-a")
    m = ws.s.metric
    rng = np.random.default_rng(5)
    for _ in range(10):
        vals = rng.integers(-3, 4, size=(4, 3))
        x, y, z, w = (scalars.array(v.tolist(), RATIONAL) for v in vals)
        assert pi1(m, x, x, z, w) == 0
        assert pi1(m, x, y, z, z) == 0
        assert pi1(m, x, y, z, w) == -pi1(m, y, x, z, w)
        # the Gram route: a plane spanned twice over is degenerate, and the
        # denominator is that of the definition, whatever the order
        assert _den(m, (x, x), (x, y), (y, x)) == [0, pi1(m, x, y, y, x), pi1(m, y, x, x, y)]
        assert pi1(m, x, y, y, x) == pi1(m, y, x, x, y)


def test_hv_components_sum_and_reference_forms():
    for name in ALL_NAMES:
        ws = workspace(name)
        for view in (ws.g, ws.gt):
            comps = hv_split(ws.s, view.potential, view.torsion)
            q = potential_components(ws.s, view.nabla_xi, view.nabla_eta)
            by_conn = connection_components(ws.s, view.nabla_xi, q)
            by_shape = shape_components(ws.s, view.shape)
            assert np.array_equal(
                comps.q_h + comps.q_v, view.potential
            )
            for got, want in (
                (comps.q_h, by_conn.q_h),
                (comps.q_v, by_conn.q_v),
                (comps.t_h, by_conn.t_h),
                (comps.t_v, by_conn.t_v),
                (comps.q_h, by_shape.q_h),
                (comps.q_v, by_shape.q_v),
                (comps.t_h, by_shape.t_h),
                (comps.t_v, by_shape.t_v),
            ):
                assert np.array_equal(got, want), name


def test_components_vanish_on_parallel_entry():
    ws = workspace("nil5-u1")
    comps = hv_split(ws.s, ws.g.potential, ws.g.torsion)
    for c in (comps.q_h, comps.q_v, comps.t_h, comps.t_v):
        assert scalars.residual(c) == 0.0


def test_boundary_killing_entry_vertical_torsion():
    # non-closed eta: vertical torsion survives while the vertical potential
    # component is skew
    ws = workspace("x-heis5-f7")
    comps = hv_split(ws.s, ws.g.potential, ws.g.torsion)
    assert scalars.residual(comps.t_v) > 0
    qv = comps.q_v
    assert scalars.residual(qv + np.einsum("kij->kji", qv)) == 0.0


def test_vertical_torsion_shared_by_the_pair():
    for name in ALL_NAMES + zoo.boundary_names():
        ws = workspace(name)
        a = hv_split(ws.s, ws.g.potential, ws.g.torsion)
        b = hv_split(ws.s, ws.gt.potential, ws.gt.torsion)
        assert np.array_equal(a.t_v, b.t_v), name


def test_potential_pi1_form():
    for name in ALL_NAMES:
        ws = workspace(name)
        q03 = potential_pi1_form(ws.s, ws.g.shape, ws.s.metric)
        assert np.array_equal(q03, ws.g.potential03), name


def _chain_values(ws, view):
    """chain -> its one value; asserts that the chain's predicates agree."""
    chains = equivalence_chains(
        ws.s, view.conn, view.nabla_xi, view.nabla_eta, view.svk, view.shape,
        view.hv, view.metric,
    )
    values = {}
    for chain, predicates in chains.items():
        assert len(set(predicates.values())) == 1, (chain, view.role, predicates)
        values[chain] = next(iter(predicates.values()))
    return values


def test_chain_consistency_everywhere():
    for name in ALL_NAMES + zoo.boundary_names():
        ws = workspace(name)
        for view in (ws.g, ws.gt):
            assert set(_chain_values(ws, view)) == {"symmetric", "skew", "vanishing"}, name


def test_chain_values_on_representative_entries():
    def values(name):
        ws = workspace(name)
        return _chain_values(ws, ws.g)

    # symmetric chain true on the pure-trace entry, all chains true on a
    # parallel entry, every chain false on the omega entry
    assert values("solv3-f4") == {"symmetric": True, "skew": False, "vanishing": False}
    assert values("nil5-u1") == {"symmetric": True, "skew": True, "vanishing": True}
    assert values("solv3-f11") == {"symmetric": False, "skew": False, "vanishing": False}
    # Killing chain true with non-parallel Reeb vector on the boundary entry
    assert values("x-heis5-f7") == {"symmetric": False, "skew": True, "vanishing": False}


def test_shape_pair_relation_via_potential():
    for name in ALL_NAMES:
        ws = workspace(name)
        pot_xi = np.einsum("lim,m->li", ws.g.partner_potential, ws.s.xi)
        assert np.array_equal(
            ws.gt.shape.operator, ws.g.shape.operator - pot_xi
        ), name


def test_shape_diamond_pair_relation():
    # S~<>(x, y) = S<>(x, phi y) - Phi(xi, x, phi y) on all pairs
    for name in ALL_NAMES + zoo.boundary_names():
        ws = workspace(name)
        rhs = np.einsum(
            "im,mj->ij", ws.g.shape.diamond, ws.s.phi
        ) - np.einsum("mia,ab,m->ib", ws.g.partner_potential03, ws.s.phi, ws.s.xi)
        assert np.array_equal(ws.gt.shape.diamond, rhs), name


def test_suite_green_on_catalog():
    for name in ALL_NAMES:
        failing = [r.name for r in result_map(name).values() if not r.passed]
        assert not failing, (name, failing)
