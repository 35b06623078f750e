
import numpy as np

from bcontact import scalars, zoo
from bcontact.curvature import PlaneStack
from bcontact.hv import (
    equivalence_chains,
    hv_split,
)
from bcontact.scalars import RATIONAL

from support import pi1, result_map, workspace

ALL_NAMES = zoo.names()

# the exact values of a kernel array
F = scalars.fractions


def test_shape_operator_vanishes_on_parallel_entries():
    for name in ("abelian3", "nil5-u1", "nil5-f2"):
        ws = workspace(name)
        assert scalars.residual(ws.g.shape.operator) == 0.0


def test_shape_of_reeb_is_minus_phi_omega_sharp():
    ws = workspace("solv3-f11")
    s_xi = F(ws.g.shape.operator) @ F(ws.s.xi)
    assert np.array_equal(s_xi, -(F(ws.s.phi) @ F(ws.g.lee.omega_sharp)))
    assert s_xi.any()  # genuinely nonzero for this entry


def _den(m, *planes):
    """pi_1(x,y,y,x) of each plane (x, y), by the Gram block of a PlaneStack."""
    return list(F(PlaneStack.spanned(m, list(planes)).den))


def test_pi1_flat_model_values():
    ws = workspace("abelian3")
    e1, e2 = (scalars.row(scalars.eye(3, RATIONAL), i) for i in range(2))
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


def test_components_vanish_on_parallel_entry():
    ws = workspace("nil5-u1")
    comps = hv_split(ws.s, ws.batch.potential, ws.batch.torsion)
    for c in (comps.q_h, comps.q_v, comps.t_h, comps.t_v):
        assert scalars.residual(c) == 0.0


def test_boundary_killing_entry_vertical_torsion():
    # non-closed eta: vertical torsion survives while the vertical potential
    # component is skew
    ws = workspace("x-heis5-f7")
    comps = hv_split(ws.s, ws.batch.potential, ws.batch.torsion)
    assert scalars.residual(scalars.row(comps.t_v, 0)) > 0
    qv = scalars.row(comps.q_v, 0)
    assert scalars.residual(scalars.combine([1, 1], [qv, scalars.einsum("kij->kji", qv)])) == 0.0


def _chain_values(ws):
    """chain -> its one value on g; asserts that the chain's predicates
    agree on each metric."""
    b = ws.batch
    by_metric = equivalence_chains(ws.s, b.conn, b.nabla_xi, b.nabla_eta, b.svk, b.shape, b.hv, b.metric)
    for role, chains in zip(("g", "gtilde"), by_metric):
        for chain, predicates in chains.items():
            assert len(set(predicates.values())) == 1, (chain, role, predicates)
    return {chain: next(iter(predicates.values())) for chain, predicates in by_metric[0].items()}


def test_chain_values_on_representative_entries():
    def values(name):
        return _chain_values(workspace(name))

    # symmetric chain true on the pure-trace entry, all chains true on a
    # parallel entry, every chain false on the omega entry
    assert values("solv3-f4") == {"symmetric": True, "skew": False, "vanishing": False}
    assert values("nil5-u1") == {"symmetric": True, "skew": True, "vanishing": True}
    assert values("solv3-f11") == {"symmetric": False, "skew": False, "vanishing": False}
    # Killing chain true with non-parallel Reeb vector on the boundary entry
    assert values("x-heis5-f7") == {"symmetric": False, "skew": True, "vanishing": False}


def test_suite_green_on_catalog():
    for name in ALL_NAMES:
        failing = [r.name for r in result_map(name).values() if not r.passed]
        assert not failing, (name, failing)
