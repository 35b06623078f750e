from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcontact import scalars, zoo
from bcontact.scalars import DEFAULT_EPS, RATIONAL
from bcontact.svk import (
    phi_b_connection,
    potential_from_torsion,
    svk_pair_covariant_phi,
    torsion_from_potential,
)

from support import rat, result_map, workspace

ALL_NAMES = zoo.names()

# the exact values of a kernel array
F = scalars.fractions


def test_svk_equals_levi_civita_iff_parallel_reeb():
    flat = workspace("abelian3")
    assert np.array_equal(F(flat.g.svk), F(flat.g.conn))
    parallel = workspace("nil5-u1")  # nonzero fundamental tensor, parallel xi
    assert scalars.residual(parallel.g.fundamental) > 0
    assert np.array_equal(F(parallel.g.svk), F(parallel.g.conn))
    bent = workspace("solv3-f4")
    assert scalars.residual(bent.g.svk, bent.g.conn) > 0


def test_bijection_round_trip_zero():
    z = rat(np.zeros((1, 3, 3, 3), dtype=int))  # a batch of one
    assert scalars.residual(torsion_from_potential(z)) == 0.0
    assert scalars.residual(potential_from_torsion(z, DEFAULT_EPS)) == 0.0


def test_bijection_loses_symmetric_part():
    # Q(x,y,z) = g(x,y) eta(z) is symmetric in x,y: its torsion vanishes and
    # the round trip returns only the antisymmetrized part (zero)
    ws = workspace("abelian3")
    q = scalars.einsum("xy,z,B->Bxyz", ws.s.metric.matrix, ws.s.eta, rat([1]))
    t = torsion_from_potential(q)
    assert scalars.residual(t) == 0.0
    back = potential_from_torsion(t, DEFAULT_EPS)
    assert scalars.residual(back) == 0.0
    assert scalars.residual(q) > 0


def test_bijection_rejects_non_antisymmetric_torsion():
    ws = workspace("abelian3")
    bad = scalars.einsum("xy,z,B->Bxyz", ws.s.metric.matrix, ws.s.eta, rat([1]))
    with pytest.raises(ValueError, match="antisym"):
        potential_from_torsion(bad, DEFAULT_EPS)


@st.composite
def metric_potentials(draw, dim=3):
    # a random (0,3) tensor antisymmetric in its last two slots, the shape of
    # any metric-connection potential
    vals = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=dim**3,
            max_size=dim**3,
        )
    )
    arr = np.empty((dim, dim, dim), dtype=object)
    for k, v in enumerate(vals):
        arr[k // dim**2, (k // dim) % dim, k % dim] = v
    arr = (arr - np.einsum("xyz->xzy", arr)) * Fraction(1, 2)
    return arr


@given(metric_potentials())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_bijection_round_trip_identity_in_general(q):
    t = torsion_from_potential(rat(q[None]))
    assert not (F(t) + np.einsum("bxyz->byxz", F(t))).any()
    back = potential_from_torsion(t, DEFAULT_EPS)
    assert np.array_equal(F(back)[0], q)


def _is_natural(name):
    """The suite's verdict on whether phi, xi, eta and g are all parallel
    under the SvK connection of g."""
    row = result_map(name)["svk-natural-iff-vertical-fundamental"]
    return "is-natural=True" in row.detail.split(", ")


def test_svk_phi_vanishes_exactly_on_vertical_class():
    natural = workspace("solv3-f4")
    assert scalars.residual(natural.g.svk_phi) == 0.0
    for derivative in (natural.g.svk_xi, natural.g.svk_eta, natural.g.svk_metric):
        assert scalars.residual(derivative) == 0.0
    assert _is_natural("solv3-f4")

    # the pure-cyclic entry is parallel-Reeb but not in the vertical union:
    # its SvK connection is not natural and its phi-derivative survives
    non_natural = workspace("nil5-f2")
    assert non_natural.g.classification["U1"]
    assert not non_natural.g.classification["U2"]
    assert scalars.residual(non_natural.g.svk_phi) > 0
    assert not _is_natural("nil5-f2")


def test_phib_differs_outside_vertical_class():
    ws = workspace("nil5-f2")
    phib = phi_b_connection(ws.g.conn, ws.g.nabla_phi, ws.g.hv_closed, ws.s)
    assert scalars.residual(phib, ws.g.svk) > 0


def test_flat_model_connections_all_coincide():
    ws = workspace("abelian3")
    for conn in (ws.g.svk, ws.gt.svk, ws.gt.conn):
        assert np.array_equal(F(conn), F(ws.g.conn))


def test_pair_coincides_on_vertical_class_entry():
    ws = workspace("solv5-f6")
    assert ws.g.classification["U2"]
    assert np.array_equal(F(ws.gt.svk), F(ws.g.svk))


def test_pair_differs_on_parallel_entry():
    ws = workspace("nil5-f2")
    assert scalars.residual(ws.gt.svk, ws.g.svk) > 0


def test_pair_phi_relation_and_u3_behaviour():
    for name in ALL_NAMES:
        ws = workspace(name)
        g = ws.g
        rel = svk_pair_covariant_phi(g.svk_phi, g.partner_potential, g.partner_potential_xi, ws.s)
        assert np.array_equal(F(rel), F(ws.gt.svk_phi)), name
    u3 = workspace("solv7-u2")
    assert u3.g.classification["U3"]
    assert scalars.residual(u3.g.svk_phi) == 0.0
    assert scalars.residual(u3.gt.svk_phi) == 0.0


def test_boundary_killing_entry_pair_differs_with_equal_phi_derivative():
    # on the Heisenberg-type boundary model both SvK derivatives of phi vanish
    # (the structure sits in the natural union for both metrics) while the two
    # connections themselves differ: naturality does not force coincidence
    ws = workspace("x-heis5-f7")
    assert scalars.residual(ws.g.svk_phi) == 0.0
    assert scalars.residual(ws.gt.svk_phi) == 0.0
    assert scalars.residual(ws.gt.svk, ws.g.svk) > 0


def test_pure_cyclic_entry_phi_derivatives_differ():
    # both views of the sl(2)-factor entry satisfy the pure cyclic class, yet
    # the two SvK derivatives of phi differ; the potential-level condition
    # tracks this exactly (both sides of the biconditional are false)
    ws = workspace("sl2-f3")
    assert ws.g.classification["F3"] and ws.gt.classification["F3"]
    assert not ws.g.classification["F3+U3"]
    assert scalars.residual(ws.gt.svk_phi, ws.g.svk_phi) > 0
    assert scalars.residual(ws.gt.svk, ws.g.svk) > 0
    # the first-slot-Reeb part of the potential vanishes here, so the failure
    # lives entirely on horizontal slots
    pxi = np.einsum("mab,m->ab", F(ws.g.partner_potential03), F(ws.s.xi))
    assert not pxi.any()


def test_symmetric_one_sided_entry_naturality_asymmetry():
    # the F8 boundary entry: the first SvK connection is natural, the second
    # is not, although the fundamental-tensor condition associated with the
    # second one's naturality holds
    ws = workspace("x-mix5-f8")
    assert ws.g.classification["F8"]
    assert scalars.residual(ws.g.svk_phi) == 0.0
    assert scalars.residual(ws.gt.svk_phi) > 0
    assert ws.g.classification["F1+F2+U3"]


def test_corrupted_connection_breaks_preservation():
    # deliberately corrupt one coefficient: metric preservation must fail
    from bcontact.liegroup import covariant_derivative

    ws = workspace("solv3-f4")
    bad = F(ws.g.svk)
    bad[0, 1, 1] += Fraction(1)
    dg = covariant_derivative(rat(bad[None]), ws.s.metric.matrix, 0)
    assert scalars.residual(dg) > 0


@pytest.mark.parametrize("name", ["solv3-f4", "dim5-tr"])
def test_checks_see_a_wrong_svk_potential(monkeypatch, name):
    # the workspace builds D from svk_potential_closed; doubling its
    # (nabla_x eta)(y) xi term must be caught by the routes that do not use it
    from bcontact import checks, svk

    closed = svk.svk_potential_closed

    def doubled(parts):
        return scalars.combine([1, 1], [closed(parts), parts.q_v])

    monkeypatch.setattr(svk, "svk_potential_closed", doubled)
    ws = zoo.builtin(name).workspace(RATIONAL)  # a fresh one, built with the wrong D
    rows = {
        r.name: r
        for family in (checks.check_svk_two_routes, checks.check_qt_components)
        for r in family(ws)
    }
    for role in ("g", "gtilde"):
        for check in ("svk-projector-route", "potential-torsion-hv-components"):
            assert not rows[f"{check}[{role}]"].passed, (check, role)
