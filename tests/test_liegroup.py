from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bcontact import scalars
from bcontact.liegroup import (
    LieAlgebra,
    StructureError,
    covariant_derivative,
    curvature,
    d_eta,
    lie_derivative_metric,
)
from bcontact.scalars import DEFAULT_EPS, RATIONAL
from bcontact.tensor import lower_out

from support import bracket, workspace

ZOO_NAMES = ["abelian3", "solv3-a", "solv3-f4", "solv3-f11", "nil5-u1", "solv5-f6"]

# the exact values of a kernel array
F = scalars.fractions


def test_jacobi_violation_rejected():
    # [e0,e1] = e2 together with [e2,e0] = -e0 leaves a stray [[e2,e0],e1]
    c = np.zeros((3, 3, 3), dtype=object)
    c[2, 0, 1] = Fraction(1)
    c[2, 1, 0] = Fraction(-1)
    c[0, 0, 2] = Fraction(1)
    c[0, 2, 0] = Fraction(-1)
    with pytest.raises(StructureError, match="Jacobi"):
        LieAlgebra(scalars.array(c, RATIONAL), DEFAULT_EPS)


def test_antisymmetry_violation_rejected():
    c = np.zeros((3, 3, 3), dtype=object)
    c[0, 1, 2] = Fraction(1)  # missing the mirrored entry
    with pytest.raises(StructureError, match="antisymmetric"):
        LieAlgebra(scalars.array(c, RATIONAL), DEFAULT_EPS)


def test_koszul_abelian_is_flat():
    ws = workspace("abelian3")
    assert scalars.residual(ws.g.conn) == 0.0
    assert scalars.residual(curvature(ws.s.algebra, ws.batch.conn)) == 0.0


def test_koszul_against_bruteforce_oracle():
    # independent evaluation: assemble the right-hand side
    #   2 m(nabla_x y, z) = m([x,y],z) - m([y,z],x) + m([z,x],y)
    # with explicit loops over basis triples, then solve with the inverse
    ws = workspace("solv3-a")
    alg, m = ws.s.algebra, ws.s.metric
    dim = alg.dim
    gamma = np.zeros((dim, dim, dim), dtype=object)
    basis = [scalars.row(scalars.eye(dim, RATIONAL), i) for i in range(dim)]
    for i, j in product(range(dim), repeat=2):
        ei, ej = basis[i], basis[j]
        rhs = np.zeros((dim,), dtype=object)
        for k, ek in enumerate(basis):
            rhs[k] = (
                m.inner(bracket(alg, ei, ej), ek)
                - m.inner(bracket(alg, ej, ek), ei)
                + m.inner(bracket(alg, ek, ei), ej)
            ) / 2
        gamma[:, i, j] = F(m.inv) @ rhs
    assert np.array_equal(gamma, F(ws.g.conn))
    assert scalars.residual(ws.g.conn) > 0  # genuinely nonzero table


def test_curvature_symmetries_bruteforce():
    ws = workspace("solv3-a")
    r = F(ws.g.curv.r04)
    dim = ws.s.dim
    for i, j, k, l in product(range(dim), repeat=4):
        assert r[i, j, k, l] == -r[j, i, k, l]
        assert r[i, j, k, l] == -r[i, j, l, k]
        assert r[i, j, k, l] == r[k, l, i, j]


def test_covariant_derivative_zero_tensor():
    ws = workspace("solv3-f4")
    z = scalars.array(np.zeros((3, 3), dtype=int), RATIONAL)
    assert scalars.residual(covariant_derivative(ws.batch.conn, z, 0)) == 0.0


def test_d_eta_flat_and_killing_flat():
    ws = workspace("abelian3")
    assert scalars.residual(d_eta(ws.s.algebra, ws.s.eta)) == 0.0
    assert scalars.residual(
        lie_derivative_metric(ws.s.algebra, ws.s.xi, ws.batch.metric)
    ) == 0.0


def test_d_eta_antisymmetric_and_matches_nabla_eta():
    for name in ZOO_NAMES:
        ws = workspace(name)
        de = F(d_eta(ws.s.algebra, ws.s.eta))
        assert not (de + de.T).any()
        # for both metrics of the pair
        for neta in F(covariant_derivative(ws.batch.conn, ws.s.eta, 0)):
            assert np.array_equal(de, neta - neta.T), name


def test_killing_reeb_with_nonparallel_xi():
    # Heisenberg-type boundary model: L_xi g = 0 while nabla xi != 0
    ws = workspace("x-heis5-f7")
    lg = lie_derivative_metric(ws.s.algebra, ws.s.xi, ws.batch.metric)
    assert scalars.residual(lg) == 0.0
    assert scalars.residual(scalars.row(covariant_derivative(ws.batch.conn, ws.s.xi, 1), 0)) > 0


def test_lie_derivative_against_bracket_formula():
    # independent route: (L_xi g)(x,y) = g(nabla_x xi, y) + g(nabla_y xi, x)
    # for the torsion-free Levi-Civita connection
    for name in ("solv3-a", "x-heis5-f7"):
        ws = workspace(name)
        # both metrics of the pair at once
        via_brackets = lie_derivative_metric(ws.s.algebra, ws.s.xi, ws.batch.metric)
        low = F(lower_out(ws.batch.nabla_xi, ws.batch.metric))
        assert np.array_equal(F(via_brackets), low + low.transpose(0, 2, 1)), name


def test_lie_derivative_symmetric():
    for name in ZOO_NAMES:
        ws = workspace(name)
        lg = lie_derivative_metric(ws.s.algebra, ws.s.xi, ws.batch.metric)
        assert scalars.residual(lg, scalars.einsum("Bij->Bji", lg)) == 0.0
