from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bcontact import scalars, zoo
from bcontact.liegroup import covariant_derivative
from bcontact.scalars import DEFAULT_EPS, RATIONAL
from bcontact.structure import (
    ACBStructure,
    associated_of,
    nabla_xi_class_conditions,
    validate_structure,
)
from bcontact.tensor import Metric

from support import workspace


def test_validate_canonical_flat_structure():
    assert workspace("abelian3").validation.passed


def test_validate_flags_flipped_reeb_norm():
    entry = zoo.builtin("abelian3")
    g_bad = [list(r) for r in entry.g]
    g_bad[2][2] = -1
    s = ACBStructure(
        workspace("abelian3").s.algebra,
        scalars.array(entry.phi, RATIONAL),
        scalars.array(entry.xi, RATIONAL),
        scalars.array(entry.eta, RATIONAL),
        Metric.from_matrix(scalars.array(g_bad, RATIONAL), DEFAULT_EPS),
        DEFAULT_EPS,
    )
    report = validate_structure(s)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert any("signature" in f for f in failed)
    assert "g(xi, xi) = 1" in failed


def test_validate_random_structure_seed7():
    entry = zoo.random_structure(7, 1)
    assert validate_structure(entry.structure(RATIONAL)).passed


def test_associated_metric_flat_model_matrix():
    # hand-substitution of g~(x,y) = g(x, phi y) + eta(x) eta(y) on all pairs
    ws = workspace("abelian3")
    expected = scalars.array([[0, -1, 0], [-1, 0, 0], [0, 0, 1]], RATIONAL)
    assert np.array_equal(ws.s.assoc.matrix, expected)
    assert ws.s.assoc.inner(ws.s.xi, ws.s.xi) == 1


def test_fundamental_tensor_flat_model_vanishes():
    ws = workspace("abelian3")
    assert scalars.residual(ws.g.fundamental) == 0.0
    assert ws.g.classification["F0"]


def test_fundamental_bruteforce_oracle():
    # independent evaluation over all 27 basis triples:
    # F(x,y,z) = g(nabla_x (phi y) - phi (nabla_x y), z)
    ws = workspace("solv3-a")
    s, conn = ws.s, ws.g.conn
    dim = s.dim
    basis = scalars.eye(dim, RATIONAL)

    def nabla(x, y):
        return np.einsum("kij,i,j->k", conn, x, y)

    for i, j, k in product(range(dim), repeat=3):
        ei, ej, ek = basis[i], basis[j], basis[k]
        nabla_phi_y = nabla(ei, s.phi @ ej) - s.phi @ nabla(ei, ej)
        assert ws.g.fundamental[i, j, k] == s.metric.inner(nabla_phi_y, ek)


def test_lee_forms_vanish_in_zero_class():
    lee = workspace("abelian3").g.lee
    for form in (lee.theta, lee.theta_star, lee.omega):
        assert scalars.residual(form) == 0.0


def test_divergence_trace_identities():
    # theta(xi) = div*(eta) on the pure-trace entry, both sides evaluated
    # through different contractions
    ws = workspace("solv3-f4")
    div, div_star = ws.g.div_pair
    assert ws.g.lee.theta_xi == div_star == 2
    assert ws.g.lee.theta_star_xi == div == 0


def test_divergences_vanish_for_commuting_traceless_action():
    ws = workspace("solv5-f6")
    assert ws.g.div_pair == (0, 0)
    assert ws.g.classification["F6"]


def test_potential_vanishes_iff_zero_class():
    assert scalars.residual(workspace("abelian3").g.partner_potential) == 0.0
    assert scalars.residual(workspace("solv3-a").g.partner_potential) > 0


def test_assoc_fundamental_zero_class():
    ws = workspace("abelian3")
    assert scalars.residual(ws.gt.fundamental) == 0.0


def test_classify_pure_trace_entry():
    rep = workspace("solv3-f4").g.classification
    assert rep["F4"] and rep["U2"] and not rep["U1"]


def test_classify_omega_entry_nabla_xi_row():
    # nabla xi = eta (x) phi(omega#) checked componentwise
    ws = workspace("solv3-f11")
    assert ws.g.classification["F11"]
    nxi = covariant_derivative(ws.batch.conn, ws.s.xi, 1)[0]
    phi_om = ws.s.phi @ ws.g.lee.omega_sharp
    assert np.array_equal(nxi, np.einsum("k,i->ki", phi_om, ws.s.eta))


def test_second_trace_entry_row():
    # nabla xi + (div(eta)/2n) phi^2 = 0 for the second pure-trace class
    ws = workspace("solv3-a")
    assert ws.g.classification["F5"]
    div = ws.g.div_pair[0]
    nxi = covariant_derivative(ws.batch.conn, ws.s.xi, 1)[0]
    res = nxi + ws.s.phi2 * (Fraction(div) / (2 * ws.s.n))
    assert scalars.residual(res) == 0.0


def test_symmetry_row_of_boundary_entry():
    # m(nabla_x xi, y) = m(nabla_y xi, x) = m(nabla_phi(x) xi, phi y)
    ws = workspace("x-solv3-f9")
    assert ws.g.classification["F9"]
    lam = np.einsum(
        "ki,kj->ij", covariant_derivative(ws.batch.conn, ws.s.xi, 1)[0], ws.s.metric.matrix
    )
    lam_phiphi = np.einsum("ab,ai,bj->ij", lam, ws.s.phi, ws.s.phi)
    assert np.array_equal(lam, lam.T)
    assert np.array_equal(lam, lam_phiphi)


def test_skew_row_of_symmetric_one_sided_entry():
    # m(nabla_x xi, y) = -m(nabla_y xi, x) = m(nabla_phi(x) xi, phi y)
    ws = workspace("x-mix5-f8")
    assert ws.g.classification["F8"]
    lam = np.einsum(
        "ki,kj->ij", covariant_derivative(ws.batch.conn, ws.s.xi, 1)[0], ws.s.metric.matrix
    )
    lam_phiphi = np.einsum("ab,ai,bj->ij", lam, ws.s.phi, ws.s.phi)
    assert np.array_equal(lam, -lam.T)
    assert np.array_equal(lam, lam_phiphi)
    assert scalars.residual(lam) > 0


def test_first_class_entry_lee_form():
    # the pure first-class entry has a nonzero first Lee form that vanishes
    # on the Reeb vector
    ws = workspace("solv5-f1")
    assert ws.g.classification["F1"]
    assert scalars.residual(ws.g.lee.theta) > 0
    assert ws.g.lee.theta_xi == 0


def test_double_associated_metric():
    # assoc(assoc(g)) = -g + 2 eta (x) eta
    ws = workspace("solv3-f4")
    twice = associated_of(ws.s.assoc, ws.s).matrix
    expected = -ws.s.metric.matrix + 2 * np.einsum(
        "i,j->ij", ws.s.eta, ws.s.eta
    )
    assert np.array_equal(twice, expected)


def test_invalid_dimension_rejected():
    c = scalars.zeros((2, 2, 2), RATIONAL)
    from bcontact.liegroup import LieAlgebra

    alg = LieAlgebra(c, DEFAULT_EPS)
    with pytest.raises(ValueError, match="odd"):
        ACBStructure(
            alg,
            scalars.zeros((2, 2), RATIONAL),
            scalars.zeros((2,), RATIONAL),
            scalars.zeros((2,), RATIONAL),
            Metric.from_matrix(scalars.array([[1, 0], [0, -1]], RATIONAL), DEFAULT_EPS),
            DEFAULT_EPS,
        )


@pytest.mark.parametrize(
    "name, signature", [("solv3-f4", "(2,1)"), ("dim5-tr", "(3,2)"), ("solv7-u2", "(4,3)")]
)
def test_signature_rows_name_the_signature_of_the_dimension(name, signature):
    names = [c.name for c in validate_structure(workspace(name).s).checks]
    assert f"signature of g is {signature}" in names
    assert f"signature of associated metric is {signature}" in names


def test_nabla_xi_table_builds_no_array_for_a_model_in_no_class(monkeypatch):
    ws = zoo.random_structure(3, 2).workspace(RATIONAL)
    view = ws.g
    args = (ws.s, view.nabla_xi, view.nabla_xi02, view.lee, view.div_pair, view.classification)
    assert not any(view.classification[f"F{i}"] for i in range(1, 12))
    calls = []
    for name in ("einsum", "combine"):
        real = getattr(scalars, name)
        monkeypatch.setattr(scalars, name, lambda *a, _real=real: calls.append(a) or _real(*a))
    assert nabla_xi_class_conditions(*args) == {}
    assert calls == []
