import copy
import pickle
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bcontact import scalars, zoo
from bcontact.checks import run_checks
from bcontact.pipeline import Workspace
from bcontact.liegroup import covariant_derivative
from bcontact.scalars import DEFAULT_EPS, FLOAT, RATIONAL
from bcontact.structure import (
    ACBStructure,
    associated_of,
    nabla_xi_class_conditions,
    validate_structure,
)
from bcontact.tensor import Metric

from support import workspace

# the exact values of a kernel array
F = scalars.fractions


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
    assert np.array_equal(F(ws.s.assoc.matrix), F(expected))
    assert ws.s.assoc.inner(ws.s.xi, ws.s.xi) == 1


def test_fundamental_tensor_flat_model_vanishes():
    ws = workspace("abelian3")
    assert scalars.residual(ws.g.fundamental) == 0.0
    assert ws.g.classification["F0"]


def test_fundamental_bruteforce_oracle():
    # independent evaluation over all 27 basis triples:
    # F(x,y,z) = g(nabla_x (phi y) - phi (nabla_x y), z)
    ws = workspace("solv3-a")
    s, conn, phi, f = ws.s, F(ws.g.conn), F(ws.s.phi), F(ws.g.fundamental)
    dim = s.dim
    basis = np.eye(dim, dtype=int)

    def nabla(x, y):
        return np.einsum("kij,i,j->k", conn, x, y)

    for i, j, k in product(range(dim), repeat=3):
        ei, ej, ek = basis[i], basis[j], basis[k]
        nabla_phi_y = nabla(ei, phi @ ej) - phi @ nabla(ei, ej)
        assert f[i, j, k] == nabla_phi_y @ F(s.metric.matrix) @ ek


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
    nxi = F(covariant_derivative(ws.batch.conn, ws.s.xi, 1))[0]
    phi_om = F(ws.s.phi) @ F(ws.g.lee.omega_sharp)
    assert np.array_equal(nxi, np.einsum("k,i->ki", phi_om, F(ws.s.eta)))


def test_second_trace_entry_row():
    # nabla xi + (div(eta)/2n) phi^2 = 0 for the second pure-trace class
    ws = workspace("solv3-a")
    assert ws.g.classification["F5"]
    div = ws.g.div_pair[0]
    nxi = F(covariant_derivative(ws.batch.conn, ws.s.xi, 1))[0]
    res = nxi + F(ws.s.phi2) * (Fraction(div) / (2 * ws.s.n))
    assert not res.any()


def test_symmetry_row_of_boundary_entry():
    # m(nabla_x xi, y) = m(nabla_y xi, x) = m(nabla_phi(x) xi, phi y)
    ws = workspace("x-solv3-f9")
    assert ws.g.classification["F9"]
    lam = np.einsum(
        "ki,kj->ij", F(covariant_derivative(ws.batch.conn, ws.s.xi, 1))[0], F(ws.s.metric.matrix)
    )
    lam_phiphi = np.einsum("ab,ai,bj->ij", lam, F(ws.s.phi), F(ws.s.phi))
    assert np.array_equal(lam, lam.T)
    assert np.array_equal(lam, lam_phiphi)


def test_skew_row_of_symmetric_one_sided_entry():
    # m(nabla_x xi, y) = -m(nabla_y xi, x) = m(nabla_phi(x) xi, phi y)
    ws = workspace("x-mix5-f8")
    assert ws.g.classification["F8"]
    lam = np.einsum(
        "ki,kj->ij", F(covariant_derivative(ws.batch.conn, ws.s.xi, 1))[0], F(ws.s.metric.matrix)
    )
    lam_phiphi = np.einsum("ab,ai,bj->ij", lam, F(ws.s.phi), F(ws.s.phi))
    assert np.array_equal(lam, -lam.T)
    assert np.array_equal(lam, lam_phiphi)
    assert lam.any()


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
    twice = F(associated_of(ws.s.assoc, ws.s).matrix)
    expected = -F(ws.s.metric.matrix) + 2 * np.einsum(
        "i,j->ij", F(ws.s.eta), F(ws.s.eta)
    )
    assert np.array_equal(twice, expected)
    # the batch's closed-form inverse of the associated metric of g, then of g~
    inverse = F(ws.batch.assoc_inv)
    eye = np.eye(ws.s.dim, dtype=int)
    assert np.array_equal(F(ws.s.assoc.matrix) @ inverse[0], eye)
    assert np.array_equal(twice @ inverse[1], eye)


def test_invalid_dimension_rejected():
    def zero(*shape):
        return scalars.array(np.zeros(shape, dtype=int), RATIONAL)

    from bcontact.liegroup import LieAlgebra

    alg = LieAlgebra(zero(2, 2, 2), DEFAULT_EPS)
    with pytest.raises(ValueError, match="odd"):
        ACBStructure(
            alg,
            zero(2, 2),
            zero(2),
            zero(2),
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


@pytest.mark.parametrize(
    "carry", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy], ids=["pickle", "deepcopy", "copy"]
)
@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_a_model_pickles_and_copies_with_its_arrays(mode, carry):
    # a rational array is its integers, with a denominator that the kernel
    # keeps beside it: a copy of the model carries both, cached fields too
    s = zoo.builtin("dim5-tr").structure(mode)
    s.assoc, s.d_eta, s.horizontal
    t = carry(s)
    assert t is not s
    for a, b in [(s.phi, t.phi), (s.algebra.c, t.algebra.c), (s.metric.inv, t.metric.inv),
                 (s.assoc.matrix, t.assoc.matrix), (s.d_eta, t.d_eta), (s.horizontal, t.horizontal)]:
        assert not b.flags.writeable
        assert np.array_equal(scalars.fractions(a), scalars.fractions(b))
    assert t.metric.signature == s.metric.signature and t.eps == s.eps
    rows = run_checks(Workspace(t), seed=0)
    assert rows == run_checks(Workspace(s), seed=0) and all(r.passed for r in rows)
