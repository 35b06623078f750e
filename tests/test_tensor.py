from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcontact import scalars
from bcontact.scalars import DEFAULT_EPS, FLOAT, RATIONAL
from bcontact.tensor import DegenerateMetricError, Metric, sharp

from support import rat, workspace


# the exact values of a kernel array
F = scalars.fractions


def metric_trace(t, m):
    # full metric trace g^{ij} t_ij of a (0,2)-tensor
    return np.einsum("ij,ij->", F(m.inv), F(t))


def test_metric_inverse_diagonal_units():
    m = rat([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    inv = Metric.from_matrix(m, DEFAULT_EPS).inv
    assert np.array_equal(F(inv), F(m))


def test_metric_inverse_identity_dim5():
    eye = rat(np.eye(5, dtype=int).tolist())
    inv = Metric.from_matrix(eye, DEFAULT_EPS).inv
    assert np.array_equal(F(inv), F(eye))


def test_metric_inverse_assoc_metric_of_flat_model():
    # the associated metric of the flat model is its own inverse,
    # verified here by explicit matrix multiplication
    gt = rat([[0, -1, 0], [-1, 0, 0], [0, 0, 1]])
    inv = Metric.from_matrix(gt, DEFAULT_EPS).inv
    prod = F(gt) @ F(inv)
    assert np.array_equal(prod, np.eye(3, dtype=int))
    ws = workspace("abelian3")
    assert np.array_equal(F(ws.s.assoc.matrix), F(gt))


def test_metric_inverse_rejects_degenerate():
    with pytest.raises(DegenerateMetricError):
        Metric.from_matrix(rat([[1, 1], [1, 1]]), DEFAULT_EPS)
    with pytest.raises(DegenerateMetricError):
        Metric.from_matrix(np.zeros((3, 3)), DEFAULT_EPS)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_metric_rejects_a_matrix_that_is_not_symmetric(mode):
    with pytest.raises(ValueError, match="must be symmetric"):
        Metric.from_matrix(scalars.array([[1, "1/2"], [0, -1]], mode), DEFAULT_EPS)


def test_sharp_of_eta_is_xi():
    # for both metrics of the pair: g(xi, .) = g~(xi, .) = eta
    ws = workspace("abelian3")
    up = sharp(scalars.stack([ws.s.eta] * 2), ws.batch.metric)
    assert np.array_equal(F(up), F(scalars.stack([ws.s.xi] * 2)))


def test_sharp_zero_covector():
    m = Metric.from_matrix(rat([[1, 0], [0, -1]]), DEFAULT_EPS)
    up = sharp(rat([[0, 0]]), Metric.stack([m]))  # a batch of one
    assert scalars.residual(up) == 0.0


def test_sharp_inverts_flat_and_matches_pairing():
    # omega of the model with nonzero omega Lee form: g(omega#, x) = omega(x)
    ws = workspace("solv3-f11")
    omega = ws.g.lee.omega
    up = ws.g.lee.omega_sharp
    for i in range(ws.s.dim):
        e = scalars.row(scalars.eye(ws.s.dim, RATIONAL), i)
        assert ws.s.metric.inner(up, e) == scalars.row(omega, i)
    assert np.array_equal(F(ws.s.metric.matrix) @ F(up), F(omega))


def test_trace_with_metric_of_metric_is_dim():
    ws = workspace("abelian3")
    assert metric_trace(ws.s.metric.matrix, ws.s.metric) == 3


def test_trace_with_metric_zero():
    m = Metric.from_matrix(rat([[1, 0], [0, -1]]), DEFAULT_EPS)
    zero = rat(np.zeros((2, 2), dtype=int))
    assert metric_trace(zero, m) == 0


def test_trace_of_shape_form_is_minus_divergence():
    # tr(S) computed as a metric trace of its bilinear form, compared with
    # an independent evaluation of -div(eta) over the basis
    ws = workspace("solv3-f4")
    tr = metric_trace(ws.g.shape.diamond, ws.s.metric)
    neta = np.einsum(
        "kim,m,kj->ij", F(ws.g.conn), F(ws.s.xi), F(ws.s.metric.matrix)
    )
    inv = F(ws.s.metric.inv)
    div = sum(
        inv[i, j] * neta[i, j]
        for i in range(ws.s.dim)
        for j in range(ws.s.dim)
    )
    assert tr == -div


small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def rational_02_tensors(draw, dim=3):
    vals = draw(
        st.lists(small_fractions, min_size=dim * dim, max_size=dim * dim)
    )
    arr = np.empty((dim, dim), dtype=object)
    for k, v in enumerate(vals):
        arr[k // dim, k % dim] = v
    return arr


@given(rational_02_tensors(), rational_02_tensors(), small_fractions)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_metric_trace_linear(a, b, c):
    m = Metric.from_matrix(rat([[1, 0, 0], [0, -1, 0], [0, 0, 1]]), DEFAULT_EPS)
    lhs = metric_trace(rat(a * c + b), m)
    assert lhs == c * metric_trace(rat(a), m) + metric_trace(rat(b), m)


def test_partial_slot_operations():
    ws = workspace("solv3-a")
    f = F(ws.g.fundamental)
    # the fundamental tensor is symmetric in its last two slots
    assert np.array_equal(np.swapaxes(f, 1, 2), f)


def test_signature_backends_agree():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(-3, 4, size=(4, 4))
        sym = a + a.T
        if abs(np.linalg.det(sym.astype(float))) < 1e-9:
            continue
        m_rat = Metric.from_matrix(scalars.array(sym.tolist(), RATIONAL), DEFAULT_EPS)
        m_flt = Metric.from_matrix(sym.astype(np.float64), DEFAULT_EPS)
        assert m_rat.signature == m_flt.signature


def test_backends_agree_on_inverse():
    g = [[2, 1, 0], [1, -1, 1], [0, 1, 3]]
    inv_rat = Metric.from_matrix(scalars.array(g, RATIONAL), DEFAULT_EPS).inv
    inv_flt = Metric.from_matrix(scalars.array(g, FLOAT), DEFAULT_EPS).inv
    assert scalars.residual(F(inv_rat).astype(np.float64), inv_flt) < 1e-12


@st.composite
def symmetric_rationals(draw):
    """A symmetric rational matrix of dimension 1 to 7; its diagonal is often
    zero, so the elimination has to create a pivot by e_i -> e_i + e_j."""
    dim = draw(st.integers(min_value=1, max_value=7))
    entries = st.sampled_from([Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)])
    zero_diagonal = draw(st.booleans())
    m = np.zeros((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(i, dim):
            if i == j and zero_diagonal:
                continue
            m[i, j] = m[j, i] = draw(st.one_of(st.just(Fraction(0)), entries))
    return rat(m)


def _exact_det(m):
    """The determinant of a rational matrix by row reduction with row swaps,
    an oracle independent of the congruence diagonalization."""
    a, det = [list(row) for row in F(m)], Fraction(1)
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot], det = a[pivot], a[col], -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


@given(symmetric_rationals())
# zero diagonals: a nonsingular one and a singular one
@example(rat([[0, 1, 2], [1, 0, 3], [2, 3, 0]]))
@example(rat([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_one_elimination_gives_inverse_and_signature(m):
    if _exact_det(m) == 0:
        with pytest.raises(DegenerateMetricError, match="metric determinant is zero"):
            Metric.from_matrix(m, DEFAULT_EPS)
        return
    metric = Metric.from_matrix(m, DEFAULT_EPS)
    assert np.array_equal(F(metric.inv) @ F(m), np.eye(len(m), dtype=int))
    ev = np.linalg.eigvalsh(F(m).astype(np.float64))
    assert metric.signature == (int(np.sum(ev > 0)), int(np.sum(ev < 0)))


@given(symmetric_rationals())
@example(rat([[0, 1, 2], [1, 0, 3], [2, 3, 0]]))
@example(rat([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fraction_free_elimination_is_a_congruence(m):
    diagonal = scalars.diagonalize(m)
    if _exact_det(m) == 0:
        assert diagonal is None
        return
    e, d, signature = diagonal
    e, d = F(e), F(d)
    assert all(d)
    assert signature == (sum(x > 0 for x in d), sum(x < 0 for x in d))
    assert np.array_equal(e @ F(m) @ e.T, np.diag(d))
    # e holds integers, so the exact inverse is e^T diag(d)^-1 e
    assert all(x.denominator == 1 for x in e.flat)
