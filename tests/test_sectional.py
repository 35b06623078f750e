"""The sectional-curvature checks: planes evaluated as one stack per metric,
the tensor identities that state the sectional relation and its forms on
Reeb, re-based and horizontal planes, and the exact span test that
classifies planes.

An ``ast`` guard keeps every sectional value and section type of the check
suite on the batched path: no loop of ``checks.py`` calls ``sectional`` or
``section_type``.  A count guard keeps the family at one pass per metric.
"""
import ast
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bcontact
from bcontact import checks, scalars, zoo
from bcontact.checks import check_sectional_curvature, run_checks, sample_planes
from bcontact.curvature import (
    PlaneStack,
    _gram,
    _in_planes,
    basis_invariance_forms,
    pair_symmetries,
    sectional,
    svk_sectional_polarized,
)
from bcontact.scalars import FLOAT, RATIONAL
from bcontact.tensor import Metric

from support import pi1, workspace

SECTIONAL_ROWS = [
    f"{name}[{role}]"
    for role in ("g", "gtilde")
    for name in (
        "sectional-relation",
        "reeb-section-flatness",
        "sectional-basis-invariance",
        "sectional-special-types",
    )
]


def _reeb_term(ws):
    """eta(y) R(x,y,xi,x) as a tensor of each metric: R_ijml xi_m eta_k."""
    return scalars.einsum("Bijml,m,k->Bijkl", ws.batch.curv.r04, ws.s.xi, ws.s.eta)


@pytest.mark.parametrize("name", ["solv5-f1", "sl2-f3"])
def test_reeb_term_vanishes_where_it_cannot_be_a_mutation(name):
    # adding a zero tensor to r04_svk changes nothing, so these entries
    # cannot show whether the checks see the Reeb term
    ws = workspace(name)
    assert scalars.residual(_reeb_term(ws)) == 0.0


@pytest.mark.parametrize("name, mode, residual", [
    ("dim5-tr", RATIONAL, 4.0),
    ("solv7-u2", FLOAT, 8.0),
])
def test_sectional_relation_fails_when_svk_curvature_gains_reeb_term(name, mode, residual):
    ws = zoo.builtin(name).workspace(mode)  # a fresh one: its batch is mutated
    curv = ws.batch.curv
    bad = replace(curv, r04_svk=curv.r04_svk + _reeb_term(ws))
    polarized = svk_sectional_polarized(bad, ws.batch.shape)
    assert [scalars.residual(row) for row in polarized] == [residual, residual]
    ws.batch.__dict__["curv"] = bad
    rows = {r.name: r for r in check_sectional_curvature(ws)}
    for role in ("g", "gtilde"):
        row = rows[f"sectional-relation[{role}]"]
        assert not row.passed and row.residual >= residual


def _gained_terms(ws, view):
    """Per row, a term that R^D may not gain without that row failing."""
    m, eta = view.metric.matrix, ws.s.eta
    # m on horizontal vectors, zero on xi (m(xi, .) = eta for both metrics)
    mh = scalars.combine([1, -1], [m, scalars.einsum("i,j->ij", eta, eta)])
    return {
        # N(x,y) gains m(x,y)^2, which a shear of the plane basis changes
        "sectional-basis-invariance": scalars.einsum("ij,kl->ijkl", m, m),
        # pi_1 of the horizontal metric: pair-antisymmetric, zero with a xi slot
        "sectional-special-types": scalars.combine(
            [1, -1], [scalars.einsum("jk,il->ijkl", mh, mh), scalars.einsum("ik,jl->ijkl", mh, mh)]
        ),
        # m(x,y) eta(z) eta(w): nonzero on (x, y, xi, xi)
        "reeb-section-flatness": scalars.einsum("ij,k,l->ijkl", m, eta, eta),
    }


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("row", [
    "reeb-section-flatness", "sectional-basis-invariance", "sectional-special-types",
])
def test_sectional_row_fails_when_svk_curvature_gains_a_term_it_must_see(row, mode):
    ws = zoo.builtin("dim5-tr").workspace(mode)  # a fresh one: its batch is mutated
    curv = ws.batch.curv
    gained = scalars.stack([_gained_terms(ws, view)[row] for view in (ws.g, ws.gt)])
    bad = scalars.combine([1, 1], [curv.r04_svk, gained])
    ws.batch.__dict__["curv"] = replace(curv, r04_svk=bad)
    rows = {r.name: r for r in check_sectional_curvature(ws)}
    for role in ("g", "gtilde"):
        result = rows[f"{row}[{role}]"]
        assert not result.passed and result.residual >= 1.0, (role, result)


def _rebasing_keeps_det2(t) -> bool:
    """Whether N(x,y) = t(x,y,y,x) of an integer tensor becomes
    det^2 N(x,y) under seeded integer changes of basis of seeded integer
    planes: the brute-force oracle of ``basis_invariance_forms``."""
    rng = np.random.default_rng(0)

    def n(x, y):
        return np.einsum("ijkl,i,j,k,l->", t, x, y, y, x)

    for x, y in rng.integers(-3, 4, size=(4, 2, len(t))):
        for a, b, c, d in rng.integers(-3, 4, size=(4, 4)):
            if n(a * x + b * y, c * x + d * y) != (a * d - b * c) ** 2 * n(x, y):
                return False
    return True


@st.composite
def quartic_tensors(draw):
    """An integer (0,4) tensor of dimension 2 or 3: one antisymmetric in both
    pairs; such a tensor plus one whose form t(x,y,y,x) vanishes, which keeps
    it invariant and in general breaks both pair antisymmetries; or one drawn
    freely, which is in general not invariant."""
    dim = draw(st.integers(min_value=2, max_value=3))

    def integers():
        entries = draw(st.lists(st.integers(-2, 2), min_size=dim**4, max_size=dim**4))
        return np.array(entries, dtype=np.int64).reshape((dim,) * 4)

    kind = draw(st.sampled_from(["pair-antisymmetric", "invariant", "free"]))
    if kind == "free":
        return integers()
    a = integers()
    a = a - np.einsum("ijkl->jikl", a)
    t = a - np.einsum("ijkl->ijlk", a)
    if kind == "invariant":
        # c(x,y,y,x) - c(x,y,y,x) with (i<->l) or (j<->k) applied to the second c
        c = integers()
        t = t + c - np.einsum(draw(st.sampled_from(["ijkl->ljki", "ijkl->ikjl"])), c)
    return t


def _forms_vanish(t) -> bool:
    forms = basis_invariance_forms(scalars.array(t[None], RATIONAL))  # a batch of one
    return all(scalars.residual(f) == 0.0 for f in forms)


@given(quartic_tensors())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_shear_forms_decide_basis_invariance_exactly(t):
    assert _forms_vanish(t) == _rebasing_keeps_det2(t)


def test_shear_forms_pass_an_invariant_tensor_that_is_not_pair_antisymmetric():
    # e_0121 - e_1120: its form t(x,y,y,x) vanishes, so it is invariant, but it
    # has neither pair antisymmetry; the forms are exact, not only sufficient
    t = np.zeros((3,) * 4, dtype=np.int64)
    t[0, 1, 2, 1], t[1, 1, 2, 0] = 1, -1
    assert _rebasing_keeps_det2(t) and _forms_vanish(t)
    symmetries = pair_symmetries(scalars.array(t[None], RATIONAL))
    assert scalars.residual(symmetries["first-pair-antisymmetric"]) > 0
    assert scalars.residual(symmetries["last-pair-antisymmetric"]) > 0
    # the same entry alone is neither invariant nor passed
    t[1, 1, 2, 0] = 0
    assert not _rebasing_keeps_det2(t) and not _forms_vanish(t)


@pytest.mark.parametrize("seed", range(4))
def test_sectional_rows_pass_exactly_for_every_plane_seed(seed):
    ws = workspace("dim5-tr")
    rows = {r.name: r for r in run_checks(ws, seed=seed)}
    for name in SECTIONAL_ROWS:
        assert rows[name].passed and rows[name].residual == 0.0, (seed, name)
    for role in ("g", "gtilde"):
        assert rows[f"sectional-relation[{role}]"].detail == "20 sampled planes"


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("accepted", [0, 1])
def test_sampling_stops_at_its_draw_budget(monkeypatch, mode, accepted):
    # when the first batch of a metric yields `accepted` planes and no later
    # draw is non-degenerate, each metric makes exactly 60 * PLANE_COUNT
    # draws, its last batch cut to the budget, and sectional-relation fails
    # on the planes it has; a draw past the budget raises, so a sampler that
    # would loop on fails here instead of hanging
    count = checks.PLANE_COUNT
    budget = 60 * count
    batches = {}
    nondegenerate = PlaneStack.nondegenerate

    def scarce(cls, m, xy, eps):
        drawn = batches.setdefault(id(m), [])
        drawn.append(len(xy))
        if sum(drawn) > budget:
            raise AssertionError(f"{sum(drawn)} draws, past the budget of {budget}")
        planes = nondegenerate(m, xy, eps)
        return planes[np.arange(len(planes)) < (accepted if len(drawn) == 1 else 0)]

    monkeypatch.setattr(PlaneStack, "nondegenerate", classmethod(scarce))
    ws = workspace("solv5-f1", mode)
    rows = {r.name: r for r in check_sectional_curvature(ws)}
    for role in ("g", "gtilde"):
        row = rows[f"sectional-relation[{role}]"]
        assert not row.passed and row.detail == f"{accepted} sampled planes", role
    full, cut = divmod(budget - count, count - accepted)
    expected = [count] + [count - accepted] * full + ([cut] if cut else [])
    assert list(batches.values()) == [expected, expected]
    assert sum(expected) == budget and (accepted == 0 or cut)


def _loop_sectional(r, g, x, y):
    """R(x,y,y,x) / pi_1(x,y,y,x) of one plane, by plain Python sums."""
    dim = len(x)
    idx = range(dim)
    num = sum(
        r[i, j, k, l] * x[i] * y[j] * y[k] * x[l]
        for i in idx for j in idx for k in idx for l in idx
    )

    def form(u, v):
        return sum(g[i, j] * u[i] * v[j] for i in idx for j in idx)

    return num / (form(x, x) * form(y, y) - form(x, y) * form(y, x))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_batched_sectional_values_equal_a_plain_loop(mode):
    ws = workspace("dim5-tr", mode)
    for seed, view in enumerate((ws.g, ws.gt)):
        planes = sample_planes(ws, view, seed)
        assert len(planes) == checks.PLANE_COUNT
        values = sectional(planes, view.curv, view.shape, ws.s)
        for r, batched in ((view.curv.r04, values.k), (view.curv.r04_svk, values.k_svk)):
            g = view.metric.matrix
            looped = [_loop_sectional(r, g, x, y) for x, y in planes.xy]
            if mode == RATIONAL:
                assert list(batched) == looped
            else:
                assert batched == pytest.approx(looped, rel=1e-12, abs=1e-12)


def _loop_calls(tree: ast.AST, names: set[str]) -> list[int]:
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    lines = []
    for loop in (n for n in ast.walk(tree) if isinstance(n, loops)):
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in names:
                    lines.append(node.lineno)
    return lines


def test_no_loop_in_checks_evaluates_planes_one_at_a_time():
    path = Path(bcontact.__file__).resolve().parent / "checks.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _loop_calls(tree, {"sectional", "section_type"}) == []
    # the guard does see a call in a loop
    probe = ast.parse("for p in planes:\n    k = sectional(r, p)\n")
    assert _loop_calls(probe, {"sectional"}) == [2]


def test_sectional_family_contracts_each_stack_once(monkeypatch):
    # one Gram block for the sampled stack and one R(x, y, ., .) per
    # curvature tensor, then the tensor identities: 58 contractions on
    # solv7-u2, 24 of them single-operand transpositions, where one
    # contraction per plane quantity took 178
    ws = workspace("solv7-u2")
    for view in (ws.g, ws.gt):
        view.curv, view.shape
    calls = []
    real = scalars.einsum
    monkeypatch.setattr(scalars, "einsum", lambda spec, *ops: calls.append(spec) or real(spec, *ops))
    rows = list(check_sectional_curvature(ws))
    assert all(r.passed for r in rows)
    assert len(calls) <= 80


def _det(a) -> Fraction:
    """Leibniz determinant of a small square matrix."""
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(sign)
        for i, p in enumerate(perm):
            term *= a[i][p]
        total += term
    return total


def _minors(rows):
    """Every maximal minor of the matrix with the given rows."""
    k, dim = len(rows), len(rows[0])
    return [_det([[row[c] for c in cols] for row in rows]) for cols in combinations(range(dim), k)]


def _in_span_by_minors(vectors, w) -> bool:
    """The definition: every maximal minor of the stacked vectors vanishes."""
    return all(m == 0 for m in _minors([list(v) for v in vectors] + [list(w)]))


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def span_cases(draw):
    """A ±1 diagonal metric, two rational vectors spanning a plane and a w
    that is either a rational combination of them or drawn freely."""
    dim = draw(st.integers(min_value=3, max_value=5))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim))
    m = Metric.from_matrix(np.diag(scalars.array(signs, RATIONAL)), 0.0)
    x, y = (
        scalars.array(draw(st.lists(fractions, min_size=dim, max_size=dim)), RATIONAL)
        for _ in range(2)
    )
    if draw(st.booleans()):
        a, b = draw(st.lists(fractions, min_size=2, max_size=2))
        w = x * a + y * b
    else:
        w = scalars.array(draw(st.lists(fractions, min_size=dim, max_size=dim)), RATIONAL)
    return m, x, y, w


def _in_plane(m, x, y, w) -> bool:
    """The span rule of ``section_type`` on the one plane spanned by x, y."""
    planes = PlaneStack.of(m, [(x, y)], 0.0)
    w = w[None, None]
    ((inside,),) = _in_planes(planes, w, _gram(m.matrix, planes.xy, w), 0.0)
    return inside


@given(span_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_exact_span_test_agrees_with_minors(case):
    m, x, y, w = case
    # the span rule is stated for non-degenerate planes
    assume(pi1(m, x, y, y, x) != 0)
    assert _in_plane(m, x, y, w) == _in_span_by_minors([x, y], w)


def test_exact_span_test_on_known_cases():
    e = scalars.eye(4, RATIONAL)
    m = Metric.from_matrix(np.diag(scalars.array([1, 1, -1, -1], RATIONAL)), 0.0)
    assert _in_plane(m, e[0], e[1], e[0] * Fraction(2, 3) - e[1])
    assert not _in_plane(m, e[0], e[1], e[2])
