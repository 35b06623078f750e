"""Results do not depend on the basis.

dim5-tr is taken through the integer change of basis drawn from
``default_rng(100)`` (entries in [-4, 4], condition number about 78), so its
metric is no longer diagonal.  Every check must still pass, with residual
exactly zero in rational mode, and float mode must decide the same class
flags and section types as rational mode.
"""
from fractions import Fraction

import numpy as np
import pytest

from bcontact import modelfile, scalars, zoo
from bcontact.checks import run_checks
from bcontact.curvature import GENERIC, HOLOMORPHIC, TOTALLY_REAL, XI_SECTION, PlaneStack, section_type
from bcontact.pipeline import Workspace
from bcontact.scalars import DEFAULT_EPS, FLOAT, RATIONAL
from bcontact.tensor import Metric

from support import basis_change, result_map, workspace

P = np.random.default_rng(100).integers(-4, 5, size=(5, 5))


@pytest.fixture(scope="module")
def transformed():
    doc = basis_change(zoo.builtin("dim5-tr"), P.tolist())
    out = {}
    for mode in (RATIONAL, FLOAT):
        ws = Workspace(modelfile.to_structure(doc, mode))
        out[mode] = (ws, run_checks(ws))
    return out


def _flags(ws):
    return {
        view.role: {k for k, v in view.classification.membership.items() if v}
        for view in (ws.g, ws.gt)
    }


@pytest.mark.parametrize("name, scale", [("solv7-u2", "1/10"), ("dim5-tr", "1/100")])
def test_a_well_conditioned_metric_of_tiny_determinant_loads_in_float(name, scale):
    # e'_i = scale e_i on the contact distribution: the metric's determinant
    # is 1e-12 or 1e-16, its condition number 100 or 1e4
    entry = zoo.builtin(name)
    doc = basis_change(entry, np.diag([Fraction(scale)] * (entry.dim - 1) + [Fraction(1)]).tolist())
    ws = {mode: Workspace(modelfile.to_structure(doc, mode)) for mode in (RATIONAL, FLOAT)}
    assert [r.name for r in run_checks(ws[FLOAT]) if not r.passed] == []
    assert _flags(ws[FLOAT]) == _flags(ws[RATIONAL])


def test_basis_is_badly_conditioned():
    assert 70 < np.linalg.cond(P) < 90


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_every_check_passes(transformed, mode):
    _, results = transformed[mode]
    assert [r.name for r in results if not r.passed] == []
    assert {r.name for r in results} == set(result_map("dim5-tr"))


def test_rational_residuals_exactly_zero(transformed):
    _, results = transformed[RATIONAL]
    assert [r.name for r in results if r.residual != 0.0] == []


def test_flags_and_invariants_unchanged(transformed):
    ws, _ = transformed[RATIONAL]
    original = workspace("dim5-tr")
    assert _flags(ws) == _flags(original)
    assert ws.reported_scalars() == original.reported_scalars()


def test_float_flags_match_rational(transformed):
    assert _flags(transformed[FLOAT][0]) == _flags(transformed[RATIONAL][0])


def test_section_types_in_the_changed_basis(transformed):
    # planes of dim5-tr in its own basis, with their (kind, orthogonal_to_xi)
    e0, e1, e2, e3 = scalars.eye(5, RATIONAL)[:4]
    xi = workspace("dim5-tr").s.xi
    planes = [
        (e0, xi, (XI_SECTION, False)),
        (e0, e2, (HOLOMORPHIC, True)),
        (e0, e1, (TOTALLY_REAL, True)),
        (e0 * 2 + e2, e1, (GENERIC, True)),
        # generic planes on which only one of the totally-real forms
        # m(x, phi x), m(x, phi y), m(y, phi y) is nonzero
        (e0, e1 * 2 + e2, (GENERIC, True)),
        (e0, e1 * 2 + e3, (GENERIC, True)),
        (e0 + xi, e1, (TOTALLY_REAL, False)),
    ]
    # a vector v has the components P^-1 v in the basis e'_a = sum_i P[i][a] e_i
    p = scalars.array(P.tolist(), RATIONAL)
    q = Metric.from_matrix(p.T @ p, DEFAULT_EPS).inv @ p.T
    xy = np.array([[q @ x, q @ y] for x, y, _ in planes])
    expected = [kind for *_, kind in planes]
    for mode in (RATIONAL, FLOAT):
        ws, _ = transformed[mode]
        # in float mode, each component is the nearest float of its exact value
        assert section_type(PlaneStack.of(ws.s.metric, xy, ws.s.eps), ws.s) == expected, mode
