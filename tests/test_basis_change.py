"""Results do not depend on the basis.

dim5-tr is taken through the integer change of basis drawn from
``default_rng(100)`` (entries in [-4, 4], condition number about 78), so its
metric is no longer diagonal.  Every check must still pass, with residual
exactly zero in rational mode, and float mode must decide the same class
flags as rational mode.
"""
import numpy as np
import pytest

from bcontact import modelfile, zoo
from bcontact.checks import run_checks
from bcontact.pipeline import Workspace
from bcontact.scalars import FLOAT, RATIONAL

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
