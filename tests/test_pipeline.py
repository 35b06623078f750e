"""The Workspace computes each field on first use, along the primary route
only; run_checks is where the routes are compared."""
import sys
from collections import Counter

import pytest

from bcontact import liegroup, pipeline, zoo
from bcontact.checks import run_checks
from bcontact.scalars import FLOAT, RATIONAL

from support import corrupted_phi_entry, suite_results, workspace

# fields of the SvK pair, the shape operators and the curvature
DOWNSTREAM = {"svk", "potential", "torsion", "svk_phi", "shape", "curv", "rho_xi_xi"}


def test_classification_computes_no_curvature(monkeypatch):
    calls = []
    real = pipeline.curvature_data
    monkeypatch.setattr(
        pipeline, "curvature_data", lambda *args: calls.append(args) or real(*args)
    )
    ws = zoo.builtin("solv3-f4").workspace()
    assert ws.view("g").classification.membership["F4"]
    assert ws.view("gtilde").classification.membership["F4"]
    assert calls == []
    for view in (ws.g, ws.gt):
        assert not DOWNSTREAM & vars(view).keys(), view.role
    ws.g.curv
    assert len(calls) == 1


def test_run_checks_stops_at_broken_axioms():
    results = run_checks(corrupted_phi_entry().workspace())
    assert [r.name for r in results] == ["structure-axioms"]
    assert not results[0].passed
    assert "phi^2 = -id + eta (x) xi" in results[0].detail


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_model_and_cached_arrays_are_read_only(mode):
    suite_results("solv3-f11", mode)
    ws = workspace("solv3-f11", mode)
    arrays = {
        "s.phi": ws.s.phi,
        "s.algebra.c": ws.s.algebra.c,
        "s.metric.matrix": ws.s.metric.matrix,
        "s.assoc.inv": ws.s.assoc.inv,
        "g.conn": ws.g.conn,
        "g.fundamental": ws.g.fundamental,
        "g.lee.theta": ws.g.lee.theta,
        "gt.shape.operator": ws.gt.shape.operator,
        "g.curv.r04": ws.g.curv.r04,
    }
    for name, arr in arrays.items():
        corner = (0,) * arr.ndim
        with pytest.raises(ValueError, match="read-only"):
            arr[corner] = arr[corner]


def _count_calls(monkeypatch, fn):
    """Route every bcontact module's reference to ``fn`` through a wrapper;
    returns the list of argument tuples it records."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "bcontact":
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_each_structure_tensor_is_differentiated_once_per_metric(monkeypatch):
    # every closed form reads the view's nabla_xi, nabla_eta and nabla_phi and
    # the structure's d_eta; only the check-side routes of their own (nabla g,
    # nabla S, the SvK derivatives) differentiate anything else
    derivatives = _count_calls(monkeypatch, liegroup.covariant_derivative)
    d_eta_calls = _count_calls(monkeypatch, liegroup.d_eta)
    ws = zoo.builtin("solv7-u2").workspace(RATIONAL)
    assert all(r.passed for r in run_checks(ws))
    s = ws.s
    taken = Counter(
        (view.role, name)
        for gamma, t, _ in derivatives
        for view in (ws.g, ws.gt)
        if gamma is view.conn
        for name, field in (("xi", s.xi), ("eta", s.eta), ("phi", s.phi))
        if t is field
    )
    assert taken == {(role, name): 1 for role in ("g", "gtilde") for name in ("xi", "eta", "phi")}
    assert len(d_eta_calls) == 1
