"""The Workspace computes each field on first use, along the primary route
only; run_checks is where the routes are compared."""
import pytest

from bcontact import pipeline, zoo
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
