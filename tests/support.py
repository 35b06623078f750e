"""Shared helpers: cached workspaces and check-suite runs per zoo entry."""
from __future__ import annotations

from dataclasses import replace

from bcontact import zoo
from bcontact.checks import run_checks
from bcontact.scalars import RATIONAL

_WS = {}
_RESULTS = {}


def workspace(name: str, mode: str = RATIONAL):
    key = (name, mode)
    if key not in _WS:
        _WS[key] = zoo.builtin(name).workspace(mode)
    return _WS[key]


def suite_results(name: str, mode: str = RATIONAL, planes: int = 20):
    key = (name, mode, planes)
    if key not in _RESULTS:
        _RESULTS[key] = run_checks(workspace(name, mode), seed=0, plane_count=planes)
    return _RESULTS[key]


def result_map(name: str, mode: str = RATIONAL, planes: int = 20):
    return {r.name: r for r in suite_results(name, mode, planes)}


def corrupted_phi_entry():
    """solv5-f1 with phi[0][0] = 1/2: it parses, but breaks the axiom
    phi^2 = -id + eta (x) xi."""
    entry = zoo.builtin("solv5-f1")
    phi = [list(row) for row in entry.phi]
    phi[0][0] = "1/2"
    return replace(entry, name="solv5-f1-bad-phi", phi=tuple(map(tuple, phi)))
