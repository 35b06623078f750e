"""Shared helpers: cached workspaces and check-suite runs per zoo entry,
broken variants of zoo entries, the covariant basis change of a model, and
pi_1 and the Lie bracket by their definitions."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from bcontact import scalars, zoo
from bcontact.checks import run_checks
from bcontact.scalars import DEFAULT_EPS, RATIONAL
from bcontact.tensor import Metric

_WS = {}
_RESULTS = {}


def workspace(name: str, mode: str = RATIONAL):
    key = (name, mode)
    if key not in _WS:
        _WS[key] = zoo.builtin(name).workspace(mode)
    return _WS[key]


def suite_results(name: str, mode: str = RATIONAL):
    key = (name, mode)
    if key not in _RESULTS:
        _RESULTS[key] = run_checks(workspace(name, mode), seed=0)
    return _RESULTS[key]


def result_map(name: str, mode: str = RATIONAL):
    return {r.name: r for r in suite_results(name, mode)}


def corrupted_phi_entry():
    """solv5-f1 with phi[0][0] = 1/2: it parses, but breaks the axiom
    phi^2 = -id + eta (x) xi."""
    entry = zoo.builtin("solv5-f1")
    phi = [list(row) for row in entry.phi]
    phi[0][0] = "1/2"
    return replace(entry, name="solv5-f1-bad-phi", phi=tuple(map(tuple, phi)))


def non_isometric_phi_entry():
    """solv5-f1 with phi[0][1] = 2: phi is no longer an anti-isometry of g,
    so g(x, phi y) + eta(x) eta(y) is not even symmetric."""
    entry = zoo.builtin("solv5-f1")
    phi = [list(row) for row in entry.phi]
    phi[0][1] = "2"
    return replace(entry, name="solv5-f1-non-isometric-phi", phi=tuple(map(tuple, phi)))


def basis_change(entry, p) -> dict:
    """Model document of ``entry`` in the basis e'_a = sum_i p[i][a] e_i.

    Every structure tensor transforms covariantly: c' = P^-1 c(P., P.),
    phi' = P^-1 phi P, xi' = P^-1 xi, eta' = eta P, g' = P^T g P, so any
    invariant of the model is unchanged.
    """
    p = scalars.array(p, RATIONAL)
    # P^-1 = (P^T P)^-1 P^T, with P^T P symmetric and non-degenerate
    q = Metric.from_matrix(p.T @ p, DEFAULT_EPS).inv @ p.T
    assert np.array_equal(q @ p, scalars.eye(len(p), RATIONAL))
    s = entry.structure(RATIONAL)
    c = np.einsum("kl,lij,ia,jb->kab", q, s.algebra.c, p, p)
    dim = entry.dim
    brackets = [
        [a, b, [str(v) for v in c[:, a, b]]]
        for a in range(dim)
        for b in range(a + 1, dim)
        if any(v != 0 for v in c[:, a, b])
    ]

    def strings(arr):
        return np.vectorize(str, otypes=[object])(arr).tolist()

    return {
        "name": f"{entry.name}-basis-change",
        "dim": dim,
        "brackets": brackets,
        "phi": strings(q @ s.phi @ p),
        "xi": strings(q @ s.xi),
        "eta": strings(s.eta @ p),
        "g": strings(p.T @ s.metric.matrix @ p),
    }


def pi1(m: Metric, x, y, z, w):
    """pi_1(x,y,z,w) = m(y,z) m(x,w) - m(x,z) m(y,w) of four vectors, by its
    definition: the oracle for the Gram-block route of ``PlaneStack`` and
    ``sectional``."""
    return m.inner(y, z) * m.inner(x, w) - m.inner(x, z) * m.inner(y, w)


def bracket(algebra, x, y):
    """[x, y] = c^k_ij x^i y^j of two vectors, by its definition: the oracle
    of the Koszul formula in ``levi_civita``."""
    return scalars.einsum("kij,i,j->k", algebra.c, x, y)
