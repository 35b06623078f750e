from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bcontact import scalars, zoo
from bcontact.curvature import (
    DegeneratePlaneError,
    GENERIC,
    HOLOMORPHIC,
    PlaneStack,
    TOTALLY_REAL,
    XI_SECTION,
    ricci,
    ricci_xi_formula,
    section_type,
    sectional,
    svk_curvature_formula,
    svk_ricci_formula,
)
from bcontact.liegroup import covariant_derivative
from bcontact.scalars import DEFAULT_EPS, RATIONAL

from support import pi1, workspace

ALL_NAMES = zoo.names()


def _plane(m, x, y):
    """The stack of the one plane spanned by x and y (rational, so eps is
    not used)."""
    return PlaneStack.of(m, [(x, y)], DEFAULT_EPS)


def _sectional(ws, view, x, y):
    """The ``Sectional`` values of the plane spanned by x and y, for the
    metric of ``view``."""
    return sectional(_plane(view.metric, x, y), view.curv, view.shape, ws.s)


def _type(ws, x, y):
    """(kind, orthogonal_to_xi) of the plane spanned by x and y, for g."""
    (out,) = section_type(_plane(ws.s.metric, x, y), ws.s)
    return out


def test_flat_model_everything_vanishes():
    ws = workspace("abelian3")
    for view in (ws.g, ws.gt):
        assert scalars.residual(view.curv.r04) == 0.0
        assert scalars.residual(view.curv.r04_svk) == 0.0
        assert view.curv.tau == view.curv.tau_svk == 0
        assert view.rho_xi_xi == 0


@pytest.mark.parametrize("name", ["solv7-u2", "dim5-tr", "x-mix5-f8"])
def test_phi2_identity_is_the_sandwich_exactly(name):
    # R(x,y,phi^2 z,phi^2 w) = R - eta(z) R(x,y,xi,w) - eta(w) R(x,y,z,xi),
    # which the curvature relation uses, is the dim^6 contraction of R with
    # phi^2 in its last two slots, entry for entry
    ws = workspace(name)
    phi2 = ws.s.phi2
    for view in (ws.g, ws.gt):
        curv = view.curv
        sandwich = scalars.einsum("ijab,ak,bl->ijkl", curv.r04, phi2, phi2)
        identity = scalars.combine([1, -1], [curv.r04, curv.reeb_term])
        assert identity.dtype == object
        assert np.array_equal(identity, sandwich), (name, view.role)
        assert scalars.residual(identity) > 0, (name, view.role)


def test_svk_curvature_on_parallel_entry_is_projected_base():
    # with a vanishing shape operator the relation collapses to the
    # double-phi projection of the base curvature, checked over all quadruples
    ws = workspace("nil5-u1")
    r, rd = ws.g.curv.r04, ws.g.curv.r04_svk
    phi2 = ws.s.phi2
    dim = ws.s.dim
    for i, j, k, l in product(range(dim), repeat=4):
        pk = phi2[:, k]
        pl = phi2[:, l]
        expected = sum(
            r[i, j, a, b] * pk[a] * pl[b] for a in range(dim) for b in range(dim)
        )
        assert rd[i, j, k, l] == expected


def _loop_trace(r, m):
    """m^{il} R(e_i, y, z, e_l) of a (0,4) tensor, by plain Python sums."""
    idx = range(len(m.matrix))
    out = np.empty((len(idx), len(idx)), dtype=object)
    for y, z in product(idx, idx):
        out[y, z] = sum(m.inv[i, l] * r[i, y, z, l] for i in idx for l in idx)
    return out


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if zoo.builtin(n).dim == 5])
def test_ricci_relation_is_the_trace_of_the_curvature_relation(name):
    # rho^D = tr svk_curvature_formula needs only R(., ., xi, xi) = 0 and
    # m(xi, .) = eta, so it holds for a random integer tensor antisymmetric
    # in its last pair, whose rho(., xi) is no multiple of eta and whose
    # rho and R(xi, ., ., xi) are not symmetric: each eta and transposition
    # of the Ricci relation shows
    ws = workspace(name)
    b = ws.batch
    rng = np.random.default_rng(7)
    a = np.stack([rng.integers(-3, 4, size=(ws.s.dim,) * 4) for _ in range(2)])
    r = scalars.array(a - a.transpose(0, 1, 2, 4, 3), RATIONAL)
    rho = scalars.stack([_loop_trace(r[i], view.metric) for i, view in enumerate((ws.g, ws.gt))])
    assert np.array_equal(ricci(r, b.metric), rho)
    curvature_formula = svk_curvature_formula(replace(b.curv, r04=r), b.shape)
    formula = svk_ricci_formula(ws.s, r, rho, b.shape, b.metric)
    for i, view in enumerate((ws.g, ws.gt)):
        assert np.array_equal(formula[i], _loop_trace(curvature_formula[i], view.metric)), view.role


def test_section_types_on_dim5_entry():
    ws = workspace("dim5-tr")
    e0, e1, e2 = scalars.eye(5, RATIONAL)[:3]
    kind, _ = _type(ws, e0, ws.s.xi)
    assert kind == XI_SECTION
    kind, _ = _type(ws, e0, e2)
    assert kind == HOLOMORPHIC
    kind, ortho = _type(ws, e0, e1)
    assert kind == TOTALLY_REAL and ortho
    # a slanted plane: non-degenerate, not phi-invariant, pairs with its
    # phi-image, contains no Reeb direction
    kind, _ = _type(ws, e0 * Fraction(2) + e2, e1)
    assert kind == GENERIC
    # totally-real but not orthogonal to the Reeb vector
    kind, ortho = _type(ws, e0 + ws.s.xi, e1)
    assert kind == TOTALLY_REAL and not ortho


def test_recorded_planes_verify():
    for name in ALL_NAMES:
        entry = zoo.builtin(name)
        ws = workspace(name)
        for kind, x, y in entry.planes:
            derived, _ = _type(ws, scalars.array(x, RATIONAL), scalars.array(y, RATIONAL))
            assert derived == kind, (name, kind)


def test_totally_real_rejected_in_dim3():
    ws = workspace("solv3-a")
    # in dimension 3 no horizontal 2-plane can be orthogonal to its phi-image;
    # the classifier never reports the totally-real type there
    e0, e1 = scalars.eye(3, RATIONAL)[:2]
    kind, _ = _type(ws, e0, e1)
    assert kind != TOTALLY_REAL


def test_degenerate_plane_raises():
    ws = workspace("dim5-tr")
    e0, e1 = scalars.eye(5, RATIONAL)[:2]
    # the (e0,e1)-plane is degenerate for the associated metric of this entry
    with pytest.raises(DegeneratePlaneError):
        _sectional(ws, ws.gt, e0, e1)
    # and a rank-deficient pair is degenerate for any metric
    with pytest.raises(DegeneratePlaneError):
        _sectional(ws, ws.g, e0, e0)


def test_reeb_sections_flat_for_svk():
    for name in ALL_NAMES:
        ws = workspace(name)
        for view in (ws.g, ws.gt):
            for i in range(ws.s.dim):
                e = scalars.eye(ws.s.dim, RATIONAL)[i]
                h = e - (ws.s.eta @ e) * ws.s.xi
                if scalars.residual(h) == 0.0:
                    continue
                for x in (h, h + ws.s.phi @ h):
                    try:
                        (k,) = _sectional(ws, view, x, ws.s.xi).k_svk
                    except DegeneratePlaneError:
                        continue
                    assert k == 0, name


def test_sectional_formula_on_seeded_planes():
    rng = np.random.default_rng(11)
    for name in ("solv3-a", "dim5-tr"):
        ws = workspace(name)
        checked = 0
        while checked < 20:
            x = scalars.array(rng.integers(-3, 4, size=ws.s.dim).tolist(), RATIONAL)
            y = scalars.array(rng.integers(-3, 4, size=ws.s.dim).tolist(), RATIONAL)
            try:
                values = _sectional(ws, ws.g, x, y)
            except DegeneratePlaneError:
                continue
            assert list(values.k_svk) == list(values.formula)
            checked += 1


def test_sectional_holomorphic_correction():
    # k_svk = k + pi1(Sx, Sy, y, x) / pi1(x, y, y, x) on a phi-invariant plane
    ws = workspace("dim5-tr")
    e0 = scalars.eye(5, RATIONAL)[0]
    x, y = e0, ws.s.phi @ e0
    m = ws.s.metric
    sx = ws.g.shape.operator @ x
    sy = ws.g.shape.operator @ y
    corr = pi1(m, sx, sy, y, x) / pi1(m, x, y, y, x)
    values = _sectional(ws, ws.g, x, y)
    assert list(values.k_svk) == [values.k[0] + corr]
    # the Gram route to the correction is pi_1's definition
    assert list(values.shape_term / values.den) == [corr]
    assert corr != 0  # the correction genuinely matters on this entry


def test_sectional_totally_real_correction():
    ws = workspace("dim5-tr")
    e0, e1 = scalars.eye(5, RATIONAL)[:2]
    x, y = e0, e1
    m = ws.s.metric
    kind, ortho = _type(ws, x, y)
    assert kind == TOTALLY_REAL and ortho
    sx = ws.g.shape.operator @ x
    sy = ws.g.shape.operator @ y
    corr = pi1(m, sx, sy, y, x) / pi1(m, x, y, y, x)
    values = _sectional(ws, ws.g, x, y)
    assert list(values.k_svk) == [values.k[0] + corr]


def test_sectional_invariant_under_basis_change():
    ws = workspace("solv3-f4")
    e0, e1 = scalars.eye(3, RATIONAL)[:2]
    (base,) = _sectional(ws, ws.g, e0, e1).k_svk
    rng = np.random.default_rng(23)
    tried = 0
    while tried < 10:
        a, b, c, d = (int(v) for v in rng.integers(-4, 5, size=4))
        if a * d - b * c == 0:
            continue
        x2 = e0 * Fraction(a) + e1 * Fraction(b)
        y2 = e0 * Fraction(c) + e1 * Fraction(d)
        (k,) = _sectional(ws, ws.g, x2, y2).k_svk
        assert k == base
        tried += 1


def test_ricci_xi_formula_pieces_nonzero():
    # the identity is only interesting when the pieces are individually nonzero
    ws = workspace("solv3-f11")
    b = ws.batch
    n_s = covariant_derivative(b.conn, b.shape.operator, 1, batched=True)
    val = ricci_xi_formula(ws.s, b.conn, n_s, b.shape, b.metric)
    assert val.tolist() == [ws.g.rho_xi_xi, ws.gt.rho_xi_xi]
    assert scalars.residual(ws.g.shape.operator) > 0
