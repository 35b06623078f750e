"""One-stop access to every derived quantity for a model.

A Workspace takes the raw structure data and exposes both metrics of the pair
and everything downstream of them (connections, the derivatives of xi, eta
and phi, fundamental tensors, Lee forms, potential, Schouten-van Kampen pair,
shape operators, curvature) to the check suite, the classifier and the CLI.
Each field is computed on first use, along the *primary* route only, and
cached, so a caller pays only for what it reads; a field of a metric is
computed once for both, on a leading batch axis (``Batch``), so that one
kernel call serves g and g~.  The independent second routes, and every
comparison between routes, live in the check suite (``checks.run_checks``).
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import scalars, svk as svk_mod
from .curvature import CurvatureData, curvature_data
from .hv import HVComponents, QComponents, ShapeData, connection_components
from .hv import equivalence_chains, hv_split, potential_components, shape_operator
from .liegroup import covariant_derivative, levi_civita, torsion
from .structure import ACBStructure, ClassificationReport, LeeForms, ValidationReport
from .structure import classify, divergences, fundamental_tensor, lee_forms, validate_structure
from .tensor import Metric, lower_out

# the metric role of each row of the batch axis
ROLES = ("g", "gtilde")


class Batch:
    """The fields of both metrics of the pair, each array with a leading
    batch axis, one row per role of ``ROLES``; a list holds one value per
    row.  Touching a field builds g~, which raises on an invalid model."""

    def __init__(self, s: ACBStructure):
        self.s = s

    @cached_property
    def metric(self) -> Metric:
        return Metric.stack([self.s.metric, self.s.assoc])

    @cached_property
    def conn(self) -> np.ndarray:
        """Coefficients of the Levi-Civita connections."""
        return levi_civita(self.s.algebra, self.metric)

    # the only derivatives of xi, eta and phi under the Levi-Civita
    # connections: every closed form of the structure reads them
    @cached_property
    def nabla_xi(self) -> np.ndarray:
        """(1,1) nabla xi of each Levi-Civita connection."""
        return covariant_derivative(self.conn, self.s.xi, 1)

    @cached_property
    def nabla_eta(self) -> np.ndarray:
        """(0,2) nabla eta of each Levi-Civita connection."""
        return covariant_derivative(self.conn, self.s.eta, 0)

    @cached_property
    def nabla_phi(self) -> np.ndarray:
        """(1,2) nabla phi of each Levi-Civita connection."""
        return covariant_derivative(self.conn, self.s.phi, 1)

    @cached_property
    def nabla_xi02(self) -> np.ndarray:
        """(0,2) m(nabla_x xi, y) of each metric m."""
        return lower_out(self.nabla_xi, self.metric)

    @cached_property
    def fundamental(self) -> np.ndarray:
        return fundamental_tensor(self.nabla_phi, self.metric)

    @cached_property
    def lee(self) -> LeeForms:
        return lee_forms(self.s, self.fundamental, self.metric)

    @cached_property
    def div_pair(self):
        """(div(eta), div*(eta)) for the structure carried by each metric."""
        return divergences(self.nabla_eta, self.metric, self.s.phi)

    @cached_property
    def partner_potential(self) -> np.ndarray:
        """(1,2) potential of the partner's Levi-Civita connection with
        respect to each one: the connections, rows swapped, less them."""
        return scalars.combine([1, -1], [scalars.row(self.conn, [1, 0]), self.conn])

    @cached_property
    def partner_potential03(self) -> np.ndarray:
        return lower_out(self.partner_potential, self.metric)

    @cached_property
    def partner_potential_xi(self) -> np.ndarray:
        """(1,1) Phi(x, xi) of each partner potential Phi."""
        return scalars.einsum("Blim,m->Bli", self.partner_potential, self.s.xi)

    @cached_property
    def classification(self) -> list[ClassificationReport]:
        return classify(
            self.s, self.fundamental, self.lee, self.metric, self.nabla_xi,
            self.partner_potential03, self.div_pair, ROLES,
        )

    @cached_property
    def q_closed(self) -> QComponents:
        """Q^h and Q^v by their closed forms through nabla xi and nabla eta:
        the closed forms of Q and the phiB-connection add them."""
        return potential_components(self.s, self.nabla_xi, self.nabla_eta)

    @cached_property
    def hv_closed(self) -> HVComponents:
        """``q_closed`` with T^h and T^v by their closed forms through nabla
        xi: the closed form of T adds them.  Only the checks read it."""
        d_eta_xi = scalars.stack([self.s.d_eta_xi] * len(ROLES))
        return connection_components(self.s, self.nabla_xi, self.q_closed, d_eta_xi)

    @cached_property
    def potential(self) -> np.ndarray:
        """(1,2) potential Q = D - nabla of each SvK connection, by its closed form."""
        return svk_mod.svk_potential_closed(self.q_closed)

    @cached_property
    def svk(self) -> np.ndarray:
        """Coefficients of the Schouten-van Kampen connections."""
        return svk_mod.svk_connection(self.conn, self.potential)

    @cached_property
    def c(self) -> np.ndarray:
        """The structure constants, once per row."""
        return scalars.stack([self.s.algebra.c] * len(ROLES))

    @cached_property
    def torsion(self) -> np.ndarray:
        """(1,2) T of each SvK connection."""
        return torsion(self.svk, self.c)

    @cached_property
    def potential03(self) -> np.ndarray:
        return lower_out(self.potential, self.metric)

    @cached_property
    def torsion03(self) -> np.ndarray:
        return lower_out(self.torsion, self.metric)

    @cached_property
    def hv(self) -> HVComponents:
        """The horizontal/vertical split of each Q and T."""
        return hv_split(self.s, self.potential, self.torsion)

    # the only derivatives of phi (1,2), xi (1,1), eta (0,2) and each metric
    # (0,3) under the SvK connections: every check of them reads these
    @cached_property
    def svk_phi(self) -> np.ndarray:
        return covariant_derivative(self.svk, self.s.phi, 1)

    @cached_property
    def svk_xi(self) -> np.ndarray:
        return covariant_derivative(self.svk, self.s.xi, 1)

    @cached_property
    def svk_eta(self) -> np.ndarray:
        return covariant_derivative(self.svk, self.s.eta, 0)

    @cached_property
    def svk_metric(self) -> np.ndarray:
        return covariant_derivative(self.svk, self.metric.matrix, 0, batched=True)

    @cached_property
    def shape(self) -> ShapeData:
        return shape_operator(self.nabla_xi, self.metric, self.s.xi)

    @cached_property
    def chains(self) -> list[dict[str, dict[str, bool]]]:
        """The verdicts of the three predicate chains of each metric (see
        ``hv.equivalence_chains``); every check that asks whether the SvK
        connection is the Levi-Civita one, or whether nabla xi vanishes,
        reads them here."""
        return equivalence_chains(
            self.s, self.conn, self.nabla_xi, self.nabla_eta, self.svk, self.shape,
            self.hv, self.metric,
        )

    @cached_property
    def curv(self) -> CurvatureData:
        return curvature_data(self.s, self.conn, self.svk, self.metric)

    @cached_property
    def rho_xi_xi(self):
        xi = self.s.xi
        return scalars.einsum("Byz,y,z->B", self.curv.rho, xi, xi)


def _row(value, index: int):
    """Row ``index`` of a batched value: the kernel's row of an array, the
    entry of a list, the row of each member of a tuple, else a ``_Row``."""
    if isinstance(value, np.ndarray):
        return scalars.row(value, index)
    if isinstance(value, (list, tuple)):
        return value[index] if isinstance(value, list) else tuple(_row(v, index) for v in value)
    return _Row(value, index)


class _Row:
    """Row ``index`` of a batched value: each attribute is that row of the
    value's attribute, taken on first use."""

    def __init__(self, batched, index: int):
        self._batched, self._index = batched, index

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        value = _row(getattr(self._batched, name), self._index)
        setattr(self, name, value)
        return value


class MetricView(_Row):
    """Everything attached to one metric of the pair: its row of each field
    of the workspace's ``Batch`` (``conn``, ``lee``, ``curv``, ...)."""

    def __init__(self, ws: "Workspace", role: str):
        # the batch, not the Workspace: a view and its Workspace form no
        # cycle, so a dropped Workspace is freed, with all it derived, at once
        super().__init__(ws.batch, ROLES.index(role))
        self.s, self.role = ws.s, role
        self.metric = ws.s.metric if role == "g" else ws.s.assoc


class Workspace:
    """Derived data for one structure, in one scalar mode; every zero test
    on it uses the structure's ``eps``."""

    def __init__(self, s: ACBStructure):
        self.s = s
        self.batch = Batch(s)
        self.g = MetricView(self, "g")

    @cached_property
    def gt(self) -> MetricView:
        """The view of the associated metric; touching it on a model whose
        axioms fail raises, so callers gate on ``validation`` first."""
        return MetricView(self, "gtilde")

    @cached_property
    def pair_difference(self) -> np.ndarray:
        """D~ - D, the difference of the SvK connections of the pair, from
        the potential of g~'s Levi-Civita connection with respect to g's
        (``svk.svk_pair_difference``)."""
        return svk_mod.svk_pair_difference(self.g.partner_potential, self.g.partner_potential_xi, self.s)

    @cached_property
    def validation(self) -> ValidationReport:
        return validate_structure(self.s)

    def view(self, role: str) -> MetricView:
        if role not in ROLES:
            raise ValueError(f"unknown metric role {role!r}")
        return self.g if role == "g" else self.gt

    def reported_scalars(self) -> dict[str, float]:
        """Every scalar the reports print, as floats (used for backend
        agreement checks and the JSON output); an exact value beyond the
        float range is -inf or inf."""
        out = {}
        for view in (self.g, self.gt):
            tag = view.role
            cls = view.classification
            for k, v in cls.scalars.items():
                out[f"{tag}:{k}"] = _float(v)
            out[f"{tag}:tau"] = _float(view.curv.tau)
            out[f"{tag}:tau_svk"] = _float(view.curv.tau_svk)
            out[f"{tag}:rho(xi,xi)"] = _float(view.rho_xi_xi)
            out[f"{tag}:tr(shape)"] = _float(view.shape.trace)
        return out


def _float(x) -> float:
    """The float of a scalar of either backend, -inf or inf beyond the float
    range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
