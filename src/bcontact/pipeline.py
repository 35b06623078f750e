"""One-stop access to every derived quantity for a model.

A Workspace takes the raw structure data and exposes both metrics of the pair
and everything downstream of them (connections, fundamental tensors, Lee
forms, potential, Schouten-van Kampen pair, shape operators, curvature) to the
check suite, the classifier and the CLI.  Each field is computed on first use,
along the *primary* route only, and cached, so a caller pays only for what it
reads.  The independent second routes, and every comparison between routes,
live in the check suite (``checks.run_checks``).
"""
from __future__ import annotations

from functools import cached_property, wraps

import numpy as np

from . import scalars
from .curvature import CurvatureData, curvature_data
from .hv import ShapeData, shape_operator
from .liegroup import covariant_derivative, levi_civita, torsion
from .structure import (
    ACBStructure,
    ClassificationReport,
    LeeForms,
    ValidationReport,
    associated_of,
    classify,
    divergences,
    fundamental_tensor,
    lee_forms,
    nabla_xi_class_conditions,
    validate_structure,
)
from .svk import svk_connection
from .tensor import Metric, lower_out


def _cached(fn):
    """A field computed on first use and cached, with its arrays read-only."""
    return cached_property(wraps(fn)(lambda self: scalars.freeze(fn(self))))


class MetricView:
    """Everything attached to one metric of the pair."""

    def __init__(self, ws: "Workspace", role: str, metric: Metric):
        self.ws = ws
        self.role = role
        self.metric = metric

    @property
    def partner(self) -> "MetricView":
        """The view of the other metric of the pair."""
        return self.ws.gt if self is self.ws.g else self.ws.g

    @_cached
    def conn(self) -> np.ndarray:
        """Coefficients of the Levi-Civita connection of this metric."""
        return levi_civita(self.ws.s.algebra, self.metric)

    @_cached
    def fundamental(self) -> np.ndarray:
        return fundamental_tensor(self.ws.s, self.conn, self.metric)

    @_cached
    def lee(self) -> LeeForms:
        return lee_forms(self.ws.s, self.fundamental, self.metric)

    @_cached
    def assoc(self) -> Metric:
        """The associated metric of this view's metric (for g~ it is
        -g + 2 eta (x) eta, not g again); it carries the starred divergence."""
        s = self.ws.s
        return s.assoc if self.role == "g" else associated_of(self.metric, s)

    @_cached
    def div_pair(self):
        """(div(eta), div*(eta)) for the structure carried by this metric."""
        return divergences(self.ws.s, self.conn, self.metric, self.assoc)

    @_cached
    def partner_potential(self) -> np.ndarray:
        """(1,2) potential of the partner's Levi-Civita connection with
        respect to this one."""
        return self.partner.conn - self.conn

    @_cached
    def partner_potential03(self) -> np.ndarray:
        return lower_out(self.partner_potential, self.metric)

    @_cached
    def classification(self) -> ClassificationReport:
        return classify(
            self.ws.s, self.fundamental, self.lee, self.metric, self.conn,
            self.partner.conn, self.partner_potential03, self.div_pair,
            self.role,
        )

    @_cached
    def nabla_xi_conditions(self) -> dict:
        return nabla_xi_class_conditions(
            self.ws.s, self.conn, self.metric, self.lee, self.div_pair,
            self.classification,
        )

    @_cached
    def svk(self) -> np.ndarray:
        """Coefficients of the Schouten-van Kampen connection of this metric."""
        return svk_connection(self.conn, self.ws.s)

    @_cached
    def potential(self) -> np.ndarray:
        """(1,2) Q = D - nabla of the SvK connection."""
        return self.svk - self.conn

    @_cached
    def torsion(self) -> np.ndarray:
        """(1,2) T of the SvK connection."""
        return torsion(self.svk, self.ws.s.algebra)

    @_cached
    def potential03(self) -> np.ndarray:
        return lower_out(self.potential, self.metric)

    @_cached
    def torsion03(self) -> np.ndarray:
        return lower_out(self.torsion, self.metric)

    @_cached
    def svk_phi(self) -> np.ndarray:
        """(1,2) covariant derivative of phi under the SvK connection."""
        return covariant_derivative(self.svk, self.ws.s.phi, 1)

    @_cached
    def shape(self) -> ShapeData:
        return shape_operator(self.ws.s, self.conn, self.metric)

    @_cached
    def curv(self) -> CurvatureData:
        return curvature_data(self.ws.s, self.conn, self.svk, self.metric)

    @_cached
    def rho_xi_xi(self):
        xi = self.ws.s.xi
        return scalars.einsum("yz,y,z->", self.curv.rho, xi, xi)


class Workspace:
    """Derived data for one structure, in one scalar mode; every zero test
    on it uses the structure's ``eps``."""

    def __init__(self, s: ACBStructure):
        self.s = s
        self.g = MetricView(self, "g", s.metric)

    @cached_property
    def gt(self) -> MetricView:
        """The view of the associated metric; touching it on a model whose
        axioms fail raises, so callers gate on ``validation`` first."""
        return MetricView(self, "gtilde", self.s.assoc)

    @cached_property
    def validation(self) -> ValidationReport:
        return validate_structure(self.s)

    @property
    def pot(self) -> np.ndarray:
        """Potential of the g~ Levi-Civita connection with respect to the g
        one, as a (1,2) tensor."""
        return self.g.partner_potential

    @property
    def pot03(self) -> np.ndarray:
        """The same potential lowered by g, as a (0,3) tensor."""
        return self.g.partner_potential03

    def view(self, role: str) -> MetricView:
        if role == "g":
            return self.g
        if role == "gtilde":
            return self.gt
        raise ValueError(f"unknown metric role {role!r}")

    def reported_scalars(self) -> dict[str, float]:
        """Every scalar the reports print, as floats (used for backend
        agreement checks and the JSON output)."""
        out = {}
        for view in (self.g, self.gt):
            tag = view.role
            cls = view.classification
            for k, v in cls.scalars.items():
                out[f"{tag}:{k}"] = float(v)
            out[f"{tag}:tau"] = float(view.curv.tau)
            out[f"{tag}:tau_svk"] = float(view.curv.tau_svk)
            out[f"{tag}:rho(xi,xi)"] = float(view.rho_xi_xi)
            out[f"{tag}:tr(shape)"] = float(view.shape.trace)
        return out
