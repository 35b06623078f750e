"""Almost contact B-metric structures on left-invariant models, the adapted
pair of Schouten-van Kampen connections, class membership, and an executable
verification suite for the identities tying all of it together."""

from .liegroup import LieAlgebra, StructureError, levi_civita
from .pipeline import Workspace
from .scalars import DEFAULT_EPS, FLOAT, RATIONAL
from .structure import ACBStructure, ClassificationReport, ValidationReport
from .tensor import DegenerateMetricError, Metric

__all__ = [
    "ACBStructure",
    "ClassificationReport",
    "DEFAULT_EPS",
    "DegenerateMetricError",
    "FLOAT",
    "LieAlgebra",
    "Metric",
    "RATIONAL",
    "StructureError",
    "ValidationReport",
    "Workspace",
    "levi_civita",
]
