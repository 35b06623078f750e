"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps public functions of the program (and ``numpy.einsum``) from
outside: every module attribute, class attribute and ``checks.CHECKS`` slot
that holds one of the target functions is replaced by a wrapper that records
a span, and ``uninstall`` puts the originals back.  Spans are aggregated as
they close: per span name the number of calls, the summed self time (span
time minus the time its direct child spans cover) and, for names that ask
for it, the inclusive time of every call.

A target that a later version of the program renames or removes is skipped,
so its metric reads 0 instead of breaking the run.  A span's time includes
the speed-probe samples (``speed.py``) that fire inside it, about 1.5%.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# (span name, module, attribute path); several targets may share a name
FUNCTION_TARGETS = [
    ("scalars.compare", "bcontact.scalars", "is_zero"),
    ("scalars.compare", "bcontact.scalars", "arrays_equal"),
    ("scalars.compare", "bcontact.scalars", "residual"),
    ("scalars.compare", "bcontact.scalars", "tolerance"),
    ("tensor.metric", "bcontact.tensor", "Metric.from_matrix"),
    ("tensor.metric", "bcontact.tensor", "metric_inverse"),
    ("liegroup.levi_civita", "bcontact.liegroup", "levi_civita"),
    ("liegroup.d_eta", "bcontact.liegroup", "d_eta"),
    ("structure.validate", "bcontact.structure", "validate_structure"),
    ("structure.fundamental", "bcontact.structure", "fundamental_tensor"),
    ("structure.lee", "bcontact.structure", "lee_forms"),
    ("structure.divergences", "bcontact.structure", "divergences"),
    ("structure.classify", "bcontact.structure", "classify"),
    ("structure.phi_potential", "bcontact.structure", "phi_potential"),
    ("structure.assoc_fundamental", "bcontact.structure", "assoc_fundamental"),
    ("svk.connection", "bcontact.svk", "svk_connection"),
    ("svk.potential_torsion", "bcontact.svk", "potential_and_torsion"),
    ("svk.covariant_phi", "bcontact.svk", "svk_covariant_phi"),
    ("svk.pair_from_potential", "bcontact.svk", "svk_pair_from_potential"),
    ("hv.shape_operator", "bcontact.hv", "shape_operator"),
    ("curvature.data", "bcontact.curvature", "curvature_data"),
    ("curvature.svk_formula", "bcontact.curvature", "svk_curvature_formula"),
    ("curvature.sectional", "bcontact.curvature", "sectional"),
    ("curvature.svk_sectional_formula", "bcontact.curvature", "svk_sectional_formula"),
    ("curvature.plane_check", "bcontact.curvature", "SectionPlane.check_nondegenerate"),
    ("modelfile.load", "bcontact.modelfile", "load_path"),
    ("modelfile.to_structure", "bcontact.modelfile", "to_structure"),
    ("zoo.random_structure", "bcontact.zoo", "random_structure"),
]

# the 28 check families, named by function name without ``check_``
CHECK_FAMILIES = [
    "structure_axioms", "fundamental_identities", "lee_identities",
    "divergence_traces", "nabla_xi_table", "potential_routes",
    "assoc_fundamental", "zero_class_equivalences", "svk_preserves_structure",
    "svk_two_routes", "svk_distributions", "svk_closed_forms",
    "torsion_potential_bijection", "svk_coincidence", "reeb_parallel_transfer",
    "svk_naturality", "svk_pair_coincide", "svk_pair_routes", "svk_phi_forms",
    "svk_phi_equalities", "shape_operators", "trace_identity", "qt_components",
    "qt_pair_relations", "equivalence_chains", "svk_curvature",
    "curvature_symmetries", "sectional_curvature",
]

SECTIONAL_FAMILY = "checks.sectional_curvature"


class Tracer:
    """Collects span aggregates while installed; see the module docstring."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive = defaultdict(list)  # name -> inclusive seconds per call
        self.items = defaultdict(int)  # name -> items yielded by generator spans
        self.multi_einsum = 0
        self.plane_attempts = 0
        self.plane_accepted = 0
        self._stack = []  # open spans: [name, child seconds]
        self._patches = []  # (owner, attribute or list index, original)

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, name, fn, *, span_name=None, keep_inclusive=False):
        tracer = self
        generator = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            label = span_name(args) if span_name else name
            frame = [label, 0.0]
            stack = tracer._stack
            stack.append(frame)
            t0 = time.perf_counter()
            raised = True
            try:
                out = fn(*args, **kwargs)
                if generator:
                    # run_checks consumes each family at once, so draining
                    # the generator inside the span keeps its work attributed
                    out = list(out)
                    tracer.items[label] += len(out)
                raised = False
                return out
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                tracer.calls[label] += 1
                tracer.self_s[label] += dur - frame[1]
                if keep_inclusive:
                    tracer.inclusive[label].append(dur)
                if label == "curvature.plane_check" and any(
                    f[0] == SECTIONAL_FAMILY for f in stack
                ):
                    tracer.plane_attempts += 1
                    tracer.plane_accepted += not raised

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_einsum(self, fn):
        traced = self._wrap("scalars.einsum", fn)
        tracer = self

        def einsum(*operands, **kwargs):
            if len(operands) >= 4:  # subscripts plus three or more operands
                tracer.multi_einsum += 1
            return traced(*operands, **kwargs)

        return einsum

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original, replacement, modules):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, replacement)

    def install(self):
        """Wrap every target that exists in the program's loaded modules."""
        import numpy as np

        modules = [m for name, m in list(sys.modules.items())
                   if name == "bcontact" or name.startswith("bcontact.")]

        orig_einsum = np.einsum
        self._patches.append((np, "einsum", orig_einsum))
        np.einsum = self._wrap_einsum(orig_einsum)

        for span, mod_name, path in FUNCTION_TARGETS:
            owner = sys.modules.get(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span, raw.__func__))
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            elif outer:
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(span, raw))
            else:
                self._replace_everywhere(raw, self._wrap(span, raw), modules)

        workspace = getattr(sys.modules.get("bcontact.pipeline"), "Workspace", None)
        if workspace is not None:
            init = vars(workspace)["__init__"]
            self._patches.append((workspace, "__init__", init))
            workspace.__init__ = self._wrap(
                "pipeline.workspace", init,
                span_name=lambda args: f"pipeline.workspace.dim{args[1].dim}",
                keep_inclusive=True,
            )

        checks = sys.modules.get("bcontact.checks")
        suite = getattr(checks, "CHECKS", [])
        for family in CHECK_FAMILIES:
            original = getattr(checks, "check_" + family, None)
            if original is None:
                continue
            wrapped = self._wrap("checks." + family, original)
            self._replace_everywhere(original, wrapped, modules)
            for i, fn in enumerate(suite):
                if fn is original:
                    self._patches.append((suite, i, fn))
                    suite[i] = wrapped

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "inclusive": {k: list(v) for k, v in self.inclusive.items()},
            "items": dict(self.items),
            "multi_einsum": self.multi_einsum,
            "plane_attempts": self.plane_attempts,
            "plane_accepted": self.plane_accepted,
        }
