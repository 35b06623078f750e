"""The rows of the check suite: the same rows in both backends, one name per
check, and the check families and functions the benchmark's tracer expects.

``bench/tracer.py`` finds each family as the module-level generator function
``checks.check_<family>`` and counts the results it yields.  The tracer is
executed here from its source, so nothing is written under ``bench/``.
"""
import importlib
import inspect
import types
from pathlib import Path

import pytest

from bcontact import checks, zoo
from bcontact.scalars import FLOAT, RATIONAL

from support import suite_results, workspace

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", zoo.names() + zoo.boundary_names())
def test_float_rows_match_rational_rows(name):
    def rows(mode):
        return [(r.name, r.passed, r.detail) for r in suite_results(name, mode)]

    rational = rows(RATIONAL)
    assert rows(FLOAT) == rational
    names = [row[0] for row in rational]
    assert len(set(names)) == len(names)


def test_traced_families_are_the_families_run_checks_runs():
    tracer = _tracer_module()
    families = {"checks." + f for f in tracer.CHECK_FAMILIES}
    for family in tracer.CHECK_FAMILIES:
        assert inspect.isgeneratorfunction(getattr(checks, "check_" + family)), family

    ws = workspace("dim5-tr", FLOAT)
    spans = tracer.Tracer()
    spans.install()
    try:
        results = checks.run_checks(ws)
    finally:
        spans.uninstall()
    assert {k for k in spans.calls if k.startswith("checks.")} == families
    assert all(spans.calls[f] == 1 for f in families)
    assert sum(spans.items[f] for f in families) == len(results)


# the tracer's targets that name no function of the library, so that their
# per-layer metrics read 0; a rename that adds to them fails here
UNRESOLVED_TARGETS = {
    "scalars.arrays_equal", "scalars.tolerance", "tensor.metric_inverse",
    "structure.phi_potential", "structure.assoc_fundamental", "svk.potential_and_torsion",
    "svk.svk_covariant_phi", "curvature.svk_sectional_formula",
    "curvature.SectionPlane.check_nondegenerate",
}


def test_unresolved_tracer_targets_are_the_known_ones():
    # resolved as ``Tracer.install`` resolves them: the attribute path from
    # the module, its last part in the namespace of its owner
    unresolved = set()
    for _, module, path in _tracer_module().FUNCTION_TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            unresolved.add(f"{module.removeprefix('bcontact.')}.{path}")
    assert unresolved == UNRESOLVED_TARGETS
