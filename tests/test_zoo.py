import json

import pytest

from bcontact import scalars, zoo
from bcontact.liegroup import covariant_derivative
from bcontact.scalars import RATIONAL
from bcontact.structure import validate_structure

from support import result_map, workspace


def test_catalog_has_required_coverage():
    names = zoo.names()
    # a zero-fundamental entry, a parallel-Reeb entry with nonzero
    # fundamental tensor, a vertical-union entry, and a dim-5 entry with a
    # recorded totally-real section
    assert "abelian3" in names
    assert any(
        workspace(n).g.classification["U1"]
        and scalars.residual(workspace(n).g.fundamental) > 0
        for n in names
    )
    assert any(
        workspace(n).g.classification["U2"]
        and not workspace(n).g.classification["U1"]
        for n in names
    )
    assert any(
        zoo.builtin(n).dim == 5
        and any(k == "phi-totally-real" for k, _, _ in zoo.builtin(n).planes)
        for n in names
    )


def test_every_basic_class_realized_purely():
    # across the two catalogs, each of the eleven basic classes has an entry
    # satisfying exactly its defining condition with a nonzero fundamental
    # tensor (the nontrivial witness for every row of the class lattice)
    realized = set()
    for name in zoo.names() + zoo.boundary_names():
        ws = workspace(name)
        if scalars.residual(ws.g.fundamental) == 0:
            continue
        flags = {
            f for f, v in ws.g.classification.membership.items()
            if v and f.startswith("F") and "+" not in f and f != "F0"
        }
        if len(flags) == 1:
            realized |= flags
    assert realized == {f"F{i}" for i in range(1, 12)}


def test_every_entry_validates():
    for name in zoo.names() + zoo.boundary_names():
        assert workspace(name).validation.passed, name


def test_expected_labels_reproduced():
    for name in zoo.names() + zoo.boundary_names():
        entry = zoo.builtin(name)
        ws = workspace(name)
        derived = {
            "g": {k for k, v in ws.g.classification.membership.items() if v},
            "gtilde": {k for k, v in ws.gt.classification.membership.items() if v},
        }
        assert derived == {k: set(v) for k, v in entry.expected.items()}, name


def test_partner_flags_mirror_between_views():
    # each report's partner-parallelism flag is the other report's own flag
    for name in zoo.names() + zoo.boundary_names():
        ws = workspace(name)
        g, gt = ws.g.classification, ws.gt.classification
        assert gt["U1_assoc"] == g["U1"], name
        assert g["U1_assoc"] == gt["U1"], name


def test_boundary_entries_fail_exactly_frozen_checks():
    for name in zoo.boundary_names():
        entry = zoo.builtin(name)
        failing = sorted(
            r.name for r in result_map(name).values() if not r.passed
        )
        assert failing == sorted(entry.failing_checks), name


def test_boundary_entries_swap_one_sided_classes():
    # the Reeb vector of these models is parallel for exactly one metric of
    # the pair, and the two antisymmetric one-sided classes swap between the
    # two views
    for name in ("x-solv3-f9", "x-solv5-f9"):
        ws = workspace(name)
        nabla_xi = covariant_derivative(ws.batch.conn, ws.s.xi, 1)
        assert scalars.residual(scalars.row(nabla_xi, 0)) > 0
        assert scalars.residual(scalars.row(nabla_xi, 1)) == 0.0
        assert ws.g.classification["F9"] and ws.gt.classification["F10"]
    ws = workspace("x-solv3-f10")
    nabla_xi = covariant_derivative(ws.batch.conn, ws.s.xi, 1)
    assert scalars.residual(scalars.row(nabla_xi, 0)) == 0.0
    assert scalars.residual(scalars.row(nabla_xi, 1)) > 0
    assert ws.g.classification["F10"] and ws.gt.classification["F9"]


def test_unknown_entry_error():
    with pytest.raises(zoo.UnknownEntryError):
        zoo.builtin("no-such-model")


def test_random_structure_valid_and_deterministic():
    a = zoo.random_structure(0, 1)
    b = zoo.random_structure(0, 1)
    assert a == b
    assert validate_structure(a.structure(RATIONAL)).passed


def test_random_structure_dim5_classifies():
    entry = zoo.random_structure(1, 2)
    ws = entry.workspace()
    rep = ws.g.classification
    # all membership flags are decided booleans
    assert set(map(type, rep.membership.values())) == {bool}
    assert not rep["F0"]


def test_random_structure_rejects_bad_n():
    with pytest.raises(ValueError):
        zoo.random_structure(0, 0)


def test_entry_doc_round_trips_through_model_files():
    from bcontact import modelfile

    for name in zoo.names():
        doc = zoo.builtin(name).doc()
        text = modelfile.dumps(doc)
        again = modelfile.canonicalize(json.loads(text))
        assert modelfile.dumps(again) == text, name
        s = modelfile.to_structure(again, RATIONAL)
        assert validate_structure(s).passed, name
