"""Acceptance gate: one test (and one printed verdict line) per criterion.

All criteria run the curated zoo catalog through the exact-rational pipeline;
criterion 9 additionally runs the float backend and compares every reported
scalar.  Tolerances are pinned here: rational-mode identities must have
residual exactly zero, float mode uses eps = 1e-9, and the backend agreement
bound is 1e-7 relative.
"""
import json
import subprocess
import sys
import time

import numpy as np

from bcontact import modelfile, scalars, zoo
from bcontact.liegroup import covariant_derivative, levi_civita
from bcontact.scalars import FLOAT, RATIONAL
from bcontact.structure import fundamental_tensor, validate_structure
from bcontact.svk import phi_b_connection
from bcontact.tensor import Metric

from support import suite_results, workspace

NAMES = zoo.names()
FLOAT_EPS = 1e-9
BACKEND_RTOL = 1e-7


def _verdict(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


def _checks(name: str, *prefixes: str, mode: str = RATIONAL):
    out = []
    for r in suite_results(name, mode):
        if any(r.name.startswith(p) for p in prefixes):
            out.append(r)
    assert out, f"no checks matching {prefixes} for {name}"
    return out


def test_criterion_1_structure_axioms_and_runtime():
    worst = 0.0
    timings = {}
    for name in NAMES:
        entry = zoo.builtin(name)
        t0 = time.perf_counter()
        s = entry.structure(RATIONAL)
        report = validate_structure(s)
        pair = Metric.stack([s.metric, s.assoc])
        conn = levi_civita(s.algebra, pair)
        fundamental_tensor(covariant_derivative(conn, s.phi, 1), pair)
        timings[name] = time.perf_counter() - t0
        assert report.passed, name
        for r in _checks(name, "structure-axioms", "fundamental-identities"):
            assert r.passed and r.residual == 0.0, (name, r.name)
            worst = max(worst, r.residual)
        limit = 1.0 if entry.dim == 3 else 10.0
        assert timings[name] < limit, (name, timings[name])
    _verdict(
        "1 (structure axioms, exact, within time limits)",
        True,
        f"max residual {worst}, slowest {max(timings.values()):.2f}s",
    )


def test_criterion_2_conversion_consistency():
    for name in NAMES:
        for r in _checks(
            name,
            "assoc-fundamental-two-routes",
            "potential-closed-form",
            "fundamental-reconstruction",
        ):
            assert r.passed and r.residual == 0.0, (name, r.name)
    _verdict("2 (fundamental/potential conversions, residual 0)", True)


def test_criterion_3_svk_preservation_and_bijection():
    for name in NAMES:
        for r in _checks(
            name, "svk-preserves-structure", "torsion-potential-bijection"
        ):
            assert r.passed and r.residual == 0.0, (name, r.name)
    _verdict("3 (structure preservation and torsion-potential bijection)", True)


def test_criterion_4_coincidence_booleans():
    values = []
    for name in NAMES:
        ws = workspace(name)
        nabla_xi = covariant_derivative(ws.batch.conn, ws.s.xi, 1)
        bools = [
            scalars.residual(ws.g.svk - ws.g.conn) == 0.0,
            scalars.residual(nabla_xi[0]) == 0.0,
            scalars.residual(ws.gt.svk - ws.gt.conn) == 0.0,
            scalars.residual(nabla_xi[1]) == 0.0,
        ]
        assert len(set(bools)) == 1, (name, bools)
        values.append(bools[0])
    assert True in values and False in values
    _verdict(
        "4 (the four coincidence booleans agree per model)",
        True,
        f"{values.count(True)} parallel, {values.count(False)} non-parallel",
    )


def test_criterion_5_natural_connection_coincidences():
    u2_seen = 0
    for name in NAMES:
        ws = workspace(name)
        if not ws.g.classification["U2"]:
            continue
        u2_seen += 1
        phib = phi_b_connection(ws.g.conn, ws.g.nabla_phi, ws.g.hv_closed, ws.s)
        assert np.array_equal(phib, ws.g.svk), name
        assert np.array_equal(ws.gt.svk, ws.g.svk), name
        assert scalars.residual(ws.g.svk_phi) == 0.0, name
    assert u2_seen >= 2
    ws = workspace("nil5-f2")  # outside the vertical union: all three fail
    phib = phi_b_connection(ws.g.conn, ws.g.nabla_phi, ws.g.hv_closed, ws.s)
    d, dt = ws.g.svk, ws.gt.svk
    assert scalars.residual(d - phib) > 0
    assert scalars.residual(phib - dt) > 0
    assert scalars.residual(d - dt) > 0
    _verdict(
        "5 (svk = phiB = assoc-svk with parallel phi on the vertical union)",
        True,
        f"{u2_seen} vertical-union entries, counterexample outside it",
    )


def test_criterion_6_equivalence_chains():
    witness = {}
    for name in NAMES:
        for r in _checks(name, "chain-"):
            assert r.passed, (name, r.name, r.detail)
            value = "True" in r.detail.split(", ")[0].split("=")[-1]
            key = r.name
            witness.setdefault(key, set()).add(value)
    incomplete = {k: v for k, v in witness.items() if len(v) < 2}
    assert not incomplete, f"chains missing a witness: {incomplete}"
    _verdict(
        "6 (equivalence chains consistent, each witnessed true and false)",
        True,
        f"{len(witness)} chains",
    )


def test_criterion_7_curvature_relations():
    for name in NAMES:
        for r in _checks(
            name,
            "svk-curvature-relation",
            "svk-ricci-relation",
            "svk-scalar-relation",
            "ricci-reeb-formula",
            "sectional-relation",
            "reeb-section-flatness",
        ):
            assert r.passed and r.residual == 0.0, (name, r.name)
        sect = [r for r in _checks(name, "sectional-relation")]
        for r in sect:
            assert "20 sampled planes" in r.detail, (name, r.detail)
    _verdict("7 (curvature relations, 20 seeded planes per metric)", True)


def test_criterion_8_trace_identity():
    for name in NAMES:
        ws = workspace(name)
        div = ws.g.div_pair[0]
        assert (
            ws.g.shape.trace
            == ws.gt.shape.trace
            == -div
            == -ws.g.lee.theta_star_xi
        ), name
    _verdict("8 (trace of both shape operators equals -div(eta))", True)


def test_criterion_9_backend_agreement():
    worst = 0.0
    for name in NAMES:
        ws_r = workspace(name, RATIONAL)
        ws_f = workspace(name, FLOAT)
        sr, sf = ws_r.reported_scalars(), ws_f.reported_scalars()
        assert sr.keys() == sf.keys()
        for key in sr:
            rel = abs(sr[key] - sf[key]) / max(1.0, abs(sr[key]), abs(sf[key]))
            worst = max(worst, rel)
            assert rel <= BACKEND_RTOL, (name, key, rel)
        for r in suite_results(name, FLOAT):
            assert r.passed, (name, r.name, "float mode")
    _verdict(
        "9 (float and rational backends agree)",
        True,
        f"worst relative deviation {worst:.3g} <= {BACKEND_RTOL}",
    )


def test_criterion_10_cli_contract(tmp_path):
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "bcontact.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    good = tmp_path / "good.json"
    modelfile.save_path(str(good), zoo.builtin("solv3-f4").doc())

    # byte-identical round trip for canonicalized files
    text = good.read_text()
    assert modelfile.dumps(modelfile.canonicalize(json.loads(text))) == text

    assert run("validate", str(good)).returncode == 0
    assert run("verify", str(good)).returncode == 0

    bad = tmp_path / "bad.json"
    doc = zoo.builtin("abelian3").doc()
    doc["eta"] = ["0", "0", "2"]
    modelfile.save_path(str(bad), doc)
    proc = run("verify", str(bad))
    assert proc.returncode == 1
    assert "structure-axioms" in proc.stdout and "FAIL" in proc.stdout

    broken = tmp_path / "broken.json"
    broken.write_text("[1, 2")
    assert run("classify", str(broken)).returncode == 2

    payload = json.loads(run("classify", str(good), "--json").stdout)
    assert payload["membership"]["F4"] is True
    _verdict("10 (CLI exit codes, JSON round trip, corrupted fixture)", True)
