import json
import os
import subprocess
import sys

import pytest

from bcontact import cli, modelfile, zoo

from support import corrupted_phi_entry, non_isometric_phi_entry

RUN = [sys.executable, "-m", "bcontact.cli"]


def run_cli(*args):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=600
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for name in ("abelian3", "solv3-f4", "dim5-tr", "x-solv3-f9"):
        p = root / f"{name}.json"
        modelfile.save_path(str(p), zoo.builtin(name).doc())
        paths[name] = str(p)
    bad = zoo.builtin("abelian3").doc()
    bad["eta"] = ["0", "0", "2"]
    bad["name"] = "bad-eta"
    p = root / "bad-eta.json"
    modelfile.save_path(str(p), bad)
    paths["bad-eta"] = str(p)
    for key, entry in (
        ("bad-phi", corrupted_phi_entry()),
        ("non-isometric-phi", non_isometric_phi_entry()),
    ):
        p = root / f"{key}.json"
        modelfile.save_path(str(p), entry.doc())
        paths[key] = str(p)
    near = zoo.builtin("abelian3").doc()
    near["g"][0][1] = "1e-8"
    p = root / "near-symmetric-g.json"
    modelfile.save_path(str(p), near)
    paths["near-symmetric-g"] = str(p)
    singular = zoo.builtin("abelian3").doc()
    singular["g"][1][1] = "0"
    p = root / "singular-g.json"
    modelfile.save_path(str(p), singular)
    paths["singular-g"] = str(p)
    p = root / "broken.json"
    p.write_text("{not json")
    paths["broken"] = str(p)
    return paths


def test_validate_ok(files):
    proc = run_cli("validate", files["abelian3"])
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_validate_names_failed_identity(files):
    proc = run_cli("validate", files["bad-eta"])
    assert proc.returncode == 1
    assert "eta(xi) = 1" in proc.stdout
    assert "FAIL" in proc.stdout


def test_parse_error_exit_code(files):
    proc = run_cli("validate", files["broken"])
    assert proc.returncode == 2
    assert "input error" in proc.stderr


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_singular_metric_is_input_error(files, mode):
    proc = run_cli("validate", files["singular-g"], "--mode", mode)
    assert proc.returncode == 2
    assert "input error: metric determinant" in proc.stderr


def test_missing_file_exit_code(tmp_path):
    proc = run_cli("classify", str(tmp_path / "nope.json"))
    assert proc.returncode == 2


def test_classify_text(files):
    proc = run_cli("classify", files["solv3-f4"])
    assert proc.returncode == 0
    assert "F4: yes" in proc.stdout
    assert "U2: yes" in proc.stdout
    assert "U1: no" in proc.stdout


def test_classify_json_both_metrics(files):
    g = json.loads(run_cli("classify", files["solv3-f4"], "--json").stdout)
    gt = json.loads(
        run_cli("classify", files["solv3-f4"], "--metric", "gtilde", "--json").stdout
    )
    assert g["metric"] == "g" and gt["metric"] == "gtilde"
    # the Reeb vector is parallel for neither metric on this entry, and the
    # partner flags mirror each other across the two reports
    assert g["membership"]["U1"] == gt["membership"]["U1_assoc"]
    assert g["membership"]["U1_assoc"] == gt["membership"]["U1"]
    assert gt["membership"]["F4"] is True
    assert g["scalars"]["theta(xi)"] == "2"


def test_classify_flat_model_all_yes(files):
    payload = json.loads(run_cli("classify", files["abelian3"], "--json").stdout)
    assert all(payload["membership"].values())


def test_verify_single_model_passes(files):
    proc = run_cli("verify", files["abelian3"])
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout
    assert "structure-axioms" in proc.stdout


def test_verify_float_mode(files):
    proc = run_cli("verify", files["solv3-f4"], "--mode", "float", "--eps", "1e-9")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_reports_failure_with_check_name(files):
    proc = run_cli("verify", files["bad-eta"])
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "structure-axioms" in proc.stdout


def test_verify_boundary_model_names_failing_equivalences(files):
    proc = run_cli("verify", files["x-solv3-f9"])
    assert proc.returncode == 1
    failing = [l for l in proc.stdout.splitlines() if l.split(": ", 1)[-1].startswith("FAIL")]
    assert any("reeb-parallel-transfer" in l for l in failing)
    assert any("svk-pair-coincide-iff-u2" in l for l in failing)


def test_verify_json_output(files):
    proc = run_cli("verify", files["abelian3"], "--json")
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert any(r["check"] == "shape-trace-identity" for r in payload["results"])


def test_verify_without_target_is_input_error():
    proc = run_cli("verify")
    assert proc.returncode == 2


def test_curvature_scalars_and_plane(files):
    proc = run_cli("curvature", files["dim5-tr"], "--plane", "0,1")
    assert proc.returncode == 0
    assert "tau[g]" in proc.stdout
    assert "phi-totally-real" in proc.stdout


def test_curvature_plane_vectors(files):
    proc = run_cli(
        "curvature", files["dim5-tr"], "--plane-vectors", "1,0,0,0,0;0,0,0,0,1"
    )
    assert proc.returncode == 0
    assert "xi-section" in proc.stdout
    # the svk sectional curvature of a Reeb section vanishes
    assert "k_svk[g] = 0" in proc.stdout


def test_curvature_degenerate_plane_named(files):
    proc = run_cli("curvature", files["dim5-tr"], "--plane", "0,0")
    assert proc.returncode == 2  # ill-formed plane spec
    proc = run_cli("curvature", files["abelian3"], "--plane-vectors", "1,0,0;2,0,0")
    assert proc.returncode == 1
    assert "degenerate" in proc.stderr


def test_curvature_plane_vectors_of_wrong_length_are_input_errors(files, capsys):
    # abelian3 has dimension 3
    for vectors in ("1,0;0,1", "1,0,0;0,1", "1,0,0,0;0,1,0,0"):
        assert cli.main(["curvature", files["abelian3"], "--plane-vectors", vectors]) == 2
        assert "input error: --plane-vectors needs two vectors of 3 entries" in (
            capsys.readouterr().err
        )


def test_report_summary(files):
    proc = run_cli("report", files["solv3-f4"])
    assert proc.returncode == 0
    assert "classes[g]" in proc.stdout
    assert "F4" in proc.stdout


def test_report_json(files):
    payload = json.loads(run_cli("report", files["solv3-f4"], "--json").stdout)
    assert payload["valid"] is True
    assert payload["classification"]["g"]["membership"]["F4"] is True


COMMANDS = ["validate", "classify", "report", "curvature", "verify"]


@pytest.mark.parametrize("command", COMMANDS)
def test_corrupted_phi_names_broken_axiom(files, command):
    proc = run_cli(command, files["bad-phi"])
    assert proc.returncode == 1
    assert "phi^2 = -id + eta (x) xi" in proc.stdout + proc.stderr


@pytest.mark.parametrize("command", COMMANDS)
def test_non_isometric_phi_names_broken_axiom(files, command):
    proc = run_cli(command, files["non-isometric-phi"])
    assert proc.returncode == 1
    assert (
        "g(phi x, phi y) = -g(x,y) + eta(x) eta(y)"
        in proc.stdout + proc.stderr
    )


def test_eps_reaches_model_loading(files, capsys):
    # g[0][1] = 1e-8 with g[1][0] = 0: symmetric to within eps = 1e-6 only
    path = files["near-symmetric-g"]
    assert cli.main(["validate", path, "--mode", "float", "--eps", "1e-6"]) == 0
    assert cli.main(["validate", path, "--mode", "float"]) == 2
    assert cli.main(["validate", path]) == 2
    assert "metric matrix must be symmetric" in capsys.readouterr().err


def test_verify_zoo_reports_each_entry_past_a_bad_one(monkeypatch, capsys):
    curated = zoo.all_entries()
    monkeypatch.setattr(
        zoo, "all_entries", lambda: curated + [corrupted_phi_entry()]
    )
    code = cli.main(["verify", "--zoo", "--mode", "float"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    for entry in curated:
        lines = [l for l in out if l.startswith(f"{entry.name}: ")]
        assert lines and all(l.split(": ", 1)[1].startswith("PASS") for l in lines)
    bad = [l for l in out if l.startswith("solv5-f1-bad-phi: ")]
    assert len(bad) == 1 and "FAIL  structure-axioms" in bad[0]
    assert "phi^2 = -id + eta (x) xi" in bad[0]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "MODEL", "--seed", "-1"], "--seed"),
        (["verify", "--zoo", "--seed", "-3"], "--seed"),
        (["validate", "MODEL", "--mode", "float", "--eps", "-1"], "--eps"),
        (["validate", "MODEL", "--mode", "float", "--eps", "nan"], "--eps"),
        (["validate", "MODEL", "--mode", "float", "--eps", "inf"], "--eps"),
    ],
    ids=["seed-negative", "zoo-seed-negative", "eps-negative", "eps-nan", "eps-inf"],
)
def test_out_of_range_flag_is_input_error(files, capsys, argv, flag):
    argv = [files["abelian3"] if a == "MODEL" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "abc"])
def test_bad_bcontact_eps_is_input_error(files, capsys, monkeypatch, value):
    monkeypatch.setenv("BCONTACT_EPS", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", files["abelian3"], "--mode", "float"])
    assert exc.value.code == 2
    assert f"BCONTACT_EPS must be a finite number >= 0, got '{value}'" in capsys.readouterr().err


def test_bad_bcontact_eps_leaves_help_and_explicit_eps_working(files):
    env = {**os.environ, "BCONTACT_EPS": "abc"}
    proc = subprocess.run(RUN + ["--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    proc = subprocess.run(
        RUN + ["validate", files["abelian3"], "--mode", "float", "--eps", "1e-9"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_bcontact_eps_reaches_model_loading(files, monkeypatch):
    # the near-symmetric metric passes only with a tolerance of about 1e-8
    path = files["near-symmetric-g"]
    monkeypatch.setenv("BCONTACT_EPS", "1e-6")
    assert cli.main(["validate", path, "--mode", "float"]) == 0
    assert cli.main(["validate", path, "--mode", "float", "--eps", "1e-9"]) == 2
