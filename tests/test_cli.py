import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from bcontact import cli, modelfile, pipeline, scalars, zoo

from support import corrupted_phi_entry, non_isometric_phi_entry

RUN = [sys.executable, "-m", "bcontact.cli"]


def run_cli(*args):
    """``cli.main(args)`` in this process: its exit code (the code of a
    ``SystemExit`` too) and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def run_module(*args, env=None):
    """``python -m bcontact.cli`` in a fresh interpreter."""
    return subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=600, env=env)


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


@pytest.mark.parametrize("command", ["validate", "classify", "report", "verify", "curvature"])
def test_a_model_of_dimension_one_is_an_input_error(tmp_path, command):
    # n = 0: the classifier would divide by 2n
    doc = {"format": modelfile.FORMAT, "dim": 1, "phi": [["0"]], "xi": ["1"], "eta": ["1"], "g": [["1"]]}
    p = tmp_path / "dim1.json"
    p.write_text(json.dumps(doc))
    proc = run_cli(command, str(p))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "input error: almost contact structures need dimension 3 or more, got 1" in proc.stderr


def test_validate_ok(files):
    proc = run_module("validate", files["abelian3"])
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_validate_names_failed_identity(files):
    proc = run_module("validate", files["bad-eta"])
    assert proc.returncode == 1
    assert "eta(xi) = 1" in proc.stdout
    assert "FAIL" in proc.stdout


def test_parse_error_exit_code(files):
    proc = run_module("validate", files["broken"])
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


@pytest.mark.parametrize("argv, flags", [
    (["verify", "{abelian3}", "--zoo"], ("--zoo", "path")),
    (["curvature", "{abelian3}", "--plane", "0,1", "--plane-vectors", "1,0,0;0,0,1"],
     ("--plane-vectors", "--plane")),
])
def test_alternative_targets_are_exclusive(files, capsys, argv, flags):
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(**files) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(f"argument {flag}" in err for flag in flags)


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


def _strict_json(text: str):
    """``text`` read as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _edited_model(tmp_path, key: str, edit) -> str:
    """The file of solv3-a with ``edit`` applied to the ``key`` of its
    document."""
    doc = zoo.builtin("solv3-a").doc()
    doc[key] = edit(doc[key])
    path = tmp_path / f"huge-{key}.json"
    modelfile.save_path(str(path), doc)
    return str(path)


@pytest.mark.parametrize("command", ["validate", "classify", "report", "verify", "curvature"])
def test_json_of_a_valid_model_beyond_the_float_range(tmp_path, command):
    # the brackets of solv3-a times 10**400: the model stays valid, and its
    # scalars are beyond the float range
    path = _edited_model(tmp_path, "brackets", lambda brackets: [
        [a, b, [str(Fraction(v) * 10**400) for v in vs]] for a, b, vs in brackets
    ])
    proc = run_cli(command, path, "--json")
    assert proc.returncode == 0, proc.stderr
    payload = _strict_json(proc.stdout)
    if command == "report":
        assert {"inf", "-inf"} <= set(payload["scalars"].values())


def test_curvature_with_more_digits_than_python_writes_is_an_input_error(tmp_path, capsys):
    # the brackets of solv3-a times 10**2500: the model is valid, but its
    # curvature scalars have more digits than Python converts to text
    path = _edited_model(tmp_path, "brackets", lambda brackets: [
        [a, b, [str(Fraction(v) * 10**2500) for v in vs]] for a, b, vs in brackets
    ])
    assert cli.main(["validate", path]) == 0
    capsys.readouterr()
    for extra in ([], ["--json"]):
        assert cli.main(["curvature", path, "--plane", "0,1", *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: a value has more than {sys.get_int_max_str_digits()} digits\n"


def test_json_of_a_residual_beyond_the_float_range(tmp_path):
    path = _edited_model(tmp_path, "phi", lambda phi: [[str(10**400), *phi[0][1:]], *phi[1:]])
    proc = run_cli("validate", path, "--json")
    assert proc.returncode == 1
    residuals = [c["residual"] for c in _strict_json(proc.stdout)["checks"]]
    assert "inf" in residuals


def test_report_and_curvature_build_no_torsion_term(files, monkeypatch):
    # both read the potential of the metrics, through Q^h and Q^v only: the
    # closed-form torsion terms T^h and T^v are the checks' alone
    made = []
    monkeypatch.setattr(cli, "Workspace", lambda s: made.append(pipeline.Workspace(s)) or made[-1])
    for argv in (["report", files["dim5-tr"]], ["curvature", files["dim5-tr"], "--plane", "0,1"]):
        assert cli.main(argv) == 0
    assert len(made) == 2
    for ws in made:
        assert "d_eta_xi" not in vars(ws.s)
        assert "q_closed" in vars(ws.batch)
        assert not {"hv_closed", "torsion", "hv"} & vars(ws.batch).keys()


# the order in which the classifier decides its flags, which the JSON of
# classify and report keeps
FLAG_ORDER = [
    "F0", *(f"F{i}" for i in range(1, 12)), "U1", "U1_assoc", "U2", "F3+U3", "F1+F2+U3", "U3",
]


def test_json_lists_the_flags_in_the_classifier_order(files, capsys):
    for metric in ("g", "gtilde"):
        assert cli.main(["classify", files["dim5-tr"], "--metric", metric, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["membership"]) == FLAG_ORDER, metric
        assert list(payload["residuals"]) == FLAG_ORDER, metric
    assert cli.main(["report", files["dim5-tr"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for role in ("g", "gtilde"):
        assert list(payload["classification"][role]["membership"]) == FLAG_ORDER, role


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


# int() and float() read the digits of any script; model files do not
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["curvature", "MODEL", "--plane", "\u0660,\u0661"], "--plane"),
        (["verify", "MODEL", "--seed", "\u0663"], "--seed"),
        (["validate", "MODEL", "--mode", "float", "--eps", "\u0661e-9"], "--eps"),
    ],
    ids=["plane", "seed", "eps"],
)
def test_non_ascii_flag_is_input_error(files, capsys, argv, flag):
    argv = [files["dim5-tr"] if a == "MODEL" else a for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "abc", "\u0661e-9"])
def test_bad_bcontact_eps_is_input_error(files, capsys, monkeypatch, value):
    monkeypatch.setenv("BCONTACT_EPS", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", files["abelian3"], "--mode", "float"])
    assert exc.value.code == 2
    assert f"BCONTACT_EPS must be a finite number >= 0, got '{value}'" in capsys.readouterr().err


def test_bad_bcontact_eps_leaves_help_and_explicit_eps_working(files):
    env = {**os.environ, "BCONTACT_EPS": "abc"}
    proc = run_module("--help", env=env)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    proc = run_module("validate", files["abelian3"], "--mode", "float", "--eps", "1e-9", env=env)
    assert proc.returncode == 0, proc.stderr


def test_bcontact_eps_reaches_model_loading(files, monkeypatch):
    # the near-symmetric metric passes only with a tolerance of about 1e-8
    path = files["near-symmetric-g"]
    monkeypatch.setenv("BCONTACT_EPS", "1e-6")
    assert cli.main(["validate", path, "--mode", "float"]) == 0
    assert cli.main(["validate", path, "--mode", "float", "--eps", "1e-9"]) == 2


def test_successive_calls_share_one_parser_and_no_state(files, monkeypatch, capsys):
    assert cli.main(["validate", files["abelian3"]]) == 0  # the parser exists now
    built, loaded = [], []
    real_init, real_load = argparse.ArgumentParser.__init__, cli._load_workspace
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__",
        lambda self, *args, **kwargs: built.append(args) or real_init(self, *args, **kwargs),
    )
    monkeypatch.setattr(
        cli, "_load_workspace",
        lambda path, mode, eps: loaded.append((mode, eps)) or real_load(path, mode, eps),
    )
    monkeypatch.delenv("BCONTACT_EPS", raising=False)
    argv = ["classify", files["abelian3"], "--metric", "gtilde", "--mode", "float", "--eps", "1e-3"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # the later calls get the defaults, not the first call's options
    assert cli.main(["report", files["abelian3"], "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert cli.main(["curvature", files["abelian3"]]) == 0
    assert "plane" not in capsys.readouterr().out
    assert loaded == [
        ("float", 1e-3), ("rational", scalars.DEFAULT_EPS), ("rational", scalars.DEFAULT_EPS)
    ]
    assert built == []
