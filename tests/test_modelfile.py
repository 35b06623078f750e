import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bcontact import cli, modelfile, scalars, zoo
from bcontact.modelfile import ModelFileError
from bcontact.scalars import FLOAT, RATIONAL


def doc3():
    return zoo.builtin("abelian3").doc()


def test_canonical_dump_is_stable():
    text = modelfile.dumps(doc3())
    assert modelfile.dumps(modelfile.canonicalize(json.loads(text))) == text


def test_scalars_normalize_to_rational_strings():
    doc = doc3()
    doc["g"][0][0] = 0.25
    doc["g"][1][1] = "-2/2"
    out = modelfile.canonicalize(json.loads(modelfile.dumps(doc)))
    assert out["g"][0][0] == "1/4"
    assert out["g"][1][1] == "-1"


def test_bracket_index_normalization():
    doc = zoo.builtin("solv3-a").doc()
    i, j, coeffs = doc["brackets"][0]
    flipped = dict(doc)
    flipped["brackets"] = [[j, i, [str(-__import__("fractions").Fraction(c)) for c in coeffs]]] + doc["brackets"][1:]
    assert modelfile.dumps(flipped) == modelfile.dumps(doc)


# a container of the wrong JSON type, with the message naming the field
MALFORMED_CONTAINERS = [
    ("brackets", 5, "'brackets' must be an array"),
    ("phi", 7, "phi must be an array"),
    ("brackets", [{"0": 0, "1": 1, "2": ["1", "0", "0"]}], "bad bracket entry"),
]


def test_parse_errors(tmp_path):
    p = tmp_path / "model.json"
    for text, message in (("{oops", "not valid JSON"), ("[]", "must contain a JSON object")):
        p.write_text(text)
        with pytest.raises(ModelFileError, match=message):
            modelfile.load_model(str(p), RATIONAL, scalars.DEFAULT_EPS)
    with pytest.raises(ModelFileError, match="dim"):
        modelfile.canonicalize({"phi": []})
    doc = doc3()
    del doc["eta"]
    with pytest.raises(ModelFileError, match="eta"):
        modelfile.canonicalize(doc)
    doc = doc3()
    doc["xi"] = ["1", "0"]
    with pytest.raises(ModelFileError, match="entries"):
        modelfile.canonicalize(doc)
    doc = doc3()
    doc["brackets"] = [[0, 5, ["1", "0", "0"]]]
    with pytest.raises(ModelFileError, match="out of range"):
        modelfile.canonicalize(doc)
    doc = doc3()
    doc["g"][0][0] = "one"
    with pytest.raises(ModelFileError, match="bad scalar"):
        modelfile.canonicalize(doc)
    for key, value, message in MALFORMED_CONTAINERS:
        doc = doc3()
        doc[key] = value
        with pytest.raises(ModelFileError, match=message):
            modelfile.canonicalize(doc)


def test_malformed_container_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "model.json"
    for key, value, message in MALFORMED_CONTAINERS:
        doc = doc3()
        doc[key] = value
        p.write_text(json.dumps(doc))
        assert cli.main(["validate", str(p)]) == 2, key
        assert f"input error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("repeat", [[2, 0, ["0", "0", "0"]], [0, 2, ["0", "0", "0"]]])
def test_repeated_bracket_pair_is_an_input_error(repeat):
    # without the check the later entry would silently replace the first
    doc = zoo.builtin("solv3-f4").doc()
    assert any(b[:2] == [0, 2] for b in doc["brackets"])
    doc["brackets"].append(repeat)
    with pytest.raises(ModelFileError, match=r"bracket \(0,2\) given twice"):
        modelfile.canonicalize(doc)


def test_to_structure_both_modes():
    doc = zoo.builtin("solv3-f4").doc()
    s_rat = modelfile.to_structure(doc, RATIONAL)
    s_flt = modelfile.to_structure(doc, FLOAT)
    assert s_rat.dim == s_flt.dim == 3
    assert s_flt.metric.matrix.dtype.kind == "f"


def test_decimal_scalars_reach_both_backends():
    # a file written with decimals: the exact backend sees 1/2, float sees 0.5
    from fractions import Fraction

    doc = doc3()
    doc["brackets"] = [[0, 2, [0.5, 0, 0]], [1, 2, [0, "-0.5", 0]]]
    s_rat = modelfile.to_structure(doc, RATIONAL)
    assert s_rat.algebra.c[0, 0, 2] == Fraction(1, 2)
    s_flt = modelfile.to_structure(doc, FLOAT)
    assert abs(s_flt.algebra.c[0, 0, 2] - 0.5) < 1e-15


def test_to_structure_rejects_bad_jacobi():
    doc = doc3()
    doc["brackets"] = [
        [0, 1, ["0", "0", "1"]],
        [1, 2, ["0", "1", "0"]],
    ]
    with pytest.raises(ModelFileError):
        modelfile.to_structure(doc, RATIONAL)


def test_load_path_missing_file(tmp_path):
    with pytest.raises(ModelFileError, match="cannot read"):
        modelfile.load_path(str(tmp_path / "missing.json"))


def test_save_and_load_round_trip(tmp_path):
    p = tmp_path / "model.json"
    modelfile.save_path(str(p), doc3())
    doc = modelfile.load_path(str(p))
    assert doc["name"] == "abelian3"
    assert modelfile.dumps(doc) == p.read_text()


def test_float_token_reads_as_its_shortest_decimal():
    # a JSON number and the same value written as a string load alike
    doc = doc3()
    doc["g"][0][1] = 1e-13
    doc["g"][1][0] = "1e-13"
    doc["g"][1][1] = 0.5
    out = modelfile.canonicalize(doc)
    assert out["g"][0][1] == out["g"][1][0] == "1/10000000000000"
    assert out["g"][1][1] == "1/2"
    assert scalars.parse_scalar(1e-13, RATIONAL) == Fraction(1, 10**13)
    assert scalars.parse_scalar(0.25, RATIONAL) == Fraction(1, 4)


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_json_number_is_a_bad_scalar(tmp_path, capsys, token):
    doc = doc3()
    doc["g"][1][1] = "TOKEN"
    text = json.dumps(doc).replace('"TOKEN"', token)
    with pytest.raises(ModelFileError, match="bad scalar"):
        modelfile.canonicalize(json.loads(text))
    p = tmp_path / "model.json"
    p.write_text(text)
    assert cli.main(["validate", str(p)]) == 2
    assert "input error: bad scalar" in capsys.readouterr().err


def _with_boolean(where):
    """A valid model document with one number replaced by the JSON boolean
    ``true``/``false`` at ``where``."""
    doc = zoo.builtin("solv3-a").doc()
    if where == "xi":
        doc["xi"] = ["BOOL" if str(v) == "1" else v for v in doc["xi"]]
        return json.dumps(doc).replace('"BOOL"', "true")
    if where == "dim":
        return json.dumps(doc).replace('"dim": 3', '"dim": true')
    i = doc["brackets"][0][0]
    assert i in (0, 1)
    doc["brackets"][0][0] = "BOOL"
    return json.dumps(doc).replace('"BOOL"', "true" if i else "false")


@pytest.mark.parametrize(
    "where, message",
    [
        ("xi", "bad scalar True"),
        ("dim", "missing or bad 'dim'"),
        ("bracket", "bad bracket entry"),
    ],
)
def test_json_boolean_is_not_a_number(tmp_path, capsys, where, message):
    # true == 1 and false == 0 in Python, so each of these documents would
    # otherwise load as the valid model it was taken from
    text = _with_boolean(where)
    with pytest.raises(ModelFileError, match=message):
        modelfile.canonicalize(json.loads(text))
    p = tmp_path / "model.json"
    p.write_text(text)
    assert cli.main(["validate", str(p)]) == 2
    assert f"input error: {message}" in capsys.readouterr().err


def _with_number(where, value):
    """solv3-f4's document, with ``dim`` or the first index of the bracket
    (0, 2) replaced by the JSON number ``value``."""
    doc = zoo.builtin("solv3-f4").doc()
    if where == "dim":
        doc["dim"] = value
    else:
        [bracket] = [b for b in doc["brackets"] if b[:2] == [0, 2]]
        bracket[0] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "where, value, message",
    [("dim", 3.7, "missing or bad 'dim'"), ("bracket", 0.9, "bad bracket entry")],
)
def test_number_with_a_fractional_part_is_not_an_index(tmp_path, capsys, where, value, message):
    # int() would truncate these to the valid model's dim 3 and index 0
    text = _with_number(where, value)
    with pytest.raises(ModelFileError, match=message):
        modelfile.canonicalize(json.loads(text))
    p = tmp_path / "model.json"
    p.write_text(text)
    assert cli.main(["validate", str(p)]) == 2
    assert f"input error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, value, message",
    [("dim", "\u0663", "missing or bad 'dim'"), ("bracket", "\u0660", "bad bracket entry")],
)
def test_non_ascii_index_is_an_input_error(tmp_path, capsys, where, value, message):
    # int() reads other scripts' digits: these would load as dim 3 and index 0
    p = tmp_path / "model.json"
    p.write_text(_with_number(where, value))
    with pytest.raises(ModelFileError, match=message):
        modelfile.load_model(str(p), RATIONAL, 1e-9)
    assert cli.main(["validate", str(p)]) == 2
    assert f"input error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("where, value", [("dim", 3.0), ("bracket", 0.0)])
def test_integral_float_is_an_index(where, value):
    expected = modelfile.dumps(zoo.builtin("solv3-f4").doc())
    doc = modelfile.canonicalize(json.loads(_with_number(where, value)))
    assert modelfile.dumps(doc) == expected


@pytest.mark.parametrize("token", [True, False, np.True_, np.False_])
def test_boolean_is_not_an_exact_scalar(token):
    with pytest.raises(TypeError):
        scalars.exact(token)


def _solv3_f4_file(tmp_path, xi1, ensure_ascii=True):
    """solv3-f4's model file, with xi[1] replaced by the token ``xi1``."""
    doc = zoo.builtin("solv3-f4").doc()
    doc["xi"] = list(doc["xi"])
    doc["xi"][1] = xi1
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc, ensure_ascii=ensure_ascii), encoding="utf-8")
    return str(p)


def test_value_beyond_the_float_range_is_an_input_error_in_float_mode(tmp_path, capsys):
    path = _solv3_f4_file(tmp_path, "1e400")
    with pytest.raises(ModelFileError, match=r"xi\[1\] is beyond the float range"):
        modelfile.to_structure(modelfile.load_path(path), FLOAT)
    for command in ("validate", "verify"):
        assert cli.main([command, path, "--mode", "float"]) == 2
        assert "input error: xi[1] is beyond the float range" in capsys.readouterr().err
    # the exact backend holds the value: the model loads, and fails its axioms
    s = modelfile.to_structure(modelfile.load_path(path), RATIONAL)
    assert s.xi[1] == 10**400
    assert cli.main(["validate", path, "--mode", "rational"]) == 1


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_value_beyond_int64_fails_validation_without_a_traceback(tmp_path, capsys, mode):
    path = _solv3_f4_file(tmp_path, "1000000000000000000000000000000")
    for command in ("validate", "verify"):
        assert cli.main([command, path, "--mode", mode]) == 1
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("token", ["\u0661", "1\u0660", "\uff11/2", "\u00bd"])
@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_non_ascii_number_is_an_input_error(tmp_path, capsys, token, mode):
    # Fraction reads the digits of other scripts: "\u0661" would load as 1
    with pytest.raises(ValueError, match="non-ASCII"):
        scalars.exact(token)
    path = _solv3_f4_file(tmp_path, token, ensure_ascii=False)
    with pytest.raises(ModelFileError, match="non-ASCII"):
        modelfile.load_path(path)
    assert cli.main(["validate", path, "--mode", mode]) == 2
    assert "input error: bad scalar" in capsys.readouterr().err


def test_json_integer_too_long_to_read_is_an_input_error(tmp_path, capsys):
    # Python reads no integer of more than sys.get_int_max_str_digits()
    # digits from text, so json.loads refuses this one
    path = Path(_solv3_f4_file(tmp_path, "LONG"))
    path.write_text(path.read_text().replace('"LONG"', "1" * (sys.get_int_max_str_digits() + 700)))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error: not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("token", ["1e5000", "-2.5E+4999", "1_0e-5000", "1e999999999"])
def test_decimal_with_too_many_digits_is_an_input_error(tmp_path, capsys, token):
    # its value has more digits than Python writes as text, and computing
    # 10**999999999 would take minutes and hundreds of megabytes
    path = _solv3_f4_file(tmp_path, token)
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "input error: bad scalar" in err and "digits" in err and "Traceback" not in err
