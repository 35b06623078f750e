"""JSON model files.

Scalars are written as canonical rational strings ("p" or "p/q"), so the
exact backend is reachable from files; decimal strings are also accepted on
input.  Serialization is canonical (fixed key order, brackets sorted, two
space indent), which makes dump(parse(dump(x))) byte-identical.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from . import scalars
from .liegroup import LieAlgebra, StructureError
from .scalars import DEFAULT_EPS, RATIONAL
from .structure import ACBStructure
from .tensor import DegenerateMetricError, Metric

FORMAT = "bcontact-model/1"


class ModelFileError(ValueError):
    """Unparseable or structurally invalid model file."""


def _exact_scalar(tok) -> Fraction:
    try:
        return scalars.exact(tok)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ModelFileError(f"bad scalar {tok!r}: {exc}") from exc


def _index(tok) -> int:
    """An integer entry (``dim`` or a bracket index); a boolean is none, and
    so is a number with a fractional part (3.0 is 3, 3.7 is not 3) and a
    string with a non-ASCII character (``int`` reads other scripts' digits,
    as ``scalars.exact`` says)."""
    if isinstance(tok, (bool, np.bool_)):
        raise TypeError("a boolean is not an integer")
    if isinstance(tok, str) and not tok.isascii():
        raise ValueError("non-ASCII character in an integer")
    if isinstance(tok, (float, np.floating)) and not float(tok).is_integer():
        raise ValueError(f"{tok!r} is not an integer")
    return int(tok)


def _parse(doc: dict) -> dict:
    """``doc`` normalized: fixed key order, every scalar its exact
    ``Fraction``, brackets sorted by index pair, each pair given once.  The
    one place where a model's tokens are parsed."""
    try:
        dim = _index(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError("missing or bad 'dim'") from exc

    def array(v, what):  # a JSON array, or a list or tuple from Python
        if not isinstance(v, (list, tuple)) or len(v) != dim:
            raise ModelFileError(f"{what} must be an array of {dim} entries")
        return v

    def vec(v, what):
        return [_exact_scalar(t) for t in array(v, what)]

    def mat(m, what):
        return [vec(r, what) for r in array(m, what)]

    items = doc.get("brackets", [])
    if not isinstance(items, (list, tuple)):
        raise ModelFileError(f"'brackets' must be an array, not {items!r}")
    brackets = {}
    for item in items:
        try:
            i, j, coeffs = _index(item[0]), _index(item[1]), item[2]
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise ModelFileError(f"bad bracket entry {item!r}") from exc
        if not (0 <= i < dim and 0 <= j < dim) or i == j:
            raise ModelFileError(f"bracket indices ({i},{j}) out of range")
        coeffs = vec(coeffs, f"bracket ({i},{j})")
        if i > j:
            i, j = j, i
            coeffs = [scalars.combine([-1], [t]) for t in coeffs]
        if (i, j) in brackets:
            raise ModelFileError(f"bracket ({i},{j}) given twice")
        brackets[i, j] = coeffs

    for key in ("phi", "xi", "eta", "g"):
        if key not in doc:
            raise ModelFileError(f"missing '{key}'")

    out: dict = {"format": FORMAT}
    if doc.get("name"):
        out["name"] = str(doc["name"])
    out.update(
        dim=dim,
        brackets=[[i, j, brackets[i, j]] for i, j in sorted(brackets)],
        phi=mat(doc["phi"], "phi"),
        xi=vec(doc["xi"], "xi"),
        eta=vec(doc["eta"], "eta"),
        g=mat(doc["g"], "g"),
    )
    if doc.get("metadata"):
        out["metadata"] = doc["metadata"]
    return out


def _formatted(parsed: dict) -> dict:
    """A parsed document with every scalar as its canonical string."""
    out = dict(parsed)
    out["brackets"] = [[i, j, list(map(str, c))] for i, j, c in parsed["brackets"]]
    for key in ("xi", "eta"):
        out[key] = list(map(str, parsed[key]))
    for key in ("phi", "g"):
        out[key] = [list(map(str, row)) for row in parsed[key]]
    return out


def canonicalize(doc: dict) -> dict:
    """Normalized document: fixed key order, canonical scalar strings ("p"
    or "p/q"), brackets sorted by index pair, each pair given once."""
    return _formatted(_parse(doc))


def dumps(doc: dict) -> str:
    return json.dumps(canonicalize(doc), indent=2) + "\n"


def _read(path: str) -> dict:
    """The JSON object a model file holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
        raise ModelFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError("model file must contain a JSON object")
    return doc


def load_path(path: str) -> dict:
    return canonicalize(_read(path))


def save_path(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def to_structure(
    doc: dict, mode: str = RATIONAL, eps: float = DEFAULT_EPS
) -> ACBStructure:
    """Build the structure a document describes, or raise ModelFileError.

    ``eps`` is the float tolerance of the model: the load-time tests
    (antisymmetry, Jacobi, symmetry and degeneracy of g) use it, and the
    structure carries it to every later zero test.
    """
    return _structure(_parse(doc), mode, eps)


def load_model(path: str, mode: str, eps: float) -> tuple[dict, ACBStructure]:
    """``load_path(path)`` and the structure it describes
    (``to_structure``), from one parse of the file's tokens."""
    parsed = _parse(_read(path))
    return _formatted(parsed), _structure(parsed, mode, eps)


def _structure(parsed: dict, mode: str, eps: float) -> ACBStructure:
    """The structure of a parsed document; in float mode each scalar is the
    nearest float of its exact value."""
    dim = parsed["dim"]
    upper = np.zeros((dim, dim, dim), dtype=object)
    for i, j, coeffs in parsed["brackets"]:
        upper[:, i, j] = coeffs
    try:
        # c[k, j, i] = -c[k, i, j]
        upper = scalars.array(upper, mode)
        c = scalars.combine([1, -1], [upper, scalars.einsum("kij->kji", upper)])
        return ACBStructure(
            LieAlgebra(c, eps),
            scalars.array(parsed["phi"], mode),
            scalars.array(parsed["xi"], mode),
            scalars.array(parsed["eta"], mode),
            Metric.from_matrix(scalars.array(parsed["g"], mode), eps),
            eps,
        )
    except OverflowError:
        raise ModelFileError(f"{_beyond_float(parsed)} is beyond the float range") from None
    except (StructureError, DegenerateMetricError, ValueError) as exc:
        raise ModelFileError(str(exc)) from exc


def _beyond_float(parsed: dict) -> str:
    """The name of the first scalar of a parsed document too large for a
    float."""
    named = [(f"bracket ({i},{j})", c) for i, j, c in parsed["brackets"]]
    for name, values in named + [(key, parsed[key]) for key in ("phi", "xi", "eta", "g")]:
        values = np.array(values, dtype=object)
        for idx in np.ndindex(values.shape):
            try:
                float(values[idx])
            except OverflowError:
                return name + "".join(f"[{i}]" for i in idx)
