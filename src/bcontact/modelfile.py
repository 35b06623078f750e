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


def _canonical_scalar(tok) -> str:
    try:
        return str(scalars.exact(tok))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ModelFileError(f"bad scalar {tok!r}: {exc}") from exc


def _index(tok) -> int:
    """An integer entry (``dim`` or a bracket index); a boolean is none, and
    so is a number with a fractional part (3.0 is 3, 3.7 is not 3)."""
    if isinstance(tok, (bool, np.bool_)):
        raise TypeError("a boolean is not an integer")
    if isinstance(tok, (float, np.floating)) and not float(tok).is_integer():
        raise ValueError(f"{tok!r} is not an integer")
    return int(tok)


def canonicalize(doc: dict) -> dict:
    """Normalized document: fixed key order, canonical scalar strings,
    brackets sorted by index pair, each pair given once."""
    try:
        dim = _index(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError("missing or bad 'dim'") from exc

    def array(v, what):  # a JSON array, or a list or tuple from Python
        if not isinstance(v, (list, tuple)) or len(v) != dim:
            raise ModelFileError(f"{what} must be an array of {dim} entries")
        return v

    def vec(v, what):
        return [_canonical_scalar(t) for t in array(v, what)]

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
            coeffs = [str(scalars.combine([-1], [Fraction(t)])) for t in coeffs]
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


def dumps(doc: dict) -> str:
    return json.dumps(canonicalize(doc), indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError("model file must contain a JSON object")
    return canonicalize(doc)


def load_path(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc


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
    doc = canonicalize(doc)
    dim = doc["dim"]
    upper = scalars.zeros((dim, dim, dim), mode)
    try:
        for i, j, coeffs in doc["brackets"]:
            for k, tok in enumerate(coeffs):
                upper[k, i, j] = scalars.parse_scalar(tok, mode)
        # c[k, j, i] = -c[k, i, j]
        scalars.freeze(upper)
        c = scalars.combine([1, -1], [upper, scalars.einsum("kij->kji", upper)])
        return ACBStructure(
            LieAlgebra(c, eps),
            scalars.array(doc["phi"], mode),
            scalars.array(doc["xi"], mode),
            scalars.array(doc["eta"], mode),
            Metric.from_matrix(scalars.array(doc["g"], mode), eps),
            eps,
        )
    except OverflowError:
        raise ModelFileError(f"{_beyond_float(doc)} is beyond the float range") from None
    except (StructureError, DegenerateMetricError, ValueError) as exc:
        raise ModelFileError(str(exc)) from exc


def _beyond_float(doc: dict) -> str:
    """The name of the first scalar of a canonical document too large for a
    float."""
    named = [(f"bracket ({i},{j})", c) for i, j, c in doc["brackets"]]
    for name, values in named + [(key, doc[key]) for key in ("phi", "xi", "eta", "g")]:
        values = np.array(values, dtype=object)
        for idx in np.ndindex(values.shape):
            try:
                float(Fraction(values[idx]))
            except OverflowError:
                return name + "".join(f"[{i}]" for i in idx)
