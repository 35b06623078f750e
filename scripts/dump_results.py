"""Write every result bcontact computes on a fixed set of models to one
sorted JSON file, so that two checkouts can be compared with ``diff``.

    PYTHONPATH=src python scripts/dump_results.py OUT.json [--compare OLD.json]

Run it from the root of each checkout, then ``diff`` the two files, or give
the first file to the second run with ``--compare``: it then prints, for
each mode, the keys whose values differ (the entry name left out, a check
row named by its name) with the number of differing values, and the largest
relative change of a number.  The models are the curated zoo, the boundary
catalog and ``random_structure(seed, n)`` for seeds 0 and 3 and n = 1, 2
(dims 3 to 7).
For each model, in rational and in float mode, the file holds:

- every ``run_checks`` row: verdict, ``repr`` of the residual, worst index
  and detail, in suite order;
- the memberships and class residuals of g and g~;
- the sampled sectional values of g and g~ (k of R and of R^D, and the
  formula for k^D, from ``sectional``) and the section type of every sampled
  plane;
- the output and exit code of the ``validate``, ``classify`` (g, gtilde),
  ``report`` and ``curvature --plane 0,1`` commands, as text and as JSON.

Float values are written with ``repr``, so a change of the last bit or of
the sign of a zero shows.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

from bcontact import cli, modelfile, scalars, zoo
from bcontact.checks import run_checks, sample_planes
from bcontact.curvature import DegeneratePlaneError, section_type, sectional

MODES = (scalars.RATIONAL, scalars.FLOAT)
SEED = 0
GENERATED = [(seed, n) for seed in (0, 3) for n in (1, 2)]


def _value(x):
    """A scalar or an array as JSON: ``format_scalar`` of each exact value
    (``scalars.fractions``) or float."""
    if hasattr(x, "tolist"):
        x = scalars.fractions(x).tolist()
    if isinstance(x, list):
        return [_value(v) for v in x]
    return scalars.format_scalar(x)


def _rows(ws):
    return [
        [r.name, r.passed, repr(r.residual), list(r.worst_index or ()), r.detail]
        for r in run_checks(ws, seed=SEED)
    ]


def _classes(ws):
    out = {}
    for view in (ws.g, ws.gt):
        rep = view.classification
        out[view.role] = {
            "membership": rep.membership,
            "residuals": {k: repr(v) for k, v in rep.residuals.items()},
        }
    return out


def _sectional(ws):
    out = {}
    for view in (ws.g, ws.gt):
        planes = sample_planes(ws, view, SEED)
        try:
            kinds = [list(k) for k in section_type(planes, ws.s)]
        except DegeneratePlaneError as exc:
            kinds = f"DegeneratePlaneError: {exc}"
        values = sectional(planes, view.curv, view.shape, ws.s)
        out[view.role] = {
            "planes": len(planes),
            "k": _value(values.k),
            "k_svk": _value(values.k_svk),
            "k_formula": _value(values.formula),
            "types": kinds,
        }
    return out


def _commands(path: Path, mode: str):
    out = {}
    commands = {
        "validate": ["validate"],
        "classify-g": ["classify", "--metric", "g"],
        "classify-gtilde": ["classify", "--metric", "gtilde"],
        "report": ["report"],
        "curvature": ["curvature", "--plane", "0,1"],
    }
    for name, argv in commands.items():
        for as_json in (False, True):
            args = [*argv, str(path), "--mode", mode] + (["--json"] if as_json else [])
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(args)
            out[name + ("-json" if as_json else "")] = {
                "exit": code,
                "stdout": stdout.getvalue().replace(str(path), "MODEL"),
                "stderr": stderr.getvalue().replace(str(path), "MODEL"),
            }
    return out


def entries() -> list:
    """The dumped models: curated, boundary, then generated entries."""
    out = zoo.all_entries() + [zoo.builtin(n) for n in zoo.boundary_names()]
    return out + [zoo.random_structure(seed, n) for seed, n in GENERATED]


def dump(models) -> dict:
    """Every result on each zoo entry of ``models`` in both modes, keyed by
    ``<entry name>/<mode>``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for entry in models:
            path = Path(tmp) / f"{entry.name}.json"
            path.write_text(modelfile.dumps(entry.doc()))
            for mode in MODES:
                ws = entry.workspace(mode)
                out[f"{entry.name}/{mode}"] = {
                    "checks": _rows(ws),
                    "classes": _classes(ws),
                    "sectional": _sectional(ws),
                    "commands": _commands(path, mode),
                }
    return out


# the fields of a dumped check row after its name
ROW_FIELDS = ("passed", "residual", "worst", "detail")
NUMBER = re.compile(r"-?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf|nan)")


def _leaves(value, key=()):
    """(key, leaf) of every scalar of a dumped model, a check row keyed by
    its name and a field name, a sectional or list entry by its list's key."""
    if isinstance(value, dict):
        for k, v in sorted(value.items()):
            yield from _leaves(v, key + (k,))
    elif key == ("checks",):
        for row in value:
            for field, v in zip(ROW_FIELDS, row[1:]):
                yield key + (row[0], field), v
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, key)
    else:
        yield key, value


def _relative_change(old, new):
    """The largest relative change between the numbers of two leaves that
    differ only in their numbers, or None when they differ otherwise."""
    old_text, new_text = str(old), str(new)
    if NUMBER.sub("#", old_text) != NUMBER.sub("#", new_text):
        return None
    worst = 0.0
    for a, b in zip(NUMBER.findall(old_text), NUMBER.findall(new_text)):
        a, b = (float(Fraction(t)) if "/" in t else float(t) for t in (a, b))
        if a != b:
            scale = max(abs(a), abs(b))
            worst = max(worst, abs(a - b) / scale if math.isfinite(scale) else math.inf)
    return worst


def compare(old: dict, new: dict) -> list:
    """The lines that report, per mode, how the dump ``new`` differs from
    ``old``."""
    counts = {mode: Counter() for mode in MODES}
    largest = dict.fromkeys(MODES, 0.0)
    for model in sorted(set(old) | set(new)):
        mode = model.rsplit("/", 1)[1]
        if model not in old or model not in new:
            counts[mode][("<model " + ("added" if model in new else "removed") + ">",)] += 1
            continue
        a, b = list(_leaves(old[model])), list(_leaves(new[model]))
        if [k for k, _ in a] != [k for k, _ in b]:
            counts[mode][("<keys differ>",)] += 1
            continue
        for (key, u), (_, v) in zip(a, b):
            if u != v:
                counts[mode][key] += 1
                change = _relative_change(u, v)
                largest[mode] = max(largest[mode], math.inf if change is None else change)
    lines = []
    for mode in MODES:
        if not counts[mode]:
            lines.append(f"{mode}: identical")
            continue
        total = sum(counts[mode].values())
        lines.append(f"{mode}: {total} values differ under {len(counts[mode])} keys; "
                     f"largest relative change {largest[mode]:.3g}")
        lines += [f"  {'/'.join(map(str, key))}: {n}" for key, n in sorted(counts[mode].items())]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="the JSON file to write")
    ap.add_argument("--compare", metavar="OLD", help="a dump to compare the new one with")
    args = ap.parse_args(argv)
    out = dump(entries())
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        print("\n".join(compare(old, json.loads(json.dumps(out)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
