"""Write every result bcontact computes on a fixed set of models to one
sorted JSON file, so that two checkouts can be compared with ``diff``.

    PYTHONPATH=src python scripts/dump_results.py OUT.json

Run it from the root of each checkout, then ``diff`` the two files.  The
models are the curated zoo, the boundary catalog and
``random_structure(seed, n)`` for seeds 0 and 3 and n = 1, 2 (dims 3 to 7).
For each model, in rational and in float mode, the file holds:

- every ``run_checks`` row: verdict, ``repr`` of the residual, worst index
  and detail, in suite order;
- the memberships and class residuals of g and g~;
- the sampled sectional values of g and g~ (``sectional`` of R and of R^D,
  and ``svk_sectional_formula``) and the section type of every sampled plane;
- the output and exit code of the ``validate``, ``classify`` (g, gtilde),
  ``report`` and ``curvature --plane 0,1`` commands, as text and as JSON.

Float values are written with ``repr``, so a change of the last bit or of
the sign of a zero shows.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from bcontact import cli, modelfile, scalars, zoo
from bcontact.checks import run_checks, sample_planes
from bcontact.curvature import DegeneratePlaneError, section_type, sectional, svk_sectional_formula

MODES = (scalars.RATIONAL, scalars.FLOAT)
SEED = 0
GENERATED = [(seed, n) for seed in (0, 3) for n in (1, 2)]


def _value(x):
    """A scalar or an array as JSON: ``format_scalar`` of each entry."""
    if hasattr(x, "tolist"):
        x = x.tolist()
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
        out[view.role] = {
            "planes": len(planes),
            "k": _value(sectional(view.curv.r04, planes)),
            "k_svk": _value(sectional(view.curv.r04_svk, planes)),
            "k_formula": _value(svk_sectional_formula(planes, view.curv.r04, view.shape, ws.s)),
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    Path(argv[0]).write_text(json.dumps(dump(entries()), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
