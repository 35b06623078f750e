"""Command-line front end.

Subcommands: validate, classify, verify, curvature, report.  Exit codes are
a stable contract for CI use: 0 on success, 1 when a check or identity
fails, 2 on unreadable or invalid input.  The default float tolerance can be
set through the BCONTACT_EPS environment variable and overridden per run
with --eps; it is fixed once per model, when the model is loaded.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import modelfile, scalars, zoo
from .checks import run_checks
from .curvature import (
    DegeneratePlaneError,
    SectionPlane,
    pair_symmetries,
    section_type,
    sectional,
    svk_sectional_formula,
)
from .modelfile import ModelFileError
from .pipeline import Workspace
from .scalars import FLOAT, RATIONAL
from .structure import ALL_FLAGS, CheckResult

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _checked(parse, check):
    """An argparse type: ``parse`` the text, then ``check`` the value; a
    rejected value is reported against its flag, with exit code 2."""

    def convert(text: str):
        value = parse(text)
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    convert.__name__ = parse.__name__  # argparse's "invalid <type> value"
    return convert


def _nonnegative(n: int) -> int:
    if n < 0:
        raise ValueError(f"must be >= 0, got {n}")
    return n


def _add_common(p: argparse.ArgumentParser):
    p.add_argument(
        "--mode",
        choices=[RATIONAL, FLOAT],
        default=RATIONAL,
        help="scalar backend (default: rational, exact)",
    )
    p.add_argument(
        "--eps",
        type=_checked(float, scalars.check_eps),
        help="absolute tolerance for float mode (default from BCONTACT_EPS or 1e-9)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _load_workspace(path: str, mode: str, eps: float):
    doc = modelfile.load_path(path)
    return doc, Workspace(modelfile.to_structure(doc, mode, eps))


def _fmt(x) -> str:
    return scalars.format_scalar(x)


def _invalid(ws: Workspace) -> bool:
    """Name the broken axioms of an invalid model on stderr.  Nothing derived
    from such a model is meaningful, so callers stop when this is true."""
    if ws.validation.passed:
        return False
    print("structure validation failed:", file=sys.stderr)
    for c in ws.validation.failures():
        print(f"  {c}", file=sys.stderr)
    return True


def cmd_validate(args) -> int:
    doc, ws = _load_workspace(args.path, args.mode, args.eps)
    report = ws.validation
    if args.json:
        payload = {
            "model": doc.get("name", args.path),
            "passed": report.passed,
            "checks": [
                {
                    "identity": c.name,
                    "passed": c.passed,
                    "residual": c.residual,
                    "worst_index": list(c.worst_index) if c.worst_index else None,
                }
                for c in report.checks
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for c in report.checks:
            print(str(c))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    doc, ws = _load_workspace(args.path, args.mode, args.eps)
    if _invalid(ws):
        return EXIT_CHECK_FAILED
    view = ws.view(args.metric)
    rep = view.classification
    if args.json:
        payload = {
            "model": doc.get("name", args.path),
            "metric": rep.metric_role,
            "membership": rep.membership,
            "residuals": rep.residuals,
            "scalars": {k: _fmt(v) for k, v in rep.scalars.items()},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"classification with respect to {rep.metric_role}:")
        for flag in ALL_FLAGS:
            mark = "yes" if rep.membership[flag] else "no"
            print(f"  {flag}: {mark}")
        for k, v in rep.scalars.items():
            print(f"  {k} = {_fmt(v)}")
    return EXIT_OK


def _verify_one(name: str, ws: Workspace, seed: int, as_json: bool) -> tuple[bool, list]:
    try:
        results = run_checks(ws, seed=seed)
    except ArithmeticError as exc:
        # the model is valid but a derived quantity could not be formed
        results = [CheckResult("structure-invariants", False, 1.0, detail=str(exc))]
    ok = all(r.passed for r in results)
    lines = []
    for r in results:
        if as_json:
            lines.append(
                {
                    "model": name,
                    "check": r.name,
                    "passed": r.passed,
                    "residual": r.residual,
                    "detail": r.detail,
                }
            )
        else:
            lines.append(f"{name}: {r.line()}")
    return ok, lines


def cmd_verify(args) -> int:
    if args.zoo:
        entries = zoo.all_entries()
        if args.seed is not None:
            entries += [zoo.random_structure(args.seed + n - 1, n) for n in (1, 2)]
        targets = [(e.name, e.workspace(args.mode, args.eps)) for e in entries]
    elif args.path:
        doc, ws = _load_workspace(args.path, args.mode, args.eps)
        targets = [(doc.get("name", args.path), ws)]
    else:
        print("verify needs a model file or --zoo", file=sys.stderr)
        return EXIT_INPUT_ERROR

    all_ok = True
    json_rows = []
    for name, ws in sorted(targets, key=lambda t: t[0]):
        ok, lines = _verify_one(name, ws, args.seed or 0, args.json)
        all_ok = all_ok and ok
        if args.json:
            json_rows.extend(lines)
        else:
            for line in lines:
                print(line)
    if args.json:
        print(json.dumps({"passed": all_ok, "results": json_rows}, indent=2))
    elif not all_ok:
        print("verification FAILED", file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _parse_plane(args, ws: Workspace):
    if args.plane:
        try:
            i, j = (int(t) for t in args.plane.split(","))
        except ValueError:
            raise ModelFileError("--plane expects two comma-separated indices")
        dim = ws.s.dim
        if not (0 <= i < dim and 0 <= j < dim and i != j):
            raise ModelFileError(f"--plane indices must be distinct and < {dim}")
        basis = scalars.eye(dim, ws.s.mode)
        return SectionPlane(basis[i], basis[j])
    if args.plane_vectors:
        try:
            xs, ys = args.plane_vectors.split(";")
            x = scalars.array([t.strip() for t in xs.split(",")], ws.s.mode)
            y = scalars.array([t.strip() for t in ys.split(",")], ws.s.mode)
        except Exception as exc:
            raise ModelFileError(f"bad --plane-vectors: {exc}")
        if x.shape != (ws.s.dim,) or y.shape != (ws.s.dim,):
            raise ModelFileError(f"--plane-vectors needs two vectors of {ws.s.dim} entries")
        return SectionPlane(x, y)
    return None


def cmd_curvature(args) -> int:
    doc, ws = _load_workspace(args.path, args.mode, args.eps)
    if _invalid(ws):
        return EXIT_CHECK_FAILED
    payload = {"model": doc.get("name", args.path), "scalars": {}}
    rows = []
    for view in (ws.g, ws.gt):
        tag = view.role
        payload["scalars"][f"tau[{tag}]"] = view.curv.tau
        payload["scalars"][f"tau_svk[{tag}]"] = view.curv.tau_svk
        payload["scalars"][f"rho(xi,xi)[{tag}]"] = view.rho_xi_xi
        rd = view.curv.r04_svk
        payload.setdefault("svk_curvature_symmetries", {})[tag] = {
            k: scalars.is_zero(a, ws.s.eps, rd) for k, a in pair_symmetries(rd).items()
        }

    plane = _parse_plane(args, ws)
    if plane is not None:
        kind, ortho = section_type(plane, ws.s, ws.s.metric)
        payload["plane"] = {"type": kind, "orthogonal_to_xi": ortho}
        for view in (ws.g, ws.gt):
            tag = view.role
            try:
                k_base = sectional(view.curv.r04, view.metric, plane, ws.s.eps)
                k_svk = sectional(view.curv.r04_svk, view.metric, plane, ws.s.eps)
                k_formula = svk_sectional_formula(
                    plane, view.curv.r04, view.shape, ws.s, view.metric
                )
            except DegeneratePlaneError:
                payload["plane"][f"k[{tag}]"] = "degenerate"
                continue
            payload["plane"][f"k[{tag}]"] = k_base
            payload["plane"][f"k_svk[{tag}]"] = k_svk
            payload["plane"][f"relation_residual[{tag}]"] = scalars.residual(k_svk, k_formula)

    if args.json:
        out = json.loads(json.dumps(payload, default=_fmt))
        print(json.dumps(out, indent=2))
    else:
        for k, v in payload["scalars"].items():
            print(f"{k} = {_fmt(v)}")
        for tag, measured in payload.get("svk_curvature_symmetries", {}).items():
            flags = ", ".join(f"{k}={v}" for k, v in measured.items())
            print(f"svk curvature symmetries [{tag}]: {flags}")
        if "plane" in payload:
            for k, v in payload["plane"].items():
                print(f"plane {k} = {v if isinstance(v, (str, bool)) else _fmt(v)}")
    return EXIT_OK


def cmd_report(args) -> int:
    doc, ws = _load_workspace(args.path, args.mode, args.eps)
    if _invalid(ws):
        return EXIT_CHECK_FAILED
    if args.json:
        payload = {
            "model": doc.get("name", args.path),
            "valid": ws.validation.passed,
            "classification": {
                view.role: {
                    "membership": view.classification.membership,
                    "scalars": {
                        k: _fmt(v) for k, v in view.classification.scalars.items()
                    },
                }
                for view in (ws.g, ws.gt)
            },
            "scalars": {k: v for k, v in ws.reported_scalars().items()},
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"model: {doc.get('name', args.path)} (dim {ws.s.dim})")
    print(f"valid: {ws.validation.passed}")
    for view in (ws.g, ws.gt):
        rep = view.classification
        yes = [f for f in ALL_FLAGS if rep.membership[f]]
        print(f"classes[{view.role}]: {', '.join(yes) if yes else '(none)'}")
        for k, v in rep.scalars.items():
            print(f"  {k} = {_fmt(v)}")
    for k, v in sorted(ws.reported_scalars().items()):
        print(f"{k} = {v:.12g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcontact",
        description="Validate, classify and verify almost contact B-metric "
        "models and their adapted connection pair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the structure axioms of a model file")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="basic-class membership report")
    p.add_argument("path")
    p.add_argument("--metric", choices=["g", "gtilde"], default="g")
    _add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run the full identity suite")
    p.add_argument("path", nargs="?")
    p.add_argument("--zoo", action="store_true", help="verify every builtin entry")
    p.add_argument("--seed", type=_checked(int, _nonnegative), default=None,
                   help="seed for sampled planes and, with --zoo, two extra "
                   "generated entries")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("curvature", help="curvature scalars and sectional values")
    p.add_argument("path")
    p.add_argument("--plane", help="two basis indices i,j spanning a section")
    p.add_argument("--plane-vectors", help="'x1,..,xn;y1,..,yn' spanning a section")
    _add_common(p)
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("report", help="validation + classification summary")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.eps = scalars.eps_or_env(args.eps)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.fn(args)
    except ModelFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DegeneratePlaneError as exc:
        print(f"degenerate plane: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except zoo.UnknownEntryError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ArithmeticError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
