"""Command-line front end.

Subcommands: validate, classify, verify, curvature, report.  Exit codes are
a stable contract for CI use: 0 on success, 1 when a check or identity
fails, 2 on unreadable or invalid input.  The default float tolerance can be
set through the BCONTACT_EPS environment variable and overridden per run
with --eps; it is fixed once per model, when the model is loaded.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import modelfile, scalars, zoo
from .checks import run_checks
from .curvature import DegeneratePlaneError, PlaneStack, pair_symmetries, section_type, sectional
from .modelfile import ModelFileError
from .pipeline import Workspace
from .scalars import FLOAT, RATIONAL
from .structure import ALL_FLAGS, CheckResult

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _checked(parse, check):
    """An argparse type: ``parse`` the text, then ``check`` the value; a
    rejected value, or non-ASCII text, is reported against its flag, with
    exit code 2 (``int`` and ``float`` read the digits of any script)."""

    def convert(text: str):
        if not text.isascii():
            raise argparse.ArgumentTypeError(f"non-ASCII character in {text!r}")
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
    doc, s = modelfile.load_model(path, mode, eps)
    return doc, Workspace(s)


def _fmt(x) -> str:
    return scalars.format_scalar(x)


def _json_safe(x):
    """``x`` with each non-finite float spelt "inf", "-inf" or "nan": JSON
    (RFC 8259) has no number for them."""
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else "inf" if x > 0 else "-inf"
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_json_safe(v) for v in x]
    return x


def _print_json(payload) -> None:
    """Print the output of a --json command: an exact scalar as its canonical
    string, a non-finite float as "inf", "-inf" or "nan"."""
    print(json.dumps(_json_safe(payload), indent=2, default=_fmt, allow_nan=False))


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
        _print_json(payload)
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
        _print_json(payload)
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
    # a name and the call that builds its Workspace: each model is built in
    # its turn and dropped once its rows are made, so one is held at a time
    if args.zoo:
        entries = zoo.all_entries()
        if args.seed is not None:
            entries += [zoo.random_structure(args.seed + n - 1, n) for n in (1, 2)]
        targets = [(e.name, functools.partial(e.workspace, args.mode, args.eps)) for e in entries]
    elif args.path:
        doc, ws = _load_workspace(args.path, args.mode, args.eps)
        targets = [(doc.get("name", args.path), lambda: ws)]
    else:
        print("verify needs a model file or --zoo", file=sys.stderr)
        return EXIT_INPUT_ERROR

    all_ok = True
    json_rows = []
    for name, build in sorted(targets, key=lambda t: t[0]):
        ok, lines = _verify_one(name, build(), args.seed or 0, args.json)
        all_ok = all_ok and ok
        if args.json:
            json_rows.extend(lines)
        else:
            for line in lines:
                print(line)
    if args.json:
        _print_json({"passed": all_ok, "results": json_rows})
    elif not all_ok:
        print("verification FAILED", file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _parse_plane(args, ws: Workspace):
    """The two vectors spanning the plane of --plane or --plane-vectors, or
    None when neither is given."""
    if args.plane:
        try:
            # no index of non-ASCII text: int() reads the digits of any script
            i, j = (int(t) for t in args.plane.split(",") if args.plane.isascii())
        except ValueError:
            raise ModelFileError("--plane expects two comma-separated indices")
        dim = ws.s.dim
        if not (0 <= i < dim and 0 <= j < dim and i != j):
            raise ModelFileError(f"--plane indices must be distinct and < {dim}")
        basis = scalars.eye(dim, ws.s.mode)
        return basis[i], basis[j]
    if args.plane_vectors:
        try:
            xs, ys = args.plane_vectors.split(";")
            x = scalars.array([t.strip() for t in xs.split(",")], ws.s.mode)
            y = scalars.array([t.strip() for t in ys.split(",")], ws.s.mode)
        except Exception as exc:
            raise ModelFileError(f"bad --plane-vectors: {exc}")
        if x.shape != (ws.s.dim,) or y.shape != (ws.s.dim,):
            raise ModelFileError(f"--plane-vectors needs two vectors of {ws.s.dim} entries")
        return x, y
    return None


def cmd_curvature(args) -> int:
    doc, ws = _load_workspace(args.path, args.mode, args.eps)
    if _invalid(ws):
        return EXIT_CHECK_FAILED
    payload = {"model": doc.get("name", args.path), "scalars": {}}
    rd = ws.batch.curv.r04_svk
    symmetries = {k: scalars.zero_rows([a], ws.s.eps, rd, locate=False) for k, a in pair_symmetries(rd).items()}
    for index, view in enumerate((ws.g, ws.gt)):
        tag = view.role
        payload["scalars"][f"tau[{tag}]"] = view.curv.tau
        payload["scalars"][f"tau_svk[{tag}]"] = view.curv.tau_svk
        payload["scalars"][f"rho(xi,xi)[{tag}]"] = view.rho_xi_xi
        payload.setdefault("svk_curvature_symmetries", {})[tag] = {
            k: rows[index][0] for k, rows in symmetries.items()
        }

    plane = _parse_plane(args, ws)
    if plane is not None:
        # a plane degenerate for g raises here; one degenerate for g~ alone
        # is reported in the loop
        planes = PlaneStack.of(ws.g.metric, [plane], ws.s.eps)
        [(kind, ortho)] = section_type(planes, ws.s)
        payload["plane"] = {"type": kind, "orthogonal_to_xi": ortho}
        for view in (ws.g, ws.gt):
            tag = view.role
            if view is ws.gt:
                try:
                    planes = PlaneStack.of(view.metric, [plane], ws.s.eps)
                except DegeneratePlaneError:
                    payload["plane"][f"k[{tag}]"] = "degenerate"
                    continue
            values = sectional(planes, view.curv, view.shape, ws.s)
            (k_base,), (k_svk,), (k_formula,) = values.k, values.k_svk, values.formula
            payload["plane"][f"k[{tag}]"] = k_base
            payload["plane"][f"k_svk[{tag}]"] = k_svk
            payload["plane"][f"relation_residual[{tag}]"] = scalars.residual(k_svk, k_formula)

    if args.json:
        _print_json(payload)
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
        _print_json(payload)
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
    target = p.add_mutually_exclusive_group()
    target.add_argument("path", nargs="?")
    target.add_argument("--zoo", action="store_true", help="verify every builtin entry")
    p.add_argument("--seed", type=_checked(int, _nonnegative), default=None,
                   help="seed for sampled planes and, with --zoo, two extra "
                   "generated entries")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("curvature", help="curvature scalars and sectional values")
    p.add_argument("path")
    section = p.add_mutually_exclusive_group()
    section.add_argument("--plane", help="two basis indices i,j spanning a section")
    section.add_argument("--plane-vectors", help="'x1,..,xn;y1,..,yn' spanning a section")
    _add_common(p)
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("report", help="validation + classification summary")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(fn=cmd_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing keeps no
    state in it, each call gets a namespace of its own."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args.eps = scalars.eps_or_env(args.eps)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.fn(args)
    except (ModelFileError, scalars.DigitLimitError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DegeneratePlaneError as exc:
        print(f"degenerate plane: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ArithmeticError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
