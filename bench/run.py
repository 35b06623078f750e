"""bcontact benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
The benchmark is a single-threaded closed loop: one client issues the next
operation only after the previous one returned, like a CI job or a
researcher at a shell.  A *pass* runs every operation of the workload once,
in a fresh interpreter (``worker.py``), so each pass pays the program's
warm-up costs as a CLI run does and no memo can carry over.  Passes repeat
until ``--seconds`` have been measured, at least one pass (or, traced, one
untraced and one traced pass).

Workloads; --seed picks the generated entries random_structure(seed, n):
  verify-zoo-rational  Workspace + run_checks per model, rational: the 11
                       curated entries and n = 1, 2 (dims 3, 5, 7)
  verify-float         the same in float mode, n = 1..5 (dims 3 to 11)
  query-rational       in-process ``bcontact.cli.main`` on model files written
                       at set-up: validate, classify --metric g / gtilde,
                       report, curvature --plane 0,1 per model; the dim-3 and
                       three dim-5 curated entries and n = 1, 2

Every operation passes a correctness gate.  It fails when it raises or its
CLI call exits non-zero, when a check fails, when a rational residual is not
exactly 0.0, when a check name the seed commit produced for the model is
missing (``data/seed_checks.json``), when a curated entry's membership
differs from its frozen labels, or when a generated entry's membership
differs between rational and float mode (reference computed once per run,
untimed, up to dim 5).  Failed operations stay in the timing samples.

Times are reference seconds (see ``speed.py``): measured wall time scaled to
a fixed machine speed, which removes the drift of a shared CPU.  The detail
line gives raw seconds next to them.  End-to-end metrics, with --trace 0:
  setup_s          spawn of a pass's interpreter to the end of its set-up
                   (import, entry generation, model-file writing); median
                   over at least five set-ups
  wall_s           all operations of one pass; median over passes
  model_s.dim5     every operation of the workload on one dim-5 model;
                   median over models and passes
  peak_rss_mb      peak resident memory of a pass's process; median
The per-model times at the other dimensions stay in the detail line: one
run holds too few of them to be steady.  On a shared 2-CPU VM their spread
over ten seeds reached 14% (dim 3) and 9% (dim 7) on verify-zoo-rational,
against at most 6% for the metrics above.
With --trace 1 the per-layer metrics of ``tracer.py`` come from the traced
passes (set-up included): self seconds per module function, exact call
counts, the inclusive Workspace build time by dimension, and
trace.overhead_s, the traced minus the untraced wall_s of the same run.
The lines before the result give the environment stamp, the per-operation
medians by kind and dimension (verify_s, classify_s, report_s) with sample
counts and error_rate, and the per-entry Workspace/check-suite table (raw
seconds).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
sys.path.insert(0, str(BENCH_DIR))

from tracer import CHECK_FAMILIES  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # one run must end within 180 s
# dimensions every workload reaches; the workloads' largest ones differ
# (7 in verify-zoo-rational, 11 in verify-float, 5 in query-rational)
DIMS = (3, 5)

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("model_s.dim5", "s"),
              ("peak_rss_mb", "MB")]

# spans whose summed self time is a per-layer metric, named "<span>.s"
SELF_TIME = [
    "scalars.einsum", "scalars.compare", "tensor.metric",
    "liegroup.levi_civita", "liegroup.d_eta",
    "structure.validate", "structure.fundamental", "structure.lee",
    "structure.divergences", "structure.classify", "structure.phi_potential",
    "structure.assoc_fundamental",
    "svk.connection", "svk.potential_torsion", "svk.covariant_phi",
    "svk.pair_from_potential",
    "hv.shape_operator",
    "curvature.data", "curvature.svk_formula", "curvature.sectional",
    "curvature.svk_sectional_formula",
    *(f"checks.{f}" for f in CHECK_FAMILIES),
    "modelfile.load", "modelfile.to_structure",
    "zoo.random_structure",
]
CALLS = {
    "scalars.einsum.calls": "scalars.einsum",
    "scalars.compare.calls": "scalars.compare",
    "curvature.sectional.calls": "curvature.sectional",
}


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [(name, "count", "lower") for name in CALLS]
    spec.insert(1, ("scalars.einsum.multi.calls", "count", "lower"))
    spec += [(f"{span}.s", "s", "lower") for span in SELF_TIME]
    spec += [(f"pipeline.workspace.s.dim{d}", "s", "lower") for d in DIMS]
    spec += [
        ("pipeline.workspace.s.largest", "s", "lower"),
        ("checks.results", "count", "higher"),
        ("checks.sectional.plane_accept_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


class BenchError(RuntimeError):
    pass


def spawn(root: Path, args: list, deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return its spawn time and JSON result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=root, env=env,
            capture_output=True, text=True, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"worker {args} exceeded the run budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return t0, json.loads(lines[-1])


def setup_time(out: dict, spawned: float) -> tuple[float, float]:
    """(reference, raw) seconds from spawning a worker to its set-up end."""
    raw = out["setup_done"] - spawned - out["setup_probe_s"]
    return raw * out["setup_factor"], raw


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def stamp(root: Path, args, numpy_version: str, passes: list) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "bcontact").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "mode": WORKLOADS[args.workload][0],
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        # machine speed: the probe takes speed.REFERENCE_PROBE_S at reference
        "probe_ms": 1000 * median([p["probe_s"] for p in passes]),
    }


def gate(passes: list, ref: dict) -> list:
    """Attach reference-membership problems; return every failed operation."""
    failed = []
    for p in passes:
        for op in p["ops"]:
            expected = ref["membership"].get(op["model"]) if op["generated"] else None
            for role, flags in op.get("membership", {}).items():
                if expected is not None and flags != expected[role]:
                    op["problems"].append(
                        f"{role} membership {flags} != {ref['mode']} {expected[role]}"
                    )
            if op["problems"]:
                failed.append(op)
    return failed


def model_times(passes: list) -> dict:
    """dim -> seconds per (pass, model): every operation of the workload on it."""
    out = defaultdict(list)
    for p in passes:
        per_model = defaultdict(float)
        dims = {}
        for op in p["ops"]:
            per_model[op["model"]] += op["seconds"]
            dims[op["model"]] = op["dim"]
        for model, seconds in per_model.items():
            out[dims[model]].append(seconds)
    return out


def end_to_end(passes: list, setups: list) -> dict:
    by_dim = model_times(passes)
    values = {
        "setup_s": median([ref for ref, _ in setups]),
        "wall_s": median([sum(op["seconds"] for op in p["ops"]) for p in passes]),
        "model_s.dim5": median(by_dim[5]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layers(summary: dict, largest: int, factor: float) -> dict:
    """Per-layer values of one traced pass; ``factor`` turns its raw span
    seconds into reference seconds."""
    calls, self_s = summary["calls"], summary["self_s"]
    inclusive = summary["inclusive"]
    values = {name: calls.get(span, 0) for name, span in CALLS.items()}
    values["scalars.einsum.multi.calls"] = summary["multi_einsum"]
    for span in SELF_TIME:
        values[f"{span}.s"] = factor * self_s.get(span, 0.0)

    # inclusive build time of one Workspace, the quantity of the ROADMAP table
    def build(dim):
        return factor * median(inclusive.get(f"pipeline.workspace.dim{dim}", []))

    for d in DIMS:
        values[f"pipeline.workspace.s.dim{d}"] = build(d)
    values["pipeline.workspace.s.largest"] = build(largest)
    values["checks.results"] = sum(
        summary["items"].get(f"checks.{f}", 0) for f in CHECK_FAMILIES
    )
    attempts = summary["plane_attempts"]
    values["checks.sectional.plane_accept_ratio"] = (
        summary["plane_accepted"] / attempts if attempts else 0.0
    )
    return values


def per_layer(traced: list, untraced: list) -> dict:
    largest = max(op["dim"] for p in traced for op in p["ops"])
    rows = [layers(p["trace"], largest, p["probe_factor"]) for p in traced]
    wall = lambda ps: median([sum(op["seconds"] for op in p["ops"]) for p in ps])
    out = {}
    for name, unit, _ in per_layer_spec():
        if name == "trace.overhead_s":
            value = wall(traced) - wall(untraced)
        elif unit == "count":  # exact counts: every traced pass gives the same
            value = statistics.median_low([r[name] for r in rows])
        else:
            value = median([r[name] for r in rows])
        out[name] = {"value": value, "unit": unit}
    return out


def detail(passes: list, setups: list, failed: list, attempted: int) -> dict:
    """Medians by operation kind and dimension, with sample counts; reference
    seconds (see speed.py) and raw seconds."""
    samples = defaultdict(list)
    for p in passes:
        samples["wall_s"].append((sum(op["seconds"] for op in p["ops"]),
                                  sum(op["raw_s"] for op in p["ops"])))
        for op in p["ops"]:
            if op["kind"] in ("verify", "classify", "report"):
                samples[f"{op['kind']}_s.dim{op['dim']}"].append(
                    (op["seconds"], op["raw_s"]))
    samples["setup_s"] = setups
    out = {
        k: {"median": median([ref for ref, _ in v]),
            "raw_median": median([raw for _, raw in v]), "n": len(v), "unit": "s"}
        for k, v in sorted(samples.items()) if v
    }
    out["error_rate"] = {"value": len(failed) / attempted, "failed": len(failed),
                         "attempted": attempted}
    return out


def entry_table(passes: list) -> list:
    """Median Workspace build and check-suite time per model (verify only)."""
    split = defaultdict(lambda: ([], []))
    dims = {}
    for p in passes:
        for op in p["ops"]:
            if "workspace_s" in op:
                split[op["model"]][0].append(op["workspace_s"])
                split[op["model"]][1].append(op["checks_s"])
                dims[op["model"]] = op["dim"]
    return [
        f"entry {model:<14} dim {dims[model]:>2}  workspace {median(ws):9.4f} s"
        f"  run_checks {median(ck):9.4f} s  (n={len(ws)})"
        for model, (ws, ck) in sorted(split.items(), key=lambda kv: (dims[kv[0]], kv[0]))
    ]


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "bcontact" / "__init__.py").is_file():
        print("bench: no program at src/bcontact; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    _, ref = spawn(root, common + ["--reference"], deadline)

    passes, setups = [], []
    start = time.monotonic()
    traced_next = False
    while True:
        t0, out = spawn(root, common + ["--trace", str(int(traced_next))], deadline)
        out["traced"] = traced_next
        passes.append(out)
        if not traced_next:
            setups.append(setup_time(out, t0))
        kinds = {p["traced"] for p in passes}
        enough = kinds == ({False, True} if args.trace else {False})
        now = time.monotonic()
        last = now - t0
        if enough and (now - start >= args.seconds or now + last > deadline):
            break
        traced_next = bool(args.trace) and not traced_next
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            t0, out = spawn(root, common + ["--setup-only"], deadline)
            setups.append(setup_time(out, t0))

    failed = gate(passes, ref)
    attempted = sum(len(p["ops"]) for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, setups)

    print("stamp " + json.dumps(stamp(root, args, ref["numpy"], passes)))
    print("detail " + json.dumps(detail(untraced, setups, failed, attempted)))
    for line in entry_table(untraced):
        print(line)
    for op in failed[:20]:
        print(f"FAILED {op['kind']} {op['model']}: {'; '.join(op['problems'])}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
