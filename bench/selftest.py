"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--workload NAME ...] [--seed N]

Run from the root of a checkout.  It asserts that
  * ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
    produces, with the same units;
  * two traced passes with one seed give identical exact counts
    (einsum calls, multi-operand einsum calls, sectional calls, check
    results), so a claim may rest on them;
  * the held-out seed gives different generated inputs than ``--seed``.

HELD_OUT_SEED is reserved for confirming performance claims: it is not used
while a change is written or tuned.  The default workload is verify-float,
whose traced pass takes a few seconds; the rational ones take about a minute
per pass.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import CALLS, END_TO_END, layers, per_layer_spec, spawn  # noqa: E402
from worker import WORKLOADS  # noqa: E402

HELD_OUT_SEED = 9001
EXACT_COUNTS = list(CALLS) + ["scalars.einsum.multi.calls", "checks.results"]


def check_spec(root: Path) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from worker.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != per_layer_spec():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_spec()")
    return problems


def check_counts(root: Path, workload: str, seed: int) -> list:
    args = ["--workload", workload, "--seed", str(seed), "--trace", "1"]
    rows = []
    for _ in range(2):
        _, out = spawn(root, args, time.monotonic() + 600)
        largest = max(op["dim"] for op in out["ops"])
        row = layers(out["trace"], largest, out["probe_factor"])
        rows.append({name: row[name] for name in EXACT_COUNTS})
    print(f"{workload} seed {seed}: {rows[0]}")
    if rows[0] != rows[1]:
        return [f"{workload}: counts differ between two traced passes: {rows}"]
    if not rows[0]["scalars.einsum.calls"]:
        return [f"{workload}: the tracer saw no einsum call"]
    return []


def check_held_out(root: Path, seed: int) -> list:
    sys.path.insert(0, str(root / "src"))
    from bcontact import zoo

    sizes = sorted({n for _, _, ns in WORKLOADS.values() for n in ns})
    same = [n for n in sizes
            if zoo.random_structure(seed, n).doc()["brackets"]
            == zoo.random_structure(HELD_OUT_SEED, n).doc()["brackets"]]
    if same:
        return [f"seeds {seed} and {HELD_OUT_SEED} generate the same entries for n={same}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if args.seed == HELD_OUT_SEED:
        ap.error(f"--seed must differ from the held-out seed {HELD_OUT_SEED}")
    problems = check_spec(root) + check_held_out(root, args.seed)
    for workload in args.workload or ["verify-float"]:
        problems += check_counts(root, workload, args.seed)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
