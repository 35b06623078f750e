"""Regenerate ``data/seed_checks.json``, the check names the gate requires.

The gate fails an operation when a check name that the seed commit produced
for that model is missing.  Run this from the root of a checkout of the seed
commit (about a minute):

    python3 bench/freeze.py

It records, from rational runs of ``run_checks``:
  curated      the exact name list of every curated zoo entry;
  common       the names every model produced (curated and generated);
  conditional  names produced only by some models, with the membership flag
               that decides them; the rule is asserted on every model run.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "data" / "seed_checks.json"

# check_svk_naturality yields this result only when the g-classification has U2
CONDITIONAL = {"phib-coincidence-on-u2": ["g", "U2"]}


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from bcontact import zoo
    from bcontact.checks import run_checks

    curated = {}
    runs = []
    for entry in zoo.all_entries():
        curated[entry.name] = [r.name for r in run_checks(entry.workspace("rational"))]
        runs.append((entry, "rational", 0, curated[entry.name]))
    for seed in (0, 1, 2):
        for n, mode in ((1, "rational"), (2, "rational"), (3, "float"),
                        (4, "float"), (5, "float")):
            entry = zoo.random_structure(seed, n)
            names = [r.name for r in run_checks(entry.workspace(mode), seed=seed)]
            runs.append((entry, mode, seed, names))

    common = set.intersection(*(set(names) for *_, names in runs))
    for entry, mode, _, names in runs:
        ws = entry.workspace("float")
        for name, (role, flag) in CONDITIONAL.items():
            has_flag = ws.view(role).classification.membership[flag]
            if (name in names) != has_flag:
                raise SystemExit(f"conditional rule for {name} fails on {entry.name}")
        extra = set(names) - common - set(CONDITIONAL)
        if extra:
            raise SystemExit(f"{entry.name} ({mode}) has unexplained names {extra}")
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(
        {"curated": curated, "common": sorted(common), "conditional": CONDITIONAL},
        indent=1,
    ) + "\n")
    print(f"wrote {OUT}: {len(curated)} curated entries, {len(common)} common names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
