"""Regenerate reference.json: the outputs of every workload at seeds 0 and 1.

Usage, from the root of a checkout:

    python3 bench/make_reference.py

Each workload runs once per seed through the harness.  The recorded
``norm_H`` column and the ``report`` and ``extra`` blocks of each
experiment's ``report.json`` are stored; later runs at those seeds must
reproduce them to ``harness.RTOL``.  Regenerate
only for a change that is meant to alter the outputs, and say so in it.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import harness

SEEDS = (0, 1)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    entries = []
    for name, experiments in harness.WORKLOADS.items():
        for seed in SEEDS:
            record = harness.run_workload(root, experiments, seed, seconds=0, trace=False,
                                          setup_spawns=0)
            (rep,) = record["reps"]
            if not record["result"]["correct"]:
                print(f"{name} seed {seed} failed: {rep['problems']}", file=sys.stderr)
                return 1
            entries.append({
                "workload": name,
                "seed": seed,
                "experiments": [
                    {"experiment": exp, "overrides": list(overrides), **out}
                    for (exp, overrides), out in zip(experiments, rep["outputs"])
                ],
            })
            print(f"{name} seed {seed}: wall {rep['wall_s']:.2f} s")
    out = {"threads": harness.thread_env(), "entries": entries}
    (harness.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
