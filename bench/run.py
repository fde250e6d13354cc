"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload theta-2d-n128 --seed 0 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the environment record, every metric by name and
unit, and ``failed_ratio``.  The full record, with every repetition, goes
to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "cbfed" / "cli.py").is_file():
        print(f"error: no cbfed sources under {root / 'src'}", file=sys.stderr)
        return 2
    env = harness.environment(root)
    experiments = harness.WORKLOADS[args.workload]
    reference = harness.find_reference(harness.load_reference(), experiments, args.seed)
    try:
        record = harness.run_workload(
            root, experiments, args.seed, args.seconds, bool(args.trace), reference=reference
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = record["result"]

    for rep in record["reps"]:
        for problems in rep["problems"]:
            for problem in problems:
                print(f"failed ({rep['run_id']}): {problem}", file=sys.stderr)
    plain = [r for r in record["reps"] if not r["traced"]]
    print(json.dumps({"env": env}))
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(record['reps']) - len(plain)} traced repetitions, "
          f"{len(record['setups'])} set-up samples, "
          f"reference {'checked' if reference else 'not stored for this seed'}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':40s} {record['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} experiment runs failed)")

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "env": env, "failed_ratio": record["failed_ratio"], "result": result,
            "setups": record["setups"],
            "reps": [{k: v for k, v in r.items() if k not in ("experiments", "outputs")} for r in record["reps"]]}
    out_file.write_text(json.dumps(full, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
