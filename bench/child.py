"""One benchmark process: set up, run the workload's experiments, report.

Usage: python3 child.py JOB.json

The job names the experiments (subcommand plus ``--set`` overrides), the
seed, the artifact directory and whether to trace.  The process writes
``result.json`` (and ``spans.json`` when traced) next to the job file.
Set-up runs from process start to "ready": imports, config merge and grid
construction.  The measured part runs from "ready" until the last
experiment has written its artifacts.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def main(job_path: str) -> int:
    job_file = Path(job_path)
    job = json.loads(job_file.read_text())

    import cbfed
    from cbfed import cli, spectral

    src = Path(job["src"]).resolve()
    if src not in Path(cbfed.__file__).resolve().parents:
        raise RuntimeError(f"cbfed was imported from {cbfed.__file__}, not from {src}")
    configs = [
        cli.load_effective_config(
            experiment, None, list(overrides) + [f"seed={job['seed']}"], job["artifacts"]
        )
        for experiment, overrides in job["experiments"]
    ]
    for cfg in configs:
        g = cfg["grid"]
        spectral.TorusGrid(d=int(g["d"]), N=int(g["N"]), L=float(g["L"]))
    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer(job["run_id"])
        install(tracer)
    ready = time.monotonic()
    result = {"run_id": job["run_id"], "setup_s": ready - job["spawned"], "experiments": []}
    if not job["setup_only"]:
        cpu0 = _cpu_s()
        for cfg in configs:
            try:
                outdir, _ = cli.run(cfg)
                result["experiments"].append({"ok": True, "outdir": str(outdir)})
            except Exception as exc:  # a failed experiment is a measured outcome
                result["experiments"].append({
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                })
        result["wall_s"] = time.monotonic() - ready
        result["cpu_s"] = _cpu_s() - cpu0
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(job_file.with_name("spans.json"))
    job_file.with_name("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
