"""Closed-loop benchmark of the cbfed experiments.

A run repeats one workload for a fixed time budget.  Every repetition is a
fresh process (``child.py``) with a fresh artifact directory, which is
removed once its outputs have been checked.  The next repetition starts
only after the previous one has ended.  End-to-end metrics are medians over
the repetitions of an untraced run; per-layer metrics come from traced
repetitions, and their extra wall time is reported as the trace overhead.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from importlib import metadata
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent

# Each workload is a list of (subcommand, --set overrides); the seed is
# appended as ``seed=<n>``.  Why each one exists is in README.md.
WORKLOADS = {
    "theta-2d-n128": [
        ("stabilize-theta", [
            "grid.d=2", "grid.N=128", "params.r=5.0", "params.gamma=-0.1",
            "forcing.kind=random", "forcing.amplitude=0.5", "equilibrium.kind=solve",
            "constraint.kind=ball", "constraint.radius=1.0", "integrator.mode=project",
            "integrator.scheme=imex1", "integrator.dt=0.002", "integrator.T=0.2",
            "integrator.record_every=1",
        ]),
    ],
    "prop-3d-n16": [
        ("stabilize-proportional", [
            "grid.d=3", "grid.N=16", "params.gamma=-0.1",
            "mask.boxes=[[[0.785,6.28],[0.0,6.28],[0.0,6.28]]]", "controller.k_gain=60.0",
            "integrator.scheme=cnab2", "integrator.dt=0.002", "integrator.T=0.3",
            "integrator.record_every=10",
        ]),
    ],
    "galerkin-2d-n32": [
        ("stabilize-galerkin", ["integrator.T=1.0"]),
    ],
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# name -> unit.  A ".calls", ".self_s" or ".total_s" suffix reads that field
# of the span summary of the name before it; the rest are counters.
PER_LAYER = {
    "spectral.fft_base.calls": "count",
    "spectral.fft_base.self_s": "s",
    "spectral.oversample.calls": "count",
    "spectral.oversample.self_s": "s",
    "spectral.fine_to_coeffs.calls": "count",
    "spectral.fine_to_coeffs.self_s": "s",
    "spectral.leray.calls": "count",
    "spectral.leray.self_s": "s",
    "spectral.norm_Lp.calls": "count",
    "spectral.norm_Lp.self_s": "s",
    "spectral.gradient_physical.calls": "count",
    "spectral.gradient_physical.self_s": "s",
    "spectral.computed_mb": "MiB",
    "operators.power_damping.calls": "count",
    "operators.power_damping.self_s": "s",
    "operators.shifted_damping.calls": "count",
    "operators.convective.calls": "count",
    "operators.convective.self_s": "s",
    "timestep.simulate.total_s": "s",
    "timestep.simulate.self_s": "s",
    "timestep.steps": "count",
    "timestep.step_ms": "ms",
    "controllers.apply.calls": "count",
    "controllers.apply.self_s": "s",
    "controllers.theta_threshold.total_s": "s",
    "convex.project.calls": "count",
    "convex.project.self_s": "s",
    "convex.distance.calls": "count",
    "convex.distance.self_s": "s",
    "eigen.smallest_eigenvalue_Ak.total_s": "s",
    "eigen.apply_Ak.calls": "count",
    "eigen.apply_Ak.self_s": "s",
    "eigen.power_iters": "count",
    "stationary.solve_stationary.total_s": "s",
    "stationary.picard_iters": "count",
    "stationary.relax_halvings": "count",
    "galerkin.nonlinear_term.calls": "count",
    "galerkin.nonlinear_term.self_s": "s",
    "galerkin.quadratic_term.calls": "count",
    "galerkin.quadratic_term.self_s": "s",
    "galerkin.reduced_simulate.total_s": "s",
    "galerkin.rk4_steps": "count",
    "galerkin.assemble_reduction.total_s": "s",
    "galerkin.synthesize_gain.total_s": "s",
    "cli.run.self_s": "s",
    "cli.artifact_mb": "MiB",
    "trace.overhead_s": "s",
}

# Fresh processes per run used only to time set-up; repetitions add theirs.
SETUP_SPAWNS = 5
# Outputs may differ from the stored reference and between repetitions by
# roundoff only: BLAS thread counts change the last bits of reductions.
RTOL = 1e-9
CHILD_TIMEOUT_S = 160.0
MIB = 1024 * 1024


def thread_env() -> dict:
    """Thread settings for every child: one BLAS thread.

    Two OpenBLAS threads on two shared vCPUs made prop-3d-n16 no faster but
    three times as noisy from run to run, and spent 1.5x the CPU spinning.
    """
    return {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def environment(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = out.stdout.strip() if out.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "threads": thread_env(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------- outputs


def _norm_h(outdir: Path):
    path = outdir / "trajectory.csv"
    if not path.exists():
        return None
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    col = lines[0].split(",").index("norm_H")
    return [float(ln.split(",")[col]) for ln in lines[1:]]


def _differences(got, want, where: str) -> list:
    """Places where got and want differ beyond roundoff."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return [f"{where}: {got!r} is not a number"]
        if math.isclose(got, want, rel_tol=RTOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += _differences(g, w, f"{where}[{i}]")
        return out[:3]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        out = []
        for key in want:
            out += _differences(got[key], want[key], f"{where}.{key}")
        return out
    raise TypeError(f"unexpected reference value at {where}: {want!r}")


def certificate_problems(report: dict) -> list:
    """Certificate flags that are false, and Galerkin fits below the margin."""
    out = [f"{k} is false" for k, v in report.items() if k.endswith("_ok") and v is not True]
    if "sigma" in report:
        for key in ("decay_fit_reduced", "decay_fit_full"):
            if report[key] < report["sigma"]:
                out.append(f"{key}={report[key]:.6g} below sigma={report['sigma']:.6g}")
    return out


def load_reference() -> list:
    path = HERE / "reference.json"
    return json.loads(path.read_text())["entries"] if path.exists() else []


def find_reference(entries: list, experiments, seed: int):
    want = [[e, list(o)] for e, o in experiments]
    for entry in entries:
        if entry["seed"] == seed and [[x["experiment"], x["overrides"]]
                                      for x in entry["experiments"]] == want:
            keys = ("norm_H", "report", "extra")
            return [{k: x[k] for k in keys} for x in entry["experiments"]]
    return None


# ---------------------------------------------------------------- processes


def _spawn(root: Path, work: Path, experiments, seed: int, trace: bool, setup_only: bool,
           timeout: float) -> dict:
    run_id = uuid.uuid4().hex[:12]
    job = {
        "run_id": run_id, "src": str(root / "src"), "seed": seed,
        "experiments": [[e, list(o)] for e, o in experiments],
        "artifacts": str(work / "runs"), "trace": trace, "setup_only": setup_only,
    }
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work), **thread_env())
    job_file = work / "job.json"
    job["spawned"] = time.monotonic()
    job_file.write_text(json.dumps(job))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_file)],
            env=env, cwd=str(work), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        return {"run_id": run_id, "crash": f"timed out after {timeout:.0f} s"}
    result_file = work / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        return {"run_id": run_id,
                "crash": f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(result_file.read_text())


def _check(rep: dict, experiments, reference, first) -> tuple:
    """Problems per experiment, and the outputs to compare later reps against."""
    problems, outputs = [], []
    rows = rep.get("experiments") or [{"ok": False, "error": rep.get("crash")}] * len(experiments)
    for i, row in enumerate(rows):
        if not row["ok"]:
            problems.append([row["error"]])
            outputs.append(None)
            continue
        outdir = Path(row["outdir"])
        written = json.loads((outdir / "report.json").read_text())
        got = {"norm_H": _norm_h(outdir), "report": written["report"], "extra": written["extra"]}
        found = certificate_problems(got["report"])
        if reference is not None:
            found += _differences(got, reference[i], "reference")
        if first is not None and first[i] is not None:
            found += _differences(got, first[i], "first repetition")
        problems.append(found)
        outputs.append(got)
    return problems, outputs


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _layers(spans_file: Path, artifact_bytes: int) -> tuple:
    data = json.loads(spans_file.read_text())
    rows = tracer.summarize(data["names"], data["spans"])
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    extra = dict(data["counters"])
    sim = rows.get("timestep.simulate", zero)
    steps = rows.get("operators.shifted_convective", zero)["calls"]
    extra["timestep.steps"] = steps
    extra["timestep.step_ms"] = 1000.0 * sim["total_s"] / steps if steps else 0.0
    extra["spectral.computed_mb"] = extra.pop("spectral.computed_bytes", 0) / MIB
    extra["cli.artifact_mb"] = artifact_bytes / MIB
    values = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in zero:
            values[name] = rows.get(base, zero)[field]
        elif name != "trace.overhead_s":
            values[name] = extra.get(name, 0)
    return values, data


def run_workload(root: Path, experiments, seed: int, seconds: float, trace: bool,
                 setup_spawns: int = SETUP_SPAWNS, reference=None) -> dict:
    """Repeat the experiments for `seconds`; return the result and the raw reps.

    Untraced repetitions continue while another one still fits the budget
    (in a traced run, while a traced one fits after it); a traced run then
    adds traced repetitions the same way.  At least one of each runs.
    """
    root = Path(root).resolve()
    start = time.monotonic()
    deadline = start + seconds
    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    setups, reps, spans = [], [], []
    first = None

    def left() -> float:
        return start + CHILD_TIMEOUT_S - time.monotonic()

    def one(traced: bool, setup_only: bool = False) -> dict:
        nonlocal first
        with tempfile.TemporaryDirectory(prefix="rep-", dir=tmp_root) as tmp:
            work = Path(tmp)
            t0 = time.monotonic()
            rep = _spawn(root, work, experiments, seed, traced, setup_only, left())
            rep["elapsed_s"] = time.monotonic() - t0
            rep["traced"] = traced
            if "setup_s" in rep:
                setups.append(rep["setup_s"])
            if setup_only and "crash" not in rep:
                return rep
            rep["problems"], rep["outputs"] = _check(rep, experiments, reference, first)
            if first is None:
                first = rep["outputs"]
            if traced and "crash" not in rep:
                runs = work / "runs"
                values, data = _layers(work / "spans.json",
                                       _dir_bytes(runs) if runs.exists() else 0)
                rep["layers"] = values
                spans.append(data)
        reps.append(rep)
        return rep

    def fits(elapsed: float, factor: float = 1.0) -> bool:
        return time.monotonic() + factor * elapsed <= deadline

    if not trace:
        for _ in range(setup_spawns):
            one(False, setup_only=True)
    while True:
        rep = one(False)
        # a traced repetition takes longer; keep room for one after the last untraced
        if not fits(rep["elapsed_s"], 2.5 if trace else 1.0):
            break
    if trace:
        while True:
            rep = one(True)
            if not fits(rep["elapsed_s"]):
                break

    if not any(tmp_root.iterdir()):
        tmp_root.rmdir()
    failed = sum(1 for rep in reps for p in rep["problems"] if p)
    attempted = sum(len(rep["problems"]) for rep in reps)
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    if not plain:
        raise RuntimeError("no repetition ran to the end: " + "; ".join(
            str(p) for rep in reps for p in rep["problems"] if p))
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        traced = [r for r in reps if "layers" in r]
        values = {name: statistics.median(r["layers"][name] for r in traced) if traced else 0.0
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - plain_wall if traced else 0.0
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_s": plain_wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "reps": reps, "setups": setups, "spans": spans,
            "failed_ratio": failed / attempted}
