"""Command line front end: declarative configs, hashed artifact dirs, verify.

One JSON config file drives every experiment; ``--set key.path=value`` flags
override single keys.  The effective (merged) config is hashed, the hash
prefixes the output directory and is embedded in every JSON report and CSV,
so a run is reproducible from its artifacts alone.  ``verify`` runs each
property of cbfed.checks at fixed grids and seeds, one report row each.

Exit codes: 0 success, 1 failed verification, 2 bad config, 3 solver
divergence, 4 parameters outside a guaranteed regime, 5 internal error (any
other exception).
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import sys
import uuid
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checks as ck
from . import controllers as ct
from . import convex as cx
from . import eigen as eg
from . import galerkin as gk
from . import operators as op
from . import spectral as sp
from . import stationary as st
from . import timestep as ts
from .errors import EXIT_INTERNAL, ConfigError, RegimeError, SolverDivergence

# Every key an experiment may read, with its default.  Unknown keys are
# rejected so config typos fail loudly instead of silently using a default.
_DEFAULTS = {
    "experiment": None,
    "grid": {"d": 2, "N": 32, "L": 2 * np.pi},
    "params": {"mu": 1.0, "alpha": 0.3, "beta": 1.0, "gamma": 0.0, "r": 5.0, "q": 2.0},
    "initial": {"kind": "random", "amplitude": 0.05, "decay": 2.0, "path": None},
    "forcing": {"kind": "zero", "amplitude": 0.0, "decay": 2.0, "vector": None, "path": None},
    "equilibrium": {"kind": "zero"},
    "constraint": {"kind": "none", "radius": 1.0},
    "mask": {"boxes": None},
    "controller": {
        "theta": None,
        "delta_target": 0.25,
        "slack": 0.9,
        "sigma": 1.0,
        "n": 8,
        "v0_scale": 0.01,
        "k_gain": 50.0,
        "eps": 0.0,
        "eps_split": 0.5,
        "eps_tilde": 1.0,
        "ladder": [10.0, 20.0, 40.0, 80.0],
        "tol": 1e-9,
    },
    "integrator": {
        "scheme": "imex1",
        "T": 2.0,
        "dt": None,
        "mode": "project",
        "yosida_lam": None,
        "record_every": 1,
    },
    "verify": {"target": None},
    "output_dir": "runs",
    "seed": 0,
}
# keys whose default is null but which take a number when set
_NUMBER_OR_NULL = {"controller.theta", "integrator.dt", "integrator.yosida_lam"}
# keys that take a list of numbers (forcing.vector may also stay null)
_NUMBER_LISTS = {"forcing.vector", "controller.ladder"}
# keys whose default is null but which take a file path (a string) when set
_PATHS = {"initial.path", "forcing.path", "verify.target"}


# ---------------------------------------------------------------- config


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path + key!r} expects a table")
            out[key] = _merge(defaults[key], val, path + key + ".")
        else:
            out[key] = val
    return out


def _is_number(val) -> bool:
    """An int (not a bool) or a finite float: JSON NaN and Infinity parse as floats."""
    if isinstance(val, float):
        return bool(np.isfinite(val))
    return isinstance(val, int) and not isinstance(val, bool)


def _check_types(config: dict, defaults: dict = _DEFAULTS, path: str = "") -> None:
    """Reject a value other than an int or a finite float (a bool, NaN and
    Infinity included) where a number goes, a non-integral one where the
    default is an int, anything but a list of such numbers at a list key, and
    anything but a string or null at a path key, before any file is opened."""
    for key, default in defaults.items():
        dotted, val = path + key, config[key]
        if isinstance(default, dict) and default:
            _check_types(val, default, dotted + ".")
        elif dotted in _PATHS:
            if val is not None and not isinstance(val, str):
                raise ConfigError(f"config key {dotted!r} expects a path string, got {val!r}")
        elif dotted in _NUMBER_LISTS:
            listed = isinstance(val, list) and all(map(_is_number, val))
            if not listed and not (val is None and default is None):
                raise ConfigError(
                    f"config key {dotted!r} expects a list of finite numbers, got {val!r}"
                )
        elif isinstance(default, (int, float)) or (val is not None and dotted in _NUMBER_OR_NULL):
            if not _is_number(val):
                raise ConfigError(f"config key {dotted!r} expects a finite number, got {val!r}")
            if isinstance(default, int) and isinstance(val, float) and not val.is_integer():
                raise ConfigError(f"config key {dotted!r} expects an integer, got {val!r}")


def _apply_override(user: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigError(f"--set expects key.path=value, got {item!r}")
    dotted, raw = item.split("=", 1)
    keys = [k for k in dotted.split(".") if k]
    if not keys:
        raise ConfigError(f"--set expects key.path=value, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = user
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {dotted!r} crosses a non-table key")
    node[keys[-1]] = value


def load_effective_config(experiment, config_path=None, overrides=(), output_dir=None) -> dict:
    user: dict = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
    for item in overrides:
        _apply_override(user, item)
    declared = user.get("experiment")
    if declared is not None and declared != experiment:
        raise ConfigError(
            f"config declares experiment {declared!r} but the subcommand is {experiment!r}"
        )
    merged = _merge(_DEFAULTS, user)
    _check_types(merged)
    slack, target = merged["controller"]["slack"], merged["controller"]["delta_target"]
    if not (0 < slack <= 1):  # the loops claim slack * rate: 0 is met by any run
        raise ConfigError(f"config key 'controller.slack' must lie in (0, 1], got {slack!r}")
    if not (target > 0):
        raise ConfigError(f"config key 'controller.delta_target' must be positive, got {target!r}")
    if merged["seed"] < 0:  # the Philox seed sequence takes non-negative integers only
        raise ConfigError(f"config key 'seed' must be non-negative, got {merged['seed']!r}")
    merged["experiment"] = experiment
    if output_dir is not None:
        merged["output_dir"] = output_dir
    return merged


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------- builders


def _setup(cfg):
    """Grid, physical parameters and per-purpose seeds of a grid-based run."""
    g = cfg["grid"]
    try:
        grid = sp.TorusGrid(d=int(g["d"]), N=int(g["N"]), L=float(g["L"]))
    except ValueError as exc:       # the message opens with the rejected argument
        raise ConfigError(f"grid.{exc}") from None
    params = op.PhysicalParams(**{key: float(val) for key, val in cfg["params"].items()})
    rng = np.random.Generator(np.random.Philox(int(cfg["seed"])))
    seeds = {
        name: int(rng.integers(0, 2**31)) for name in ("initial", "forcing", "coeffs", "eigen")
    }
    return grid, params, seeds


def _build_field(spec: dict, grid: sp.TorusGrid, seed: int, what: str):
    kind = spec["kind"]
    if kind == "zero":
        return sp.SpectralField.zero(grid)
    if kind == "random":
        decay = float(spec["decay"])
        try:
            f = sp.random_solenoidal(grid, seed=seed, decay=decay)
        except FloatingPointError:
            raise ConfigError(
                f"config key '{what}.decay' gives a draw of zero or non-finite norm, got {decay!r}"
            ) from None
        return float(spec["amplitude"]) * f
    if kind == "constant":
        vec = spec.get("vector")
        if vec is None or len(vec) != grid.d:
            raise ConfigError(f"{what}.vector needs {grid.d} components")
        vals = np.zeros((grid.d,) + grid.shape)
        for a, comp in enumerate(vec):
            vals[a] = float(comp)
        return sp.SpectralField.from_physical(grid, vals)
    if kind == "snapshot":
        path = spec.get("path")
        if not path:
            raise ConfigError(f"{what}.path required for kind 'snapshot'")
        try:
            field = sp.read_snapshot(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read snapshot {path}: {exc}") from None
        if field.grid != grid:
            raise ConfigError(f"snapshot {path} was written on a different grid")
        return field
    raise ConfigError(f"unknown {what} kind {kind!r}")


def _build_constraint(cfg):
    spec = cfg["constraint"]
    kind = spec["kind"]
    if kind == "none":
        return None
    if kind == "ball":
        radius = float(spec["radius"])
        if radius <= 0:
            raise ConfigError("constraint.radius must be positive")
        return cx.BallConstraint(radius)
    raise ConfigError(f"unknown constraint kind {kind!r}")


def _build_mask(cfg, grid):
    boxes = cfg["mask"]["boxes"]
    if boxes is None:
        return np.ones(grid.shape)
    try:
        parsed = [tuple((float(lo), float(hi)) for lo, hi in box) for box in boxes]
    except (TypeError, ValueError):
        raise ConfigError("mask.boxes must be a list of per-axis [lo, hi] lists") from None
    return eg.box_indicator(grid, parsed)


def _states(cfg, grid, params, seeds, initial=True):
    """(initial state, forcing, reference state) of a run, all fields.

    The initial state is None when `initial` is false (the section is then
    not read).  The reference state is the zero field for kind 'zero' and
    the converged stationary solve for kind 'solve', which absorbs the
    forcing: the shifted dynamics around it sees a zero one.  ts.SimConfig
    alone decides whether a reference state is y_e = 0.
    """
    y0 = _build_field(cfg["initial"], grid, seeds["initial"], "initial") if initial else None
    forcing = _build_field(cfg["forcing"], grid, seeds["forcing"], "forcing")
    kind = cfg["equilibrium"]["kind"]
    if kind == "zero":
        return y0, forcing, sp.SpectralField.zero(grid)
    if kind == "solve":
        y_e = st.solve_stationary(grid, params, forcing).field
        return y0, sp.SpectralField.zero(grid), y_e
    raise ConfigError(f"unknown equilibrium kind {kind!r}")


def _sim_config(cfg, grid, params, seeds, initial=True) -> ts.SimConfig:
    """The time-marching settings of a run; the one reader of `integrator.*`.

    y0 is None when `initial` is false: the caller's loop sets its own.
    """
    y0, forcing, y_ref = _states(cfg, grid, params, seeds, initial)
    it = cfg["integrator"]
    sim = ts.SimConfig(
        grid=grid,
        params=params,
        y0=y0,
        T=float(it["T"]),
        dt=None if it["dt"] is None else float(it["dt"]),
        scheme=it["scheme"],
        forcing=forcing,
        y_ref=y_ref,
        constraint=_build_constraint(cfg),
        constraint_mode=it["mode"],
        yosida_lam=it["yosida_lam"],
        record_every=int(it["record_every"]),
    )
    # The stabilizers run imex1 whatever the (validated) scheme says: honoring
    # it moves the recorded prop-3d-n16 benchmark reference (ROADMAP item 2).
    return sim if cfg["experiment"] == "simulate" else replace(sim, scheme="imex1")


# ---------------------------------------------------------------- artifacts


def _jsonable(obj):
    """obj as plain JSON values: numpy scalars and arrays made Python ones,
    and every non-finite number made None, so it is written as null."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    return obj


def _write_json(path: Path, obj: dict) -> None:
    """The one writer of reports and manifests: standard JSON, in which a
    non-finite number is null; allow_nan=False fails on any that slips by."""
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


# ---------------------------------------------------------------- runners


def _run_constants(cfg, outdir, h):
    grid, params, _ = _setup(cfg)
    eps_split = float(cfg["controller"]["eps_split"])
    eps_tilde = float(cfg["controller"]["eps_tilde"])

    def _try(fn, *a, **kw):
        try:
            return fn(*a, **kw)
        except RegimeError:
            return None

    # outside the regime the constants are reported as null; inside it, a
    # constant beyond the float range is a RegimeError of its own (exit 4).
    # The uniqueness constants K1, K2 need only r > q and are null where
    # they leave the float range (q just below r).
    sc = None
    if params.regime != "unsupported":
        sc = op.stability_constants(params, eps=eps_split, eps_tilde=eps_tilde)
    th = _try(ct.theta_threshold, params)
    body = {
        "regime": params.regime,
        "rho_eps": sc.conv_rate if sc else None,
        "pump_tilde": sc.pump_rate_a if sc else None,
        "pump_eps": sc.pump_rate_b if sc else None,
        "eta1": sc.eta_conv if sc else None,
        "eta2": sc.eta_pump if sc else None,
        "kappa": sc.shift_rate if sc else None,
        "feedback_shift": sc.growth_rate if sc else None,
        "rho_half": _try(op.convection_rate, params.mu, params.beta, params.r, 0.5),
        "rho_one": _try(op.convection_rate, params.mu, params.beta, params.r, 1.0),
        "K1": st.uniqueness_K1(params.beta, params.gamma, params.r, params.q),
        "K2": st.uniqueness_K2(params.beta, params.gamma, params.r, params.q),
        "gamma0": gk.quadratic_gamma0(grid.L, grid.d),
        "c_min": th["c_min"] if th else None,
    }
    return body, {}, []


def _run_stationary(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    f = _build_field(cfg["forcing"], grid, seeds["forcing"], "forcing")
    res = st.solve_stationary(grid, params, f)
    body = {
        "residual": float(res.residual),
        "iterations": int(res.iterations),
        "uniqueness_report": st.uniqueness_report(params, f),
        "energy_report": st.energy_report(res.field, params, f),
    }
    sp.write_snapshot(res.field, outdir / "equilibrium.cbfd")
    return body, {"relaxation": res.relaxation}, ["equilibrium.cbfd"]


def _run_simulate(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    sim = _sim_config(cfg, grid, params, seeds)
    traj = ts.simulate(sim)
    traj.to_csv(outdir / "trajectory.csv", f"config_hash={h}")
    sp.write_snapshot(traj.final, outdir / "final.cbfd")
    body = {
        "scheme": sim.scheme,
        "T": sim.T,
        "dt": sim.step,
        "steps": sim.nsteps,
        "final_norm_H": float(traj.norm_H[-1]),
        "max_energy_defect": float(np.max(traj.energy_defect)),
    }
    return body, {}, ["trajectory.csv", "final.cbfd"]


def _run_theta(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    th = ct.theta_threshold(params)
    knobs = cfg["controller"]
    floor = th["c_min"] - params.alpha    # at or below it the claimed rate is not positive
    theta = knobs["theta"]
    if theta is None:
        theta = max(0.0, floor + float(knobs["delta_target"]))
    elif not (theta >= 0 and theta > floor):
        raise ConfigError(
            f"config key 'controller.theta' must be nonnegative and above "
            f"c_min - alpha = {floor:.6g}, got {theta!r}"
        )
    report, traj = ct.run_theta_loop(
        _sim_config(cfg, grid, params, seeds), float(theta), th["c_min"],
        slack=float(knobs["slack"]),
    )
    traj.to_csv(outdir / "trajectory.csv", f"config_hash={h}")
    return report, {"threshold": th}, ["trajectory.csv"]


def _run_proportional(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    mask = _build_mask(cfg, grid)
    knobs = cfg["controller"]
    k_gain = float(knobs["k_gain"])
    nu, _, _ = eg.smallest_eigenvalue_Ak(
        grid, k_gain, mask, mu=params.mu, alpha=params.alpha,
        tol=float(knobs["tol"]), seed=seeds["eigen"],
    )
    dec = eg.proportional_decay_constant(nu, params, eps=float(knobs["eps"]))
    c_min = dec["rho_star"] + dec["rho1_star"] + dec["rho2_star"]
    report, traj = ct.run_proportional_loop(
        _sim_config(cfg, grid, params, seeds), k_gain, mask, nu, delta=dec["delta"],
        c_min=c_min, slack=float(knobs["slack"]),
    )
    traj.to_csv(outdir / "trajectory.csv", f"config_hash={h}")
    return report, dec, ["trajectory.csv"]


def _run_eigen(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    mask = _build_mask(cfg, grid)
    knobs = cfg["controller"]
    est = eg.lambda_star_estimate(
        grid,
        mask,
        knobs["ladder"],
        mu=params.mu,
        alpha=params.alpha,
        tol=float(knobs["tol"]),
        seed=seeds["eigen"],
    )
    comp = est["complement_volume"]
    body = {
        "ladder": [
            [k, nu, it] for k, nu, it in zip(est["ks"], est["nus"], est["iterations"])
        ],
        "lambda_star": est["lambda_star"],
        "nu_max": est["nu_max"],
        "monotone_ok": est["monotone_ok"],
        "complement_volume": comp,
        "rfk_bound": eg.rfk_bound(comp, grid.d),
        "rfk_bound_scaled": eg.rfk_bound_scaled(comp, grid.d, params.mu, params.alpha),
    }
    try:
        decay = eg.proportional_decay_constant(
            est["lambda_star"], params, eps=float(knobs["eps"])
        )
    except RegimeError:
        decay = None
    return body, {"decay": decay}, []


def _run_reduce(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    mask = _build_mask(cfg, grid)
    _, _, y_e = _states(cfg, grid, params, seeds, initial=False)
    red = gk.assemble_reduction(y_e, int(cfg["controller"]["n"]), params, mask=mask)
    rank = gk.controllability_rank(red.Lmat, red.Bmat)
    np.savez(
        outdir / "reduction.npz",
        lam=red.lam,
        Lmat=red.Lmat,
        g1=red.g1,
        Bmat=red.Bmat,
        mode_coeffs=sp.full_spectrum(red.span.spectra, red.grid),
        mask=red.mask,
    )
    body = {
        "n": int(red.n),
        "rank": int(rank),
        "lam": [float(x) for x in red.lam],
        "files": ["reduction.npz"],
    }
    return body, {}, ["reduction.npz"]


def _run_galerkin(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    mask = _build_mask(cfg, grid)
    sim = _sim_config(cfg, grid, params, seeds, initial=False)
    y_e = sim.y_ref if sim.y_ref is not None else sp.SpectralField.zero(grid)
    knobs = cfg["controller"]
    red = gk.assemble_reduction(y_e, int(knobs["n"]), params, mask=mask)
    gen = np.random.Generator(np.random.Philox(seeds["coeffs"]))
    v0 = float(knobs["v0_scale"]) * gen.standard_normal(red.n)
    report, (t_r, V), traj = gk.run_galerkin_loop(red, float(knobs["sigma"]), v0, sim)
    comment = f"config_hash={h}"
    traj.to_csv(outdir / "trajectory.csv", comment)
    columns = ["t"] + [f"v{i + 1}" for i in range(red.n)]
    ts.write_csv(outdir / "reduced.csv", columns, np.column_stack((t_r, V)), comment)
    return report, {"v0_norm": float(np.linalg.norm(v0))}, ["trajectory.csv", "reduced.csv"]


# ---------------------------------------------------------------- verify


def _run_verify(cfg, outdir, h):
    g8, g16, g32 = (sp.TorusGrid(d=2, N=N) for N in (8, 16, 32))

    def sol(g, *seeds):
        return [sp.random_solenoidal(g, seed=s) for s in seeds]

    def monotonicity_cases():
        rng = np.random.default_rng(11)
        for r in (3.0, 4.0, 5.0):
            for _ in range(20):
                yield *sol(g16, int(rng.integers(2**31)), int(rng.integers(2**31))), r

    def determinism_run():
        p = op.PhysicalParams(mu=1.0, alpha=0.5, beta=1.0, gamma=0.0, r=3.0, q=2.0)
        y0 = 0.05 * sol(g8, 12)[0]
        return ts.simulate(ts.SimConfig(grid=g8, params=p, y0=y0, T=0.1, dt=0.02))

    checks = [
        ("leray-projection",
         lambda: ck.leray_projection(sp.random_field(g32, 0), sp.random_field(g32, 1))),
        ("trilinear-antisymmetry", lambda: ck.trilinear_antisymmetry(*sol(g32, 2, 3, 4))),
        ("damping-pairing", lambda: ck.damping_pairing(*sol(g32, 5), (3.0, 5.0))),
        ("strong-monotonicity", lambda: ck.strong_monotonicity(monotonicity_cases())),
        ("gateaux-consistency", lambda: ck.gateaux_consistency(*sol(g16, 6, 7), (3.0, 5.0))),
        ("constants-arithmetic", ck.constants_arithmetic),
        ("gain-placement", lambda: ck.gain_placement(
            np.diag([0.3, 0.9, 2.5, 4.0]), np.eye(4), 1.0, [1.0, 1.0, 2.5, 4.0])),
        ("eigen-smallest", lambda: ck.eigen_smallest(g16, mu=1.0, alpha=0.3)),
        ("snapshot-roundtrip",  # the check removes the file, which the manifest omits
         lambda: ck.snapshot_roundtrip(*sol(g16, 8), outdir / "roundtrip.cbfd")),
        ("determinism", lambda: ck.determinism(determinism_run)),
        ("artifact-hashes", lambda: ck.artifact_hashes(cfg["verify"]["target"])),
    ]
    rows = []
    for name, fn in checks:
        try:
            detail = fn()
            rows.append({"name": name, "ok": True, "detail": detail})
        except Exception as exc:  # a failed property, not a crash of the harness
            rows.append({"name": name, "ok": False, "detail": f"{type(exc).__name__}: {exc}"})
    body = {"checks": rows, "all_ok": bool(all(r["ok"] for r in rows))}
    return body, {}, []


_RUNNERS = {
    "stationary": _run_stationary,
    "simulate": _run_simulate,
    "stabilize-theta": _run_theta,
    "stabilize-galerkin": _run_galerkin,
    "stabilize-proportional": _run_proportional,
    "eigen": _run_eigen,
    "reduce": _run_reduce,
    "constants": _run_constants,
    "verify": _run_verify,
}
_EXPERIMENTS = tuple(_RUNNERS)


# ---------------------------------------------------------------- entry


def run(config: dict):
    """Execute one experiment; returns (output directory, report dict).

    The artifacts go into a temporary sibling of <output_dir>/<hash12>,
    which is renamed onto it once report.json and manifest.json are written,
    so a failed run leaves no partial directory.  A rerun replaces it.
    """
    h = config_hash(config)
    root = Path(config["output_dir"])
    outdir = root / h[:12]
    tmp = root / f".{h[:12]}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    tmp.mkdir(parents=True)
    try:
        body, extra, files = _RUNNERS[config["experiment"]](config, tmp, h)
        report = {
            "config_hash": h,
            "experiment": config["experiment"],
            "config": config,
            "report": body,
            "extra": extra,
        }
        _write_json(tmp / "report.json", report)
        manifest = {
            "config_hash": h,
            "experiment": config["experiment"],
            "files": sorted(set(files) | {"report.json", "manifest.json"}),
        }
        _write_json(tmp / "manifest.json", manifest)
        if outdir.exists():
            shutil.rmtree(outdir)
        tmp.rename(outdir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return outdir, report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbfed",
        description="Spectral simulation and feedback stabilization experiments.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            dest="overrides",
            metavar="KEY.PATH=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--output-dir", help="override the artifact directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_effective_config(
            args.experiment, args.config, args.overrides, args.output_dir
        )
        outdir, report = run(config)
    except (ConfigError, SolverDivergence, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # a defect, not a config or run outcome; ^C still propagates
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if config["experiment"] == "verify":
        rows = report["report"]["checks"]
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            state = "PASS" if r["ok"] else "FAIL"
            print(f"{r['name']:<{width}}  {state}  {r['detail']}")
        total = sum(r["ok"] for r in rows)
        print(f"{total}/{len(rows)} checks passed; report in {outdir}")
        return 0 if report["report"]["all_ok"] else 1
    print(f"wrote {outdir} (config {report['config_hash'][:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
