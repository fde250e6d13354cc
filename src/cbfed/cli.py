"""Command line front end: declarative configs, hashed artifact dirs, verify.

One JSON config file drives every experiment; ``--set key.path=value`` flags
override single keys.  The effective (merged) config is hashed, the hash
prefixes the output directory and is embedded in every JSON report and CSV,
so a run is reproducible from its artifacts alone.

Exit codes: 0 success, 1 failed verification, 2 bad config, 3 solver
divergence, 4 parameters outside a guaranteed regime.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import controllers as ct
from . import convex as cx
from . import eigen as eg
from . import galerkin as gk
from . import operators as op
from . import spectral as sp
from . import stationary as st
from . import timestep as ts
from .errors import ConfigError, RegimeError, SolverDivergence

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
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    params = _build_params(cfg)
    rng = np.random.Generator(np.random.Philox(int(cfg["seed"])))
    seeds = {
        name: int(rng.integers(0, 2**31)) for name in ("initial", "forcing", "coeffs", "eigen")
    }
    return grid, params, seeds


def _build_params(cfg) -> op.PhysicalParams:
    p = cfg["params"]
    return op.PhysicalParams(
        mu=float(p["mu"]),
        alpha=float(p["alpha"]),
        beta=float(p["beta"]),
        gamma=float(p["gamma"]),
        r=float(p["r"]),
        q=float(p["q"]),
    )


def _build_field(spec: dict, grid: sp.TorusGrid, seed: int, what: str):
    kind = spec["kind"]
    if kind == "zero":
        return None
    if kind == "random":
        f = sp.random_solenoidal(grid, seed=seed, decay=float(spec["decay"]))
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
        return np.ones(grid.shape), None
    try:
        parsed = [tuple((float(lo), float(hi)) for lo, hi in box) for box in boxes]
    except (TypeError, ValueError):
        raise ConfigError("mask.boxes must be a list of per-axis [lo, hi] lists") from None
    dm = eg.DomainMask(grid, parsed)
    return dm.indicator, dm


def _states(cfg, grid, params, seeds, initial=True):
    """(initial state, forcing, reference state) of a run.

    The initial state is the zero field for kind 'zero', and None when
    `initial` is false (the section is then not read).  A solved equilibrium
    absorbs the forcing: the shifted dynamics around it sees none.
    """
    y0 = None
    if initial:
        y0 = _build_field(cfg["initial"], grid, seeds["initial"], "initial")
        if y0 is None:
            y0 = sp.SpectralField.zero(grid)
    forcing = _build_field(cfg["forcing"], grid, seeds["forcing"], "forcing")
    kind = cfg["equilibrium"]["kind"]
    if kind == "zero":
        return y0, forcing, None
    if kind == "solve":
        return y0, None, _stationary(grid, params, forcing)[0].field
    raise ConfigError(f"unknown equilibrium kind {kind!r}")


def _stationary(grid, params, forcing):
    """Converged stationary solve for a forcing (zero when None), and that forcing."""
    f = forcing if forcing is not None else sp.SpectralField.zero(grid)
    res = st.solve_stationary(grid, params, f)
    if not res.converged:
        raise SolverDivergence(f"stationary iteration stalled at residual {res.residual:.3e}")
    return res, f


def _integrator(cfg) -> dict:
    """Final time, time step (None: CFL default) and recording stride."""
    it = cfg["integrator"]
    return {
        "T": float(it["T"]),
        "dt": None if it["dt"] is None else float(it["dt"]),
        "record_every": int(it["record_every"]),
    }


def _loop_args(cfg, grid, params, seeds) -> dict:
    """Keyword arguments shared by the theta and proportional loops."""
    z0, forcing, y_ref = _states(cfg, grid, params, seeds)
    it = cfg["integrator"]
    return dict(
        z0=z0, forcing=forcing, y_ref=y_ref, constraint=_build_constraint(cfg),
        mode=it["mode"], yosida_lam=it["yosida_lam"],
        slack=float(cfg["controller"]["slack"]), **_integrator(cfg),
    )


# ---------------------------------------------------------------- artifacts


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=_jsonable) + "\n")


# ---------------------------------------------------------------- runners


def _run_constants(cfg, outdir, h):
    params = _build_params(cfg)
    grid_spec = cfg["grid"]
    L, d = float(grid_spec["L"]), int(grid_spec["d"])
    eps_split = float(cfg["controller"]["eps_split"])
    eps_tilde = float(cfg["controller"]["eps_tilde"])

    def _try(fn, *a, **kw):
        try:
            return fn(*a, **kw)
        except RegimeError:
            return None

    def _finite(x):
        return x if np.isfinite(x) else None

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
        "K1": _finite(st.uniqueness_K1(params.beta, params.gamma, params.r, params.q)),
        "K2": _finite(st.uniqueness_K2(params.beta, params.gamma, params.r, params.q)),
        "gamma0": (4 * np.pi / L) * (2.0 / L**d) ** 0.5,
        "c_min": th["c_min"] if th else None,
    }
    return body, {}, []


def _run_stationary(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    forcing = _build_field(cfg["forcing"], grid, seeds["forcing"], "forcing")
    res, f = _stationary(grid, params, forcing)
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
    y0, forcing, y_ref = _states(cfg, grid, params, seeds)
    it = _integrator(cfg)
    if it["dt"] is None:
        it["dt"] = ts.default_dt(grid, params, y0, y_ref)
    scheme = cfg["integrator"]["scheme"]
    sim = ts.SimConfig(
        grid=grid,
        params=params,
        y0=y0,
        scheme=scheme,
        forcing=forcing,
        y_ref=y_ref,
        constraint=_build_constraint(cfg),
        constraint_mode=cfg["integrator"]["mode"],
        yosida_lam=cfg["integrator"]["yosida_lam"],
        **it,
    )
    traj = ts.simulate(sim)
    traj.to_csv(outdir / "trajectory.csv", f"config_hash={h}")
    sp.write_snapshot(traj.final, outdir / "final.cbfd")
    body = {
        "scheme": scheme,
        "T": it["T"],
        "dt": it["dt"],
        "steps": int(round(traj.t[-1] / it["dt"])),
        "final_norm_H": float(traj.norm_H[-1]),
        "max_energy_defect": float(np.max(traj.energy_defect)),
    }
    return body, {}, ["trajectory.csv", "final.cbfd"]


def _run_theta(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    th = ct.theta_threshold(params)
    knobs = cfg["controller"]
    theta = knobs["theta"]
    if theta is None:
        theta = th["c_min"] - params.alpha + float(knobs["delta_target"])
    report, traj = ct.run_theta_loop(
        grid, params, float(theta), **_loop_args(cfg, grid, params, seeds)
    )
    traj.to_csv(outdir / "trajectory.csv", f"config_hash={h}")
    return report, {"threshold": th}, ["trajectory.csv"]


def _run_proportional(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    mask, _ = _build_mask(cfg, grid)
    knobs = cfg["controller"]
    k_gain = float(knobs["k_gain"])
    nu, _, _ = eg.smallest_eigenvalue_Ak(
        grid, k_gain, mask, mu=params.mu, alpha=params.alpha,
        tol=float(knobs["tol"]), seed=seeds["eigen"],
    )
    dec = eg.proportional_decay_constant(nu, params, eps=float(knobs["eps"]))
    c_min = dec["rho_star"] + dec["rho1_star"] + dec["rho2_star"]
    report, traj = ct.run_proportional_loop(
        grid, params, k_gain, mask, delta=dec["delta"], c_min=c_min,
        **_loop_args(cfg, grid, params, seeds),
    )
    traj.to_csv(outdir / "trajectory.csv", f"config_hash={h}")
    return report, dec, ["trajectory.csv"]


def _run_eigen(cfg, outdir, h):
    grid, params, seeds = _setup(cfg)
    mask, dm = _build_mask(cfg, grid)
    knobs = cfg["controller"]
    est = eg.lambda_star_estimate(
        grid,
        dm if dm is not None else mask,
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
    mask, _ = _build_mask(cfg, grid)
    _, _, y_ref = _states(cfg, grid, params, seeds, initial=False)
    y_e = y_ref if y_ref is not None else sp.SpectralField.zero(grid)
    red = gk.assemble_reduction(y_e, int(cfg["controller"]["n"]), params, mask=mask)
    rank = gk.controllability_rank(red.Lmat, red.Bmat)
    np.savez(
        outdir / "reduction.npz",
        lam=red.lam,
        Lmat=red.Lmat,
        g1=red.g1,
        Bmat=red.Bmat,
        mode_coeffs=np.stack([m.field.c for m in red.modes]),
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
    mask, _ = _build_mask(cfg, grid)
    _, forcing, y_ref = _states(cfg, grid, params, seeds, initial=False)
    y_e = y_ref if y_ref is not None else sp.SpectralField.zero(grid)
    knobs = cfg["controller"]
    red = gk.assemble_reduction(y_e, int(knobs["n"]), params, mask=mask)
    gen = np.random.Generator(np.random.Philox(seeds["coeffs"]))
    v0 = float(knobs["v0_scale"]) * gen.standard_normal(red.n)
    it = _integrator(cfg)
    report, (t_r, V), traj = gk.run_galerkin_loop(
        red,
        float(knobs["sigma"]),
        v0,
        T=it["T"],
        dt_full=it["dt"],
        record_every=it["record_every"],
        forcing=forcing,
    )
    comment = f"config_hash={h}"
    traj.to_csv(outdir / "trajectory.csv", comment)
    columns = ["t"] + [f"v{i + 1}" for i in range(red.n)]
    ts.write_csv(outdir / "reduced.csv", columns, np.column_stack((t_r, V)), comment)
    return report, {"v0_norm": float(np.linalg.norm(v0))}, ["trajectory.csv", "reduced.csv"]


# ---------------------------------------------------------------- verify


def _check_leray():
    g = sp.TorusGrid(d=2, N=32)
    y = sp.random_field(g, seed=0)
    z = sp.random_field(g, seed=1)
    py = sp.leray(y)
    worst = max(
        sp.norm_H(sp.leray(py) - py),
        abs(sp.inner(sp.leray(y), z) - sp.inner(y, sp.leray(z))),
        sp.divergence_max(py),
    )
    assert worst < 1e-11
    return f"worst defect {worst:.2e}"


def _check_trilinear():
    g = sp.TorusGrid(d=2, N=32)
    y = sp.random_solenoidal(g, seed=2)
    z = sp.random_solenoidal(g, seed=3)
    w = sp.random_solenoidal(g, seed=4)
    scale = max(abs(op.trilinear(y, z, w)), 1.0)
    anti = abs(op.trilinear(y, z, w) + op.trilinear(y, w, z)) / scale
    diag = abs(op.trilinear(y, z, z)) / max(sp.norm_H(z) ** 2, 1.0)
    assert max(anti, diag) < 1e-10
    return f"antisymmetry {anti:.2e}, diagonal {diag:.2e}"


def _check_damping_pairing():
    g = sp.TorusGrid(d=2, N=32)
    y = sp.random_solenoidal(g, seed=5)
    for r in (3.0, 5.0):
        lhs = sp.inner(op.power_damping(y, r), y)
        rhs = sp.norm_Lp(y, r + 1) ** (r + 1)
        assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-8
    return "pairing matches L^{r+1} norm at r=3,5"


def _check_monotonicity():
    g = sp.TorusGrid(d=2, N=16)
    rng = np.random.default_rng(11)
    worst = np.inf
    for r in (3.0, 4.0, 5.0):
        for _ in range(20):
            y = sp.random_solenoidal(g, seed=int(rng.integers(2**31)))
            z = sp.random_solenoidal(g, seed=int(rng.integers(2**31)))
            lhs = sp.inner(op.power_damping(y, r) - op.power_damping(z, r), y - z)
            rhs = 2.0 ** (1 - r) * sp.norm_Lp(y - z, r + 1) ** (r + 1)
            margin = (lhs - rhs) / max(abs(lhs), 1e-30)
            worst = min(worst, margin)
    assert worst > -1e-8
    return f"worst relative margin {worst:.2e}"


def _check_gateaux():
    g = sp.TorusGrid(d=2, N=16)
    y = sp.random_solenoidal(g, seed=6)
    z = sp.random_solenoidal(g, seed=7)
    for r in (3.0, 5.0):
        dz = op.gateaux_first(y, z, r)
        eps = 1e-6
        fd = (0.5 / eps) * (op.power_damping(y + eps * z, r) - op.power_damping(y - eps * z, r))
        rel = sp.norm_H(dz - fd) / max(sp.norm_H(dz), 1e-30)
        assert rel < 1e-5
    return "first derivative matches central differences at r=3,5"


def _check_constants():
    assert abs(op.convection_rate(1.0, 1.0, 5.0, 1.0) - 0.25) < 1e-12
    assert abs(op.convection_rate(1.0, 1.0, 5.0, 0.5) - 0.5) < 1e-12
    assert abs(st.uniqueness_K1(beta=1, gamma=-1, r=5, q=2) - 0.5) < 1e-12
    gamma0 = (4 * np.pi / (2 * np.pi)) * (2.0 / (2 * np.pi) ** 2) ** 0.5
    assert abs(gamma0 - np.sqrt(2.0) / np.pi) < 1e-12
    return "frozen values reproduced to 1e-12"


def _check_gain_placement():
    Lmat = np.diag([0.3, 0.9, 2.5, 4.0])
    B = np.eye(4)
    gs = gk.synthesize_gain(Lmat, B, sigma=1.0)
    want = np.array([1.0, 1.0, 2.5, 4.0])
    got = np.sort(gs.spectrum.real)
    assert np.max(np.abs(got - want)) < 1e-8
    return "closed-loop spectrum [1, 1, 2.5, 4]"


def _check_eigen_base():
    g = sp.TorusGrid(d=2, N=16)
    nu, _, _ = eg.smallest_eigenvalue_Ak(g, 0.0, np.ones(g.shape), mu=1.0, alpha=0.3)
    assert abs(nu - 0.3) < 1e-8
    return f"zero-gain eigenvalue {nu:.12f}"


def _check_snapshot_roundtrip(outdir):
    g = sp.TorusGrid(d=2, N=16)
    y = sp.random_solenoidal(g, seed=8)
    path = outdir / "roundtrip.cbfd"
    sp.write_snapshot(y, path)
    back = sp.read_snapshot(path)
    err = sp.norm_H(back - y)
    path.unlink()
    assert err == 0.0
    return "coefficients restored exactly"


def _check_determinism():
    g = sp.TorusGrid(d=2, N=8)
    p = op.PhysicalParams(mu=1.0, alpha=0.5, beta=1.0, gamma=0.0, r=3.0, q=2.0)
    runs = []
    for _ in range(2):
        y0 = 0.05 * sp.random_solenoidal(g, seed=12)
        traj = ts.simulate(ts.SimConfig(grid=g, params=p, y0=y0, T=0.1, dt=0.02))
        runs.append(traj)
    assert np.array_equal(runs[0].norm_H, runs[1].norm_H)
    assert np.array_equal(runs[0].energy_defect, runs[1].energy_defect)
    return "identical configs give identical trajectories"


def _check_artifact_hashes(target):
    if not target:
        return "no target configured"
    root = Path(target)
    try:
        with open(root / "manifest.json") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise AssertionError(f"cannot read manifest in {target}: {exc}") from None
    h = manifest["config_hash"]
    assert root.name == h[:12], "directory name does not match the config hash"
    for name in manifest["files"]:
        path = root / name
        if name.endswith(".json"):
            with open(path) as fh:
                obj = json.load(fh)
            assert obj.get("config_hash") == h, f"{name} hash mismatch"
        elif name.endswith(".csv"):
            first = path.read_text().splitlines()[0]
            assert first == f"# config_hash={h}", f"{name} hash mismatch"
        else:
            assert path.exists(), f"missing artifact {name}"
    return f"{len(manifest['files'])} artifacts consistent with {h[:12]}"


def _run_verify(cfg, outdir, h):
    target = cfg["verify"]["target"]
    checks = [
        ("leray-projection", _check_leray),
        ("trilinear-antisymmetry", _check_trilinear),
        ("damping-pairing", _check_damping_pairing),
        ("strong-monotonicity", _check_monotonicity),
        ("gateaux-consistency", _check_gateaux),
        ("constants-arithmetic", _check_constants),
        ("gain-placement", _check_gain_placement),
        ("eigen-smallest", _check_eigen_base),
        ("snapshot-roundtrip", lambda: _check_snapshot_roundtrip(outdir)),
        ("determinism", _check_determinism),
        ("artifact-hashes", lambda: _check_artifact_hashes(target)),
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
    """Execute one experiment; returns (output directory, report dict)."""
    h = config_hash(config)
    outdir = Path(config["output_dir"]) / h[:12]
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        body, extra, files = _RUNNERS[config["experiment"]](config, outdir, h)
    except BaseException:
        # don't litter the artifact root with empty dirs from failed runs
        if not any(outdir.iterdir()):
            outdir.rmdir()
        raise
    report = {
        "config_hash": h,
        "experiment": config["experiment"],
        "config": config,
        "report": body,
        "extra": extra,
    }
    _write_json(outdir / "report.json", report)
    manifest = {
        "config_hash": h,
        "experiment": config["experiment"],
        "files": sorted(set(files) | {"report.json", "manifest.json"}),
    }
    _write_json(outdir / "manifest.json", manifest)
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
