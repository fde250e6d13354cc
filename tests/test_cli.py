"""Command line harness: config plumbing, artifacts, exit codes, verify."""
from __future__ import annotations

import json

import numpy as np
import pytest

from cbfed import cli
from cbfed import spectral as sp
from cbfed import timestep as ts


def write_config(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def load_report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


def only_run_dir(root):
    dirs = [p for p in root.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def test_constants_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "constants",
            "params": {"mu": 1.0, "beta": 1.0, "gamma": 0.0, "r": 5.0, "q": 2.0},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert cli.main(["constants", "--config", cfg]) == 0
    outdir = only_run_dir(tmp_path / "out")
    rep = load_report(outdir)
    assert rep["experiment"] == "constants"
    assert len(rep["config_hash"]) == 64
    assert outdir.name == rep["config_hash"][:12]
    assert abs(rep["report"]["rho_half"] - 0.5) < 1e-12
    assert abs(rep["report"]["rho_one"] - 0.25) < 1e-12
    with open(outdir / "manifest.json") as fh:
        man = json.load(fh)
    assert man["config_hash"] == rep["config_hash"]
    assert "report.json" in man["files"]


_TINY = {
    "grid": {"d": 2, "N": 8},
    "params": {"mu": 1.0, "alpha": 0.5, "beta": 1.0, "gamma": 0.0, "r": 3.0, "q": 2.0},
    "initial": {"kind": "random", "amplitude": 0.05, "decay": 2.0},
    "integrator": {"scheme": "imex1", "T": 0.2, "dt": 0.02},
    "seed": 3,
}


# per-experiment additions to _TINY
_TINY_EXTRA = {
    "simulate": {},
    "stabilize-theta": {
        "constraint": {"kind": "ball", "radius": 0.5},
        "controller": {"theta": 1.0},
    },
    "reduce": {"controller": {"n": 4}},
    "stabilize-galerkin": {"controller": {"n": 4, "v0_scale": 1e-3}},
}


@pytest.mark.parametrize("experiment", list(_TINY_EXTRA))
def test_same_config_twice_identical_csv(tmp_path, experiment):
    body = {**_TINY, **_TINY_EXTRA[experiment]}
    body.update(experiment=experiment, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, body)
    assert cli.main([experiment, "--config", cfg]) == 0
    outdir = only_run_dir(tmp_path / "out")
    with open(outdir / "manifest.json") as fh:
        files = json.load(fh)["files"]
    first = {name: (outdir / name).read_bytes() for name in files}
    assert cli.main([experiment, "--config", cfg]) == 0
    assert only_run_dir(tmp_path / "out") == outdir
    assert {name: (outdir / name).read_bytes() for name in files} == first
    if "trajectory.csv" in files:
        assert first["trajectory.csv"].startswith(b"# config_hash=")
        assert len(ts.Trajectory.from_csv(outdir / "trajectory.csv").t) > 1


def test_simulate_reports_steps_taken(tmp_path):
    # 15 steps, recorded at steps 10 and 15: the count is not a multiple of record_every
    out = tmp_path / "o"
    argv = [
        "simulate", "--set", "grid.N=8", "--set", "integrator.T=0.03",
        "--set", "integrator.dt=0.002", "--set", "integrator.record_every=10",
        "--output-dir", str(out),
    ]
    assert cli.main(argv) == 0
    outdir = only_run_dir(out)
    assert load_report(outdir)["report"]["steps"] == 15
    traj = ts.Trajectory.from_csv(outdir / "trajectory.csv")
    assert np.allclose(traj.t, [0.0, 0.02, 0.03], rtol=0, atol=1e-15)


def test_set_overrides_change_hash(tmp_path):
    body = {
        "experiment": "constants",
        "params": {"mu": 1.0, "beta": 1.0, "gamma": 0.0, "r": 5.0, "q": 2.0},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, body)
    assert cli.main(["constants", "--config", cfg]) == 0
    assert cli.main(["constants", "--config", cfg, "--set", "params.r=4.5"]) == 0
    dirs = [p for p in (tmp_path / "out").iterdir() if p.is_dir()]
    assert len(dirs) == 2
    reports = [load_report(d) for d in dirs]
    rs = sorted(rep["config"]["params"]["r"] for rep in reports)
    assert rs == [4.5, 5.0]


def test_exit_code_config_error(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "constants", "params": {"zeta": 1.0}, "output_dir": str(tmp_path / "o")},
    )
    assert cli.main(["constants", "--config", cfg]) == 2
    # r <= q is rejected by parameter validation
    cfg2 = write_config(
        tmp_path,
        {
            "experiment": "constants",
            "params": {"r": 2.0, "q": 3.0},
            "output_dir": str(tmp_path / "o"),
        },
        name="cfg2.json",
    )
    assert cli.main(["constants", "--config", cfg2]) == 2
    # experiment recorded in the file must agree with the subcommand
    cfg3 = write_config(
        tmp_path, {"experiment": "simulate", "output_dir": str(tmp_path / "o")}, name="cfg3.json"
    )
    assert cli.main(["constants", "--config", cfg3]) == 2


@pytest.mark.parametrize(
    "experiment, override",
    [
        ("simulate", "integrator.dt=-0.1"),
        ("simulate", "integrator.dt=0"),
        ("simulate", "integrator.record_every=0"),
        ("stabilize-theta", "integrator.dt=-0.1"),
        ("stabilize-theta", "integrator.record_every=0"),
    ],
)
def test_exit_code_bad_integrator(tmp_path, experiment, override):
    out = tmp_path / "o"
    argv = [experiment, "--set", "grid.N=8", "--set", override, "--output-dir", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists() or not any(out.iterdir())


def test_exit_code_regime_violation(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "stabilize-theta",
            "grid": {"d": 2, "N": 8},
            "params": {"mu": 1.0, "alpha": 0.3, "beta": 1.0, "gamma": 0.0, "r": 2.0, "q": 1.0},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert cli.main(["stabilize-theta", "--config", cfg]) == 4


def test_constants_overflow_is_regime_violation(tmp_path, capsys):
    # r just above 3: the convection rate leaves the float range
    out = str(tmp_path / "out")
    assert cli.main(["constants", "--set", "params.r=3.001", "--output-dir", out]) == 4
    assert "conv_rate" in capsys.readouterr().err
    # stabilize-theta there refuses its non-finite threshold c_min
    args = ["stabilize-theta", "--set", "params.r=3.001", "--set", "grid.N=8",
            "--set", "integrator.T=0.1", "--output-dir", out]
    with np.errstate(invalid="ignore"):
        assert cli.main(args) == 4


def test_constants_uniqueness_overflow_reports_null(tmp_path):
    # q just below r, outside the damping regimes: K1 and K2 leave the float
    # range and are reported as null like the other out-of-regime constants
    out = tmp_path / "out"
    args = ["constants", "--set", "params.r=2.5", "--set", "params.q=2.499",
            "--set", "params.gamma=-3", "--output-dir", str(out)]
    assert cli.main(args) == 0
    rep = load_report(only_run_dir(out))["report"]
    assert rep["regime"] == "unsupported"
    assert rep["K1"] is None and rep["K2"] is None


def test_exit_code_solver_divergence(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "simulate",
            "grid": {"d": 2, "N": 8},
            "params": {"mu": 1e-4, "alpha": 0.1, "beta": 1.0, "gamma": 0.0, "r": 5.0, "q": 2.0},
            "initial": {"kind": "random", "amplitude": 30.0, "decay": 1.0},
            "integrator": {"scheme": "imex1", "T": 50.0, "dt": 1.0},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert cli.main(["simulate", "--config", cfg]) == 3


def test_proportional_defaults_short_horizon(tmp_path):
    # full-mask default at k=50: the eigen solve used to stall (exit 3)
    out = tmp_path / "out"
    argv = ["stabilize-proportional", "--set", "integrator.T=0.05", "--output-dir", str(out)]
    assert cli.main(argv) == 0
    rep = load_report(only_run_dir(out))
    assert abs(rep["extra"]["nu"] - 50.3) < 1e-9
    assert rep["report"]["pointwise_ok"]


def test_proportional_defaults_certificate(tmp_path):
    # roundoff gradient content in the initial state used to take over the
    # full-mask loop by t ~ 0.7, so the default T=2 run missed its own claim
    out = tmp_path / "out"
    argv = ["stabilize-proportional", "--set", "grid.N=16", "--output-dir", str(out)]
    assert cli.main(argv) == 0
    body = load_report(only_run_dir(out))["report"]
    assert body["pointwise_ok"]
    assert body["delta_fit"] > body["delta_claim"]


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("stationary", ["initial.kind=snapshot"]),
        ("eigen", ["equilibrium.kind=bogus", "mask.boxes=[[[1.57,6.28],[0,6.28]]]"]),
        ("constants", ["initial.kind=bogus"]),
    ],
)
def test_experiment_reads_only_its_sections(tmp_path, experiment, overrides):
    # each override would fail an experiment that reads that section
    argv = [experiment, "--set", "grid.N=16", "--output-dir", str(tmp_path / "out")]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 0


def test_stationary_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "stationary",
            "grid": {"d": 2, "N": 16},
            "params": {"mu": 1.0, "alpha": 0.4, "beta": 1.0, "gamma": -0.1, "r": 5.0, "q": 2.0},
            "forcing": {"kind": "random", "amplitude": 0.05, "decay": 2.0},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert cli.main(["stationary", "--config", cfg]) == 0
    outdir = only_run_dir(tmp_path / "out")
    rep = load_report(outdir)
    body = rep["report"]
    assert set(body) == {"residual", "iterations", "uniqueness_report", "energy_report"}
    assert body["residual"] < 1e-10
    assert {"lhs", "rhs", "satisfied"} <= set(body["uniqueness_report"])
    assert body["energy_report"]["satisfied"]
    field = sp.read_snapshot(outdir / "equilibrium.cbfd")
    assert field.grid.N == 16


def test_theta_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "stabilize-theta",
            "grid": {"d": 2, "N": 16},
            "params": {"mu": 1.0, "alpha": 0.3, "beta": 1.0, "gamma": -0.1, "r": 5.0, "q": 2.0},
            "controller": {"delta_target": 0.3},
            "constraint": {"kind": "ball", "radius": 0.5},
            "initial": {"kind": "random", "amplitude": 0.1, "decay": 2.0},
            "integrator": {"scheme": "imex1", "T": 3.0, "dt": 0.01},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert cli.main(["stabilize-theta", "--config", cfg]) == 0
    outdir = only_run_dir(tmp_path / "out")
    rep = load_report(outdir)
    body = rep["report"]
    assert set(body) == {
        "theta", "c_min", "delta_claim", "delta_fit", "pointwise_ok", "invariance_ok",
    }
    assert body["pointwise_ok"] and body["invariance_ok"]
    assert abs(body["delta_claim"] - 0.9 * 0.3) < 1e-12
    traj = ts.Trajectory.from_csv(outdir / "trajectory.csv")
    assert traj.norm_H[-1] < traj.norm_H[0]


def test_proportional_subcommand(tmp_path):
    L = 2 * np.pi
    cfg = write_config(
        tmp_path,
        {
            "experiment": "stabilize-proportional",
            "grid": {"d": 2, "N": 16},
            "params": {"mu": 1.0, "alpha": 0.3, "beta": 1.0, "gamma": -0.1, "r": 5.0, "q": 2.0},
            "mask": {"boxes": [[[L / 8, L], [0.0, L]]]},
            "controller": {"k_gain": 60.0, "eps": 0.0},
            "initial": {"kind": "random", "amplitude": 0.05, "decay": 2.5},
            "integrator": {"scheme": "imex1", "T": 2.0, "dt": 0.005},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert cli.main(["stabilize-proportional", "--config", cfg]) == 0
    outdir = only_run_dir(tmp_path / "out")
    rep = load_report(outdir)
    body = rep["report"]
    assert set(body) == {
        "k_gain", "c_min", "delta_claim", "delta_fit", "pointwise_ok", "invariance_ok",
    }
    assert rep["extra"]["delta"] > 0
    assert body["pointwise_ok"]


def test_eigen_subcommand(tmp_path):
    L = 2 * np.pi
    cfg = write_config(
        tmp_path,
        {
            "experiment": "eigen",
            "grid": {"d": 2, "N": 16},
            "params": {"mu": 1.0, "alpha": 0.3, "beta": 1.0, "gamma": 0.0, "r": 5.0, "q": 2.0},
            "mask": {"boxes": [[[L / 4, L], [0.0, L]]]},
            "controller": {"ladder": [10.0, 20.0, 40.0, 80.0]},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert cli.main(["eigen", "--config", cfg]) == 0
    rep = load_report(only_run_dir(tmp_path / "out"))
    body = rep["report"]
    assert len(body["ladder"]) == 4
    assert all(len(row) == 3 for row in body["ladder"])
    assert body["monotone_ok"]
    assert body["lambda_star"] >= body["nu_max"] - 1e-9
    assert body["rfk_bound"] > 0
    assert body["rfk_bound_scaled"] > body["rfk_bound"] * 0  # present and numeric


def test_reduce_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "reduce",
            "grid": {"d": 2, "N": 16},
            "params": {"mu": 1.0, "alpha": 0.3, "beta": 1.0, "gamma": 0.0, "r": 3.0, "q": 2.0},
            "controller": {"n": 8},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert cli.main(["reduce", "--config", cfg]) == 0
    outdir = only_run_dir(tmp_path / "out")
    rep = load_report(outdir)
    assert rep["report"]["n"] == 8
    assert rep["report"]["rank"] == 8
    with np.load(outdir / "reduction.npz") as bundle:
        assert bundle["Lmat"].shape == (8, 8)
        assert bundle["g1"].shape == (8, 8, 8)
        assert bundle["Bmat"].shape == (8, 8)
        assert np.allclose(bundle["lam"], [0, 0, 1, 1, 1, 1, 2, 2])


def test_galerkin_subcommand(tmp_path):
    L = 2 * np.pi
    cfg = write_config(
        tmp_path,
        {
            "experiment": "stabilize-galerkin",
            "grid": {"d": 2, "N": 16},
            "params": {"mu": 1.0, "alpha": 0.3, "beta": 1.0, "gamma": 0.0, "r": 3.0, "q": 2.0},
            "mask": {"boxes": [[[L / 8, L], [0.0, L]]]},
            "controller": {"sigma": 1.0, "n": 8, "v0_scale": 1e-4},
            "integrator": {"scheme": "imex1", "T": 1.0, "dt": 0.01},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert cli.main(["stabilize-galerkin", "--config", cfg]) == 0
    outdir = only_run_dir(tmp_path / "out")
    rep = load_report(outdir)
    body = rep["report"]
    assert set(body) == {
        "n", "rank", "sigma", "M_hat", "gamma0", "gamma1_or_2",
        "C4", "C5", "rho1", "decay_fit_reduced", "decay_fit_full",
    }
    assert body["rank"] == 8
    assert body["decay_fit_reduced"] > 0.85
    assert (outdir / "trajectory.csv").exists()
    assert (outdir / "reduced.csv").exists()


def test_verify_subcommand(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "constants",
            "params": {"mu": 1.0, "beta": 1.0, "gamma": 0.0, "r": 5.0, "q": 2.0},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert cli.main(["constants", "--config", cfg]) == 0
    target = only_run_dir(tmp_path / "out")
    vcfg = write_config(
        tmp_path,
        {
            "experiment": "verify",
            "verify": {"target": str(target)},
            "output_dir": str(tmp_path / "vout"),
        },
        name="verify.json",
    )
    assert cli.main(["verify", "--config", vcfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    rep = load_report(only_run_dir(tmp_path / "vout"))
    assert rep["report"]["all_ok"]
    names = [c["name"] for c in rep["report"]["checks"]]
    assert "artifact-hashes" in names
    assert all(c["ok"] for c in rep["report"]["checks"])
