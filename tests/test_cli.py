"""Command line harness: config plumbing, artifacts, exit codes, verify."""
from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cbfed import checks, cli
from cbfed import spectral as sp
from cbfed import stationary as st
from cbfed.errors import SolverDivergence

import reference_routes as ref


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
    assert abs(rep["report"]["rho_half"] - 0.5) < 1e-12
    assert abs(rep["report"]["rho_one"] - 0.25) < 1e-12
    assert checks.artifact_hashes(outdir) == f"2 artifacts consistent with {outdir.name}"


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
    checks.artifact_hashes(outdir)
    if "trajectory.csv" in files:
        assert len(ref.trajectory_from_csv(outdir / "trajectory.csv").t) > 1


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
    traj = ref.trajectory_from_csv(outdir / "trajectory.csv")
    assert np.allclose(traj.t, [0.0, 0.02, 0.03], rtol=0, atol=1e-15)


def test_simulate_default_dt_lands_on_T(tmp_path):
    # the default step 0.01389 is shortened to T/4 so that four steps end at T
    out = tmp_path / "o"
    argv = [
        "simulate", "--set", "grid.N=8", "--set", "integrator.T=0.05",
        "--output-dir", str(out),
    ]
    assert cli.main(argv) == 0
    outdir = only_run_dir(out)
    report = load_report(outdir)["report"]
    assert abs(report["dt"] - 0.0125) < 1e-15
    assert report["steps"] == 4
    traj = ref.trajectory_from_csv(outdir / "trajectory.csv")
    assert abs(traj.t[-1] - 0.05) < 1e-15


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
    "experiment, items",
    [
        ("constants", 'params.mu="x"'),
        ("simulate", 'integrator.dt="0.1"'),
        # list keys take lists of numbers; the last item names the bad key
        ("simulate", "forcing.kind=constant forcing.vector=5"),
        ("simulate", 'forcing.kind=constant forcing.vector=[1,"x"]'),
        ("simulate", "forcing.vector=[true,1]"),
        ("simulate", "forcing.vector=5"),
        ("eigen", "mask.boxes=[[[0,3],[0,6.28]]] controller.ladder=5"),
        ("eigen", 'mask.boxes=[[[0,3],[0,6.28]]] controller.ladder=[1,2,"x",4]'),
        ("eigen", "mask.boxes=[[[0,3],[0,6.28]]] controller.ladder=null"),
    ],
)
def test_string_for_number_is_config_error(tmp_path, capsys, experiment, items):
    out = tmp_path / "out"
    argv = [experiment, "--output-dir", str(out)]
    for item in items.split():
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert repr(items.split()[-1].split("=")[0]) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, items",
    [
        ("eigen", "mask.boxes=[[[0,3],[0,6.28]]] controller.tol=0"),
        ("stabilize-proportional", "integrator.T=0.05 controller.k_gain=-1"),
    ],
)
def test_eigen_tolerance_and_gain_are_config_errors(tmp_path, experiment, items):
    # refused before the LOBPCG solve: tol=0 used to run all its iterations
    out = tmp_path / "out"
    argv = [experiment, "--set", "grid.N=8", "--output-dir", str(out)]
    for item in items.split():
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "experiment, item",
    [
        ("stabilize-theta", "controller.slack=-1"),
        ("stabilize-theta", "controller.slack=0"),
        ("stabilize-theta", "controller.slack=1.5"),
        ("stabilize-proportional", "controller.slack=0"),
        ("stabilize-theta", "controller.delta_target=0"),
        ("stabilize-theta", "controller.delta_target=-0.5"),
    ],
)
def test_vacuous_claim_is_config_error(tmp_path, capsys, experiment, item):
    # the loops claim slack * rate: slack=-1 used to exit 0 with a negative claim
    out = tmp_path / "out"
    argv = [experiment, "--set", "grid.N=8", "--set", "integrator.T=0.1",
            "--set", item, "--output-dir", str(out)]
    assert cli.main(argv) == 2
    assert repr(item.split("=")[0]) in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_negative_seed_is_config_error(tmp_path, capsys):
    # np.random.Philox refuses a negative seed: it used to exit 5 as an internal error
    out = tmp_path / "out"
    argv = ["simulate", "--set", "grid.N=8", "--set", "seed=-1", "--output-dir", str(out)]
    assert cli.main(argv) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_unit_slack_is_accepted(tmp_path):
    out = tmp_path / "out"
    argv = ["stabilize-theta", "--set", "grid.N=8", "--set", "integrator.T=0.1",
            "--set", "controller.slack=1", "--set", "controller.delta_target=0.1",
            "--output-dir", str(out)]
    assert cli.main(argv) == 0
    assert abs(load_report(only_run_dir(out))["report"]["delta_claim"] - 0.1) < 1e-12


@pytest.mark.parametrize("theta", ["0", "-1", "0.2", "NaN"])
def test_theta_without_positive_claim_is_config_error(tmp_path, capsys, theta):
    # default params: c_min = 0.5, alpha = 0.3, so theta must exceed 0.2;
    # theta = 0 used to exit 0 with a claim of -0.18
    out = tmp_path / "out"
    argv = ["stabilize-theta", "--set", "grid.N=8", "--set", "integrator.T=0.1",
            "--set", f"controller.theta={theta}", "--output-dir", str(out)]
    assert cli.main(argv) == 2
    assert "'controller.theta'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_default_theta_is_clipped_at_zero(tmp_path):
    # r = 3, gamma = 0: c_min = 0, so c_min - alpha + delta_target is -0.05;
    # that default used to exit 2 naming no config key
    out = tmp_path / "out"
    argv = ["stabilize-theta", "--set", "grid.N=8", "--set", "integrator.T=0.1",
            "--set", "params.r=3", "--output-dir", str(out)]
    assert cli.main(argv) == 0
    body = load_report(only_run_dir(out))["report"]
    assert body["theta"] == 0.0
    assert abs(body["delta_claim"] - 0.9 * 0.3) < 1e-12
    assert body["pointwise_ok"] and body["delta_fit"] > body["delta_claim"]


@pytest.mark.parametrize("d", [2, 3])
def test_loops_stabilize_a_flow_unstable_without_feedback(tmp_path, d):
    # q = 1, gamma = -1.5 < -alpha: the constant modes grow at |gamma| - alpha
    def report(experiment, *items):
        out = tmp_path / experiment
        argv = [experiment, "--output-dir", str(out)]
        for item in (f"grid.d={d}", "grid.N=8", "integrator.T=1", "params.q=1",
                     "params.gamma=-1.5", "initial.amplitude=0.1") + items:
            argv += ["--set", item]
        assert cli.main(argv) == 0
        return only_run_dir(out)

    traj = ref.trajectory_from_csv(report("simulate") / "trajectory.csv")
    assert traj.norm_H[-1] > traj.norm_H[0]
    box = json.dumps([[[0.785, 6.28]] + [[0.0, 6.28]] * (d - 1)])
    for experiment, items in [
        ("stabilize-theta", ()),
        ("stabilize-proportional", ("controller.k_gain=20", f"mask.boxes={box}")),
    ]:
        body = load_report(report(experiment, *items))["report"]
        assert body["pointwise_ok"], experiment
        assert body["delta_fit"] > body["delta_claim"] > 0, experiment


@pytest.mark.parametrize("experiment", ["stabilize-proportional", "stabilize-galerkin"])
def test_full_box_mask_is_the_null_mask(tmp_path, experiment):
    # a box over the whole torus used to exit 2 (empty complement)
    reports = []
    for name, boxes in [("null", "null"), ("full", "[[[0,6.283185307179586],[0,6.283185307179586]]]")]:
        out = tmp_path / name
        argv = [experiment, "--set", "grid.N=8", "--set", "integrator.T=0.1",
                "--set", f"mask.boxes={boxes}", "--output-dir", str(out)]
        assert cli.main(argv) == 0
        reports.append(load_report(only_run_dir(out))["report"])
    assert reports[0] == reports[1]


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def crashing(cfg, outdir, h):
        raise RuntimeError("something broke")

    monkeypatch.setitem(cli._RUNNERS, "simulate", crashing)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--output-dir", str(out)]) == 5
    assert capsys.readouterr().err == "error: internal error: RuntimeError: something broke\n"
    assert list(out.iterdir()) == []


def test_keyboard_interrupt_is_not_caught(tmp_path, monkeypatch):
    def interrupted(cfg, outdir, h):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._RUNNERS, "simulate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["simulate", "--output-dir", str(tmp_path / "out")])


def test_galerkin_run_stacks_its_modes_once(tmp_path, monkeypatch):
    # one span owns the stacked modes and their dual for the reduction,
    # the controller and the projection of the full loop
    calls = []
    dual = sp.parseval_dual
    monkeypatch.setattr(sp, "parseval_dual", lambda c, g: calls.append(1) or dual(c, g))
    cfg = cli.load_effective_config(
        "stabilize-galerkin",
        overrides=["grid.N=8", "controller.n=4", "integrator.T=0.05", "integrator.dt=0.01"],
        output_dir=str(tmp_path / "out"),
    )
    cli.run(cfg)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "key", ["grid.N=8.5", "grid.d=2.5", "controller.n=4.5", "integrator.record_every=1.5",
            "seed=0.5"],
)
def test_fraction_for_integer_is_config_error(tmp_path, capsys, key):
    # int() would truncate it while the hashed config kept the fraction
    out = tmp_path / "out"
    args = ["simulate", "--set", "grid.N=8", "--set", key, "--set", "integrator.T=0.02",
            "--set", "integrator.dt=0.01", "--output-dir", str(out)]
    assert cli.main(args) == 2
    assert "expects an integer" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_for_integer_is_accepted(tmp_path):
    out = tmp_path / "out"
    args = ["simulate", "--set", "grid.N=8.0", "--set", "integrator.T=0.02",
            "--set", "integrator.dt=0.01", "--output-dir", str(out)]
    assert cli.main(args) == 0
    (run,) = out.iterdir()
    assert sp.read_snapshot(run / "final.cbfd").grid.N == 8


@pytest.mark.parametrize(
    "experiment, override",
    [
        ("simulate", "integrator.dt=-0.1"),
        ("simulate", "integrator.dt=0"),
        ("simulate", "integrator.record_every=0"),
        ("stabilize-theta", "integrator.dt=-0.1"),
        ("stabilize-theta", "integrator.record_every=0"),
        # a dt that does not land on T: the run would stop short of the reported T
        ("simulate", "integrator.T=1 integrator.dt=0.3"),
        ("stabilize-theta", "integrator.T=0.1 integrator.dt=2"),
        ("simulate", "integrator.T=0.02 integrator.mode=bogus"),
    ],
)
def test_exit_code_bad_integrator(tmp_path, experiment, override):
    out = tmp_path / "o"
    argv = [experiment, "--set", "grid.N=8", "--output-dir", str(out)]
    for item in override.split():
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "overrides, named",
    [
        # the default step underflows to 0
        ("integrator.T=0.1 params.mu=1e308", "integrator.dt"),
        ("integrator.T=0.1 initial.amplitude=1e308", "integrator.dt"),
        # T/dt overflows
        ("integrator.T=1e308", "integrator.dt"),
        ("integrator.T=1e308 integrator.dt=1e-10", "dt=1e-10"),
        # L**d or (2 pi/L)**2 overflows
        ("grid.L=1e-300", "period L"),
        ("grid.L=1e200", "period L"),
        # L**d is finite, but a norm over the grid's coefficients overflows
        ("grid.L=1e154", "grid.L"),
    ],
)
def test_out_of_range_input_is_config_error(tmp_path, capsys, overrides, named):
    out = tmp_path / "o"
    argv = ["simulate", "--set", "grid.N=8", "--output-dir", str(out)]
    for item in overrides.split():
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_gain_synthesis_overflow_is_solver_divergence(tmp_path, capsys):
    argv = ["stabilize-galerkin", "--set", "grid.N=8", "--set", "integrator.T=0.1",
            "--set", "controller.sigma=1e308", "--output-dir", str(tmp_path / "o")]
    assert cli.main(argv) == 3
    assert "gain synthesis overflowed" in capsys.readouterr().err


# alpha = 1e200: the powers of L in the Kalman matrix leave the float range,
# and the rank of what is left is no answer
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment", ["reduce", "stabilize-galerkin"])
def test_kalman_overflow_is_solver_divergence(tmp_path, capsys, experiment):
    out = tmp_path / "o"
    argv = [experiment, "--set", "grid.N=8", "--set", "params.alpha=1e200",
            "--output-dir", str(out)]
    assert cli.main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: Kalman matrix not finite at max|L| = 1e+200"]
    assert not out.exists() or not any(out.iterdir())


def test_reduced_divergence_is_one_stderr_line(tmp_path, capfd):
    # a child interpreter, so numpy's RuntimeWarnings would reach stderr as they do
    # for a user; the guard's SolverDivergence is the one line printed
    argv = [sys.executable, "-m", "cbfed.cli", "stabilize-galerkin", "--set", "grid.N=8",
            "--set", "integrator.T=0.1", "--set", "controller.sigma=1e4",
            "--output-dir", str(tmp_path / "o")]
    proc = subprocess.run(argv, env=_cli_env(), stdin=subprocess.DEVNULL, timeout=120)
    assert proc.returncode == 3
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: reduced state exploded"), lines


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment, extra", [
    ("stationary", []),
    ("stabilize-theta", ["equilibrium.kind=solve", "integrator.T=0.05"]),
])
def test_diverging_stationary_solve_is_one_stderr_line(tmp_path, capsys, experiment, extra):
    # the Picard iterate overflows here; numpy's RuntimeWarnings used to precede
    # the exit 3, or, as errors, turn it into an internal error (exit 5)
    argv = [experiment, "--output-dir", str(tmp_path / "o")]
    for item in ["grid.N=16", "forcing.kind=random", "forcing.amplitude=20", *extra]:
        argv += ["--set", item]
    assert cli.main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert re.match(r"error: stationary iteration produced a non-finite residual at "
                    r"iteration \d+ \(last finite residual \S+\)$", lines[0]), lines


@pytest.mark.parametrize("experiment, overrides", [
    # the 3-d path runs its transforms as BLAS products on the DFT-matrix route
    ("stabilize-proportional", ["grid.d=3", "grid.N=8", "integrator.T=0.05",
                                "mask.boxes=[[[0.785,6.28],[0.0,6.28],[0.0,6.28]]]"]),
    ("stabilize-galerkin", ["integrator.T=0.05"]),
    # 2-d N = 128: the stored spectrum is long enough for a BLAS dot product
    # to split its sum across threads, and the Parseval pairings must not
    ("stabilize-theta", ["grid.N=128", "integrator.T=0.01", "integrator.dt=0.002"]),
    # the reduction's einsums and span maps on the 3-d path
    ("reduce", ["grid.d=3", "grid.N=16"]),
    # the reduction of the damping grid around a solved equilibrium
    ("stabilize-galerkin", ["forcing.kind=random", "forcing.amplitude=0.5",
                            "equilibrium.kind=solve", "integrator.T=0.05"]),
    # the LOBPCG Gram products
    ("eigen", ["grid.d=3", "grid.N=16", "mask.boxes=[[[0.0,3.14],[0.0,6.28],[0.0,6.28]]]"]),
])
def test_artifacts_do_not_depend_on_blas_threads(tmp_path, experiment, overrides):
    # the same config run at one and at two BLAS threads, into the same output
    # directory: every artifact must be byte-identical
    out = tmp_path / "o"
    argv = [sys.executable, "-m", "cbfed.cli", experiment, "--output-dir", str(out)]
    for item in overrides:
        argv += ["--set", item]
    digests = []
    for threads in ("1", "2"):
        env = {**_cli_env(), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        proc = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append({path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in sorted(out.rglob("*")) if path.is_file()})
    assert any(name.endswith("report.json") for name in digests[0])
    assert digests[0] == digests[1]


def test_huge_even_norm_exponent_returns(tmp_path):
    # r + 1 = 1e308 has an integer half; the L^{r+1} norm once took that many
    # repeated products, so the run never returned
    argv = [sys.executable, "-m", "cbfed.cli", "simulate", "--set", "grid.N=8",
            "--set", "integrator.T=0.05", "--set", "params.r=1e308",
            "--output-dir", str(tmp_path / "o")]
    proc = subprocess.run(argv, env=_cli_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 2), proc.stderr


@pytest.mark.parametrize("argv", [
    ["simulate", "params.mu=1e300", "integrator.T=0.05"],         # default dt about 1e-302
    ["simulate", "integrator.dt=1e-300", "integrator.T=1e-290"],  # 1e10 steps
    ["simulate", "integrator.T=1e300"],
    ["stabilize-theta", "integrator.T=1e300"],
    ["stabilize-galerkin", "integrator.T=1e7"],  # the reduced RK4 alone: 5e9 steps
], ids=["tiny-default-dt", "tiny-dt", "simulate-huge-T", "theta-huge-T", "galerkin-huge-T"])
def test_step_count_above_the_cap_is_refused(tmp_path, argv):
    # each of these once stepped for days; in a child, so that a regression
    # fails by timeout instead of hanging the suite
    cmd = [sys.executable, "-m", "cbfed.cli", argv[0], "--output-dir", str(tmp_path / "o")]
    for item in ["grid.N=8", *argv[1:]]:
        cmd += ["--set", item]
    proc = subprocess.run(cmd, env=_cli_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "integrator.dt" in lines[0] and "integrator.T" in lines[0], lines


@pytest.mark.parametrize("T", ["0.0111", "0.003"])
def test_galerkin_models_end_at_the_same_T(tmp_path, T):
    # T is no multiple of 2e-3: the reduced model takes T over the fewest
    # equal steps no longer than it, as the full loop does with its own cap
    out = tmp_path / "o"
    argv = ["stabilize-galerkin", "--set", "grid.N=32", "--set", f"integrator.T={T}",
            "--output-dir", str(out)]
    assert cli.main(argv) == 0
    outdir = only_run_dir(out)
    t_reduced = np.loadtxt(outdir / "reduced.csv", delimiter=",", skiprows=2)[:, 0]
    t_full = ref.trajectory_from_csv(outdir / "trajectory.csv").t
    assert t_reduced[-1] == t_full[-1] == pytest.approx(float(T), rel=1e-15)


@pytest.mark.parametrize("argv", [
    ["stabilize-theta", "grid.N=8", "integrator.T=0.001"],       # one step
    ["stabilize-theta", "grid.N=8", "integrator.T=0.05", "integrator.record_every=100"],
    ["stabilize-galerkin", "grid.N=8", "integrator.T=0.05", "integrator.record_every=100"],
    ["stabilize-galerkin", "grid.N=4", "integrator.T=0.05"],     # the default step is T
    ["stabilize-galerkin", "grid.N=32", "integrator.T=0.001"],   # the reduced model: one step
], ids=["theta-one-step", "theta-sparse", "galerkin-sparse", "galerkin-one-step",
        "galerkin-reduced-one-step"])
def test_grid_that_cannot_be_fitted_is_refused(tmp_path, capsys, argv):
    # refused before any stepping, with one line naming the keys that widen the window
    out = tmp_path / "o"
    cmd = [argv[0], "--output-dir", str(out)]
    for item in argv[1:]:
        cmd += ["--set", item]
    assert cli.main(cmd) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "fit window" in lines[0], lines
    for key in ("integrator.T", "integrator.dt", "integrator.record_every"):
        assert key in lines[0]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("experiment, n", [("reduce", 500), ("stabilize-galerkin", 0)])
def test_controller_n_out_of_range_is_config_error(tmp_path, capsys, experiment, n):
    out = tmp_path / "o"
    argv = [experiment, "--set", "grid.N=8", "--set", f"controller.n={n}",
            "--output-dir", str(out)]
    assert cli.main(argv) == 2
    assert "mode" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# a non-default value for every integrator key, and the SimConfig field it sets
_INTEGRATOR_PROBES = {
    "scheme": ("cnab2", "scheme"),
    "T": (0.5, "T"),
    "dt": (0.05, "dt"),
    "mode": ("yosida", "constraint_mode"),
    "yosida_lam": (0.1, "yosida_lam"),
    "record_every": (3, "record_every"),
}


def test_sim_config_reads_every_integrator_key():
    # a key that is accepted and hashed but never read would leave its field at the default
    assert set(_INTEGRATOR_PROBES) == set(cli._DEFAULTS["integrator"])
    for key, (value, field) in _INTEGRATOR_PROBES.items():
        assert value != cli._DEFAULTS["integrator"][key]
        cfg = cli.load_effective_config(
            "simulate", overrides=["grid.N=8", f"integrator.{key}={json.dumps(value)}"]
        )
        sim = cli._sim_config(cfg, *cli._setup(cfg))
        assert getattr(sim, field) == value, key


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


# mu = 1e-300: the convection rate 1/(2 mu) times its Young bound is inf,
# which the certificates refuse; no RuntimeWarning may precede that line
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment, message", [
    ("constants", "error: closed-form constants not finite at r=5, q=2: conv_rate, "
                  "threshold_rate, eta_conv, shift_rate, growth_rate, energy_rate"),
    ("stabilize-theta", "error: theta threshold c_min is not finite at r=5, q=2"),
], ids=["constants", "theta"])
def test_tiny_viscosity_is_regime_violation(tmp_path, capsys, experiment, message):
    argv = [experiment, "--set", "params.mu=1e-300", "--set", "grid.N=8",
            "--output-dir", str(tmp_path / "o")]
    assert cli.main(argv) == 4
    assert capsys.readouterr().err.splitlines() == [message]


# constants builds its grid as every run does, so a bad grid key is a config
# error naming it; it used to read grid.L and grid.d by hand, so L = 0 was a
# ZeroDivisionError (exit 5) and the other three ran (exit 0)
@pytest.mark.parametrize("item", ["grid.L=0", "grid.L=-1", "grid.d=5", "grid.N=3"])
def test_constants_validates_the_grid(tmp_path, capsys, item):
    out = tmp_path / "o"
    assert cli.main(["constants", "--set", item, "--output-dir", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {item}:"), lines
    assert not out.exists() or not any(out.iterdir())


# every experiment that reads params (verify does not), at r just above 3,
# where the convection rate leaves the float range, and at (r, q, gamma) =
# (2000, 1500, -1), where 2^q does; stabilize-galerkin also at (1100, 4, -1),
# where its growth constant's 2^(r-2) does.  The certificates of the theta
# and proportional loops and the constants refuse such a constant (exit 4);
# the other runs report it null or inf, and go on.
_BEYOND_FLOAT_RANGE = {
    "r=3.001": ["params.r=3.001"],
    "q=1500": ["params.r=2000", "params.q=1500", "params.gamma=-1"],
    "r=1100": ["params.r=1100", "params.q=4", "params.gamma=-1"],
}
_REFUSING = ("stabilize-theta", "stabilize-proportional", "constants")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment, case, code", [
    *((e, case, 4 if e in _REFUSING else 0)
      for e in cli._EXPERIMENTS if e != "verify" for case in ("r=3.001", "q=1500")),
    ("stabilize-galerkin", "r=1100", 0),
])
def test_constant_beyond_float_range_is_refused_or_reported(
    tmp_path, capsys, experiment, case, code
):
    # a RuntimeWarning or a Python OverflowError here would be exit 5
    out = tmp_path / "out"
    argv = [experiment, "--output-dir", str(out)]
    for item in ["grid.N=8", "integrator.T=0.05", "mask.boxes=[[[0.0,3.14],[0.0,6.28]]]",
                 *_BEYOND_FLOAT_RANGE[case]]:
        argv += ["--set", item]
    assert cli.main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == (code != 0), lines
    if experiment == "eigen":
        assert load_report(only_run_dir(out))["extra"]["decay"] is None


# strong linear pumping, q = 1 and gamma = -5: the loops' certificates at
# y_e = 0 claim more than the linear rate there, alpha + theta + gamma (theta)
# or nu + gamma (proportional), so each run is refused before it steps
@pytest.mark.filterwarnings("error")
# at zero forcing a solved equilibrium is exactly zero, so it is y_e = 0 too
@pytest.mark.parametrize("experiment, items, claim, rate", [
    ("stabilize-theta", ["grid.N=16", "integrator.T=2"], "0.225", "-2.25"),
    ("stabilize-proportional", ["grid.N=16", "mask.boxes=[[[0.785,6.28],[0.0,6.28]]]",
                                "initial.amplitude=0.1", "integrator.T=1"], "4.42063", "2.16181"),
    ("stabilize-theta", ["grid.N=16", "integrator.T=2", "equilibrium.kind=solve"],
     "0.225", "-2.25"),
    ("stabilize-proportional", ["grid.N=16", "mask.boxes=[[[0.785,6.28],[0.0,6.28]]]",
                                "initial.amplitude=0.1", "integrator.T=1",
                                "equilibrium.kind=solve"], "4.42063", "2.16181"),
], ids=["theta", "proportional", "theta-solved-zero", "proportional-solved-zero"])
def test_claim_above_the_linear_rate_is_refused(tmp_path, capsys, experiment, items, claim, rate):
    argv = [experiment, "--output-dir", str(tmp_path / "o")]
    for item in ["params.q=1", "params.gamma=-5", *items]:
        argv += ["--set", item]
    assert cli.main(argv) == 4
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: claimed decay rate {claim} exceeds the linear rate {rate} "
                     f"of the loop at y_e = 0"]
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


# the other side of the oracle: a state small enough that the damping is
# negligible decays at the linear rate l itself, alpha + theta + gamma[q = 1]
# (theta) or nu + gamma[q = 1] (proportional), so its fit lies within 5% of
# l; 3-d theta needs T = 6 for the mean mode, which decays at l, to dominate
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment, items", [
    ("stabilize-theta", []),
    ("stabilize-theta", ["params.q=1", "params.gamma=-0.1"]),
    ("stabilize-theta", ["grid.d=3", "integrator.T=6"]),
    ("stabilize-proportional", ["mask.boxes=[[[0.785,6.28],[0.0,6.28]]]"]),
    ("stabilize-proportional", ["grid.d=3", "mask.boxes=[[[0.785,6.28],[0.0,6.28],[0.0,6.28]]]"]),
], ids=["theta", "theta-q1", "theta-d3", "proportional", "proportional-d3"])
def test_small_state_decays_at_the_linear_rate(tmp_path, experiment, items):
    out = tmp_path / "o"
    argv = [experiment, "--output-dir", str(out)]
    for item in ["grid.N=8", "initial.amplitude=1e-4", *items]:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    rep = load_report(only_run_dir(out))
    p = rep["config"]["params"]
    if experiment == "stabilize-theta":
        rate = p["alpha"] + rep["report"]["theta"]
    else:
        rate = rep["extra"]["nu"]
    rate += p["gamma"] if p["q"] == 1 else 0.0
    assert abs(rep["report"]["delta_fit"] / rate - 1) < 0.05, (rep["report"]["delta_fit"], rate)


def test_non_positive_claim_is_refused(tmp_path, capsys):
    # mu = 0.05 with a half-box mask: the absorption total c_min = 100 exceeds
    # the certified nu, so the proportional loop claims -89.69; it used to
    # exit 0 with pointwise_ok true while the state grew tenfold (delta_fit
    # -7.25), since a negative claim admits any growth up to its rate
    argv = ["stabilize-proportional", "--output-dir", str(tmp_path / "o")]
    for item in ["params.mu=0.05", "grid.N=16", "integrator.T=0.5",
                 "mask.boxes=[[[0.0,3.14],[0.0,6.28]]]"]:
        argv += ["--set", item]
    assert cli.main(argv) == 4
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: claimed decay rate -89.6926 is not positive: "
                     "the loop certifies no decay"]
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("experiment, items, key", [
    ("stabilize-theta", ["initial.kind=zero"], "initial.kind"),
    ("stabilize-proportional", ["initial.amplitude=0", "mask.boxes=[[[0.785,6.28],[0.0,6.28]]]"],
     "initial.amplitude"),
    ("stabilize-galerkin", ["controller.v0_scale=0"], "controller.v0_scale"),
], ids=["theta", "proportional", "galerkin"])
def test_loop_from_zero_is_refused(tmp_path, capsys, experiment, items, key):
    # a zero start has no decay to fit; it used to step to T before a fit
    # error that named no key
    argv = [experiment, "--output-dir", str(tmp_path / "o")]
    for item in ["grid.N=8", "integrator.T=0.1", *items]:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: the loop starts at zero"), lines
    assert key in lines[0]
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_simulate_from_zero_runs(tmp_path):
    out = tmp_path / "o"
    argv = ["simulate", "--set", "grid.N=8", "--set", "initial.kind=zero",
            "--set", "integrator.T=0.1", "--output-dir", str(out)]
    assert cli.main(argv) == 0
    assert load_report(only_run_dir(out))["report"]["final_norm_H"] == 0.0


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


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("experiment, overrides, path", [
    # K2 beyond the float range: the smallness test's right-hand side
    ("stationary", ["params.r=2000", "params.q=1500", "params.gamma=-1"],
     ("uniqueness_report", "rhs")),
    # no finite energy constant just above r = 3
    ("simulate", ["integrator.T=0.05", "params.r=3.001"], ("max_energy_defect",)),
])
def test_report_writes_non_finite_numbers_as_null(tmp_path, experiment, overrides, path):
    out = tmp_path / "out"
    args = [experiment, "--set", "grid.N=8"]
    for item in overrides:
        args += ["--set", item]
    assert cli.main(args + ["--output-dir", str(out)]) == 0
    text = (only_run_dir(out) / "report.json").read_text()
    value = json.loads(text, parse_constant=_refuse_constant)["report"]
    for key in path:
        value = value[key]
    assert value is None


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


def test_failed_run_leaves_no_directory(tmp_path, monkeypatch):
    def failing(cfg, outdir, h):
        (outdir / "partial.csv").write_text("t\n0.0\n")
        raise SolverDivergence("blew up after writing")

    monkeypatch.setitem(cli._RUNNERS, "simulate", failing)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--output-dir", str(out)]) == 3
    assert list(out.iterdir()) == []


def test_rerun_replaces_run_directory(tmp_path):
    out = tmp_path / "out"
    argv = ["constants", "--output-dir", str(out)]
    assert cli.main(argv) == 0
    run = only_run_dir(out)
    first = (run / "report.json").read_bytes()
    (run / "stale.txt").write_text("left over")
    assert cli.main(argv) == 0
    assert only_run_dir(out) == run
    assert sorted(p.name for p in run.iterdir()) == ["manifest.json", "report.json"]
    assert (run / "report.json").read_bytes() == first


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
    traj = ref.trajectory_from_csv(outdir / "trajectory.csv")
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
        # the mode coefficients are written as full spectra
        coeffs = bundle["mode_coeffs"]
    assert coeffs.shape == (8, 2, 16, 16)
    modes = sp.eigenbasis(sp.TorusGrid(d=2, N=16), 8)
    assert np.array_equal(coeffs[..., :9], np.stack([m.field.c for m in modes]))
    mirror = np.conj(coeffs[:, :, (-np.arange(16)) % 16][..., (-np.arange(16)) % 16])
    assert np.array_equal(coeffs, mirror)


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


def test_galerkin_feedback_with_linear_pumping(tmp_path):
    # q = 1, gamma = -1.5 < -alpha: the zero state is unstable without feedback,
    # and the reduced model must carry the pumping term gamma P to match the full loop
    out = tmp_path / "out"
    argv = ["stabilize-galerkin", "--output-dir", str(out)]
    for item in ("grid.N=16", "params.r=3", "params.q=1", "params.gamma=-1.5", "integrator.T=1.5"):
        argv += ["--set", item]
    assert cli.main(argv) == 0
    body = load_report(only_run_dir(out))["report"]
    assert body["decay_fit_full"] >= 0.9 * body["sigma"]
    assert abs(body["decay_fit_full"] - body["decay_fit_reduced"]) < 0.1


def test_galerkin_feedback_in_3d(tmp_path):
    out = tmp_path / "out"
    argv = ["stabilize-galerkin", "--output-dir", str(out)]
    for item in ("grid.d=3", "grid.N=8", "integrator.T=0.1"):
        argv += ["--set", item]
    assert cli.main(argv) == 0
    body = load_report(only_run_dir(out))["report"]
    assert body["decay_fit_reduced"] >= body["sigma"]
    assert body["decay_fit_full"] >= body["sigma"]


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


def test_failed_snapshot_roundtrip_leaves_no_file(tmp_path, monkeypatch, capsys):
    def unreadable(path):
        raise ValueError("snapshot unreadable")

    monkeypatch.setattr(sp, "read_snapshot", unreadable)
    assert cli.main(["verify", "--output-dir", str(tmp_path / "out")]) == 1
    assert re.search(r"^snapshot-roundtrip +FAIL +ValueError: snapshot unreadable",
                     capsys.readouterr().out, re.M)
    run_dir = only_run_dir(tmp_path / "out")
    assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json", "report.json"]


def test_check_constants_pins_K1_off_the_unit_bracket(monkeypatch):
    assert checks.constants_arithmetic() == "frozen values reproduced to 1e-12"

    def inverted(beta, gamma, r, q):
        # K1 with its bracket exponent (q+1)/(r-q) inverted: equal at a unit bracket
        brk = (2 * (q + 1) / (beta * (r + 1))) ** ((r - q) / (q + 1))
        return abs(gamma) ** ((r + 1) / (r - q)) * brk * (r - q) / (r + 1)

    assert abs(inverted(1, -1, 5, 2) - 0.5) < 1e-12
    monkeypatch.setattr(st, "uniqueness_K1", inverted)
    with pytest.raises(checks.CheckFailed, match=r"uniqueness_K1\(1, -1, 5, 1.5\)"):
        checks.constants_arithmetic()


def _cli_env():
    # a child interpreter that imports this cbfed
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def test_verify_fails_under_optimize(tmp_path):
    # python -O strips assert statements; a wrong constant must still fail verify
    code = (
        "import sys\n"
        "from cbfed import cli, operators\n"
        "operators.convection_rate = lambda *args, **kwargs: 0.0\n"
        f"sys.exit(cli.main(['verify', '--output-dir', {str(tmp_path / 'out')!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert re.search(r"^constants-arithmetic +FAIL +CheckFailed: \S", proc.stdout, re.M)
    assert "10/11 checks passed" in proc.stdout


def test_non_string_verify_target_is_config_error(tmp_path, capsys):
    # a config error, not a failed artifact-hashes row
    assert cli.main(["verify", "--set", "verify.target=123", "--output-dir", str(tmp_path)]) == 2
    assert "'verify.target'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["initial", "forcing"])
def test_overflowing_decay_is_config_error(tmp_path, capsys, key):
    # (1 + |k|^2)^150 overflows: the draw never had a finite norm to explode from
    argv = ["simulate", "--set", f"{key}.kind=random", "--set", f"{key}.decay=-300",
            "--set", "integrator.T=0.01", "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{key}.decay'" in err


def test_defect_inside_the_random_draw_is_internal_error(tmp_path, capsys, monkeypatch):
    # only the draw's degenerate norm is a config error: any other ValueError
    # raised inside it is a defect, not a bad 'initial.decay'
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(sp, "random_field", broken)
    argv = ["simulate", "--set", "grid.N=8", "--set", "integrator.T=0.05",
            "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 5
    assert capsys.readouterr().err == "error: internal error: ValueError: boom\n"


@pytest.mark.parametrize("experiment, items, key", [
    ("simulate", ["initial.amplitude=NaN", "integrator.T=0.01"], "initial.amplitude"),
    ("simulate", ["forcing.kind=random", "forcing.amplitude=Infinity"], "forcing.amplitude"),
    ("constants", ["params.gamma=NaN"], "params.gamma"),
    ("eigen", ["mask.boxes=[[[0,3],[0,6.28]]]", "controller.ladder=[10,20,-Infinity,80]"],
     "controller.ladder"),
])
def test_non_finite_number_is_config_error(tmp_path, capsys, experiment, items, key):
    # json.loads reads NaN and Infinity as floats; they used to run (exit 3, 4 or 5)
    argv = [experiment, "--output-dir", str(tmp_path)]
    for item in items:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{key}'" in err and "finite" in err


@pytest.mark.parametrize("experiment", cli._EXPERIMENTS)
def test_every_subcommand_runs_at_its_defaults(tmp_path, capsys, experiment):
    # eigen's default mask controls the whole box: no region is left uncontrolled
    rc = cli.main([experiment, "--set", "grid.N=8", "--output-dir", str(tmp_path)])
    err = "error: complement empty: the gain limit needs an uncontrolled region\n"
    assert (rc, capsys.readouterr().err) == ((2, err) if experiment == "eigen" else (0, ""))


@pytest.mark.parametrize("key", ["initial", "forcing"])
@pytest.mark.parametrize("value", ["2", "true", "[1]"])
def test_non_string_path_is_config_error(tmp_path, key, value):
    # refused before any file is opened: open(2) would read and close stderr
    argv = [sys.executable, "-m", "cbfed.cli", "simulate", "--set", "grid.N=8",
            "--set", f"{key}.kind=snapshot", "--set", f"{key}.path={value}",
            "--output-dir", str(tmp_path / "out")]
    proc = subprocess.run(argv, env=_cli_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert f"'{key}.path'" in proc.stderr
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
