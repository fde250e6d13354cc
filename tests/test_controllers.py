"""Feedback laws: damping feedback, localized proportional feedback, decay fits."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cbfed import controllers as ct
from cbfed import convex as cx
from cbfed import eigen as eg
from cbfed import operators as op
from cbfed import spectral as sp
from cbfed import timestep as ts
from cbfed.errors import ConfigError, RegimeError


def grid2(N=16):
    return sp.TorusGrid(d=2, N=N)


def test_theta_controller_is_scaling():
    g = grid2()
    z = sp.random_solenoidal(g, seed=1)
    u = ct.make_theta_controller(0.7)(z)
    assert sp.norm_H(u + 0.7 * z) < 1e-14


def test_benchmark_constants_at_weak_pumping():
    # theta-2d-n128 and prop-3d-n16 run at gamma = -0.1, and the benchmark
    # reference pins what these constants feed (c_min, delta_claim)
    p = op.PhysicalParams(mu=1, alpha=0.3, beta=1, gamma=-0.1, r=5, q=2)
    dec = eg.proportional_decay_constant(1.0, p)
    for got, want in [
        (ct.theta_threshold(p)["c_min"], 1.491207385527988),
        (dec["rho_star"], 0.25),
        (dec["rho1_star"], 0.3481191625209584),
        (dec["rho2_star"], 0.43860266073192994),
    ]:
        assert abs(got - want) <= 1e-12 * want


def test_theta_threshold_supercritical():
    p = op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=0.0, r=5, q=2)
    th = ct.theta_threshold(p)
    assert abs(th["c_min"] - 0.5) < 1e-12  # pure convection constant at eps = 1/2
    assert th["eps"] == 0.5
    # grid search never beats the window edge for these monotone constants
    pg = op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=-0.3, r=5, q=2)
    tg = ct.theta_threshold(pg)
    assert tg["eps"] == 0.5 and tg["eps_tilde"] == 1.0
    manual = (
        op.convection_rate(pg.mu, pg.beta, pg.r, 0.3)
        + op.pumping_rate(pg.beta, pg.gamma, pg.r, pg.q, 0.9)
        + op.pumping_rate(pg.beta, pg.gamma, pg.r, pg.q, 0.3)
    )
    assert tg["c_min"] <= manual + 1e-12


def test_theta_threshold_critical_and_unsupported():
    pc = op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=-1.0, r=3, q=2)
    assert abs(ct.theta_threshold(pc)["c_min"] - 6.0) < 1e-12
    bad = op.PhysicalParams(mu=0.2, alpha=0.1, beta=1, gamma=0.0, r=3, q=2)
    with pytest.raises(RegimeError):
        ct.theta_threshold(bad)


def grid_search_threshold(params, points=16):
    """The 16x16 log-grid search over (eps, eps_tilde) that the closed form replaced."""
    if params.r > 3:
        best = (np.inf, None, None)
        for e in np.logspace(-3, np.log10(0.5), points):
            conv = op.convection_rate(params.mu, params.beta, params.r, e)
            pump_e = op.pumping_rate(params.beta, params.gamma, params.r, params.q, e)
            for et in np.logspace(-3, 0.0, points):
                pump_et = op.pumping_rate(params.beta, params.gamma, params.r, params.q, et)
                c = conv + pump_et + pump_e
                if c < best[0]:
                    best = (c, e, et)
        return {"c_min": best[0], "eps": best[1], "eps_tilde": best[2]}
    if params.r == 3 and 2 * params.beta * params.mu > 1:
        if params.gamma == 0:
            return {"c_min": 0.0, "eps": None, "eps_tilde": None}
        gq = 2.0**params.q * params.q * abs(params.gamma)
        a = op.young_constant(1.0, params.q - 1, 1.0 / gq / params.mu, 2.0)
        b = op.young_constant(1.0, params.q - 1, (params.beta - 1.0 / (2 * params.mu)) / gq, 2.0)
        return {"c_min": a + b, "eps": None, "eps_tilde": None}
    raise RegimeError("damping feedback threshold needs r >= 3")


def same_bits(a, b):
    """Both None, or equal as float64 down to the last bit."""
    if a is None or b is None:
        return a is None and b is None
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def sweep_params(rs):
    for mu, beta, gamma, r, q in itertools.product(
        (0.2, 1.0, 3.0), (0.5, 1.0, 2.0), (0.0, -0.05, -0.3, -1.0, 0.4), rs, (1.0, 1.5, 2.0, 3.0)
    ):
        if r > q:
            yield op.PhysicalParams(mu=mu, alpha=0.3, beta=beta, gamma=gamma, r=r, q=q)


def test_theta_threshold_matches_grid_search():
    regimes = {"supercritical": 0, "critical": 0, "unsupported": 0}
    for p in sweep_params((2.5, 3.0, 3.5, 5.0, 7.5)):
        regimes[p.regime] += 1
        if p.regime == "unsupported":
            for fn in (ct.theta_threshold, grid_search_threshold):
                with pytest.raises(RegimeError):
                    fn(p)
            continue
        got, want = ct.theta_threshold(p), grid_search_threshold(p)
        assert got.keys() == want.keys()
        assert all(same_bits(got[k], want[k]) for k in want), (p, got, want)
        # every certificate reads the one split: the energy bundle at the same
        # window, where it is finite, and the proportional rate at (1, 2)
        try:
            sc = op.stability_constants(p)
        except RegimeError:
            sc = None
        if sc is not None:
            assert same_bits(sc.threshold_rate, got["c_min"]), p
            assert same_bits(sc.growth_rate, sc.threshold_rate), p
        if p.regime == "supercritical":
            dec = eg.proportional_decay_constant(1.0, p)
            rhos = dec["rho_star"], dec["rho1_star"], dec["rho2_star"]
            split = op.threshold_split(p, eps=1.0, eps_tilde=2.0)
            assert all(same_bits(a, b) for a, b in zip(rhos, split)), p
        else:
            with pytest.raises(RegimeError):
                eg.proportional_decay_constant(1.0, p)
    assert min(regimes.values()) > 0, regimes


def test_theta_threshold_near_critical_matches_grid_search():
    # r just above 3: the convection constant can exceed the float range,
    # where the grid search gives c_min = inf and the threshold refuses it,
    # or swamp the pumping terms so far that the grid search's eps_tilde was
    # decided by rounding ties; c_min and eps still match bitwise
    infinite = 0
    for p in sweep_params((3.001, 3.003, 3.01)):
        with np.errstate(over="ignore", under="ignore"):
            want = grid_search_threshold(p)
            if want["c_min"] == np.inf:
                with pytest.raises(RegimeError, match="c_min"):
                    ct.theta_threshold(p)
                infinite += 1
                continue
            got = ct.theta_threshold(p)
        assert same_bits(got["c_min"], want["c_min"]) and same_bits(got["eps"], want["eps"]), p
    assert infinite > 0


def test_proportional_controller_mask_one_is_scaling():
    g = grid2()
    z = sp.random_solenoidal(g, seed=2)
    u = ct.make_proportional_controller(1.5, np.ones(g.shape))(z)
    assert sp.norm_H(u + 1.5 * z) < 1e-13


def test_proportional_controller_dissipates_on_box():
    g = grid2(N=32)
    x = g.nodes()
    mask = ((x[0] > 1.0) & (x[0] < 5.0)).astype(float)
    z = sp.random_solenoidal(g, seed=3, decay=1.5)
    k = 2.0
    u = ct.make_proportional_controller(k, mask)(z)
    zv = z.physical()
    ref = -k * np.sum(mask * np.sum(zv**2, axis=0)) * g.cell_volume
    assert abs(sp.inner(u, z) - ref) < 1e-12 * max(1.0, abs(ref))
    assert sp.inner(u, z) <= 0
    assert sp.divergence_max(u) < 1e-12


def test_decay_rate_fit_exact_exponential():
    t = np.linspace(0, 10, 101)
    norms = 3.0 * np.exp(-0.7 * t)
    delta, r2 = ct.decay_rate_fit(t, norms)
    assert abs(delta - 0.7) < 1e-10
    assert r2 > 1 - 1e-12


@pytest.mark.parametrize("dt", [1e-14, 3e-13, 1e-12, 7e-4, 0.0125, 0.002, 1 / 3, 2.5])
def test_fit_window_gate_agrees_with_the_fit(dt):
    # the gate refuses a grid exactly where the fit of its recorded times
    # m * dt (m a multiple of every, or the last step) finds one sample
    for nsteps, every in itertools.product(range(1, 80), range(1, 20)):
        steps = [m for m in range(nsteps + 1) if m % every == 0 or m == nsteps]
        t = np.array([m * dt for m in steps])
        try:
            ct.decay_rate_fit(t, np.exp(-t))
            fits = True
        except ConfigError:
            fits = False
        try:
            ct.check_fit_window(dt, nsteps, every)
            passes = True
        except ConfigError:
            passes = False
        assert passes == fits, (nsteps, every)


def test_pointwise_decay_check():
    t = np.linspace(0, 10, 101)
    norms = np.exp(-0.7 * t)
    assert ct.pointwise_decay_ok(t, norms, 0.65)
    assert not ct.pointwise_decay_ok(t, norms, 0.75)


def test_theta_closed_loop_report():
    g = grid2()
    p = op.PhysicalParams(mu=1, alpha=0.3, beta=1, gamma=-0.1, r=5, q=2)
    K = cx.BallConstraint(0.5)
    z0 = 0.3 * sp.random_solenoidal(g, seed=11, decay=2.5)
    th = ct.theta_threshold(p)
    theta = th["c_min"] - p.alpha + 0.4  # delta1 = 0.4
    report, traj = ct.run_theta_loop(
        ts.SimConfig(grid=g, params=p, y0=z0, T=5.0, dt=0.01, constraint=K), theta=theta,
        c_min=th["c_min"],
    )
    assert set(report) == {"theta", "c_min", "delta_claim", "delta_fit", "pointwise_ok", "invariance_ok"}
    assert report["invariance_ok"] and report["pointwise_ok"]
    assert abs(report["delta_claim"] - 0.9 * 0.4) < 1e-12
    assert report["delta_fit"] > 0.9 * 0.4
    assert np.max(traj.dist_K) < 1e-10


def test_theta_loop_refuses_infinite_threshold():
    # r just above 3: c_min = inf, so no finite theta certifies decay; the
    # threshold the loop takes refuses it
    p = op.PhysicalParams(mu=1, alpha=0.3, beta=1, gamma=0.0, r=3.001, q=2)
    with pytest.raises(RegimeError, match="c_min"):
        ct.theta_threshold(p)


def test_proportional_closed_loop_report():
    g = grid2(N=32)
    p = op.PhysicalParams(mu=1, alpha=0.3, beta=1, gamma=-0.05, r=5, q=2)
    mask = np.ones(g.shape)  # fully supported control: u = -k z
    z0 = 0.3 * sp.random_solenoidal(g, seed=12, decay=2.5)
    report, traj = ct.run_proportional_loop(
        ts.SimConfig(grid=g, params=p, y0=z0, T=4.0, dt=0.005),
        k_gain=2.0, mask=mask, nu=p.alpha + 2.0, delta=1.0, c_min=0.8,
    )
    assert set(report) == {"k_gain", "c_min", "delta_claim", "delta_fit", "pointwise_ok", "invariance_ok"}
    assert report["pointwise_ok"]
    assert report["delta_fit"] > 0.9


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    r=hst.floats(4.0, 8.0),
    q=hst.sampled_from([1.0, 2.0, 3.0]),
    gamma=hst.floats(-8.0, -1.0) | hst.floats(-1.0, 1.0),
    gain=hst.floats(0.0, 20.0),
    proportional=hst.booleans(),
)
def test_no_claim_above_the_linear_rate(r, q, gamma, gain, proportional):
    # at y_e = 0 a small state decays at the linear rate, alpha + theta +
    # gamma [q = 1] (theta) or nu + gamma [q = 1] (proportional), and no
    # faster: a claim the loops issue stays at or below it, or is refused
    g = grid2(N=8)
    p = op.PhysicalParams(mu=1.0, alpha=0.3, beta=1.0, gamma=gamma, r=r, q=q)
    sim = ts.SimConfig(grid=g, params=p, y0=1e-4 * sp.random_solenoidal(g, seed=5), T=0.02, dt=0.01)
    pumping = gamma if q == 1 else 0.0
    try:
        if proportional:
            mask = eg.box_indicator(g, [((0.785, 6.28), (0.0, 6.28))])
            nu, _, _ = eg.smallest_eigenvalue_Ak(g, gain, mask, mu=p.mu, alpha=p.alpha)
            dec = eg.proportional_decay_constant(nu, p)
            c_min = dec["rho_star"] + dec["rho1_star"] + dec["rho2_star"]
            report, _ = ct.run_proportional_loop(sim, gain, mask, nu, dec["delta"], c_min)
            rate = nu + pumping
        else:
            c_min = ct.theta_threshold(p)["c_min"]
            theta = max(0.0, c_min - p.alpha) + gain
            report, _ = ct.run_theta_loop(sim, theta, c_min)
            rate = p.alpha + theta + pumping
    except RegimeError:     # no claim issued
        return
    assert report["delta_claim"] <= rate
