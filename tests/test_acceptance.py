"""Desk-scale acceptance checks, numbered one test per guarantee.

Each test is a self-contained experiment with its own tolerance and a
wall-clock budget; `pytest -v` prints one pass/fail line per check.
Everything runs on d = 2 grids with N <= 64.
"""
from __future__ import annotations

import time

import numpy as np

from cbfed import checks
from cbfed import controllers as ct
from cbfed import convex as cx
from cbfed import eigen as eg
from cbfed import galerkin as gk
from cbfed import operators as op
from cbfed import spectral as sp
from cbfed import stationary as st
from cbfed import timestep as ts

import reference_routes as ref


def grid2(N, L=2 * np.pi):
    return sp.TorusGrid(d=2, N=N, L=L)


def offset_field(g, const, seed, amp=0.3, decay=2.5):
    f = amp * sp.random_solenoidal(g, seed=seed, decay=decay)
    c = f.c.copy()
    for i, v in enumerate(const):
        c[i][(0,) * g.d] += v
    return sp.SpectralField(g, c)


def slab_complement_mask(g, width_frac):
    """Control everywhere except a vertical slab of width width_frac * L."""
    L = g.L
    return eg.box_indicator(g, [((width_frac * L, L), (0.0, L))])


def constant_field(g, vec):
    vals = np.zeros((g.d,) + g.shape)
    for a, v in enumerate(vec):
        vals[a] = v
    return sp.SpectralField.from_physical(g, vals)


def test_01_operator_identities():
    t0 = time.perf_counter()
    g = grid2(64)

    # projection: idempotent, self-adjoint, divergence-free output
    checks.leray_projection(*(sp.random_field(g, seed=s, decay=2.0) for s in (1, 2)))

    # convective pairing: antisymmetric, no self-interaction energy
    a, b, c = (sp.random_solenoidal(g, seed=s, decay=2.5) for s in (3, 4, 5))
    checks.trilinear_antisymmetry(a, b, c)

    # damping pairing equals the L^{r+1} norm
    checks.damping_pairing(a, (3.0, 4.0, 5.0))

    # integration-by-parts identity for the damped Laplacian pairing
    for r in (3.0, 5.0):
        w = offset_field(g, (1.0, 0.6), seed=40 + int(r), amp=0.5, decay=3.0)
        assert ref.identity_residual(w, r) < 1e-6

    assert time.perf_counter() - t0 < 10.0


def test_02_monotonicity_and_derivatives():
    t0 = time.perf_counter()
    g = grid2(16)

    for r in (3.0, 4.0, 5.0):
        rng = np.random.default_rng(int(100 * r))
        for _ in range(100):
            sy, sz = (int(s) for s in rng.integers(0, 2**31, size=2))
            ay, az = rng.uniform(0.3, 1.5, size=2)
            y = ay * sp.random_solenoidal(g, seed=sy, decay=2.0)
            z = az * sp.random_solenoidal(g, seed=sz, decay=2.0)
            lhs, mid, low = ref.monotonicity_triple(y, z, r)
            scale = max(1.0, abs(lhs))
            assert lhs >= mid - 1e-8 * scale
            assert mid >= low - 1e-8 * scale

    y = offset_field(g, (1.3, -0.4), seed=81)
    z = sp.random_solenoidal(g, seed=82, decay=2.5)
    w = sp.random_solenoidal(g, seed=83, decay=2.5)
    checks.gateaux_consistency(y, z, (3.0, 4.0, 5.0), eps=1e-5)
    for r in (3.0, 4.0, 5.0):
        h = 1e-4
        fd2 = (0.5 / h) * (op.gateaux_first(y + h * w, z, r) - op.gateaux_first(y - h * w, z, r))
        an2 = ref.gateaux_second(y, z, w, r)
        assert sp.norm_H(fd2 - an2) / max(1.0, sp.norm_H(an2)) < 1e-4

    assert time.perf_counter() - t0 < 30.0


def test_03_constants_arithmetic():
    t0 = time.perf_counter()

    # convection absorption at unit split and uniqueness smallness K1, among others
    checks.constants_arithmetic()
    p5 = op.PhysicalParams(mu=1.0, alpha=0.3, beta=1.0, gamma=0.0, r=5.0, q=2.0)
    sc = op.stability_constants(p5)
    assert abs(sc.eta_conv - 0.25) < 1e-12

    # quadratic-coupling growth constant on the unit torus
    p3 = op.PhysicalParams(mu=1.0, alpha=0.3, beta=1.0, gamma=0.0, r=3.0, q=2.0)
    g = grid2(8)
    red = gk.assemble_reduction(sp.SpectralField.zero(g), 2, p3)
    gc = gk.growth_constants(red, 1.0)
    assert abs(gc["gamma0"] - np.sqrt(2.0) / np.pi) < 1e-12

    assert time.perf_counter() - t0 < 1.0


def test_04_stationary_solver():
    t0 = time.perf_counter()
    g = grid2(16)

    # zero forcing pins the zero state.  alpha >= mu throughout: the
    # energy bound absorbs the forcing against the H-norm, so its
    # closed form is only valid on that side of the parameter space.
    p = op.PhysicalParams(mu=1.0, alpha=1.2, beta=1.0, gamma=0.0, r=5.0, q=2.0)
    res0 = st.solve_stationary(g, p, sp.SpectralField.zero(g))
    assert res0.residual < 1e-11
    assert sp.norm_H(res0.field) < 1e-14

    # constant forcing: alpha s + beta s^r + gamma s^q balances exactly,
    # so the solution is the constant velocity (s, 0)
    for gamma, q in ((0.0, 2.0), (-0.1, 2.0)):
        pc = op.PhysicalParams(mu=1.0, alpha=1.2, beta=1.0, gamma=gamma, r=5.0, q=q)
        s = 0.3
        c1 = pc.alpha * s + pc.beta * s**pc.r + pc.gamma * s**pc.q
        f = constant_field(g, (c1, 0.0))
        res = st.solve_stationary(g, pc, f)
        assert res.residual < 1e-11
        assert sp.norm_H(res.field - constant_field(g, (s, 0.0))) < 1e-10
        assert st.energy_report(res.field, pc, f)["satisfied"]

    # small rough forcing: geometric residual decay and the energy bound
    f = 0.8 * sp.random_solenoidal(g, seed=6, decay=2.0)
    res = st.solve_stationary(g, p, f)
    assert res.residual < 1e-11
    hist = np.asarray(res.residual_history)
    head = hist[hist > 1e-9]
    assert len(head) >= 4
    assert np.max(head[1:] / head[:-1]) < 0.9
    assert st.energy_report(res.field, p, f)["satisfied"]

    assert time.perf_counter() - t0 < 60.0


def test_05_theta_feedback_decay_and_invariance():
    t0 = time.perf_counter()
    g = grid2(32)
    p = op.PhysicalParams(mu=1.0, alpha=0.3, beta=1.0, gamma=-0.1, r=5.0, q=2.0)
    th = ct.theta_threshold(p)
    delta1 = 0.25
    theta = th["c_min"] - p.alpha + delta1
    assert theta + p.alpha - th["c_min"] > 0.2

    K = cx.BallConstraint(0.5)
    z0 = K.project(0.3 * sp.random_solenoidal(g, seed=14, decay=2.0))
    T = 20.0 / delta1
    sim = ts.SimConfig(grid=g, params=p, y0=z0, T=T, dt=0.02, constraint=K, record_every=4)
    report, traj = ct.run_theta_loop(sim, theta)

    assert traj.t[-1] >= T - 1e-9
    assert np.max(traj.dist_K) < 1e-13          # never leaves the ball
    assert report["invariance_ok"]
    assert abs(report["delta_claim"] - 0.9 * delta1) < 1e-12
    assert report["pointwise_ok"]               # |z(t)| <= e^{-0.9 delta1 t} |z0|

    assert time.perf_counter() - t0 < 300.0


def test_06_galerkin_feedback():
    t0 = time.perf_counter()
    g = grid2(16)
    p = op.PhysicalParams(mu=1.0, alpha=0.3, beta=1.0, gamma=0.0, r=3.0, q=2.0)
    dm = slab_complement_mask(g, 1.0 / 8.0)
    red = gk.assemble_reduction(sp.SpectralField.zero(g), 8, p, mask=dm)

    sigma = 1.0
    gs = gk.synthesize_gain(red.Lmat, red.Bmat, sigma)
    assert gs.rank == 8
    assert gs.spectrum.real.min() >= sigma - 1e-8

    gc = gk.growth_constants(red, sigma)
    gamma0, rho1 = gc["gamma0"], gc["rho1"]

    # quadratic coupling obeys the growth constant on 1000 random states
    rng = np.random.default_rng(55)
    V = rng.standard_normal((1000, red.n)) * rng.uniform(0.01, 2.0, size=(1000, 1))
    Q = gk.quadratic_term(red, V)
    assert np.all(
        np.linalg.norm(Q, axis=1) <= gamma0 * np.sum(V**2, axis=1) * (1 + 1e-12)
    )

    # 50 starts inside the certified radius stay there and decay at the margin
    cap = 0.5 * rho1 / gs.M_hat
    dirs = rng.standard_normal((50, red.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    V0 = dirs * (cap * rng.uniform(0.2, 0.99, size=(50, 1)))
    t_r, Vt = gk.reduced_simulate(red, V0, T=5.0, dt=4e-3, gain=gs.G, record_every=10)
    norms = np.linalg.norm(Vt, axis=-1)
    assert np.max(norms) < rho1
    fits = [ct.decay_rate_fit(t_r, norms[:, j])[0] for j in range(V0.shape[0])]
    assert min(fits) >= 0.85 * sigma

    # full-space closed loop tracks the reduced coefficients at first order
    errs = []
    for dt_full in (2e-2, 1e-2):
        sim = ts.SimConfig(grid=g, params=p, y0=None, T=1.0, dt=dt_full)
        _, (_, Vr), traj = gk.run_galerkin_loop(red, sigma, V0[0], sim)
        errs.append(np.linalg.norm(red.span.coeffs(traj.final) - Vr[-1]))
    assert errs[1] < errs[0] < 1e-3
    assert errs[0] / errs[1] > 1.5

    assert time.perf_counter() - t0 < 600.0


def test_07_eigen_ladder_and_proportional_feedback():
    t0 = time.perf_counter()
    g = grid2(16)
    mu, alpha = 1.0, 0.3

    # gain ladder is nondecreasing and stays below the extrapolated limit
    est = eg.lambda_star_estimate(
        g, slab_complement_mask(g, 0.25), [10.0, 20.0, 40.0, 80.0], mu=mu, alpha=alpha
    )
    nus = np.asarray(est["nus"])
    assert est["monotone_ok"]
    assert np.all(np.diff(nus) >= -1e-7)
    assert est["lambda_star"] >= nus.max() - 1e-9

    # zero gain: principal eigenvalue alpha with a constant eigenfield
    nu0, w0, _ = eg.smallest_eigenvalue_Ak(g, 0.0, np.ones(g.shape), mu=mu, alpha=alpha)
    assert abs(nu0 - alpha) < 1e-8
    zero_mode = float(np.sum(np.abs(w0.c[(slice(None),) + (0,) * g.d]) ** 2))
    total = float(np.sum(np.abs(w0.c) ** 2))
    assert 1.0 - zero_mode / total < 1e-10  # all energy in the zero mode

    # full-domain control shifts the whole spectrum by k
    nu_full, _, _ = eg.smallest_eigenvalue_Ak(g, 2.0, np.ones(g.shape), mu=mu, alpha=alpha)
    assert abs(nu_full - (alpha + 2.0)) < 1e-8

    # shrinking the uncontrolled region raises the limit eigenvalue
    g32 = grid2(32)
    wide = eg.lambda_star_estimate(
        g32, slab_complement_mask(g32, 0.25), [10.0, 20.0, 40.0, 80.0], mu=mu, alpha=alpha
    )
    thin = eg.lambda_star_estimate(
        g32, slab_complement_mask(g32, 0.125), [10.0, 20.0, 40.0, 80.0], mu=mu, alpha=alpha
    )
    assert thin["lambda_star"] > wide["lambda_star"]

    # closed proportional loop meets the certified rate pointwise
    p = op.PhysicalParams(mu=mu, alpha=alpha, beta=1.0, gamma=-0.1, r=5.0, q=2.0)
    dm = slab_complement_mask(g, 0.125)
    k_gain = 60.0
    nu, _, _ = eg.smallest_eigenvalue_Ak(g, k_gain, dm, mu=mu, alpha=alpha)
    dec = eg.proportional_decay_constant(nu, p)
    assert dec["delta"] > 0
    c_min = dec["rho_star"] + dec["rho1_star"] + dec["rho2_star"]
    z0 = 0.1 * sp.random_solenoidal(g, seed=9, decay=2.5)
    report, _ = ct.run_proportional_loop(
        ts.SimConfig(grid=g, params=p, y0=z0, T=3.0, dt=2e-3), k_gain, dm,
        delta=dec["delta"], c_min=c_min,
    )
    assert report["pointwise_ok"]           # |z(t)| <= e^{-0.9 delta t} |z0|

    assert time.perf_counter() - t0 < 600.0


def test_08_yosida_path_consistency():
    t0 = time.perf_counter()
    g = grid2(32)
    p = op.PhysicalParams(mu=1.0, alpha=0.5, beta=1.0, gamma=-0.1, r=5.0, q=2.0)
    K = cx.BallConstraint(0.4)
    y0 = K.project(0.4 * sp.random_solenoidal(g, seed=21))
    f = 2.0 * sp.random_solenoidal(g, seed=22, decay=3.0)  # keeps the wall active

    def run(mode, lam, dt, rec):
        cfg = ts.SimConfig(
            grid=g, params=p, y0=y0, T=0.5, dt=dt, forcing=f, constraint=K,
            constraint_mode=mode, yosida_lam=lam, record_every=rec,
        )
        return ref.record_states(cfg)[1]

    runs = [run("yosida", lam, 5e-3, 1) for lam in (0.1, 0.05, 0.025, 0.0125)]
    sups = [ref.sup_state_distance(a, b) for a, b in zip(runs, runs[1:])]
    assert all(x > y for x, y in zip(sups, sups[1:]))

    # with lam = dt the two constraint treatments agree at first order
    errs = []
    for dt, rec in ((5e-3, 1), (2.5e-3, 2)):
        errs.append(ref.sup_state_distance(run("yosida", dt, dt, rec), run("project", None, dt, rec)))
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] > 1.5

    assert time.perf_counter() - t0 < 300.0


def test_09_scheme_self_convergence():
    t0 = time.perf_counter()
    g = grid2(16)
    p = op.PhysicalParams(mu=0.2, alpha=0.5, beta=1.0, gamma=-0.1, r=5.0, q=2.0)
    y0 = 0.5 * sp.random_solenoidal(g, seed=9, decay=3.0)
    f = 0.3 * sp.random_solenoidal(g, seed=10, decay=3.0)

    def final(scheme, dt):
        cfg = ts.SimConfig(grid=g, params=p, y0=y0, T=0.4, dt=dt, forcing=f, scheme=scheme)
        return ts.simulate(cfg).final

    for scheme, expected, slack in (("imex1", 1.0, 0.2), ("cnab2", 2.0, 0.3)):
        a = final(scheme, 0.02)
        b = final(scheme, 0.01)
        c = final(scheme, 0.005)
        order = np.log2(sp.norm_H(a - b) / sp.norm_H(b - c))
        assert abs(order - expected) < slack, (scheme, order)

    assert time.perf_counter() - t0 < 180.0
