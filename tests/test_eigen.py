"""Localized damped Stokes operator: smallest eigenvalue, limits, lower bounds."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.special

from cbfed import checks
from cbfed import eigen as eg
from cbfed import operators as op
from cbfed import spectral as sp
from cbfed.errors import ConfigError, RegimeError, SolverDivergence


def grid2(N=16):
    return sp.TorusGrid(d=2, N=N)


def slab_complement_mask(g, width_frac):
    """Control region = everything but a slab of the given width fraction."""
    return eg.box_indicator(g, [((g.L * width_frac, g.L), (0.0, g.L))])


def test_domain_mask_boxes_and_volume():
    g = grid2()
    m = eg.box_indicator(g, [((0.0, np.pi), (0.0, np.pi))])
    assert m.shape == g.shape
    assert abs(m.sum() * g.cell_volume - np.pi**2) < 1e-12
    assert abs((1.0 - m).sum() * g.cell_volume - (g.L**2 - np.pi**2)) < 1e-12
    for boxes, message in [
        ([], "at least one box"),
        ([((0.0, 1.0),)], r"one \(lo, hi\) pair per axis"),
        ([((2.0, 1.0), (0.0, 1.0))], "0 <= lo < hi <= L"),
        ([((0.01, 0.02), (0.0, g.L))], "zero volume"),   # between two nodes
    ]:
        with pytest.raises(ConfigError, match=message):
            eg.box_indicator(g, boxes)
    full = eg.box_indicator(g, [((0.0, g.L), (0.0, g.L))])  # the same as no mask
    with pytest.raises(ConfigError):  # only the gain limit needs a complement
        eg.lambda_star_estimate(g, full, [10.0, 20.0, 40.0, 80.0], mu=1.0, alpha=0.3)


@pytest.mark.parametrize("N", [8, 12])
def test_lambda_star_refuses_a_full_mask(N):
    # at N = 12 the complement volume L^2 - N^2 h^2 is 7e-15, not 0, and the
    # full mask used to run the whole ladder
    g = sp.TorusGrid(d=2, N=N)
    with pytest.raises(ConfigError):
        eg.lambda_star_estimate(g, np.ones(g.shape), [10.0, 20.0, 40.0, 80.0], mu=1.0, alpha=0.3)


def test_apply_operator_trivials():
    g = grid2()
    ones = np.ones(g.shape)
    const = sp.SpectralField.from_physical(g, np.stack([ones, np.zeros(g.shape)]))
    out = eg.apply_Ak(const, 0.0, ones, mu=1.0, alpha=0.3)
    assert sp.norm_H(out - 0.3 * const) < 1e-13
    y = sp.random_solenoidal(g, seed=2)
    got = eg.apply_Ak(y, 2.0, ones, mu=0.7, alpha=0.3)
    want = 0.7 * sp.stokes(y) + 2.3 * y
    assert sp.norm_H(got - want) < 1e-12


def test_rayleigh_positivity():
    g = grid2()
    dm = slab_complement_mask(g, 0.25)
    for seed in range(5):
        y = sp.random_solenoidal(g, seed=seed)
        val = sp.inner(eg.apply_Ak(y, 3.0, dm, mu=1.0, alpha=0.3), y)
        assert val >= 0.3 * sp.norm_H(y) ** 2 * (1 - 1e-12)


def test_smallest_eigenvalue_no_control():
    g = grid2()
    checks.eigen_smallest(g, mu=1.0, alpha=0.3, tol=1e-9)
    nu, w, iters = eg.smallest_eigenvalue_Ak(g, 0.0, np.ones(g.shape), mu=1.0, alpha=0.3)
    resid = eg.apply_Ak(w, 0.0, np.ones(g.shape), mu=1.0, alpha=0.3) - nu * w
    assert sp.norm_H(resid) < 1e-8 * sp.norm_H(w)


def test_smallest_eigenvalue_full_mask_shift():
    g = grid2()
    nu, w, _ = eg.smallest_eigenvalue_Ak(g, 2.0, np.ones(g.shape), mu=1.0, alpha=0.3)
    assert abs(nu - 2.3) < 1e-8
    assert abs(sp.norm_H(w) - 1.0) < 1e-10


def test_smallest_eigenvalue_full_mask_large_gain():
    # eigenvalues 50.3 + |k|^2: a 2% relative gap stalled inverse power iteration
    g = sp.TorusGrid(d=2, N=32)
    nu, _, _ = eg.smallest_eigenvalue_Ak(g, 50.0, np.ones(g.shape), mu=1.0, alpha=0.3)
    assert abs(nu - 50.3) < 1e-9


@pytest.mark.parametrize("k", [0.0, 60.0])
@pytest.mark.parametrize("d", [2, 3])
def test_smallest_eigenvalue_matches_dense_reference(d, k):
    g = sp.TorusGrid(d=d, N=8)
    dm = eg.box_indicator(g, [((0.785, g.L),) + ((0.0, g.L),) * (d - 1)])
    # complete basis: the constants, then d - 1 polarizations for each of
    # cosine and sine on the (7^d - 1) / 2 wavevector pairs with |k_i| <= 3
    modes = sp.eigenbasis(g, d + (d - 1) * (7**d - 1))
    w = np.stack([sp.full_spectrum(md.field.c, g).ravel() for md in modes])
    aw = np.stack(
        [sp.full_spectrum(eg.apply_Ak(md.field, k, dm, 1.0, 0.3).c, g).ravel() for md in modes]
    )
    dense = g.L**d * np.real(w.conj() @ aw.T)
    want = np.linalg.eigvalsh(dense)[0]
    nu, _, _ = eg.smallest_eigenvalue_Ak(g, k, dm, mu=1.0, alpha=0.3)
    assert abs(nu - want) <= 1e-9 * want


@pytest.mark.parametrize("d", [2, 3])
def test_scrub_matches_physical_round_trip(d):
    # leaks of every kind the scrub removes: imaginary and anti-Hermitian
    # content, gradient content and the Nyquist planes
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    rng = np.random.default_rng(80 + d)
    shape = (d,) + g.half_shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    leaky = sp.SpectralField(g, sp.random_field(g, seed=81).c * (1 + 1e-3j) + 1e-3 * noise)
    w = sp.leray(sp.SpectralField.from_physical(g, leaky.physical()))
    want = (1.0 / sp.norm_H(w)) * w
    got = eg._scrub(leaky)
    assert np.max(np.abs(got.c - want.c)) <= 1e-14 * np.max(np.abs(want.c))
    # the leak is large enough to matter
    bare = (1.0 / sp.norm_H(leaky)) * leaky
    assert np.max(np.abs(bare.c - want.c)) > 1e-6 * np.max(np.abs(want.c))


def test_large_gain_solve_converges_quickly():
    # the preconditioner carries the coupling's mean gain k mean(m): without
    # it this solve takes over 300 iterations
    g = grid2()
    dm = eg.box_indicator(g, [((0.785, g.L), (0.0, g.L))])
    _, _, iters = eg.smallest_eigenvalue_Ak(g, 800.0, dm, mu=1.0, alpha=0.3)
    assert iters <= 100, iters


def test_smallest_eigenvalue_failure_reports_state():
    g = grid2(8)
    with pytest.raises(SolverDivergence, match=r"Ritz value -\S+ at LOBPCG iteration \d+, residual"):
        eg.smallest_eigenvalue_Ak(g, 0.0, np.ones(g.shape), mu=1.0, alpha=-0.5)


@pytest.mark.parametrize("tol, k_gain", [(0.0, 10.0), (-1e-9, 10.0), (1e-9, -1.0)])
def test_smallest_eigenvalue_refuses_bad_tol_or_gain(monkeypatch, tol, k_gain):
    # refused before the first operator apply, not after MAX_ITERATIONS
    g = grid2(8)
    monkeypatch.setattr(eg, "apply_Ak", lambda *a, **k: pytest.fail("solver iterated"))
    with pytest.raises(ConfigError):
        eg.smallest_eigenvalue_Ak(g, k_gain, np.ones(g.shape), mu=1.0, alpha=0.3, tol=tol)


def test_gram_matrices_come_from_stacked_rows(monkeypatch):
    # the Rayleigh-Ritz Gram matrices come from the stacked rows; only the
    # start and the final check pair fields one by one
    g = grid2()
    calls = []
    inner = sp.inner
    monkeypatch.setattr(sp, "inner", lambda a, b: calls.append(1) or inner(a, b))
    mask = slab_complement_mask(g, 0.5)
    _, _, iters = eg.smallest_eigenvalue_Ak(g, 60.0, mask, mu=1.0, alpha=0.3)
    assert iters >= 10
    assert len(calls) <= 3, (len(calls), iters)


def test_ladder_monotone_and_extrapolant():
    g = grid2()
    dm = slab_complement_mask(g, 0.25)
    rep = eg.lambda_star_estimate(g, dm, [10.0, 20.0, 40.0, 80.0], mu=1.0, alpha=0.3)
    nus = np.array(rep["nus"])
    assert np.all(np.diff(nus) >= -1e-7)
    assert rep["monotone_ok"]
    assert rep["lambda_star"] >= nus.max() - 1e-9
    assert np.all(nus <= rep["lambda_star"] + 1e-7)
    # self-consistency: the extrapolant anticipates a much stiffer penalty
    nu_far, _, _ = eg.smallest_eigenvalue_Ak(g, 800.0, dm, mu=1.0, alpha=0.3)
    assert abs(rep["lambda_star"] - nu_far) <= 0.05 * nu_far
    # the certified lower bound sits below the ladder limit
    assert rep["lambda_star"] >= eg.rfk_bound(rep["complement_volume"], 2) - 1e-6


def test_ladder_guards():
    g = grid2()
    dm = slab_complement_mask(g, 0.25)
    with pytest.raises(ConfigError):
        eg.lambda_star_estimate(g, np.ones(g.shape), [10, 20, 40, 80], mu=1, alpha=0.3)
    with pytest.raises(ConfigError):
        eg.lambda_star_estimate(g, dm, [10, 20, 40], mu=1, alpha=0.3)
    with pytest.raises(ConfigError):
        eg.lambda_star_estimate(g, dm, [10, 20, 15, 80], mu=1, alpha=0.3)


def test_shrinking_complement_raises_limit():
    g = grid2(N=32)
    wide = eg.lambda_star_estimate(
        g, slab_complement_mask(g, 0.25), [10, 20, 40, 80], mu=1.0, alpha=0.3
    )
    thin = eg.lambda_star_estimate(
        g, slab_complement_mask(g, 0.125), [10, 20, 40, 80], mu=1.0, alpha=0.3
    )
    assert thin["lambda_star"] > wide["lambda_star"]


def test_bessel_first_zeros_frozen():
    # at the volume of the unit ball the bound is the first Bessel zero itself
    z0 = eg.rfk_bound(np.pi, 2)
    assert abs(z0 - 2.404825557695773) < 1e-10
    assert abs(eg.rfk_bound(4 * np.pi / 3, 3) - np.pi) < 1e-10
    assert abs(scipy.special.jv(0.0, z0)) < 1e-12


def test_rfk_bound_values():
    assert abs(eg.rfk_bound(np.pi, 2) - 2.404825557695773) < 1e-9
    assert abs(eg.rfk_bound(np.pi / 2, 2) - 2 * 2.404825557695773) < 1e-9
    assert abs(eg.rfk_bound(4 * np.pi / 3, 3) - np.pi) < 1e-9
    j0 = eg.rfk_bound(np.pi, 2)
    want = 0.7 * j0**2 * (np.pi / np.pi) + 0.3
    assert abs(eg.rfk_bound_scaled(np.pi, 2, mu=0.7, alpha=0.3) - want) < 1e-9


def test_proportional_decay_constant():
    p = op.PhysicalParams(mu=1.0, alpha=0.1, beta=1.0, gamma=-0.1, r=5, q=2)
    rep = eg.proportional_decay_constant(2.0, p, eps=0.5)
    assert abs(rep["rho_star"] - 0.25) < 1e-12
    assert abs(rep["rho1_star"] - 0.75 * 0.1 ** (1.0 / 3.0)) < 1e-12
    assert abs(rep["rho2_star"] - 0.75 * 0.2 ** (1.0 / 3.0)) < 1e-12
    want = 2.0 - 0.5 - rep["rho_star"] - rep["rho1_star"] - rep["rho2_star"]
    assert abs(rep["delta"] - want) < 1e-12
    assert rep["positive"]
    # pumping constants vanish without the gamma term
    pz = op.PhysicalParams(mu=1.0, alpha=0.1, beta=1.0, gamma=0.0, r=5, q=2)
    repz = eg.proportional_decay_constant(1.0, pz, eps=0.25)
    assert repz["rho1_star"] == 0.0 and repz["rho2_star"] == 0.0
    assert abs(repz["delta"] - (1.0 - 0.25 - 0.25)) < 1e-12
    with pytest.raises(RegimeError):
        eg.proportional_decay_constant(2.0, op.PhysicalParams(1, 0.1, 1, 0.0, 3, 2), eps=0)
    with pytest.raises(ConfigError):
        eg.proportional_decay_constant(2.0, p, eps=-0.1)


def test_localized_proportional_loop_decays():
    from cbfed import controllers as ct
    from cbfed import timestep as ts

    g = grid2()
    p = op.PhysicalParams(mu=1.0, alpha=0.3, beta=1.0, gamma=-0.1, r=5, q=2)
    dm = slab_complement_mask(g, 0.125)
    k = 60.0
    nu, _, _ = eg.smallest_eigenvalue_Ak(g, k, dm, mu=p.mu, alpha=p.alpha)
    rep = eg.proportional_decay_constant(nu, p, eps=0.0)
    assert rep["positive"]
    z0 = 0.1 * sp.random_solenoidal(g, seed=9, decay=2.5)
    report, _ = ct.run_proportional_loop(
        ts.SimConfig(grid=g, params=p, y0=z0, T=3.0, dt=2e-3), k_gain=k, mask=dm, nu=nu,
        delta=rep["delta"], c_min=rep["rho_star"] + rep["rho1_star"] + rep["rho2_star"],
    )
    assert report["pointwise_ok"]
    assert report["delta_fit"] > 0.9 * rep["delta"]
