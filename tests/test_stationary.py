"""Stationary solver: damped Picard iteration, uniqueness margin, energy bound."""
from __future__ import annotations

import numpy as np
import pytest

from cbfed import operators as op
from cbfed import spectral as sp
from cbfed import stationary as st
from cbfed.errors import SolverDivergence


def grid2(N=32):
    return sp.TorusGrid(d=2, N=N)


def bisect(fun, lo, hi, tol=1e-14):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fun(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_zero_forcing_gives_zero():
    g = grid2(N=16)
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=-0.1, r=5, q=2)
    res = st.solve_stationary(g, p, sp.SpectralField.zero(g))
    assert sp.norm_H(res.field) < 1e-13
    assert res.residual < 1e-11
    assert res.converged


def test_constant_forcing_matches_scalar_equation():
    # constant forcing c e: solution m e with alpha m + beta m^r + gamma m^q = c
    g = grid2(N=16)
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1.0, gamma=-0.1, r=5, q=2)
    cmag = 0.3
    f = sp.SpectralField.zero(g)
    f.c[0][(0, 0)] = cmag
    m_ref = bisect(lambda m: p.alpha * m + p.beta * m**5 + p.gamma * m**2 - cmag, 0.0, 2.0)
    res = st.solve_stationary(g, p, f, tol=1e-12)
    expect = sp.SpectralField.zero(g)
    expect.c[0][(0, 0)] = m_ref
    assert sp.norm_H(res.field - expect) < 1e-10
    assert res.converged


def test_smooth_forcing_converges_geometrically():
    g = grid2()
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=-0.1, r=5, q=2)
    f = 0.4 * sp.random_solenoidal(g, seed=17, decay=3.0)
    res = st.solve_stationary(g, p, f, tol=1e-11)
    assert res.converged
    assert res.residual < 1e-11
    hist = np.asarray(res.residual_history)
    # geometric decay: the tail drops by a healthy overall factor
    assert hist[-1] < 1e-8 * hist[0]
    drops = hist[1:] / np.maximum(hist[:-1], 1e-300)
    assert np.median(drops) < 0.9
    assert sp.divergence_max(res.field) < 1e-10


def test_one_rhs_per_picard_iterate(monkeypatch):
    # the residual's right-hand side is reused by the update
    g = grid2(N=16)
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=-0.1, r=5, q=2)
    forcing = 0.5 * sp.random_solenoidal(g, seed=7)
    calls = []
    rhs = st._rhs

    def counted(*args):
        calls.append(1)
        return rhs(*args)

    monkeypatch.setattr(st, "_rhs", counted)
    res = st.solve_stationary(g, p, forcing)
    assert res.converged and res.iterations > 2
    assert len(calls) == res.iterations + 1


def test_solver_divergence_raised():
    g = grid2(N=16)
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=-0.1, r=5, q=2)
    f = 0.4 * sp.random_solenoidal(g, seed=18, decay=3.0)
    with pytest.raises(SolverDivergence):
        st.solve_stationary(g, p, f, tol=1e-13, max_iter=3)


def test_uniqueness_constants_frozen():
    # K1 at r=5, q=2, gamma=-1, beta=1: 1 * (6/6)^1 * 3/6 = 1/2
    assert abs(st.uniqueness_K1(beta=1, gamma=-1, r=5, q=2) - 0.5) < 1e-12
    # q = 1 collapses K2 to (r-q)/(r-1), independent of gamma, beta
    assert abs(st.uniqueness_K2(beta=7, gamma=-2, r=5, q=1) - 1.0) < 1e-12
    assert st.uniqueness_K1(beta=1, gamma=0, r=5, q=2) == 0.0
    assert st.uniqueness_K2(beta=1, gamma=0, r=5, q=2) == 0.0


def test_uniqueness_constants_beyond_float_range_are_inf():
    # q just below r: |gamma|^((r+1)/(r-q)) = 3^3500 leaves the float range
    assert st.uniqueness_K1(beta=1, gamma=-3, r=2.5, q=2.499) == np.inf
    assert st.uniqueness_K2(beta=1, gamma=-3, r=2.5, q=2.499) == np.inf


def test_uniqueness_and_energy_reports():
    g = grid2(N=16)
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=-0.1, r=5, q=2)
    f = 0.3 * sp.random_solenoidal(g, seed=23, decay=3.0)
    res = st.solve_stationary(g, p, f)
    uni = st.uniqueness_report(p, f, embed_const=1.0)
    assert set(uni) == {"lhs", "rhs", "satisfied", "heuristic"}
    assert uni["lhs"] == min(p.mu, p.alpha)
    assert uni["satisfied"] == (uni["lhs"] >= uni["rhs"])
    en = st.energy_report(res.field, p, f)
    assert set(en) == {"lhs", "rhs", "satisfied"}
    assert en["satisfied"] and en["lhs"] <= en["rhs"]
    # lhs recomputed by hand
    lhs_hand = min(p.mu, p.alpha / 2) * sp.norm_V(res.field) ** 2 + (
        p.beta / 2
    ) * sp.norm_Lp(res.field, p.r + 1) ** (p.r + 1)
    assert abs(en["lhs"] - lhs_hand) < 1e-12 * max(1.0, lhs_hand)
