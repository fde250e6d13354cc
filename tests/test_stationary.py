"""Stationary solver: damped Picard iteration, uniqueness margin, energy bound."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from cbfed import checks
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
    assert res.residual < 1e-12


def test_smooth_forcing_converges_geometrically():
    g = grid2()
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=-0.1, r=5, q=2)
    f = 0.4 * sp.random_solenoidal(g, seed=17, decay=3.0)
    res = st.solve_stationary(g, p, f, tol=1e-11)
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
    assert res.residual < 1e-11 and res.iterations > 2
    assert len(calls) == res.iterations + 1


def test_iterates_oversample_into_one_array(monkeypatch):
    g = grid2(N=16)
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=-0.1, r=5, q=2)
    forcing = 0.5 * sp.random_solenoidal(g, seed=7)
    outs = []
    oversample = sp.oversample

    def recorded(a, factor, out=None):
        outs.append(out)
        return oversample(a, factor, out=out)

    monkeypatch.setattr(sp, "oversample", recorded)
    res = st.solve_stationary(g, p, forcing)
    assert len(outs) == res.iterations + 1
    assert outs[0] is not None and all(out is outs[0] for out in outs)


def test_solver_divergence_raised():
    g = grid2(N=16)
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=-0.1, r=5, q=2)
    f = 0.4 * sp.random_solenoidal(g, seed=18, decay=3.0)
    with pytest.raises(SolverDivergence):
        st.solve_stationary(g, p, f, tol=1e-13, max_iter=3)


def test_uniqueness_constants_frozen():
    # K1 at r=5, q=2, gamma=-1, beta=1: 1 * (6/6)^1 * 3/6 = 1/2, a pin of the check
    checks.constants_arithmetic()
    # q = 1 collapses K2 to (r-q)/(r-1), independent of gamma, beta
    assert abs(st.uniqueness_K2(beta=7, gamma=-2, r=5, q=1) - 1.0) < 1e-12
    assert st.uniqueness_K1(beta=1, gamma=0, r=5, q=2) == 0.0
    assert st.uniqueness_K2(beta=1, gamma=0, r=5, q=2) == 0.0


def test_uniqueness_constants_beyond_float_range_are_inf():
    # q just below r: |gamma|^((r+1)/(r-q)) = 3^3500 leaves the float range
    assert st.uniqueness_K1(beta=1, gamma=-3, r=2.5, q=2.499) == np.inf
    assert st.uniqueness_K2(beta=1, gamma=-3, r=2.5, q=2.499) == np.inf


# log grid on which the Young bounds are checked pointwise
_S = np.geomspace(1e-4, 1e4, 200001)


@settings(max_examples=60, deadline=None, database=None)
@given(
    beta=hst.floats(0.1, 5.0),
    gamma=hst.floats(-5.0, -0.01),
    q=hst.floats(1.0, 4.0),
    gap=hst.floats(0.2, 3.0),
)
def test_uniqueness_K1_meets_its_split(beta, gamma, q, gap):
    # energy_report absorbs |gamma| s^{q+1} into (beta/2) s^{r+1}: K1 must bound
    # the difference for every s (the exponent (r-q)/(q+1) did not)
    r = q + gap
    k1 = st.uniqueness_K1(beta, gamma, r, q)
    worst = np.max(abs(gamma) * _S ** (q + 1) - beta / 2 * _S ** (r + 1))
    assert k1 >= worst * (1 - 1e-9)


@settings(max_examples=60, deadline=None, database=None)
@given(
    c1=hst.floats(0.01, 10.0),
    c2=hst.floats(0.01, 10.0),
    b=hst.floats(0.0, 4.0),
    gap=hst.floats(0.1, 4.0),
)
def test_young_constant_is_the_supremum(c1, c2, b, gap):
    a = b + gap
    s_star = (b * c1 / (a * c2)) ** (1 / (a - b))
    assume(_S[0] <= s_star <= _S[-1])
    worst = np.max(c1 * _S**b - c2 * _S**a)
    assert abs(op.young_constant(c1, b, c2, a) - worst) <= 1e-6 * abs(worst)


def test_uniqueness_K1_off_the_unit_bracket():
    # (beta, gamma, r, q) -> sup_s |gamma| s^{q+1} - (beta/2) s^{r+1}
    for args, want in [
        ((1, -1, 5, 1.5), 0.512104699233823),
        ((0.3, -2, 4, 2), 18.101933598375618),
        ((2, -0.5, 5, 3), 1 / 54),
        ((1, -0.5, 2.5, 2.499), 5.2561714876846694e-05),  # a power of 3500
    ]:
        got = st.uniqueness_K1(*args)
        assert np.isfinite(got) and abs(got - want) < 1e-12 * want, args


def test_uniqueness_and_energy_reports():
    g = grid2(N=16)
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=-0.1, r=5, q=2)
    f = 0.3 * sp.random_solenoidal(g, seed=23, decay=3.0)
    res = st.solve_stationary(g, p, f)
    uni = st.uniqueness_report(p, f)
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
