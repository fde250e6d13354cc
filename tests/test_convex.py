"""Constraint sets: projections, Yosida terms, resolvent invariance."""
from __future__ import annotations

import numpy as np
import pytest

from cbfed import convex as cx
from cbfed import spectral as sp

import reference_routes as ref


def grid2(N=16):
    return sp.TorusGrid(d=2, N=N)


def test_ball_projection_and_contains():
    g = grid2()
    K = cx.BallConstraint(1.0)
    x = 2.0 * sp.random_solenoidal(g, seed=1)
    p = K.project(x)
    assert abs(sp.norm_H(p) - 1.0) < 1e-12
    # direction preserved
    assert sp.norm_H(p - 0.5 * x) < 1e-12
    assert K.distance(p) <= 1e-12
    assert K.distance(x) > 1e-12
    inside = 0.3 * sp.random_solenoidal(g, seed=2)
    assert sp.norm_H(K.project(inside) - inside) == 0.0
    assert abs(K.distance(x) - 1.0) < 1e-12


def test_ball_yosida_frozen():
    # R = 1, ||x|| = 2, lam = 1/2: (x - P x)/lam = x
    g = grid2()
    K = cx.BallConstraint(1.0)
    x = 2.0 * sp.random_solenoidal(g, seed=3)
    yos = cx.yosida_term(K, x, 0.5)
    assert sp.norm_H(yos - x) < 1e-12
    inside = 0.5 * sp.random_solenoidal(g, seed=4)
    assert sp.norm_H(cx.yosida_term(K, inside, 0.25)) == 0.0


def test_projection_nonexpansive():
    g = grid2()
    for K in (cx.BallConstraint(0.8), cx.SpanConstraint(sp.eigenbasis(g, 6))):
        for t in range(8):
            x = 2.0 * sp.random_solenoidal(g, seed=100 + t, decay=1.5)
            y = 1.5 * sp.random_solenoidal(g, seed=200 + t, decay=1.5)
            lhs = sp.norm_H(K.project(x) - K.project(y))
            assert lhs <= sp.norm_H(x - y) * (1 + 1e-12)
            p = K.project(x)
            assert sp.norm_H(K.project(p) - p) < 1e-12


def test_span_projection_orthogonal():
    g = grid2()
    modes = sp.eigenbasis(g, 6)
    K = cx.SpanConstraint(modes)
    x = sp.random_solenoidal(g, seed=7, decay=1.0)
    p = K.project(x)
    for m in modes:
        assert abs(sp.inner(x - p, m.field)) < 1e-12
    assert K.distance(p) < 1e-12


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("d, N, n", [(2, 32, 8), (3, 8, 10)])
def test_span_maps_match_complex_formulas(d, N, n):
    # the float-view matmuls against Re(dual @ x) and tensordot on the complex
    # spectra, for a non-solenoidal field held in a non-contiguous array
    g = sp.TorusGrid(d=d, N=N)
    K = cx.SpanConstraint(sp.eigenbasis(g, n))
    dual = sp.parseval_dual(K.spectra, g)
    x = sp.random_field(g, seed=31, decay=1.0)
    assert sp.divergence_max(x) > 1e-2
    xs = sp.SpectralField(g, np.asfortranarray(x.c))
    assert not xs.c.flags.c_contiguous
    want_c = np.real(dual @ x.c.reshape(-1))
    assert _rel(K.coeffs(xs), want_c) <= 1e-14
    want_p = np.tensordot(want_c, K.spectra, axes=(0, 0))
    assert _rel(K.project(xs).c, want_p) <= 1e-14
    want_d = sp.norm_H(x - sp.SpectralField(g, want_p))
    assert abs(K.distance(xs) - want_d) <= 1e-14 * want_d
    v = np.random.default_rng(5).standard_normal(n)
    assert _rel(K.expand(v).c, np.tensordot(v, K.spectra, axes=(0, 0))) <= 1e-14
    assert _rel(K.coeffs(K.expand(v)), v) <= 1e-14


def test_resolvent_invariance_ball_and_span():
    g = grid2()
    for K in (cx.BallConstraint(1.0), cx.SpanConstraint(sp.eigenbasis(g, 6))):
        margin = ref.resolvent_invariance_margin(
            K, g, lams=(1e-3, 0.1, 1.0), samples=20, seed=11
        )
        assert margin < 1e-11


class HalfSpace:
    """Adversarial fixture: {x: (x, gref) >= 0} is convex with 0 in it, but
    the Stokes resolvent reweights frequencies and escapes it."""

    def __init__(self, gref):
        self.gref = gref
        self.g2 = sp.norm_H(gref) ** 2

    def project(self, x):
        val = sp.inner(x, self.gref)
        if val >= 0:
            return x.copy()
        return x - (val / self.g2) * self.gref

    def distance(self, x):
        return sp.norm_H(x - self.project(x))


def test_resolvent_invariance_detects_bad_set():
    g = grid2()
    modes = sp.eigenbasis(g, 8)
    lo, hi = modes[2].field, modes[6].field  # different shells
    gref = lo + hi
    K = HalfSpace(gref)
    # boundary witness: orthogonal to gref but frequency-imbalanced
    x = -1.0 * lo + 1.0 * hi
    assert K.distance(x) <= 1e-12
    y = ref.resolvent(x, 1.0)
    assert K.distance(y) > 1e-9
    margin = ref.resolvent_invariance_margin(
        K, g, lams=(1.0,), samples=10, seed=13, witnesses=[x]
    )
    assert margin > 1e-6
