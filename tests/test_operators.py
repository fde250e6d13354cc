"""Nonlinear operators: convection, power damping, derivatives, constants.

Oracles: hand trig identities (Taylor-Green, sin^3), finite differences,
nodal quadrature on independently padded grids, and hand-evaluated closed
forms for the absorption/growth constants.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfed import checks
from cbfed import operators as op
from cbfed import spectral as sp
from cbfed import stationary
from cbfed import timestep as ts
from cbfed.errors import ConfigError, RegimeError

import reference_routes as ref


def grid2(N=32, L=2 * np.pi):
    return sp.TorusGrid(d=2, N=N, L=L)


def bandlimit(f):
    # restrict to the quadratic dealias band of the field's own grid
    return sp.SpectralField(f.grid, f.c * f.grid.dealias)


def offset_field(g, const, seed, amp=0.3, decay=2.5):
    """Smooth field bounded away from zero: constant vector + small roughness."""
    f = amp * sp.random_solenoidal(g, seed=seed, decay=decay)
    c = f.c.copy()
    for i, v in enumerate(const):
        c[i][(0,) * g.d] += v
    return sp.SpectralField(g, c)


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=-0.5, r=5, q=2)
    with pytest.raises(ConfigError):
        op.PhysicalParams(mu=-1, alpha=0.1, beta=1, gamma=0, r=5, q=2)
    with pytest.raises(ConfigError):
        op.PhysicalParams(mu=1, alpha=0, beta=1, gamma=0, r=5, q=2)
    with pytest.raises(ConfigError):
        op.PhysicalParams(mu=1, alpha=1, beta=1, gamma=0, r=3, q=3)  # needs r > q
    with pytest.raises(ConfigError):
        op.PhysicalParams(mu=1, alpha=1, beta=1, gamma=0, r=2, q=0.5)  # q >= 1


def test_params_regime():
    assert op.PhysicalParams(1, 1, 1, 0.0, 5, 2).regime == "supercritical"
    assert op.PhysicalParams(1, 1, 1, 0.0, 3, 2).regime == "critical"  # 2 b mu = 2 > 1
    assert op.PhysicalParams(0.2, 1, 1, 0.0, 3, 2).regime == "unsupported"  # 2 b mu < 1
    assert op.PhysicalParams(1, 1, 1, 0.0, 2.5, 1).regime == "unsupported"


# ---------------------------------------------------------------------------
# convection


def test_taylor_green_advection_is_gradient():
    # y = (sin x cos y, -cos x sin y): (y.grad)y = grad of a scalar, so the
    # solenoidal projection of the advection term vanishes identically
    g = grid2()
    x = g.nodes()
    u = np.stack([np.sin(x[0]) * np.cos(x[1]), -np.cos(x[0]) * np.sin(x[1])])
    y = sp.SpectralField.from_physical(g, u)
    assert sp.divergence_max(y) < 1e-12
    b = op.convective(y)
    assert sp.norm_H(b) < 1e-12


def test_convective_matches_trilinear_pairing():
    g = grid2(N=36)
    y = bandlimit(sp.random_solenoidal(g, seed=21, decay=2.0))
    w = bandlimit(sp.random_solenoidal(g, seed=22, decay=2.0))
    lhs = sp.inner(op.convective(y), w)
    rhs = op.trilinear(y, y, w)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_trilinear_antisymmetry_and_zero_energy():
    g = grid2(N=24)
    for seed in range(6):
        checks.trilinear_antisymmetry(
            *(sp.random_solenoidal(g, seed=s + seed, decay=2.0) for s in (300, 400, 500))
        )


@settings(max_examples=25, deadline=None, database=None)
@given(
    d=st.sampled_from([2, 3]),
    N=st.sampled_from(range(8, 21, 2)),
    L=st.floats(0.5, 20.0),
    seed=st.integers(0, 2**32 - 3),
)
def test_trilinear_antisymmetry_property(d, N, L, seed):
    # the verify check trilinear-antisymmetry, with z and w not solenoidal
    g = sp.TorusGrid(d=d, N=N, L=L)
    y = sp.random_solenoidal(g, seed, decay=1.0)
    z = sp.random_field(g, seed + 1, decay=1.0)
    w = sp.random_field(g, seed + 2, decay=1.0)
    checks.trilinear_antisymmetry(y, z, w)


def test_trilinear_needs_solenoidal_first_slot():
    # with div y != 0 the antisymmetry breaks; quadrature must still run
    g = grid2(N=16)
    y = sp.random_field(g, seed=9, decay=2.0)  # not projected
    z = sp.random_solenoidal(g, seed=10)
    val = op.trilinear(y, z, z)
    assert np.isfinite(val)


def test_shifted_convective_energy_identity():
    # (B(ye+z) - B(ye), z) = b(z, ye, z) for solenoidal fields
    g = grid2(N=36)
    ye = bandlimit(sp.random_solenoidal(g, seed=31, decay=2.0))
    z = bandlimit(sp.random_solenoidal(g, seed=32, decay=2.0))
    lhs = sp.inner(op.shifted_convective(z, ye), z)
    rhs = op.trilinear(z, ye, z)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
    # ye = None reduces to the plain operator
    d = op.shifted_convective(z, None) - op.convective(z)
    assert sp.norm_H(d) == 0.0


# ---------------------------------------------------------------------------
# power damping


def test_sin_cubed_closed_form():
    # |y|^2 y for y = (sin x2, 0): sin^3 t = (3 sin t - sin 3t)/4
    g = grid2()
    x = g.nodes()
    y = sp.SpectralField.from_physical(g, np.stack([np.sin(x[1]), np.zeros(g.shape)]))
    c = op.power_damping(y, 3)
    expect = np.stack([(3 * np.sin(x[1]) - np.sin(3 * x[1])) / 4, np.zeros(g.shape)])
    assert np.max(np.abs(c.physical() - expect)) < 1e-12


def test_power_damping_pairing():
    # (C_p(y), y) = ||y||_{L^{p+1}}^{p+1}
    g = grid2()
    for r, seed in ((3, 61), (4, 62), (5, 63)):
        checks.damping_pairing(sp.random_solenoidal(g, seed=seed, decay=2.5), (r,), tol=1e-9)


@settings(max_examples=25, deadline=None, database=None)
@given(
    d=st.sampled_from([2, 3]),
    N=st.sampled_from([8, 12, 16]),
    r=st.sampled_from([3.0, 4.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
    amp=st.floats(0.01, 100.0),
)
def test_power_damping_pairing_property(d, N, r, seed, amp):
    # the verify check damping-pairing, in 2-d and 3-d over four decades of amplitude
    checks.damping_pairing(amp * sp.random_solenoidal(sp.TorusGrid(d=d, N=N), seed), (r,))


@settings(max_examples=25, deadline=None, database=None)
@given(
    d=st.sampled_from([2, 3]),
    N=st.sampled_from([8, 12, 16]),
    r=st.sampled_from([3.0, 4.0, 5.0]),
    seed=st.integers(0, 2**32 - 2),
    amp_y=st.floats(0.01, 100.0),
    amp_z=st.floats(0.01, 100.0),
)
def test_strong_monotonicity_property(d, N, r, seed, amp_y, amp_z):
    # the verify check strong-monotonicity, on pairs of unequal amplitude
    g = sp.TorusGrid(d=d, N=N)
    checks.strong_monotonicity([(amp_y * sp.random_solenoidal(g, seed),
                                 amp_z * sp.random_solenoidal(g, seed + 1), r)])


def test_power_damping_p1_is_projection():
    g = grid2(N=16)
    y = sp.random_field(g, seed=77, decay=1.5)
    d = op.power_damping(y, 1) - sp.leray(y)
    assert sp.norm_H(d) < 1e-14


def test_monotonicity_chain():
    g = grid2(N=24)
    for r in (3, 4, 5):
        for trial in range(10):
            y = sp.random_solenoidal(g, seed=1000 + 17 * r + trial, decay=2.0)
            z = 0.7 * sp.random_solenoidal(g, seed=2000 + 17 * r + trial, decay=2.0)
            lhs, mid, low = ref.monotonicity_triple(y, z, r)
            scale = max(1.0, abs(lhs))
            assert lhs >= mid - 1e-8 * scale
            assert mid >= low - 1e-8 * scale


def test_gateaux_first_linear_case():
    g = grid2(N=16)
    y = sp.random_field(g, seed=5)
    z = sp.random_field(g, seed=6)
    d = op.gateaux_first(y, z, 1) - sp.leray(z)
    assert sp.norm_H(d) < 1e-14


def test_gateaux_first_vs_finite_difference():
    g = grid2(N=16)
    y = offset_field(g, (1.3, -0.4), seed=81)
    z = sp.random_solenoidal(g, seed=82, decay=2.5)
    checks.gateaux_consistency(y, z, (2, 3, 4, 5), eps=1e-5)


def test_gateaux_second_frozen_constant_case():
    # p = 3, y = e1, z = w = e2 constant fields: second derivative is 2 e1
    g = grid2(N=8)
    e1 = sp.SpectralField.zero(g)
    e1.c[0][(0, 0)] = 1.0
    e2 = sp.SpectralField.zero(g)
    e2.c[1][(0, 0)] = 1.0
    out = ref.gateaux_second(e1, e2, e2, 3)
    assert sp.norm_H(out - 2.0 * e1) < 1e-12


def test_gateaux_second_vs_finite_difference():
    g = grid2(N=16)
    y = offset_field(g, (1.1, 0.8), seed=91)
    z = sp.random_solenoidal(g, seed=92, decay=2.5)
    w = sp.random_solenoidal(g, seed=93, decay=2.5)
    h = 1e-4
    for p in (3, 4, 5):
        fd = (1.0 / (2 * h)) * (
            op.gateaux_first(y + h * w, z, p) - op.gateaux_first(y - h * w, z, p)
        )
        an = ref.gateaux_second(y, z, w, p)
        err = sp.norm_H(fd - an) / max(1.0, sp.norm_H(an))
        assert err < 1e-4, (p, err)
        # symmetry in (z, w)
        swap = ref.gateaux_second(y, w, z, p)
        assert sp.norm_H(an - swap) < 1e-11 * max(1.0, sp.norm_H(an))


def test_shifted_damping_reduces_and_differs():
    g = grid2(N=16)
    ye = offset_field(g, (0.9, 0.2), seed=71)
    z = sp.random_solenoidal(g, seed=72)
    same = op.shifted_damping(z, None, 3) - op.power_damping(z, 3)
    assert sp.norm_H(same) == 0.0
    two_route = op.power_damping(z + ye, 3) - op.power_damping(ye, 3)
    d = op.shifted_damping(z, ye, 3) - two_route
    assert sp.norm_H(d) < 1e-13


def test_integration_identity():
    # int (-Lap y).|y|^{r-1} y = int |grad y|^2 |y|^{r-1}
    #                            + 4 (r-1)/(r+1)^2 int |grad |y|^{(r+1)/2}|^2
    g = grid2(N=48)
    for r in (3, 5):
        y = offset_field(g, (1.0, 0.6), seed=40 + r, amp=0.5, decay=3.0)
        assert ref.identity_residual(y, r) < 1e-8


# ---------------------------------------------------------------------------
# absorption constants (closed forms, hand-derived values)


def test_convection_rate_frozen():
    checks.constants_arithmetic()       # pins the rate at eps = 1 and 0.5, among others
    with pytest.raises(RegimeError):
        op.convection_rate(mu=1, beta=1, r=3, eps=0.5)


def test_constants_beyond_float_range_are_a_regime_error():
    # just above r = 3 the convection rate overflows: inf, not OverflowError
    with np.errstate(over="raise"):
        assert op.convection_rate(mu=1, beta=1, r=3.001, eps=0.5) == np.inf
    p = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=0.0, r=3.001, q=2)
    with pytest.raises(RegimeError, match="conv_rate"):
        op.stability_constants(p)
    # and with q near r the pumping rates do the same
    pq = op.PhysicalParams(mu=1, alpha=0.5, beta=1, gamma=-0.1, r=5, q=4.99)
    with pytest.raises(RegimeError, match="pump_rate_a"):
        op.stability_constants(pq)
    defect = ts.energy_defects([0.0, 1.0], [1.0, 0.9], [1.0, 1.0], [1.0, 1.0], p, 0.0, 0.0)
    assert np.all(np.isnan(defect))


def test_pumping_rate_frozen():
    assert abs(op.pumping_rate(beta=1, gamma=-1, r=5, q=1, eps=1.0) - 1.0) < 1e-12
    val = op.pumping_rate(beta=1, gamma=-1, r=5, q=2, eps=1.0)
    assert abs(val - 0.75 * 2 ** (1 / 3)) < 1e-12  # (8/4)^{1/3} * 3/4
    assert op.pumping_rate(beta=1, gamma=0.0, r=5, q=2, eps=1.0) == 0.0


def test_eta_pair_frozen():
    # the unit-eps convection rate and its companion pumping rate of the bundle
    p = op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=-2.0, r=5, q=1)
    sc = op.stability_constants(p)
    assert abs(sc.eta_conv - 0.25) < 1e-12
    assert abs(sc.eta_pump - 2.0) < 1e-12
    p0 = op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=0.0, r=5, q=1)
    assert op.stability_constants(p0).eta_pump == 0.0


def test_critical_pumping_frozen():
    p = op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=-1.0, r=3, q=2)
    conv, r1, r2 = op.threshold_split(p)
    assert conv == 0.0
    assert abs(r1 - 2.0) < 1e-12
    assert abs(r2 - 4.0) < 1e-12
    bad = op.PhysicalParams(mu=0.2, alpha=0.1, beta=1, gamma=-1.0, r=3, q=2)
    with pytest.raises(RegimeError):
        op.threshold_split(bad)


def test_stability_constants_bundle():
    p = op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=0.0, r=5, q=2)
    sc = op.stability_constants(p)
    assert abs(sc.conv_rate - 0.5) < 1e-12       # eps = 1/2 default
    assert sc.pump_rate_a == 0.0 and sc.pump_rate_b == 0.0
    assert abs(sc.threshold_rate - 0.5) < 1e-12
    assert abs(sc.growth_rate - 0.5) < 1e-12     # M = 0 default
    assert abs(sc.energy_rate - 1.5) < 1e-12
    assert abs(sc.shift_rate - 0.5) < 1e-12      # max(0.5, eta1 + 0) = 0.5
    with pytest.raises(ConfigError):
        op.stability_constants(p, eps=0.8)
    with pytest.raises(ConfigError):
        op.stability_constants(p, eps_tilde=1.5)


def test_stability_constants_critical():
    p = op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=-1.0, r=3, q=2)
    sc = op.stability_constants(p)
    assert abs(sc.threshold_rate - 6.0) < 1e-12  # rho~1 + rho~2 = 2 + 4
    assert sc.conv_rate == 0.0
    assert abs(sc.growth_rate - 6.0) < 1e-12
    sub = op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=0.0, r=2.5, q=1)
    with pytest.raises(RegimeError):
        op.stability_constants(sub)


@pytest.mark.parametrize("d", [2, 3])
def test_shifted_terms_with_precomputed_base(d):
    # a precomputed B(ye) gives the recomputed result bit for bit
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    ye = offset_field(g, (0.9, 0.2, -0.4)[:d], seed=81)
    z = sp.random_solenoidal(g, seed=82)
    base = op.convective(ye)
    assert np.array_equal(op.shifted_convective(z, ye, base).c, op.shifted_convective(z, ye).c)


def test_pow0_conventions():
    base = np.array([0.0, 0.25, 4.0])
    np.testing.assert_array_equal(op._pow0(base, 0.0), [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(op._pow0(base, 1.5), [0.0, 0.125, 8.0])
    np.testing.assert_array_equal(op._pow0(base, -0.5), [0.0, 2.0, 0.5])


def _damping_weight_earlier(m2, terms):
    # the weight before its first term was scaled in place
    (coef0, p0), *rest = terms
    w = coef0 * op._pow0(m2, (p0 - 1) / 2.0)
    for coef, p in rest:
        w = w + coef * op._pow0(m2, (p - 1) / 2.0)
    return w


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("d", [2, 3])
def test_damping_weight_bitwise_matches_earlier_formula(d, q):
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    m2 = sp.sum_squares(sp.oversample(offset_field(g, (0.9, 0.2, -0.4)[:d], seed=83), 3))
    terms = [(0.8, 5.0), (-0.3, q)]
    got = op.damping_weight(m2, terms)
    want = _damping_weight_earlier(m2, terms)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("terms", [
    [(0.8, 5.0), (-0.3, 2.0)], [(0.8, 5.0), (-0.3, 1.0)], [(0.8, 5.0), (-0.3, 3.0)],
    [(0.8, 5.0)], [(0.8, 4.5), (-0.3, 1.5)],
])
@pytest.mark.parametrize("d", [2, 3])
def test_weight_formed_in_held_array_is_bitwise(d, terms):
    # the weight formed over |v|^2 in place, and the damping and the L^p norm
    # taking |v|^2 in a held array, give the bits of the fresh-array route
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    vals = sp.oversample(offset_field(g, (0.9, 0.2, -0.4)[:d], seed=84), 3)
    m2 = sp.sum_squares(vals)
    held = np.full_like(m2, np.nan)
    assert sp.sum_squares(vals, out=held) is held and held.tobytes() == m2.tobytes()
    want = op.damping_weight(m2, terms)
    got = op.damping_weight(held, terms, out=held)
    assert got is held and held.tobytes() == np.broadcast_to(want, m2.shape).tobytes()
    want = op.damping_from_nodal(vals.copy(), g, terms).c
    got = op.damping_from_nodal(vals.copy(), g, terms, np.full_like(m2, np.nan)).c
    assert got.tobytes() == want.tobytes()
    assert sp.norm_Lp_nodal(vals, g, 6.0, held) == sp.norm_Lp_nodal(vals, g, 6.0)


# ---------------------------------------------------------------------------
# the explicit term: rotational convection, unprojected damping


def _convective_advective(y):
    """B(y) = P[(y.grad) y] in advective form, with the former 2/3-rule evaluation."""
    g = y.grid
    yd = bandlimit(y)
    vals = yd.physical()
    grads = sp.gradient_physical(yd)                  # grads[a, b] = d_a y_b
    adv = np.einsum("aX,abX->bX", vals.reshape(g.d, -1), grads.reshape(g.d, g.d, -1))
    ch = sp.SpectralField.from_physical(g, adv.reshape((g.d,) + g.shape)).c * g.dealias
    return sp.leray(sp.SpectralField(g, ch))


def _rel(got, want):
    return np.max(np.abs(got.c - want.c)) / np.max(np.abs(want.c))


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_convective_matches_advective_form(d, shifted):
    # the rotational form drops grad |y|^2/2, whose kept coefficients are those
    # of an exact gradient; Leray removes them, so the forms agree to roundoff
    g = sp.TorusGrid(d=d, N=32 if d == 2 else 16)
    z = sp.random_field(g, seed=91, decay=1.0)       # not solenoidal: the form must not need it
    if not shifted:
        assert _rel(op.convective(z), _convective_advective(z)) <= 1e-14
        return
    around = offset_field(g, (0.5, -0.2, 0.3)[:d], seed=92)
    want = _convective_advective(z + around) - _convective_advective(around)
    assert _rel(op.shifted_convective(z, around), want) <= 1e-14


@pytest.mark.parametrize("d", [2, 3])
def test_convective_one_base_inverse_transform(d, monkeypatch):
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    y = sp.random_solenoidal(g, seed=93)
    inverse, gradients = [], []
    sample, gradient_physical = sp.sample, sp.gradient_physical

    def counted_sample(half, grid, M, out=None):
        inverse.append((half.shape, M))
        return sample(half, grid, M, out)

    def counted_gradient(*args, **kwargs):
        gradients.append(args)
        return gradient_physical(*args, **kwargs)

    monkeypatch.setattr(sp, "sample", counted_sample)
    monkeypatch.setattr(sp, "gradient_physical", counted_gradient)
    op.convective(y)
    # y and the d(d-1)/2 components of its vorticity tensor, in one stack
    assert inverse == [((d + d * (d - 1) // 2,) + g.half_shape, g.N)]
    assert gradients == []


@pytest.mark.parametrize("d", [2, 3])
def test_damping_projected_once_by_each_caller(d):
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    p = op.PhysicalParams(mu=1.0, alpha=0.5, beta=1.0, gamma=-0.1, r=5, q=2)
    y = offset_field(g, (0.6, -0.3, 0.2)[:d], seed=94)
    factor = p.damping_factor
    raw = op.damping_from_nodal(sp.oversample(y, factor), g, p.damping_terms)
    scale = float(np.max(np.abs(raw.c)))
    # the damping's own gradient part is left for the caller's one projection
    assert sp.divergence_max(raw) > 1e-3 * scale
    assert sp.divergence_max(op.power_damping(y, p.r)) < 1e-13 * scale
    f = sp.leray(0.5 * sp.random_field(g, seed=95))
    nodal = np.empty((d,) + (factor * g.N,) * d)
    rhs = stationary._rhs(y, p, f, nodal)
    residual = sp.SpectralField(g, y.c * (p.mu * g.lap + p.alpha)) - rhs
    assert sp.divergence_max(rhs) < 1e-13 * scale
    assert sp.divergence_max(residual) < 1e-13 * scale


@settings(max_examples=25, deadline=None, database=None)
@given(
    d=st.sampled_from([2, 3]),
    N=st.sampled_from(range(8, 33, 2)),
    L=st.floats(0.5, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotational_and_advective_convection_agree(d, N, L, seed):
    y = sp.random_field(sp.TorusGrid(d=d, N=N, L=L), seed, decay=1.0)
    assert _rel(op.convective(y), _convective_advective(y)) <= 1e-13


def _banded(g, B, seed):
    """A random solenoidal field with no mode beyond |k_i| = B, not small."""
    y = 3.0 * sp.random_solenoidal(g, seed=seed, decay=0.5)
    return sp.leray(sp.SpectralField(g, y.c * np.all(np.abs(g.wave) <= B, axis=0)))


@pytest.mark.parametrize("r, B, M", [(3, 1, 6), (5, 1, 8), (5, 2, 14), (3, 3, 14), (7, 0, 4)])
def test_span_nodes(r, B, M):
    # the smallest even M > (r+1) B, at least 4; the damping grid is far larger
    p = op.PhysicalParams(mu=1.0, alpha=0.5, beta=1.0, gamma=0.0, r=r, q=1)
    g = sp.TorusGrid(d=2, N=32)
    assert op.span_nodes(p, g, B) == M < p.damping_factor * g.N


@pytest.mark.parametrize("B", [1, 2, 3, 5])
@pytest.mark.parametrize("d", [2, 3])
def test_convection_on_the_bandwidth_grid(d, B):
    # the kept coefficients of the product are exact on the span grid of the
    # smallest odd r, 3, the one with the fewest nodes
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    p = op.PhysicalParams(mu=1.0, alpha=0.5, beta=0.8, gamma=-0.5, r=3, q=1)
    y = _banded(g, B, seed=96)
    M = min(op.span_nodes(p, g, B), g.N)
    assert _rel(op.convective(y, M), op.convective(y)) <= 1e-14


@pytest.mark.parametrize("B", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r, q, gamma", [(5, 3, -0.4), (3, 1, -0.5), (7, 5, 0.0)])
def test_damping_on_the_bandwidth_grid(d, B, r, q, gamma):
    # odd exponents, on the span grid: the damping's coefficients at |k_i| <= B
    # (the ones a projection onto the span keeps; those beyond may alias) and
    # the L^{r+1} norm from the same values are those of the damping grid,
    # and the convection on min(M, N) nodes is that of the base grid
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    p = op.PhysicalParams(mu=1.0, alpha=0.5, beta=0.8, gamma=gamma, r=r, q=q)
    assert p.odd_integer_damping
    y = _banded(g, B, seed=97)
    M = op.span_nodes(p, g, B)
    small = sp.sample(y.c, g, M)
    full = sp.oversample(y, p.damping_factor)
    lr1 = sp.norm_Lp_nodal(small, g, r + 1), sp.norm_Lp_nodal(full, g, r + 1)
    assert abs(lr1[0] - lr1[1]) <= 1e-14 * lr1[1]
    held = np.all(np.abs(g.wave) <= B, axis=0)
    got = op.damping_from_nodal(small, g, p.damping_terms)
    want = op.damping_from_nodal(full, g, p.damping_terms)
    assert _rel(sp.SpectralField(g, got.c * held), sp.SpectralField(g, want.c * held)) <= 1e-14
    assert _rel(op.convective(y, min(M, g.N)), op.convective(y)) <= 1e-14


@pytest.mark.parametrize("r, q, gamma, odd", [
    (5, 3, -0.4, True), (5, 2, 0.0, True), (3, 1, -0.5, True),
    (5, 2, -0.4, False), (4.5, 3, -0.4, False), (4, 3, 0.0, False),
])
def test_odd_integer_damping(r, q, gamma, odd):
    p = op.PhysicalParams(mu=1.0, alpha=0.5, beta=0.8, gamma=gamma, r=r, q=q)
    assert p.odd_integer_damping is odd
