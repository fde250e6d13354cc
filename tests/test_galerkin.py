"""Reduced n-mode model: assembly, gain synthesis, growth constants, closed loops."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import reference_routes as ref
from cbfed import checks
from cbfed import cli
from cbfed import controllers as ct
from cbfed import convex as cx
from cbfed import galerkin as gk
from cbfed import operators as op
from cbfed import spectral as sp
from cbfed import timestep as ts
from cbfed.errors import RegimeError
from cbfed.stationary import solve_stationary


def grid2(N=16):
    return sp.TorusGrid(d=2, N=N)


def cubic_params(alpha=0.01):
    # r = 3 with gamma = 0 and 2 beta mu > 1
    return op.PhysicalParams(mu=1.0, alpha=alpha, beta=1.0, gamma=0.0, r=3, q=2)


def thin_complement_mask(g):
    """Control everywhere except a slab of width L/8."""
    x = g.nodes()
    return (x[0] >= g.L / 8.0).astype(float)


_CACHE = {}


def cubic_reduction():
    if "cubic" not in _CACHE:
        g = grid2()
        y_e = sp.SpectralField.zero(g)
        _CACHE["cubic"] = gk.assemble_reduction(y_e, 8, cubic_params(), thin_complement_mask(g))
    return _CACHE["cubic"]


def test_reduction_zero_equilibrium_shapes():
    g = grid2()
    p = cubic_params()
    red = gk.assemble_reduction(sp.SpectralField.zero(g), 8, p)
    assert red.n == 8
    assert np.allclose(red.lam, [0, 0, 1, 1, 1, 1, 2, 2], atol=1e-12)
    assert np.allclose(red.Lmat, np.diag(p.mu * red.lam + p.alpha), atol=1e-12)
    assert np.allclose(red.Bmat, np.eye(8), atol=1e-12)  # mask defaults to 1


def test_reduction_linear_pumping_at_zero_equilibrium():
    # C_1'(0) = P: at y_e = 0 the q = 1 pumping shifts every mode by gamma
    g = grid2()
    p = op.PhysicalParams(mu=1.0, alpha=0.3, beta=1.0, gamma=-0.5, r=3, q=1)
    red = gk.assemble_reduction(sp.SpectralField.zero(g), 8, p)
    assert np.allclose(np.diag(red.Lmat), p.mu * red.lam + p.alpha + p.gamma, atol=1e-12)
    assert np.allclose(red.Lmat, np.diag(np.diag(red.Lmat)), atol=1e-12)


def test_quadratic_tensor_antisymmetry_and_bound():
    red = cubic_reduction()
    g1 = red.g1
    assert np.max(np.abs(g1 + np.swapaxes(g1, 1, 2))) < 1e-12
    bound = np.sqrt(32 * np.pi**2 / red.grid.L ** (red.grid.d + 2))
    assert np.max(np.abs(g1)) <= bound * (1 + 1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_quadratic_tensor_matches_direct_quadrature(d):
    if d == 2:
        red = cubic_reduction()
    else:
        g = sp.TorusGrid(d=3, N=8)
        red = gk.assemble_reduction(sp.SpectralField.zero(g), 8, cubic_params())
    fields = [m.field for m in red.modes]
    worst = 0.0
    for i in range(red.n):
        for j in range(red.n):
            for k in range(red.n):
                direct = op.trilinear(fields[i], fields[j], fields[k])
                worst = max(worst, abs(direct - red.g1[i, j, k]))
    assert worst < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_linear_matrix_matches_field_route(d):
    g = grid2() if d == 2 else sp.TorusGrid(d=3, N=8)
    p = op.PhysicalParams(mu=0.7, alpha=0.2, beta=0.8, gamma=-0.4, r=5, q=3)
    y_e = 0.3 * sp.random_solenoidal(g, seed=5, decay=3.0)
    red = gk.assemble_reduction(y_e, 8, p)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(8)
    z = red.span.expand(v)
    lin_conv = op.shifted_convective(z, y_e) - op.convective(z)
    field = (
        p.mu * sp.stokes(z)
        + p.alpha * z
        + lin_conv
        + p.beta * op.gateaux_first(y_e, z, p.r)
        + p.gamma * op.gateaux_first(y_e, z, p.q)
    )
    want = np.array([sp.inner(field, m.field) for m in red.modes])
    got = red.Lmat @ v
    assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))


def _assemble_stacked(y_e, n, params):
    """Wf_, g1, Lmat, _D and _c_ref by the stacked formulas assemble_reduction
    used before it ran one mode at a time: all mode samples and all mode
    gradients at once, one einsum per tensor."""
    g = y_e.grid
    modes = sp.eigenbasis(g, n)
    lam = np.array([mode.eigenvalue - 1.0 for mode in modes])
    factor = params.damping_factor
    cell_f = (g.L / (factor * g.N)) ** g.d

    Wf = np.stack([sp.oversample(mode.field, factor) for mode in modes])
    Df = np.stack([sp.gradient_physical(mode.field, factor) for mode in modes])
    Yf = sp.oversample(y_e, factor)
    DYf = sp.gradient_physical(y_e, factor)

    d = g.d
    Wf_ = Wf.reshape(n, d, -1)
    Df_ = Df.reshape(n, d, d, -1)
    Yf_ = Yf.reshape(d, -1)
    DYf_ = DYf.reshape(d, d, -1)

    g1 = cell_f * np.einsum("iax,jabx,kbx->ijk", Wf_, Df_, Wf_, optimize=True)

    # linearized convection: b(w_i, y_e, w_k) + b(y_e, w_i, w_k)
    h1 = cell_f * (
        np.einsum("iax,abx,kbx->ik", Wf_, DYf_, Wf_, optimize=True)
        + np.einsum("ax,iabx,kbx->ik", Yf_, Df_, Wf_, optimize=True)
    )
    # linearized damping: beta (C_r'(y_e) w_i, w_k) + gamma (C_q'(y_e) w_i, w_k)
    h2 = np.zeros((n, n))
    for coef, p in params.damping_terms:
        S = op.damping_derivative(Yf_, p)(Wf_)
        h2 += coef * cell_f * np.einsum("iax,kax->ik", S, Wf_, optimize=True)

    Lmat = np.diag(params.mu * lam + params.alpha) + h1.T + h2.T
    c_ref = gk._damping_pairing(Yf_.copy(), Wf_, params.damping_terms, cell_f)
    return Wf_, g1, Lmat, h2, c_ref


_ASSEMBLY_PARAMS = {
    "r5q3": op.PhysicalParams(mu=0.7, alpha=0.2, beta=0.8, gamma=-0.4, r=5, q=3),
    "r3q1": op.PhysicalParams(mu=1.0, alpha=0.3, beta=1.0, gamma=-0.5, r=3, q=1),  # C_1' = P
}


def _assembly_case(d, equilibrium, params):
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    if equilibrium == "zero":
        return sp.SpectralField.zero(g)
    solved = solve_stationary(g, params, sp.random_solenoidal(g, seed=5, decay=2.0))
    assert solved.residual < 1e-11 and sp.norm_H(solved.field) > 0.1
    return solved.field


@pytest.mark.parametrize("params", list(_ASSEMBLY_PARAMS))
@pytest.mark.parametrize("equilibrium", ["zero", "solved"])
@pytest.mark.parametrize("d", [2, 3])
def test_assembly_matches_stacked_formulas(d, equilibrium, params):
    p = _ASSEMBLY_PARAMS[params]
    y_e = _assembly_case(d, equilibrium, p)
    red = gk.assemble_reduction(y_e, 8, p)
    Wf_, g1, Lmat, h2, c_ref = _assemble_stacked(y_e, 8, p)
    # at y_e = 0 with odd exponents the reduction samples its modes on its own,
    # smaller quadrature grid; the tensors are still those of the damping grid
    want_Wf = _modes_on_grid(red.modes, red.quad_N) if equilibrium == "zero" else Wf_
    N, M = y_e.grid.N, red.quad_N
    if equilibrium == "zero" and min(N, M) // 2 <= sp.DFT_MAX_K:
        # sampled by the DFT-matrix route, which agrees with irfftn to 1e-14
        assert np.max(np.abs(red._Wf - want_Wf)) <= 1e-14 * np.max(np.abs(want_Wf))
    else:
        assert np.array_equal(red._Wf, want_Wf)
    for got, want in ((red.g1, g1), (red.Lmat, Lmat), (red._D, h2), (red._c_ref, c_ref)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _modes_on_grid(modes, M):
    """Mode samples on the M^d grid: each stored coefficient goes to its
    wavevector's place in a zeroed M-grid half spectrum, then one irfftn."""
    g = modes[0].field.grid
    out = []
    for mode in modes:
        spec = np.zeros((g.d,) + (M,) * (g.d - 1) + (M // 2 + 1,), dtype=complex)
        for idx in zip(*np.nonzero(np.any(mode.field.c != 0, axis=0))):
            k = g.wave[(slice(None),) + idx]
            spec[(slice(None),) + tuple(k[:-1] % M) + (k[-1],)] = mode.field.c[(slice(None),) + idx]
        out.append(np.fft.irfftn(spec, s=(M,) * g.d, axes=tuple(range(1, g.d + 1)), norm="forward"))
    return np.stack(out).reshape(len(modes), g.d, -1)


@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "r, q, gamma", [(5, 3, -0.4), (3, 1, -0.5), (7, 3, -0.4), (5, 2, 0.0)],
    ids=["r5q3", "r3q1", "r7q3", "r5-no-pumping"],
)
def test_zero_equilibrium_pairs_exactly_on_a_smaller_grid(r, q, gamma, d, n):
    # odd exponents at y_e = 0: every pairing is a trigonometric polynomial, so
    # the small grid gives the damping grid's tensors and remainder to roundoff
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    p = op.PhysicalParams(mu=0.7, alpha=0.2, beta=0.8, gamma=gamma, r=r, q=q)
    y_e = sp.SpectralField.zero(g)
    red = gk.assemble_reduction(y_e, n, p)
    full = p.damping_factor * g.N
    assert red.quad_N < full
    Wf_, g1, Lmat, h2, c_ref = _assemble_stacked(y_e, n, p)
    # g1 is measured against its bound: with few modes it is zero up to roundoff
    g1_bound = np.sqrt(32 * np.pi**2 / g.L ** (d + 2))
    assert np.max(np.abs(red.g1 - g1)) <= 1e-13 * g1_bound
    for got, want in ((red.Lmat, Lmat), (red._D, h2), (red._c_ref, c_ref)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    on_damping_grid = dataclasses.replace(
        red, _Wf=Wf_, _Yf=np.zeros_like(Wf_[0]), quad_N=full, _D=h2, _c_ref=c_ref
    )
    rng = np.random.default_rng(101)
    for size in (1e-3, 1.0, 10.0):
        v = size * rng.standard_normal((3, n))
        want = gk.nonlinear_term(on_damping_grid, v)
        # the difference form subtracts v @ _D, so its roundoff scales with that too
        scale = np.max(np.abs(want)) + np.max(np.abs(v @ h2))
        assert np.max(np.abs(gk.nonlinear_term(red, v) - want)) <= 1e-13 * scale


@pytest.mark.parametrize(
    "d, r, q, gamma", [(2, 4.5, 3, -0.4), (3, 4.5, 3, -0.4), (2, 5, 2, -0.4), (3, 5, 2, -0.4)],
    ids=["r4.5", "r4.5-d3", "q2-pumped", "q2-pumped-d3"],
)
def test_damping_grid_outside_the_polynomial_rule(d, r, q, gamma):
    # a fractional power at y_e = 0 keeps the modes on the damping grid; a
    # solved equilibrium does too (test_assembly_matches_stacked_formulas)
    p = op.PhysicalParams(mu=0.7, alpha=0.2, beta=0.8, gamma=gamma, r=r, q=q)
    y_e = _assembly_case(d, "zero", p)
    red = gk.assemble_reduction(y_e, 8, p)
    factor = p.damping_factor
    assert red.quad_N == factor * y_e.grid.N
    want = np.stack([sp.oversample(m.field, factor) for m in red.modes])
    assert np.array_equal(red._Wf, want.reshape(red._Wf.shape))


@pytest.mark.parametrize("equilibrium", ["zero", "solved"])
def test_assembly_peak_memory_is_a_few_sample_arrays(equilibrium):
    # one mode gradient at a time: the mode samples _Wf are the one n-mode
    # array on the quadrature grid.  The bound is 4x the mode samples on the
    # damping grid, which the solved case uses and the zero case undercuts
    p = _ASSEMBLY_PARAMS["r5q3"]
    y_e = _assembly_case(3, equilibrium, p)
    tracemalloc.start()
    try:
        red = gk.assemble_reduction(y_e, 8, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * red.n * y_e.grid.d * (p.damping_factor * y_e.grid.N) ** y_e.grid.d * 8


def test_input_matrix_box_mask():
    red = cubic_reduction()
    assert np.max(np.abs(red.Bmat - red.Bmat.T)) < 1e-13
    # independent route: transform the masked mode, then a spectral inner product
    g = red.grid
    for j, k in [(0, 0), (2, 3), (5, 7), (6, 6)]:
        masked = sp.SpectralField.from_physical(g, red.mask[None] * red.modes[j].field.physical())
        want = sp.inner(masked, red.modes[k].field)
        assert abs(red.Bmat[k, j] - want) < 1e-12


def test_full_controller_adjoint_consistency():
    red = cubic_reduction()
    rng = np.random.default_rng(13)
    G = 0.5 * rng.standard_normal((8, 8))
    z = sp.random_solenoidal(red.grid, seed=21, decay=1.5)
    u = gk.make_galerkin_controller(red, G)(z)
    want = red.Bmat @ (G @ red.span.coeffs(z))
    got = red.span.coeffs(u)
    assert np.max(np.abs(got - want)) < 1e-12
    assert sp.divergence_max(u) < 1e-12


@pytest.mark.parametrize("d, N, n", [(2, 32, 8), (3, 8, 10)])
def test_full_controller_matches_complex_formula(d, N, n):
    # the float-view matmuls against Re(dual @ z) and tensordot on the complex
    # images Leray(mask w_j), for a non-solenoidal z in a non-contiguous array
    g = sp.TorusGrid(d=d, N=N)
    mask = thin_complement_mask(g)
    red = gk.assemble_reduction(sp.SpectralField.zero(g), n, cubic_params(), mask)
    G = np.random.default_rng(17).standard_normal((n, n))
    z = sp.random_field(g, seed=23, decay=1.0)
    assert sp.divergence_max(z) > 1e-2
    u = gk.make_galerkin_controller(red, G)(sp.SpectralField(g, np.asfortranarray(z.c)))
    c = np.real(np.conj(sp.parseval_dual(red.span.spectra, g).view(complex)) @ z.c.reshape(-1))
    images = np.stack([sp.masked_leray(mask, m.field).c for m in red.modes])
    want = np.tensordot(G @ c, images, axes=(0, 0))
    assert np.max(np.abs(u.c - want)) <= 1e-14 * np.max(np.abs(want))


def test_lift_restrict_roundtrip():
    red = cubic_reduction()
    rng = np.random.default_rng(3)
    v = rng.standard_normal(8)
    assert np.max(np.abs(red.span.coeffs(red.span.expand(v)) - v)) < 1e-12


def test_controllability_rank_cases():
    red = cubic_reduction()
    n = red.n
    assert gk.controllability_rank(red.Lmat, np.eye(n)) == n
    assert gk.controllability_rank(red.Lmat, np.zeros((n, n))) == 0
    assert gk.controllability_rank(red.Lmat, red.Bmat) == n


def test_gain_scalar_and_already_stable():
    gs = gk.synthesize_gain(np.array([[1.0]]), np.array([[1.0]]), 2.0)
    assert abs(gs.G[0, 0] - (-1.0)) < 1e-10
    assert abs(gs.spectrum[0].real - 2.0) < 1e-10
    stable = gk.synthesize_gain(np.array([[5.0]]), np.array([[1.0]]), 2.0)
    assert abs(stable.G[0, 0]) < 1e-10
    assert abs(stable.spectrum[0].real - 5.0) < 1e-10


def test_gain_diagonal_placement():
    L = np.diag([0.3, 0.9, 2.5, 4.0])
    checks.gain_placement(L, np.eye(4), 1.0, [1.0, 1.0, 2.5, 4.0])
    gs = gk.synthesize_gain(L, np.eye(4), 1.0)
    assert np.allclose(gs.G, np.diag([-0.7, -0.1, 0.0, 0.0]), atol=1e-8)
    assert gs.M_hat < 1 + 1e-8


@pytest.mark.parametrize("sigma", [1e8, 1e10])
def test_gain_places_a_large_margin(sigma):
    # the margin is checked to 1e-8 relative: at sigma = 1e8 the placed spectrum
    # sits within roundoff of sigma, below the absolute sigma - 1e-8
    g = sp.TorusGrid(d=2, N=8)
    p = op.PhysicalParams(mu=1.0, alpha=0.3, beta=1.0, gamma=0.0, r=5, q=2)
    red = gk.assemble_reduction(sp.SpectralField.zero(g), 8, p)
    gs = gk.synthesize_gain(red.Lmat, red.Bmat, sigma)
    assert gs.spectrum.real.min() >= sigma * (1 - 1e-8)


def test_gain_riccati_residual_random():
    rng = np.random.default_rng(42)
    L = rng.standard_normal((5, 5))
    sigma = 1.0
    gs = gk.synthesize_gain(L, np.eye(5), sigma)
    A = sigma * np.eye(5) - L
    X = gs.X
    resid = A.T @ X + X @ A - X @ X  # B = I, R = I, Q = 0
    assert np.max(np.abs(resid)) < 1e-8 * (1 + np.max(np.abs(X)) ** 2)
    assert np.min(np.linalg.eigvalsh(0.5 * (X + X.T))) > -1e-9
    assert min(gs.spectrum.real) >= sigma - 1e-8


def test_semigroup_bound_random():
    rng = np.random.default_rng(8)
    L = rng.standard_normal((6, 6))
    sigma = 1.0
    gs = gk.synthesize_gain(L, np.eye(6), sigma)
    closed = L - np.eye(6) @ gs.G
    for t in (0.3, 1.0, 2.7):
        prop = scipy.linalg.expm(-closed * t)
        for _ in range(100):
            v = rng.standard_normal(6)
            lhs = np.linalg.norm(prop @ v)
            assert lhs <= gs.M_hat * np.exp(-(sigma - 1e-8) * t) * np.linalg.norm(v) * (1 + 1e-6)


def _default_pair_by_route(route):
    """(Lmat, Bmat, sigma) of the default stabilize-galerkin run (2-d N = 32),
    with Bmat read off the images Leray(m w_j) taken through `route`: "fft",
    the kept modes around one irfftn/rfftn, or "dft", the DFT-matrix
    products of sp._sample_dft/_unsample_dft, both at M = N."""
    cfg = cli.load_effective_config("stabilize-galerkin")
    g, params, _ = cli._setup(cfg)
    mask = cli._build_mask(cfg, g)
    red = gk.assemble_reduction(sp.SpectralField.zero(g), int(cfg["controller"]["n"]), params, mask)
    K = g.N // 2

    def masked(c):
        if route == "fft":
            return ref.unsample_kept_modes(mask * ref.sample_kept_modes(c, g, g.N), g)
        vals = np.empty((g.d,) + g.shape)
        sp._sample_dft(c[..., :K], g.d, g.N, g.N, vals)
        half = np.zeros_like(c)
        half[..., :K] = sp._unsample_dft(mask * vals, g.d, g.N, K)
        return sp.enforce_real(half, g)

    images = [sp.leray(sp.SpectralField(g, masked(mode.field.c))) for mode in red.modes]
    Bmat = np.stack([red.span.coeffs(image) for image in images])
    return red.Lmat, 0.5 * (Bmat + Bmat.T), float(cfg["controller"]["sigma"])


def test_M_hat_does_not_hang_on_the_transform_route():
    # the two routes move Bmat by roundoff; the default closed loop has
    # repeated eigenvalues, where cond of eig's eigenvectors jumps (1.0 against
    # 1.695), so M_hat must not be read off them there
    (L1, B1, sigma), (L2, B2, _) = _default_pair_by_route("fft"), _default_pair_by_route("dft")
    assert np.array_equal(L1, L2) and 0 < np.max(np.abs(B1 - B2)) < 1e-14
    M1 = gk.synthesize_gain(L1, B1, sigma).M_hat
    M2 = gk.synthesize_gain(L2, B2, sigma).M_hat
    assert abs(M1 - M2) <= 1e-12 and M1 == 1.0


def test_M_hat_bounds_a_non_normal_closed_loop():
    # around a solved equilibrium with a partial mask the closed loop is not
    # normal and its symmetric part dips below the margin, so M_hat > 1 is
    # the eigenvector condition number; it must still bound the transient
    p = _ASSEMBLY_PARAMS["r5q3"]
    g = grid2()
    red = gk.assemble_reduction(_assembly_case(2, "solved", p), 8, p, thin_complement_mask(g))
    for sigma in (1.0, 2.0):
        gs = gk.synthesize_gain(red.Lmat, red.Bmat, sigma)
        closed = red.Lmat - red.Bmat @ gs.G
        assert np.linalg.norm(closed @ closed.T - closed.T @ closed) > 1e-2
        assert np.linalg.eigvalsh(0.5 * (closed + closed.T))[0] < sigma - 1e-8 * sigma
        assert gs.M_hat > 1
        for t in np.linspace(0.0, 3.0, 31):
            norm = np.linalg.norm(scipy.linalg.expm(-closed * t), 2)
            assert norm <= gs.M_hat * np.exp(-(sigma - 1e-8 * sigma) * t) * (1 + 1e-12)


def test_quadratic_coupling_bound_random_v():
    red = cubic_reduction()
    gamma0 = 4 * np.pi / red.grid.L * np.sqrt(2.0 / red.grid.L**red.grid.d)
    rng = np.random.default_rng(99)
    vs = rng.standard_normal((1000, 8)) * rng.uniform(0.1, 10, size=(1000, 1))
    Q = gk.quadratic_term(red, vs)
    lhs = np.linalg.norm(Q, axis=1)
    rhs = gamma0 * np.sum(vs**2, axis=1)
    assert np.all(lhs <= rhs * (1 + 1e-12))


@pytest.mark.parametrize("shape", [(8,), (5, 8), (2, 3, 8)])
def test_quadratic_term_matches_einsum_on_batch_axes(shape):
    # quadratic_term contracts g1 by two matmuls; the three-operand einsum it
    # replaced sums the same products in another order
    red = cubic_reduction()
    v = np.random.default_rng(97).standard_normal(shape)
    got = gk.quadratic_term(red, v)
    want = np.einsum("ijk,...i,...j->...k", red.g1, v, v)
    assert got.shape == shape
    assert _rel_diff(got, want) <= 1e-14


def test_quadratic_term_matches_fft_route():
    red = cubic_reduction()
    rng = np.random.default_rng(17)
    for _ in range(5):
        v = rng.standard_normal(8)
        z = red.span.expand(v)
        want = np.array([sp.inner(op.convective(z), m.field) for m in red.modes])
        got = gk.quadratic_term(red, v)
        assert np.max(np.abs(got - want)) < 1e-11


def test_nonlinear_term_pure_cubic():
    red = cubic_reduction()  # y_e = 0, r = 3, gamma = 0
    rng = np.random.default_rng(23)
    v = 0.7 * rng.standard_normal(8)
    z = red.span.expand(v)
    want = np.array(
        [red.params.beta * sp.inner(op.power_damping(z, 3), m.field) for m in red.modes]
    )
    got = gk.nonlinear_term(red, v)
    assert np.max(np.abs(got - want)) < 1e-10


def _remainder_field_route(red, v):
    """(C(y_e + z) - C(y_e) - C'(y_e) z, w_k) from shifted_damping and gateaux_first."""
    p, y_e, z = red.params, red.y_e, red.span.expand(v)
    rem = p.beta * (op.shifted_damping(z, y_e, p.r) - op.gateaux_first(y_e, z, p.r))
    if p.gamma != 0.0:
        rem = rem + p.gamma * (op.shifted_damping(z, y_e, p.q) - op.gateaux_first(y_e, z, p.q))
    return np.array([sp.inner(rem, m.field) for m in red.modes])


def _floor_scale(red, want):
    """max|want| + max_k |(C(y_e), w_k)|: the difference form subtracts the
    second, so its roundoff scales with it."""
    p = red.params
    c = p.beta * op.power_damping(red.y_e, p.r) + p.gamma * op.power_damping(red.y_e, p.q)
    return np.max(np.abs(want)) + max(abs(sp.inner(c, m.field)) for m in red.modes)


@pytest.mark.parametrize(
    "d, r, q, gamma",
    [(2, 5, 3, -0.4), (2, 4.5, 3, -0.4), (2, 5, 1, -1.5), (3, 5, 3, -0.4)],
    ids=["r5-q3", "r4.5", "q1", "d3"],
)
def test_nonlinear_term_taylor_remainder(d, r, q, gamma):
    # the later rows are large enough for a quadrature error in theta to show at r = 4.5
    red = _equilibrium_reduction(d, r, q, gamma)
    V = 0.5 * np.random.default_rng(29).standard_normal((4, 8))
    got = gk.nonlinear_term(red, V)
    for row, v in zip(got, V):
        want = _remainder_field_route(red, v)
        assert np.max(np.abs(row - want)) <= 1e-12 * _floor_scale(red, want)


@settings(max_examples=12, deadline=None, database=None)
@given(
    d=st.sampled_from([2, 3]),
    N=st.sampled_from([6, 8]),
    # pairs whose C_q grid is the C_r grid, or whose C_q is a polynomial the
    # coarser grid pairs exactly, so the two routes share their quadrature
    exponents=st.sampled_from(
        [(2.5, 2.0), (3.0, 1.0), (4.5, 1.0), (4.5, 3.0), (5.0, 3.0), (6.0, 3.0)]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_nonlinear_term_field_route_property(d, N, exponents, seed):
    g = sp.TorusGrid(d=d, N=N)
    r, q = exponents
    p = op.PhysicalParams(mu=1.0, alpha=0.1, beta=0.8, gamma=-0.6, r=r, q=q)
    y_e = 0.4 * sp.random_solenoidal(g, seed=seed, decay=3.0)
    red = gk.assemble_reduction(y_e, 4, p)
    v = 0.5 * np.random.default_rng(seed).standard_normal(4)
    want = _remainder_field_route(red, v)
    assert np.max(np.abs(gk.nonlinear_term(red, v) - want)) <= 1e-12 * _floor_scale(red, want)


def _second_derivative_ref(A, Z, z2, p):
    """C_p''(A)(Z, Z) pointwise from the vector fields; A has shape (..., d, X)."""
    m2 = np.sum(A**2, axis=-2)
    az = np.sum(A * Z, axis=-2)
    out = (p - 1) * np.broadcast_to(op._pow0(m2, (p - 3) / 2.0), m2.shape)[..., None, :] * (
        2.0 * az[..., None, :] * Z + z2[..., None, :] * A
    )
    if p != 3:
        out += (p - 1) * (p - 3) * (op._pow0(m2, (p - 5) / 2.0) * az**2)[..., None, :] * A
    return out


def _nonlinear_term_ref(red, v, nodes):
    """Taylor remainder with one fixed Gauss rule for both exponents, stacked over nodes."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * (x + 1.0)
    p = red.params
    Z = np.tensordot(np.asarray(v, dtype=float), red._Wf, axes=(-1, 0))
    z2 = np.sum(Z**2, axis=-2)
    A = red._Yf + theta.reshape((-1,) + (1,) * Z.ndim) * Z[None]
    S = p.beta * _second_derivative_ref(A, Z[None], z2[None], p.r)
    if p.gamma != 0.0:
        S = S + p.gamma * _second_derivative_ref(A, Z[None], z2[None], p.q)
    cell_f = (red.grid.L / red.quad_N) ** red.grid.d
    return cell_f * np.einsum("g,g...ax,kax->...k", 0.5 * w * (1.0 - theta), S, red._Wf)


def _rel_diff(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _equilibrium_reduction(d, r, q, gamma, beta=0.8):
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    p = op.PhysicalParams(mu=1.0, alpha=0.1, beta=beta, gamma=gamma, r=r, q=q)
    y_e = 0.4 * sp.random_solenoidal(g, seed=31, decay=3.0)
    return gk.assemble_reduction(y_e, 8, p)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [3, 5])
def test_nonlinear_term_odd_exponent_rule_exact(d, r):
    # for odd integer r the 16-node Taylor rule is exact
    red = _equilibrium_reduction(d, r, 2.0, 0.0)
    rng = np.random.default_rng(71)
    v = 0.5 * rng.standard_normal((4, 8))
    got = gk.nonlinear_term(red, v)
    assert _rel_diff(got, _nonlinear_term_ref(red, v, 16)) < 1e-13


def test_nonlinear_term_batch_matches_rows():
    red = _equilibrium_reduction(2, 5, 3, -0.4)
    V = 0.5 * np.random.default_rng(79).standard_normal((6, 8))
    batch = gk.nonlinear_term(red, V)
    for b in range(len(V)):
        assert _rel_diff(batch[b], gk.nonlinear_term(red, V[b])) < 1e-14


def _nonlinear_term_earlier(red, v):
    """nonlinear_term with the tensordot and the einsum of |v|^2 it had before."""
    v = np.asarray(v, dtype=float)
    A = np.tensordot(v, red._Wf, axes=(-1, 0))
    if red._Yf is not None:
        A += red._Yf
    A *= op.damping_weight(np.einsum("...ax,...ax->...x", A, A), red.params.damping_terms)[
        ..., None, :
    ]
    cell_f = (red.grid.L / red.quad_N) ** red.grid.d
    paired = cell_f * (A.reshape(A.shape[:-2] + (-1,)) @ red._Wf.reshape(red.n, -1).T)
    return paired - red._c_ref - v @ red._D


@pytest.mark.parametrize("d", [2, 3])
def test_nonlinear_term_bitwise_matches_earlier_contractions(d):
    red = _equilibrium_reduction(d, 5, 3, -0.4)
    rng = np.random.default_rng(83)
    for v in (rng.standard_normal(8), rng.standard_normal((4, 8)), rng.standard_normal((2, 3, 8))):
        assert np.array_equal(gk.nonlinear_term(red, v), _nonlinear_term_earlier(red, v))


@pytest.mark.parametrize("d", [2, 3])
def test_nonlinear_term_zero_equilibrium_matches_general_path(d):
    # at y_e = 0 the reduction holds the equilibrium as zeros on its quadrature
    # grid, and the one path adds them: bitwise the earlier contractions
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    p = op.PhysicalParams(mu=1.0, alpha=0.1, beta=0.8, gamma=-0.4, r=5, q=3)
    red = gk.assemble_reduction(sp.SpectralField.zero(g), 8, p)
    assert red._Yf.shape == red._Wf.shape[1:] and not np.any(red._Yf)
    V = 0.5 * np.random.default_rng(89).standard_normal((5, 8))
    assert np.array_equal(gk.nonlinear_term(red, V), _nonlinear_term_earlier(red, V))
    for v in V:
        assert np.array_equal(gk.nonlinear_term(red, v), _nonlinear_term_earlier(red, v))


def test_nonlinear_term_exponents_use_own_rules():
    # both damping terms, each of odd integer order, against the exact 16-node rule
    red = _equilibrium_reduction(2, 5, 3, -0.4)
    v = 0.5 * np.random.default_rng(83).standard_normal((4, 8))
    got = gk.nonlinear_term(red, v)
    assert _rel_diff(got, _nonlinear_term_ref(red, v, 16)) < 1e-13


@pytest.mark.parametrize("size", [1e-4, 1e-6])
def test_nonlinear_term_cancellation_floor(size):
    # the difference form subtracts (C(y_e), w_k) and C'(y_e) z from C(y_e + z):
    # for small z its error stays at roundoff of those pairings
    red = _equilibrium_reduction(2, 5, 3, -0.4)
    v = np.random.default_rng(97).standard_normal((4, 8))
    v *= size / np.linalg.norm(v, axis=-1, keepdims=True)
    want = _nonlinear_term_ref(red, v, 16)
    err = np.max(np.abs(gk.nonlinear_term(red, v) - want))
    assert err <= 1e-13 * _floor_scale(red, want)


def test_reduced_simulate_matches_two_einsum_rhs():
    red = _equilibrium_reduction(2, 5, 3, -0.4)
    gs = gk.synthesize_gain(red.Lmat, red.Bmat, 1.0)
    BG = red.Bmat @ gs.G

    def rhs(u):
        out = -np.einsum("ki,...i->...k", red.Lmat, u) + np.einsum("kj,...j->...k", BG, u)
        return out - gk.quadratic_term(red, u) - gk.nonlinear_term(red, u)

    v = 0.05 * np.random.default_rng(89).standard_normal((3, 8))
    dt, steps = 5e-3, 20
    _, V = gk.reduced_simulate(red, v, T=steps * dt, dt=dt, gain=gs.G)
    for _ in range(steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert _rel_diff(V[-1], v) < 1e-13


def test_reduced_simulate_zero_and_linear():
    red = cubic_reduction()
    gs = gk.synthesize_gain(red.Lmat, red.Bmat, 1.0)
    t, V = gk.reduced_simulate(red, np.zeros(8), T=1.0, dt=1e-2, gain=gs.G)
    assert np.max(np.abs(V)) == 0.0
    rng = np.random.default_rng(41)
    v0 = rng.standard_normal(8)
    closed = red.Lmat - red.Bmat @ gs.G
    t = np.linspace(0.0, 3.0, 31)
    norms = np.array([np.linalg.norm(scipy.linalg.expm(-closed * s) @ v0) for s in t])
    bound = gs.M_hat * np.exp(-(1.0 - 1e-8) * t) * norms[0]
    assert np.all(norms <= bound * (1 + 1e-6))


def test_reduced_simulate_warns_outside_radius():
    red = cubic_reduction()
    with pytest.warns(UserWarning):
        gk.reduced_simulate(red, np.ones(8), T=0.01, dt=1e-3, warn_radius=0.1)


def test_reduced_simulate_batch_matches_loop():
    red = cubic_reduction()
    gs = gk.synthesize_gain(red.Lmat, red.Bmat, 1.0)
    rng = np.random.default_rng(47)
    v0 = 0.02 * rng.standard_normal((3, 8))
    t, V = gk.reduced_simulate(red, v0, T=0.2, dt=5e-3, gain=gs.G)
    for b in range(3):
        tb, Vb = gk.reduced_simulate(red, v0[b], T=0.2, dt=5e-3, gain=gs.G)
        assert np.max(np.abs(V[:, b, :] - Vb)) < 1e-13


def test_growth_constants_cubic_regime():
    red = cubic_reduction()
    gc = gk.growth_constants(red, sigma=1.0)
    L, d, n = red.grid.L, red.grid.d, red.n
    assert abs(gc["gamma0"] - np.sqrt(2) / np.pi) < 1e-12
    assert gc["C1"] == 0.0  # zero equilibrium
    want_g1 = 6 * red.params.beta * (2 * n / L**d) ** 1.5 * np.sqrt(n) * L ** (d / 2.0)
    assert abs(gc["gamma1_or_2"] - want_g1) < 1e-12
    rho1, g0p, g1c = gc["rho1"], gc["gamma0_prime"], gc["gamma1_or_2"]
    assert rho1 > 0
    assert abs(1.0 - g0p * rho1 - g1c * rho1**2) < 1e-9  # root of the margin polynomial
    smaller = gk.growth_constants(red, sigma=1e-4)["rho1"]
    assert 0 < smaller < rho1


def test_growth_constants_supercritical_regime():
    g = grid2()
    p = op.PhysicalParams(mu=1.0, alpha=0.1, beta=0.8, gamma=-0.4, r=5, q=3)
    y_e = 0.4 * sp.random_solenoidal(g, seed=31, decay=3.0)
    red = gk.assemble_reduction(y_e, 8, p)
    sigma = 0.7
    gc = gk.growth_constants(red, sigma=sigma)
    assert abs(gc["C2"] - sp.norm_Lp(y_e, 3) ** 3) < 1e-12
    assert abs(gc["C3"] - sp.norm_Lp(y_e, 1)) < 1e-12
    assert gc["C2"] > 0 and gc["C3"] > 0
    x = gc["rho1"] ** ((p.r - 1) / 2.0)
    resid = (1 + gc["C4"]) * gc["gamma1_or_2"] * x**2 + gc["gamma0_prime"] * gc["C5"] * x - sigma / 2
    assert abs(resid) < 1e-9 * max(1.0, sigma)


def test_growth_constants_regime_errors():
    g = grid2()
    y0 = sp.SpectralField.zero(g)
    bad = [
        op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=-0.1, r=3, q=2),  # r=3 needs gamma=0
        op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=0.0, r=5, q=3),   # r>3 needs gamma<0
        op.PhysicalParams(mu=1, alpha=0.1, beta=1, gamma=-0.1, r=5, q=2),  # q must be >= 3
    ]
    for p in bad:
        red = gk.assemble_reduction(y0, 4, p)
        with pytest.raises(RegimeError):
            gk.growth_constants(red, sigma=1.0)


def test_reduced_nonlinear_attraction():
    red = cubic_reduction()
    sigma = 1.0
    gs = gk.synthesize_gain(red.Lmat, red.Bmat, sigma)
    gc = gk.growth_constants(red, sigma)
    rng = np.random.default_rng(53)
    v0 = rng.standard_normal(8)
    v0 *= 0.4 * gc["rho1"] / (gs.M_hat * np.linalg.norm(v0))
    t, V = gk.reduced_simulate(red, v0, T=6.0, dt=5e-3, gain=gs.G)
    norms = np.linalg.norm(V, axis=-1)
    assert np.max(norms) < gc["rho1"]
    fit, _ = ct.decay_rate_fit(t, norms)
    assert fit >= 0.85 * sigma


def test_full_matches_reduced_first_order():
    red = cubic_reduction()
    sigma = 1.0
    gs = gk.synthesize_gain(red.Lmat, red.Bmat, sigma)
    rng = np.random.default_rng(61)
    v0 = rng.standard_normal(8)
    v0 *= 0.05 / np.linalg.norm(v0)
    T = 0.5
    t_r, V = gk.reduced_simulate(red, v0, T=T, dt=5e-4, gain=gs.G)
    v_ref = V[-1]

    def full_final(dt):
        cfg = ts.SimConfig(
            grid=red.grid, params=red.params, y0=red.span.expand(v0), T=T, dt=dt,
            controller=gk.make_galerkin_controller(red, gs.G),
            constraint=cx.SpanConstraint(red.modes),
            constraint_mode="project",
        )
        return red.span.coeffs(ts.simulate(cfg).final)

    e1 = np.linalg.norm(full_final(0.01) - v_ref)
    e2 = np.linalg.norm(full_final(0.005) - v_ref)
    assert e1 < 0.1 * np.linalg.norm(v0)
    assert e2 < 0.8 * e1


def test_run_galerkin_loop_report():
    red = cubic_reduction()
    rng = np.random.default_rng(67)
    v0 = rng.standard_normal(8)
    v0 *= 0.01 / np.linalg.norm(v0)
    sim = ts.SimConfig(grid=red.grid, params=red.params, y0=None, T=3.0, dt=0.01)
    with pytest.warns(UserWarning, match="outside the certified radius"):
        report, (t_r, V), traj = gk.run_galerkin_loop(red, sigma=1.0, v0=v0, sim=sim)
    assert set(report) == {
        "n", "rank", "sigma", "M_hat", "gamma0", "gamma1_or_2",
        "C4", "C5", "rho1", "decay_fit_reduced", "decay_fit_full",
    }
    assert report["rank"] == 8
    assert report["decay_fit_reduced"] > 0.85
    assert report["decay_fit_full"] > 0.5


def test_galerkin_loop_states_skip_the_damping_grid(monkeypatch):
    # one grid rule for states held in the span: at y_e = 0 with odd exponents
    # the full loop samples every state, for its damping and its convection,
    # on the grid the reduction pairs its modes on, and none on the damping grid
    g = grid2()
    p = op.PhysicalParams(mu=1.0, alpha=0.3, beta=1.0, gamma=0.0, r=5, q=2)
    red = gk.assemble_reduction(sp.SpectralField.zero(g), 8, p)
    grids = set()
    sample = sp.sample

    def counted(half, grid, M, out=None):
        grids.add(M)
        return sample(half, grid, M, out=out)

    monkeypatch.setattr(sp, "sample", counted)
    v0 = 0.01 * np.random.default_rng(71).standard_normal(red.n)
    sim = ts.SimConfig(grid=g, params=p, y0=None, T=0.05, dt=0.01)
    _, _, traj = gk.run_galerkin_loop(red, sigma=1.0, v0=v0, sim=sim)
    assert len(traj.t) == 6
    assert grids == {red.quad_N}
