"""Spectral core: transforms, norms, projections, eigenbasis, snapshots.

Expected values are computed by independent routes (nodal Riemann sums on the
periodic grid, trig identities) or frozen closed forms, never by the code
under test.
"""
from __future__ import annotations

import io
import itertools
import struct

import numpy as np
import pytest

from cbfed import spectral as sp


def grid2(N=32, L=2 * np.pi):
    return sp.TorusGrid(d=2, N=N, L=L)


def nodal_integral(vals, L, N, d):
    # rectangle rule, exact for band-limited integrands on the torus
    return vals.sum() * (L / N) ** d


def test_roundtrip_physical():
    g = grid2()
    x = g.nodes()
    u = np.stack([np.sin(x[1]) + 0.3 * np.cos(2 * x[0]), np.cos(x[0] + x[1])])
    f = sp.SpectralField.from_physical(g, u)
    back = f.physical()
    assert np.max(np.abs(back - u)) < 1e-12


def test_norm_H_frozen_value():
    # ||(sin x2, 0)||_H^2 = int sin^2 = (1/2)(2pi)^2 = 2 pi^2 at L = 2pi, d = 2
    g = grid2()
    x = g.nodes()
    u = np.stack([np.sin(x[1]), np.zeros(g.shape)])
    f = sp.SpectralField.from_physical(g, u)
    assert abs(sp.norm_H(f) ** 2 - 2 * np.pi**2) < 1e-12
    # independent route: nodal quadrature
    q = nodal_integral(u[0] ** 2, g.L, g.N, g.d)
    assert abs(sp.norm_H(f) ** 2 - q) < 1e-12


def test_norm_Lp_frozen_value():
    # ||(sin x2, 0)||_{L4}^4 = int sin^4 = (3/8)(2pi)^2 = 3 pi^2 / 2
    g = grid2()
    x = g.nodes()
    u = np.stack([np.sin(x[1]), np.zeros(g.shape)])
    f = sp.SpectralField.from_physical(g, u)
    assert abs(sp.norm_Lp(f, 4) ** 4 - 1.5 * np.pi**2) < 1e-10


def _pad_by_hand(c, N, M, d):
    # independent spectrum embedding used as a second route in tests
    out = np.zeros(c.shape[:-d] + (M,) * d, dtype=complex)
    blocks = [(slice(0, N // 2), slice(0, N // 2)), (slice(N // 2, N), slice(M - N // 2, M))]
    import itertools

    for corner in itertools.product(range(2), repeat=d):
        src = tuple(blocks[i][0] for i in corner)
        dst = tuple(blocks[i][1] for i in corner)
        out[(Ellipsis,) + dst] = c[(Ellipsis,) + src]
    return out


def test_norm_Lp_even_powers_against_fine_grid():
    # for even p the integrand is a polynomial in the components, so a
    # sufficiently fine rectangle rule is exact and gives a frozen reference
    g = grid2(N=24)
    f = sp.random_solenoidal(g, seed=3, decay=2.5)
    for p, fine_factor in ((2.0, 4), (4.0, 6), (6.0, 6)):
        M = fine_factor * g.N
        cf = _pad_by_hand(f.c, g.N, M, g.d)
        vals = np.real(np.fft.ifftn(cf, axes=(1, 2)) * M**g.d)
        ref = (np.sum(np.sum(vals**2, axis=0) ** (p / 2)) * (g.L / M) ** g.d) ** (1 / p)
        assert abs(sp.norm_Lp(f, p) - ref) < 1e-10 * max(1.0, ref)


def test_norm_Lp_odd_powers_second_route():
    # odd/fractional powers: same quadrature factor, independent code path
    g = grid2(N=24)
    f = sp.random_solenoidal(g, seed=4, decay=2.0)
    for p in (3.0, 5.0, 5.5):
        fac = max(1, min(int(np.ceil((p + 1) / 2)), 4))
        M = fac * g.N
        cf = _pad_by_hand(f.c, g.N, M, g.d)
        vals = np.real(np.fft.ifftn(cf, axes=(1, 2)) * M**g.d)
        ref = (np.sum(np.sum(vals**2, axis=0) ** (p / 2)) * (g.L / M) ** g.d) ** (1 / p)
        assert abs(sp.norm_Lp(f, p) - ref) < 1e-12 * max(1.0, ref)


@pytest.mark.parametrize("d", [2, 3])
def test_norm_Lp_even_powers_exact_at_half_factor(d):
    # |f|^p for even p has modes below (p/2) N per axis: factor p/2 is exact,
    # so one more level of oversampling changes the norm only by roundoff
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    f = sp.random_solenoidal(g, seed=5, decay=1.5)
    assert [sp.norm_factor(p) for p in (2, 4, 6, 8, 10)] == [1, 2, 3, 4, 4]
    assert [sp.norm_factor(p) for p in (1, 3, 5, 5.5)] == [1, 2, 3, 4]
    for p in (2, 4, 6):
        finer = sp.norm_Lp_nodal(sp.oversample(f, p // 2 + 1), g, p)
        assert abs(sp.norm_Lp(f, p) - finer) < 1e-14 * finer


def test_inner_matches_nodal():
    g = grid2(N=24)
    a = sp.random_solenoidal(g, seed=11, decay=2.0)
    b = sp.random_solenoidal(g, seed=12, decay=2.0)
    ua, ub = a.physical(), b.physical()
    ref = nodal_integral(np.sum(ua * ub, axis=0), g.L, g.N, g.d)
    assert abs(sp.inner(a, b) - ref) < 1e-11 * max(1.0, abs(ref))


def test_gradient_single_mode():
    # d/dx1 sin(x1) = cos(x1); norm_grad^2 of (sin x2, 0) is int cos^2 = 2 pi^2
    g = grid2()
    x = g.nodes()
    f = sp.SpectralField.from_physical(g, np.stack([np.sin(x[1]), np.zeros(g.shape)]))
    assert abs(sp.norm_grad(f) ** 2 - 2 * np.pi**2) < 1e-12
    dd = sp.gradient_physical(f)  # shape (d, d, *grid)
    assert np.max(np.abs(dd[1, 0] - np.cos(x[1]))) < 1e-12
    assert np.max(np.abs(dd[0, 0])) < 1e-12


def test_leray_single_mode():
    # k = (1,0), coeffs (1,1) -> (0,1): subtract k (k.c)/|k|^2
    g = grid2()
    c = np.zeros((2,) + g.shape, dtype=complex)
    k_index = (1, 0)
    c[0][k_index] = 1.0
    c[1][k_index] = 1.0
    f = sp.SpectralField(g, c)
    p = sp.leray(f)
    assert abs(p.c[0][k_index] - 0.0) < 1e-14
    assert abs(p.c[1][k_index] - 1.0) < 1e-14
    # mean mode untouched
    c0 = np.zeros((2,) + g.shape, dtype=complex)
    c0[0][(0, 0)] = 0.7
    f0 = sp.SpectralField(g, c0)
    p0 = sp.leray(f0)
    assert abs(p0.c[0][(0, 0)] - 0.7) < 1e-15


def test_leray_idempotent_symmetric_divfree():
    g = grid2()
    rng = np.random.default_rng(0)
    for trial in range(5):
        seed = 100 + trial
        f = sp.random_field(g, seed=seed, decay=1.5)
        pf = sp.leray(f)
        ppf = sp.leray(pf)
        denom = max(sp.norm_H(f), 1e-30)
        assert sp.norm_H(ppf - pf) / denom < 1e-11
        assert sp.divergence_max(pf) < 1e-11
        h = sp.random_field(g, seed=seed + 50, decay=1.5)
        lhs = sp.inner(sp.leray(f), h)
        rhs = sp.inner(f, sp.leray(h))
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))
    del rng


def test_stokes_eigenvalue_shifted():
    # L = 2pi: |k|^2 = 1 mode has (I + A) eigenvalue 2
    g = grid2()
    x = g.nodes()
    f = sp.leray(sp.SpectralField.from_physical(g, np.stack([np.sin(x[1]), np.zeros(g.shape)])))
    out = sp.stokes_shifted(f)
    assert sp.norm_H(out - 2.0 * f) < 1e-12
    # L = 1: |k|^2 = 2 mode has eigenvalue 1 + 8 pi^2
    g1 = sp.TorusGrid(d=2, N=16, L=1.0)
    x1 = g1.nodes()
    phase = 2 * np.pi * (x1[0] + x1[1])
    u = np.stack([np.sin(phase), -np.sin(phase)])  # divergence-free for k=(1,1)
    f1 = sp.SpectralField.from_physical(g1, u)
    out1 = sp.stokes_shifted(f1)
    assert sp.norm_H(out1 - (1 + 8 * np.pi**2) * f1) < 1e-10 * sp.norm_H(f1)


def test_resolvent_halves_lowest_mode():
    # (I + lam A)^{-1} at lam = 1, L = 2pi, |k|^2 = 1: coefficient / 2
    g = grid2()
    x = g.nodes()
    f = sp.SpectralField.from_physical(g, np.stack([np.sin(x[1]), np.zeros(g.shape)]))
    out = sp.resolvent(f, 1.0)
    assert sp.norm_H(out - 0.5 * f) < 1e-13


def test_resolvent_contracts():
    g = grid2()
    for seed in (1, 2, 3):
        f = sp.random_solenoidal(g, seed=seed, decay=1.0)
        for lam in (1e-3, 0.1, 1.0, 10.0):
            assert sp.norm_H(sp.resolvent(f, lam)) <= sp.norm_H(f) * (1 + 1e-13)


def test_eigenbasis_low_modes_2d():
    g = grid2()
    modes = sp.eigenbasis(g, 8)
    lams = [m.eigenvalue for m in modes]
    # d=2: two constant modes (lam = 1), then four |k|^2 = 1 modes (lam = 2)
    assert np.allclose(lams[:2], [1.0, 1.0], atol=1e-14)
    assert np.allclose(lams[2:6], [2.0] * 4, atol=1e-14)
    assert np.allclose(lams[6:8], [3.0] * 2, atol=1e-14)
    gram = np.array([[sp.inner(a.field, b.field) for b in modes] for a in modes])
    assert np.max(np.abs(gram - np.eye(8))) < 1e-12
    for m in modes:
        assert sp.divergence_max(m.field) < 1e-12
        # eigen relation (I + A) w = lam w
        err = sp.norm_H(sp.stokes_shifted(m.field) - m.eigenvalue * m.field)
        assert err < 1e-10


def test_eigenbasis_3d_orthonormal():
    g = sp.TorusGrid(d=3, N=8, L=2 * np.pi)
    modes = sp.eigenbasis(g, 12)
    gram = np.array([[sp.inner(a.field, b.field) for b in modes] for a in modes])
    assert np.max(np.abs(gram - np.eye(12))) < 1e-12
    for m in modes:
        assert sp.divergence_max(m.field) < 1e-12
        err = sp.norm_H(sp.stokes_shifted(m.field) - m.eigenvalue * m.field)
        assert err < 1e-10
    # 3 constant modes in d=3
    assert np.allclose([m.eigenvalue for m in modes[:3]], 1.0, atol=1e-14)


def test_eigenbasis_deterministic_ordering():
    g = grid2()
    a = sp.eigenbasis(g, 10)
    b = sp.eigenbasis(g, 10)
    for ma, mb in zip(a, b):
        assert ma.wavevector == mb.wavevector
        assert ma.phase == mb.phase
        assert sp.norm_H(ma.field - mb.field) == 0.0
    # ordering key grows
    keys = [(m.shell, m.wavevector, m.phase, m.axis) for m in a]
    assert keys == sorted(keys)


def test_random_solenoidal_properties():
    g = grid2()
    f = sp.random_solenoidal(g, seed=42, decay=2.0)
    f2 = sp.random_solenoidal(g, seed=42, decay=2.0)
    assert sp.norm_H(f - f2) == 0.0
    assert sp.divergence_max(f) < 1e-12
    # physical field is real: imaginary residue of inverse transform is tiny
    assert sp.reality_defect(f) < 1e-12


def test_snapshot_roundtrip(tmp_path):
    g = grid2(N=16)
    f = sp.random_solenoidal(g, seed=5, decay=1.0)
    path = tmp_path / "state.cbfd"
    sp.write_snapshot(f, path)
    raw = path.read_bytes()
    assert raw[:4] == b"CBFD"
    version, d, N = struct.unpack_from("<III", raw, 4)
    (L,) = struct.unpack_from("<d", raw, 16)
    (count,) = struct.unpack_from("<Q", raw, 24)
    assert (version, d, N, count) == (1, 2, 16, 16**2)
    assert L == g.L
    back = sp.read_snapshot(path)
    assert back.grid.d == g.d and back.grid.N == g.N and back.grid.L == g.L
    assert sp.norm_H(back - f) == 0.0


def test_snapshot_rejects_garbage(tmp_path):
    p = tmp_path / "bad.cbfd"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(Exception):
        sp.read_snapshot(p)


def test_oversample_is_interpolation():
    g = grid2(N=16)
    x = g.nodes()
    u = np.stack([np.sin(x[1]) + np.cos(2 * x[0] + x[1]), np.cos(x[0])])
    f = sp.SpectralField.from_physical(g, u)
    fine = sp.oversample(f, 2)
    M = 2 * g.N
    xs = np.meshgrid(*[np.arange(M) * (g.L / M)] * 2, indexing="ij")
    ref = np.stack([np.sin(xs[1]) + np.cos(2 * xs[0] + xs[1]), np.cos(xs[0])])
    assert np.max(np.abs(fine - ref)) < 1e-12


# ---------------------------------------------------------------------------
# real transforms, d = 2 and 3


def small_grid(d):
    return sp.TorusGrid(d=d, N=16 if d == 2 else 8)


def _negated(c, d):
    # c(-k) for every k, by an index route independent of the code under test
    idx = (-np.arange(c.shape[-1])) % c.shape[-1]
    for ax in range(c.ndim - d, c.ndim):
        c = np.take(c, idx, axis=ax)
    return c


def _gather_by_hand(cf, N, M, d):
    # second route for truncating fine spectra to the coarse grid
    out = np.zeros(cf.shape[:-d] + (N,) * d, dtype=complex)
    blocks = [(slice(0, N // 2), slice(0, N // 2)), (slice(N // 2, N), slice(M - N // 2, M))]
    for corner in itertools.product(range(2), repeat=d):
        src = tuple(blocks[i][0] for i in corner)
        dst = tuple(blocks[i][1] for i in corner)
        out[(Ellipsis,) + src] = cf[(Ellipsis,) + dst]
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_real_transform_roundtrip(d):
    g = small_grid(d)
    f = sp.random_field(g, seed=61, decay=1.0)
    vals = f.physical()
    back = sp.SpectralField.from_physical(g, vals)
    assert np.max(np.abs(back.c - f.c)) < 1e-14 * np.max(np.abs(f.c))
    assert np.max(np.abs(back.physical() - vals)) < 1e-13 * np.max(np.abs(vals))


@pytest.mark.parametrize("d", [2, 3])
def test_forward_transform_is_hermitian(d):
    g = small_grid(d)
    rng = np.random.default_rng(62)
    c = sp.SpectralField.from_physical(g, rng.standard_normal((d,) + g.shape)).c
    assert np.array_equal(_negated(c, d), np.conj(c))
    assert np.all(c[:, ~g.keep] == 0)
    # the complex inverse sees only roundoff-level imaginary residue
    assert sp.reality_defect(sp.SpectralField(g, c)) < 1e-14
    # the eigen solver's scrub turns a spectrum with an imaginary leak into
    # an exactly Hermitian one
    leak = sp.random_solenoidal(g, seed=63).c * (1 + 1e-9j)
    scrub = sp.SpectralField.from_physical(g, sp.SpectralField(g, leak).physical()).c
    assert np.array_equal(_negated(scrub, d), np.conj(scrub))


@pytest.mark.parametrize("d", [2, 3])
def test_oversample_matches_complex_route(d):
    g = small_grid(d)
    f = sp.random_solenoidal(g, seed=64, decay=1.0)
    axes = tuple(range(1, d + 1))
    for factor in (2, 3, 4):
        M = factor * g.N
        ref = np.real(np.fft.ifftn(_pad_by_hand(f.c, g.N, M, d), axes=axes) * M**d)
        out = sp.oversample(f, factor)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [2, 3])
def test_fine_to_coeffs_matches_complex_route(d):
    g = small_grid(d)
    rng = np.random.default_rng(65)
    axes = tuple(range(1, d + 1))
    for factor in (1, 2, 3):
        M = factor * g.N
        vals = rng.standard_normal((d,) + (M,) * d)
        cf = np.fft.fftn(vals, axes=axes) / M**d
        ref = _gather_by_hand(cf, g.N, M, d) * g.keep
        out = sp.fine_to_coeffs(vals, g, factor)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# zero-padded transforms against the full-pad route, bitwise
#
# The reference pads the whole spectrum and transforms every line; the code
# under test skips the lines that are zero or discarded, and computes each
# remaining line the same way, so the two agree exactly.


def _oversample_full_pad(f, factor):
    g = f.grid
    M = factor * g.N
    half = _pad_by_hand(f.c, g.N, M, g.d)[..., : M // 2 + 1]
    return np.fft.irfftn(half, s=(M,) * g.d, axes=tuple(range(1, g.d + 1)), norm="forward")


def _fine_to_coeffs_full_pad(vals, g, factor):
    M = factor * g.N
    cf = np.fft.rfftn(vals, axes=tuple(range(1, g.d + 1)), norm="forward")
    # last axis moved in front, so the leading spatial axes are the last d-1
    lead = np.moveaxis(cf[..., : g.N // 2], -1, 0)
    half = np.zeros((g.d,) + (g.N,) * (g.d - 1) + (g.N // 2 + 1,), dtype=complex)
    half[..., : g.N // 2] = np.moveaxis(_gather_by_hand(lead, g.N, M, g.d - 1), 0, -1)
    return sp._full_spectrum(half, g)


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [4, 8, 16])
@pytest.mark.parametrize("d", [2, 3])
def test_oversample_bitwise_matches_full_pad(d, N, factor):
    f = sp.random_field(sp.TorusGrid(d=d, N=N), seed=66 + N, decay=1.0)
    assert np.array_equal(sp.oversample(f, factor), _oversample_full_pad(f, factor))


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [4, 8, 16])
@pytest.mark.parametrize("d", [2, 3])
def test_fine_to_coeffs_bitwise_matches_full_pad(d, N, factor):
    g = sp.TorusGrid(d=d, N=N)
    vals = np.random.default_rng(67 + N).standard_normal((d,) + (factor * N,) * d)
    out = sp.fine_to_coeffs(vals, g, factor)
    assert np.array_equal(out, _fine_to_coeffs_full_pad(vals, g, factor))


@pytest.mark.parametrize("d", [2, 3])
def test_padded_transforms_leave_inputs_unmodified(d):
    g = small_grid(d)
    f = sp.random_field(g, seed=68, decay=1.0)
    c = f.c.copy()
    for factor in (1, 2, 3, 4):
        vals = sp.oversample(f, factor)
        before = vals.copy()
        sp.fine_to_coeffs(vals, g, factor)
        assert np.array_equal(vals, before)
    assert np.array_equal(f.c, c)


@pytest.mark.parametrize("d", [2, 3])
def test_padded_transforms_keep_no_state_between_calls(d):
    g = small_grid(d)
    a = sp.random_field(g, seed=69, decay=1.0)
    b = sp.random_field(g, seed=70, decay=1.0)
    for factor in (2, 3):
        va, vb = sp.oversample(a, factor), sp.oversample(b, factor)
        ca, cb = sp.fine_to_coeffs(va, g, factor), sp.fine_to_coeffs(vb, g, factor)
        assert not np.shares_memory(va, vb) and not np.shares_memory(ca, cb)
        # fresh calls on copies, in the other order
        fb = sp.oversample(sp.SpectralField(g, b.c.copy()), factor)
        fa = sp.oversample(sp.SpectralField(g, a.c.copy()), factor)
        assert np.array_equal(va, fa) and np.array_equal(vb, fb)
        assert np.array_equal(cb, sp.fine_to_coeffs(fb.copy(), g, factor))
        assert np.array_equal(ca, sp.fine_to_coeffs(fa.copy(), g, factor))
