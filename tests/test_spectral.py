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
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfed import checks
from cbfed import spectral as sp

import reference_routes as ref


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
        cf = _pad_by_hand(sp.full_spectrum(f.c, g), g.N, M, g.d)
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
        cf = _pad_by_hand(sp.full_spectrum(f.c, g), g.N, M, g.d)
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
    c = np.zeros((2,) + g.half_shape, dtype=complex)
    k_index = (1, 0)
    c[0][k_index] = 1.0
    c[1][k_index] = 1.0
    f = sp.SpectralField(g, c)
    p = sp.leray(f)
    assert abs(p.c[0][k_index] - 0.0) < 1e-14
    assert abs(p.c[1][k_index] - 1.0) < 1e-14
    # mean mode untouched
    c0 = np.zeros((2,) + g.half_shape, dtype=complex)
    c0[0][(0, 0)] = 0.7
    f0 = sp.SpectralField(g, c0)
    p0 = sp.leray(f0)
    assert abs(p0.c[0][(0, 0)] - 0.7) < 1e-15


def test_leray_idempotent_symmetric_divfree():
    # the verify check leray-projection: its absolute 1e-11 is the stricter bound
    g = grid2()
    for seed in range(100, 105):
        checks.leray_projection(sp.random_field(g, seed=seed, decay=1.5),
                                sp.random_field(g, seed=seed + 50, decay=1.5))


@settings(max_examples=30, deadline=None, database=None)
@given(
    d=st.sampled_from([2, 3]),
    N=st.sampled_from(range(8, 33, 2)),
    L=st.floats(0.5, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_leray_properties(d, N, L, seed):
    # idempotent, divergence-free and self-adjoint in H, on any box
    g = sp.TorusGrid(d=d, N=N, L=L)
    f = sp.random_field(g, seed, decay=1.0)
    h = sp.random_field(g, seed ^ 0x5A5A, decay=1.0)
    pf = sp.leray(f)
    assert sp.norm_H(sp.leray(pf) - pf) <= 1e-14 * sp.norm_H(f)
    # max |k.c_k| over integer k, against max |k| |c_k| <= (N/2) sqrt(d) max |c|
    assert sp.divergence_max(pf) <= 1e-14 * N * np.max(np.abs(f.c))
    lhs, rhs = sp.inner(pf, h), sp.inner(f, sp.leray(h))
    assert abs(lhs - rhs) <= 1e-14 * sp.norm_H(f) * sp.norm_H(h)


@pytest.mark.parametrize("d", [2, 3])
def test_leray_bitwise_matches_earlier_formula(d):
    # c - k (k.c)/|k|^2 with its (d, ...) temporaries, before the one-array form;
    # np.sum starts from +0, so only the sign of a zero may differ
    g = small_grid(d)
    f = sp.random_field(g, seed=73, decay=1.0)
    dot = np.sum(g.wave * f.c, axis=0)
    assert np.array_equal(sp.leray(f).c, f.c - g.wave * (dot * g.inv_k2))


def test_stokes_eigenvalue_shifted():
    # L = 2pi: |k|^2 = 1 mode has (I + A) eigenvalue 2
    g = grid2()
    x = g.nodes()
    f = sp.leray(sp.SpectralField.from_physical(g, np.stack([np.sin(x[1]), np.zeros(g.shape)])))
    out = ref.stokes_shifted(f)
    assert sp.norm_H(out - 2.0 * f) < 1e-12
    # L = 1: |k|^2 = 2 mode has eigenvalue 1 + 8 pi^2
    g1 = sp.TorusGrid(d=2, N=16, L=1.0)
    x1 = g1.nodes()
    phase = 2 * np.pi * (x1[0] + x1[1])
    u = np.stack([np.sin(phase), -np.sin(phase)])  # divergence-free for k=(1,1)
    f1 = sp.SpectralField.from_physical(g1, u)
    out1 = ref.stokes_shifted(f1)
    assert sp.norm_H(out1 - (1 + 8 * np.pi**2) * f1) < 1e-10 * sp.norm_H(f1)


def test_resolvent_halves_lowest_mode():
    # (I + lam A)^{-1} at lam = 1, L = 2pi, |k|^2 = 1: coefficient / 2
    g = grid2()
    x = g.nodes()
    f = sp.SpectralField.from_physical(g, np.stack([np.sin(x[1]), np.zeros(g.shape)]))
    out = ref.resolvent(f, 1.0)
    assert sp.norm_H(out - 0.5 * f) < 1e-13


def test_resolvent_contracts():
    g = grid2()
    for seed in (1, 2, 3):
        f = sp.random_solenoidal(g, seed=seed, decay=1.0)
        for lam in (1e-3, 0.1, 1.0, 10.0):
            assert sp.norm_H(ref.resolvent(f, lam)) <= sp.norm_H(f) * (1 + 1e-13)


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
        err = sp.norm_H(ref.stokes_shifted(m.field) - m.eigenvalue * m.field)
        assert err < 1e-10


def test_eigenbasis_3d_orthonormal():
    g = sp.TorusGrid(d=3, N=8, L=2 * np.pi)
    modes = sp.eigenbasis(g, 12)
    gram = np.array([[sp.inner(a.field, b.field) for b in modes] for a in modes])
    assert np.max(np.abs(gram - np.eye(12))) < 1e-12
    for m in modes:
        assert sp.divergence_max(m.field) < 1e-12
        err = sp.norm_H(ref.stokes_shifted(m.field) - m.eigenvalue * m.field)
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
    assert ref.reality_defect(f) < 1e-12


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
    assert sp.read_snapshot(path).grid == g
    checks.snapshot_roundtrip(f, path)


def _full_hermitian(d, N, seed):
    # a full spectrum (d, N, ..., N) of a real field, built in the full layout
    rng = np.random.default_rng(seed)
    shape = (d,) + (N,) * d
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = 0.5 * (c + np.conj(_negated(c, d)))
    k = np.fft.fftfreq(N, 1.0 / N)
    nyquist = np.any(np.stack(np.meshgrid(*([k] * d), indexing="ij")) == -N // 2, axis=0)
    c[:, nyquist] = 0.0
    return c


@pytest.mark.parametrize("d", [2, 3])
def test_snapshot_version1_full_file_reads_into_half(tmp_path, d):
    # a version-1 file written by hand from a full spectrum, as the format
    # has always stored it: reading keeps its half, bitwise
    N, L = 8, 3.0
    full = _full_hermitian(d, N, seed=71 + d)
    idx = np.arange(-N // 2, N // 2) % N
    arr = np.moveaxis(full[(slice(None),) + np.ix_(*([idx] * d))], 0, -1)
    flat = np.empty(arr.size * 2, dtype="<f8")
    flat[0::2] = arr.real.ravel()
    flat[1::2] = arr.imag.ravel()
    path = tmp_path / "old.cbfd"
    path.write_bytes(struct.pack("<4sIIIdQ", b"CBFD", 1, d, N, L, N**d) + flat.tobytes())
    back = sp.read_snapshot(path)
    assert back.c.shape == (d,) + (N,) * (d - 1) + (N // 2 + 1,)
    assert np.array_equal(back.c, full[..., : N // 2 + 1])
    # writing the half again gives the same values; only the sign of a zero
    # imaginary part may differ, because conj(0) = -0
    again = tmp_path / "again.cbfd"
    sp.write_snapshot(back, again)
    raw = again.read_bytes()
    assert raw[:32] == path.read_bytes()[:32]
    assert np.array_equal(np.frombuffer(raw[32:], dtype="<f8"), flat)


@pytest.mark.parametrize("d", [2, 3])
def test_snapshot_write_read_bitwise(tmp_path, d):
    g = small_grid(d)
    for f in (sp.random_solenoidal(g, seed=72), sp.eigenbasis(g, d + 3)[-1].field):
        path = tmp_path / "state.cbfd"
        sp.write_snapshot(f, path)
        assert np.array_equal(sp.read_snapshot(path).c, f.c)


@pytest.mark.parametrize("d", [2, 3])
def test_snapshot_roundtrip_keeps_signed_zeros(tmp_path, monkeypatch, d):
    # zero parts of either sign (conj(0) = -0) come back with their sign,
    # and the check sees a read that drops it
    g = small_grid(d)
    c = sp.random_solenoidal(g, seed=73).c.copy()
    c[0, 0, 1] = complex(-0.0, -0.0)
    c[1, 1, 0] = complex(0.5, -0.0)
    c[1, 2, 1] = complex(-0.0, 0.25)
    f = sp.SpectralField(g, c)
    path = tmp_path / "zeros.cbfd"
    sp.write_snapshot(f, path)
    assert sp.read_snapshot(path).c.tobytes() == c.tobytes()
    checks.snapshot_roundtrip(f, path)
    read = sp.read_snapshot
    monkeypatch.setattr(sp, "read_snapshot", lambda p: sp.SpectralField(g, read(p).c + 0.0))
    with pytest.raises(checks.CheckFailed, match="bytes"):
        checks.snapshot_roundtrip(f, path)


def _parseval_full(a, b, weight):
    # L^d sum over the full spectrum of weight * Re(conj(b_k) a_k), with the
    # full spectra from the complex FFT of the nodal values
    g = a.grid
    axes = tuple(range(1, g.d + 1))
    fa = np.fft.fftn(a.physical(), axes=axes) / g.N**g.d
    fb = np.fft.fftn(b.physical(), axes=axes) / g.N**g.d
    return g.L**g.d * float(np.sum(weight * np.sum(np.real(np.conj(fb) * fa), axis=0)))


@settings(max_examples=30, deadline=None, database=None)
@given(
    d=st.sampled_from([2, 3]),
    N=st.sampled_from(range(4, 17, 2)),
    seed=st.integers(0, 2**32 - 1),
)
def test_half_parseval_matches_full_layout(d, N, seed):
    g = sp.TorusGrid(d=d, N=N)
    a = sp.random_field(g, seed)
    b = sp.random_field(g, seed ^ 0x5A5A)
    assert a.c.shape == (d,) + (N,) * (d - 1) + (N // 2 + 1,)
    k = np.fft.fftfreq(N, 1.0 / N)
    k2 = sum(np.meshgrid(*([k**2] * d), indexing="ij"))
    lap = (2 * np.pi / g.L) ** 2 * k2
    na2, nb2 = _parseval_full(a, a, 1.0), _parseval_full(b, b, 1.0)
    ng2 = _parseval_full(a, a, lap)
    # the inner products relative to their Cauchy-Schwarz bound
    want = _parseval_full(a, b, 1.0)
    dual = np.real(np.conj(sp.parseval_dual(b.c[None], g).view(complex)) @ a.c.ravel())[0]
    for got in (sp.inner(a, b), dual):
        assert abs(got - want) <= 1e-13 * np.sqrt(na2 * nb2)
    assert abs(sp.norm_H(a) ** 2 - na2) <= 1e-13 * na2
    assert abs(sp.norm_grad(a) ** 2 - ng2) <= 1e-13 * ng2


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
    full = sp.full_spectrum(c, g)
    assert np.array_equal(_negated(full, d), np.conj(full))
    assert np.all(c[:, ~g.keep] == 0)
    # the complex inverse sees only roundoff-level imaginary residue
    assert ref.reality_defect(sp.SpectralField(g, c)) < 1e-14
    # the eigen solver's scrub turns a spectrum with an imaginary leak into
    # an exactly Hermitian one
    leak = sp.random_solenoidal(g, seed=63).c * (1 + 1e-9j)
    scrub = sp.SpectralField.from_physical(g, sp.SpectralField(g, leak).physical()).c
    scrub = sp.full_spectrum(scrub, g)
    assert np.array_equal(_negated(scrub, d), np.conj(scrub))


@pytest.mark.parametrize("d", [2, 3])
def test_oversample_matches_complex_route(d):
    g = small_grid(d)
    f = sp.random_solenoidal(g, seed=64, decay=1.0)
    axes = tuple(range(1, d + 1))
    for factor in (2, 3, 4):
        M = factor * g.N
        cf = _pad_by_hand(sp.full_spectrum(f.c, g), g.N, M, d)
        ref = np.real(np.fft.ifftn(cf, axes=axes) * M**d)
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
        # compare the stored halves
        ref = _gather_by_hand(cf, g.N, M, d)[..., : g.N // 2 + 1] * g.keep
        out = sp.fine_to_coeffs(vals, g)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# zero-padded transforms against the full-pad route
#
# The reference pads the whole spectrum and transforms every line.  The FFT
# routes of the code under test skip the lines that are zero or discarded,
# and compute each remaining line the same way, so the two agree exactly.
# The DFT-matrix route (K = min(N, M)/2 <= sp.DFT_MAX_K, M = N included)
# sums in another order and agrees to 1e-14 of the largest value, the bound
# of test_unsample_inverts_sample.


def _matrix_route(N, M):
    return min(N, M) // 2 <= sp.DFT_MAX_K


def _assert_route_match(got, want, N, M, same=np.array_equal):
    if _matrix_route(N, M):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    else:
        assert same(got, want)


def _oversample_full_pad(f, factor):
    g = f.grid
    M = factor * g.N
    half = _pad_by_hand(sp.full_spectrum(f.c, g), g.N, M, g.d)[..., : M // 2 + 1]
    return np.fft.irfftn(half, s=(M,) * g.d, axes=tuple(range(1, g.d + 1)), norm="forward")


def _fine_to_coeffs_full_pad(vals, g, factor):
    M = factor * g.N
    cf = np.fft.rfftn(vals, axes=tuple(range(1, g.d + 1)), norm="forward")
    # last axis moved in front, so the leading spatial axes are the last d-1
    lead = np.moveaxis(cf[..., : g.N // 2], -1, 0)
    half = np.zeros((g.d,) + (g.N,) * (g.d - 1) + (g.N // 2 + 1,), dtype=complex)
    half[..., : g.N // 2] = np.moveaxis(_gather_by_hand(lead, g.N, M, g.d - 1), 0, -1)
    return sp.enforce_real(half, g)


# 2-d N = 40 keeps the FFT route (K = 20 > sp.DFT_MAX_K) pinned bitwise
_PIN_GRIDS = [(2, 4), (2, 8), (2, 16), (2, 40), (3, 4), (3, 8), (3, 16)]


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
@pytest.mark.parametrize("d, N", _PIN_GRIDS)
def test_oversample_bitwise_matches_full_pad(d, N, factor):
    f = sp.random_field(sp.TorusGrid(d=d, N=N), seed=66 + N, decay=1.0)
    _assert_route_match(sp.oversample(f, factor), _oversample_full_pad(f, factor), N, factor * N)


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
@pytest.mark.parametrize("d, N", _PIN_GRIDS)
def test_fine_to_coeffs_bitwise_matches_full_pad(d, N, factor):
    g = sp.TorusGrid(d=d, N=N)
    vals = np.random.default_rng(67 + N).standard_normal((d,) + (factor * N,) * d)
    out = sp.fine_to_coeffs(vals, g)
    _assert_route_match(out, _fine_to_coeffs_full_pad(vals, g, factor), N, factor * N)


@pytest.mark.parametrize("d", [2, 3])
def test_padded_transforms_leave_inputs_unmodified(d):
    g = small_grid(d)
    f = sp.random_field(g, seed=68, decay=1.0)
    c = f.c.copy()
    for factor in (1, 2, 3, 4):
        vals = sp.oversample(f, factor)
        before = vals.copy()
        sp.fine_to_coeffs(vals, g)
        assert np.array_equal(vals, before)
    assert np.array_equal(f.c, c)


@pytest.mark.parametrize("d", [2, 3])
def test_padded_transforms_keep_no_state_between_calls(d):
    g = small_grid(d)
    a = sp.random_field(g, seed=69, decay=1.0)
    b = sp.random_field(g, seed=70, decay=1.0)
    for factor in (2, 3):
        va, vb = sp.oversample(a, factor), sp.oversample(b, factor)
        ca, cb = sp.fine_to_coeffs(va, g), sp.fine_to_coeffs(vb, g)
        assert not np.shares_memory(va, vb) and not np.shares_memory(ca, cb)
        # fresh calls on copies, in the other order
        fb = sp.oversample(sp.SpectralField(g, b.c.copy()), factor)
        fa = sp.oversample(sp.SpectralField(g, a.c.copy()), factor)
        assert np.array_equal(va, fa) and np.array_equal(vb, fb)
        assert np.array_equal(cb, sp.fine_to_coeffs(fb.copy(), g))
        assert np.array_equal(ca, sp.fine_to_coeffs(fa.copy(), g))
    # on both sides of N, no result shares memory with another or with the
    # cached DFT matrices
    for M in (g.N - 2, 2 * g.N, 3 * g.N):
        results = [sp.sample(a.c, g, M), sp.sample(b.c, g, M)]
        results += [sp.unsample(v, g) for v in results]
        for x, y in itertools.combinations(results + list(sp._dft_matrices(g.N, M)), 2):
            assert not np.shares_memory(x, y), M


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("N, M", [(16, 48), (8, 6), (40, 12)])
def test_dft_matrices_are_cached_and_read_only(N, M):
    matrices = sp._dft_matrices(N, M)
    assert sp._dft_matrices(N, M) is matrices
    for matrix in matrices:
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


@st.composite
def _transform_case(draw):
    """(d, N, M, leading shape): N from 4 to 40, so K = min(N, M)/2 falls on
    both sides of sp.DFT_MAX_K, and M below, at or above N (in 3-d at most
    N + 8, to keep the grids small)."""
    d = draw(st.sampled_from([2, 3]))
    # half the draws past N = 32, the only grids where K > sp.DFT_MAX_K can be
    N = draw(st.sampled_from(range(4, 41, 2)) | st.sampled_from(range(34, 41, 2)))
    side = draw(st.sampled_from(["below", "at", "above"]))
    if side == "below" and N > 4:
        M = draw(st.sampled_from(range(4, N, 2)))
    elif side == "above":
        M = draw(st.sampled_from(range(N + 2, 2 * N + 3 if d == 2 else N + 9, 2)))
    else:
        M = N
    return d, N, M, draw(st.sampled_from([(), (d,), (2, d)]))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(case=_transform_case(), seed=st.integers(0, 2**32 - 1))
def test_sample_unsample_match_kept_mode_routes(case, seed):
    # either route agrees with the kept modes copied around one irfftn/rfftn
    # to 1e-14, stacked fields too, and sample into out= gives the same bits
    d, N, M, lead = case
    g = sp.TorusGrid(d=d, N=N)
    rng = np.random.default_rng(seed)
    shape = lead + g.half_shape
    half = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * g.keep
    got, want = sp.sample(half, g, M), ref.sample_kept_modes(half, g, M)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    buf = np.full(got.shape, np.nan)
    assert sp.sample(half, g, M, out=buf) is buf and _same_bits(buf, got)
    vals = rng.standard_normal(lead + (M,) * d)
    got, want = sp.unsample(vals, g), ref.unsample_kept_modes(vals, g)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _sample_one_field(x, N, M):
    # one field's nodal values from its columns k_d < K, one product per axis
    K = x.shape[-1]
    E, _, R, _ = sp._dft_matrices(N, M)
    if x.ndim == 3:
        x = (E @ x.reshape(N, N * K)).reshape(M, N, K)
    x = np.matmul(E, x)
    return (x.view(float).reshape(-1, 2 * K) @ R).reshape(x.shape[:-1] + (M,))


def _unsample_one_field(vals, N, K):
    # one field's columns k_d < K from its nodal values, one product per axis
    M = vals.shape[-1]
    _, F, _, Rf = sp._dft_matrices(N, M)
    x = (vals.reshape(-1, M) @ Rf).view(complex).reshape(vals.shape[:-1] + (K,))
    x = np.matmul(F, x)
    if vals.ndim == 3:
        x = (F @ x.reshape(M, N * K)).reshape(N, N, K)
    return x


_BATCHED_GRIDS = [(2, 32, 8), (2, 32, 16), (2, 32, 32), (2, 32, 96), (2, 16, 6), (2, 16, 48),
                  (3, 8, 4), (3, 8, 8), (3, 8, 24), (3, 16, 8), (3, 16, 16), (3, 16, 48)]


def _batched_leads(d):
    # one field, a vector field, op.convective's velocity and vorticity
    # pairs, gradient_physical's partials and the modes of
    # galerkin.assemble_reduction
    return [(), (d,), (d + d * (d - 1) // 2,), (d, d), (5, d)]


@pytest.mark.parametrize("d, N, M", _BATCHED_GRIDS)
def test_batched_dft_route_is_bitwise_per_field(d, N, M):
    # the DFT-matrix route takes a whole stack of fields in one product chain
    # per axis; each field's values and coefficients must be bitwise those of
    # its own products, M = N included, with no Hermitian pass on the way
    g = sp.TorusGrid(d=d, N=N)
    rng = np.random.default_rng(77 + N + M)
    K = min(N, M) // 2
    assert K <= sp.DFT_MAX_K
    for lead in _batched_leads(d):
        shape = lead + g.half_shape
        half = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * g.keep
        got = sp.sample(half, g, M)
        for i in np.ndindex(lead):
            assert _same_bits(got[i], _sample_one_field(half[i][..., :K], N, M)), lead
        vals = rng.standard_normal(lead + (M,) * d)
        want = np.zeros(shape, dtype=complex)
        for i in np.ndindex(lead):
            want[i][..., :K] = _unsample_one_field(vals[i], N, K)
        assert _same_bits(sp.unsample(vals, g), want), lead


@pytest.mark.parametrize("d, N, M", _BATCHED_GRIDS)
def test_dft_route_coefficients_are_exactly_hermitian(d, N, M):
    # the k < 0 rows of the forward matrix F are the conjugates of the k > 0
    # rows, so the raw products of the matrix route are those of real fields
    # with no Hermitian pass: c(-k) = conj c(k) exactly on the k_d = 0 plane,
    # which holds both k and -k, and the mean's imaginary part is 0
    g = sp.TorusGrid(d=d, N=N)
    rng = np.random.default_rng(78 + N + M)
    K = min(N, M) // 2
    for lead in _batched_leads(d):
        plane = sp._unsample_dft(rng.standard_normal(lead + (M,) * d), d, N, K)[..., 0]
        assert np.array_equal(plane[(Ellipsis,) + g.flip_lead], np.conj(plane)), lead
        assert np.all(plane[(Ellipsis,) + (0,) * (d - 1)].imag == 0), lead


@pytest.mark.parametrize("d", [2, 3])
def test_oversample_into_out_is_bitwise(d):
    g = small_grid(d)
    f = sp.random_field(g, seed=71, decay=1.0)
    for factor in (1, 2, 3, 4):
        buf = np.full((d,) + (factor * g.N,) * d, np.nan)
        assert sp.oversample(f, factor, out=buf) is buf
        assert _same_bits(buf, sp.oversample(f, factor))


@pytest.mark.parametrize("d", [2, 3])
def test_sum_squares_is_bitwise_sum_of_squares(d):
    # the layouts its callers pass: nodal fields, into a held array, and the
    # Galerkin pairing's strided view with batch axes, components moved first;
    # einsum must not fuse the multiply-add on any numpy build
    vals = sp.oversample(sp.random_field(small_grid(d), seed=72, decay=1.0), 3)
    want = np.sum(vals**2, axis=0)
    assert _same_bits(sp.sum_squares(vals), want)
    held = np.full_like(want, np.nan)
    assert sp.sum_squares(vals, out=held) is held and _same_bits(held, want)
    A = np.random.default_rng(72).standard_normal((5, 4, d, 64))
    for view in (np.moveaxis(A, -2, 0), np.moveaxis(A[0, 0], -2, 0)):
        assert _same_bits(sp.sum_squares(view), np.sum(view**2, axis=0))


def _norm_Lp_nodal_earlier(vals, grid, p):
    # the formula before the in-place powers: a product of p/2 copies of
    # |v|^2 when p/2 is an integer, the generic pow otherwise
    M = vals.shape[-1]
    mag2 = np.sum(vals**2, axis=0)
    half = p / 2.0
    if half.is_integer() and half >= 1:
        powed = mag2
        for _ in range(int(half) - 1):
            powed = np.multiply(powed, mag2)
    else:
        powed = mag2**half
    return float((np.sum(powed) * (grid.L / M) ** grid.d) ** (1.0 / p))


@pytest.mark.parametrize("p", [4.0, 5.5, 6.0])
@pytest.mark.parametrize("d", [2, 3])
def test_norm_Lp_nodal_bitwise_matches_earlier_formula(d, p):
    g = small_grid(d)
    vals = sp.oversample(sp.random_field(g, seed=73, decay=1.0), sp.norm_factor(p))
    before = vals.copy()
    assert sp.norm_Lp_nodal(vals, g, p) == _norm_Lp_nodal_earlier(vals, g, p)
    assert _same_bits(vals, before)


@settings(max_examples=40, deadline=None, database=None)
@given(
    d=st.sampled_from([2, 3]),
    N=st.sampled_from(range(4, 17, 2)),
    factor=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_oversampled_values_restrict_to_base_nodes(d, N, factor, seed):
    # every factor-th fine node is a base node, where interpolation is exact
    g = sp.TorusGrid(d=d, N=N)
    y = sp.random_field(g, seed)
    every = (slice(None, None, factor),) * d
    for fine, base in (
        (sp.oversample(y, factor)[(slice(None),) + every], y.physical()),
        (sp.gradient_physical(y, factor)[(slice(None),) * 2 + every], sp.gradient_physical(y)),
    ):
        np.testing.assert_allclose(fine, base, rtol=0, atol=1e-12 * np.max(np.abs(base)))


@pytest.mark.parametrize("d", [2, 3])
def test_unsample_inverts_sample(d):
    g = small_grid(d)
    f = sp.random_field(g, seed=74, decay=1.0)
    for M in (4, 6, g.N + 2, 3 * g.N + 2):
        K = min(M, g.N) // 2 - 1       # sample keeps |k_i| <= K, and so does unsample
        want = f.c * np.all(np.abs(g.wave) <= K, axis=0)
        got = sp.unsample(sp.sample(f.c, g, M), g)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), M
    for factor in (1, 2, 3):
        vals = sp.oversample(f, factor)
        assert np.array_equal(sp.unsample(vals, g), sp.fine_to_coeffs(vals, g))


@pytest.mark.parametrize("d, N", [(2, 8), (2, 12), (2, 16), (2, 40), (3, 8), (3, 12), (3, 16)])
def test_sample_unsample_bitwise_match_kept_mode_route(d, N):
    # the reference copies the kept modes around one irfftn/rfftn over every
    # line; the FFT routes of sample and unsample skip lines, so the bits must
    # still agree, and the DFT-matrix route agrees to 1e-14
    g = sp.TorusGrid(d=d, N=N)
    f = sp.random_field(g, seed=75 + N, decay=1.0).c
    rng = np.random.default_rng(76 + N)
    for c in (f, np.stack([f, (0.5 - 0.3j) * f])):
        for M in (4, N - 2, N, N + 2, 3 * N + 2):
            got, want = sp.sample(c, g, M), ref.sample_kept_modes(c, g, M)
            _assert_route_match(got, want, N, M, _same_bits)
            lead = c.shape[: -d]
            for vals in (rng.standard_normal(lead + (M,) * d), sp.sample(c, g, M)):
                got, want = sp.unsample(vals, g), ref.unsample_kept_modes(vals, g)
                _assert_route_match(got, want, N, M, _same_bits)
