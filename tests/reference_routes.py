"""Reference routes that the tests compare the package against.

The stabilization results rest on properties of the operators that no CLI
experiment evaluates: strong monotonicity of the damping, its second Gateaux
derivative, the integration-by-parts identity of the damped Laplacian
pairing, invariance of a constraint set under the Stokes resolvent, and the
reality of the stored spectra.  The routes that check them numerically live
here, next to the tests that call them, with a state recorder for the
time-stepper tests.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from cbfed import operators as op
from cbfed import spectral as sp
from cbfed import timestep as ts


# ---------------------------------------------------------------------------
# operators


def gateaux_second(
    y: sp.SpectralField, z: sp.SpectralField, w: sp.SpectralField, p: float
) -> sp.SpectralField:
    """Symmetric bilinear second derivative C_p''(y)(z, w).

    P[(p-1)|y|^{p-3}((y.z) w + (y.w) z + (z.w) y)
      + (p-1)(p-3)|y|^{p-5}(y.z)(y.w) y],
    the second bracket dropped at p = 3; it vanishes at p = 1.
    """
    g = y.grid
    factor = sp.oversample_factor(p)
    Y = sp.oversample(y, factor)
    Z = sp.oversample(z, factor)
    W = sp.oversample(w, factor)
    m2 = np.sum(Y**2, axis=0)
    yz = np.sum(Y * Z, axis=0)
    yw = np.sum(Y * W, axis=0)
    zw = np.sum(Z * W, axis=0)
    out = (p - 1) * op._pow0(m2, (p - 3) / 2.0) * (yz * W + yw * Z + zw * Y)
    if p != 3:
        out += (p - 1) * (p - 3) * (op._pow0(m2, (p - 5) / 2.0) * yz * yw) * Y
    return sp.leray(sp.SpectralField(g, sp.fine_to_coeffs(out, g)))


def monotonicity_triple(y: sp.SpectralField, z: sp.SpectralField, r: float):
    """(lhs, mid, low) of the strong-monotonicity chain for C_r.

    lhs = (C_r(y) - C_r(z), y - z)
    mid = 1/2 || |y|^{(r-1)/2}(y-z) ||^2 + 1/2 || |z|^{(r-1)/2}(y-z) ||^2
    low = 2^{1-r} ||y - z||_{L^{r+1}}^{r+1}
    """
    g = y.grid
    diff = y - z
    lhs = sp.inner(op.power_damping(y, r) - op.power_damping(z, r), diff)
    factor = 4
    Y = sp.oversample(y, factor)
    Z = sp.oversample(z, factor)
    D = sp.oversample(diff, factor)
    d2 = np.sum(D**2, axis=0)
    vol = (g.L / (factor * g.N)) ** g.d
    my = op._pow0(np.sum(Y**2, axis=0), (r - 1) / 2.0)
    mz = op._pow0(np.sum(Z**2, axis=0), (r - 1) / 2.0)
    mid = 0.5 * vol * float(np.sum(my * d2) + np.sum(mz * d2))
    low = 2.0 ** (1 - r) * sp.norm_Lp(diff, r + 1) ** (r + 1)
    return lhs, mid, low


def identity_residual(y: sp.SpectralField, r: float) -> float:
    """Relative defect of the torus integration-by-parts identity

    int (-Lap y).|y|^{r-1} y = int |grad y|^2 |y|^{r-1}
                               + 4 (r-1)/(r+1)^2 int |grad |y|^{(r+1)/2}|^2.
    """
    g = y.grid
    factor = 4
    Y = sp.oversample(y, factor)
    G = sp.gradient_physical(y, factor)
    lapY = sp.oversample(sp.stokes(y), factor)
    m2 = np.sum(Y**2, axis=0)
    mr1 = op._pow0(m2, (r - 1) / 2.0)
    vol = (g.L / (factor * g.N)) ** g.d
    lhs = vol * float(np.sum(lapY * Y * mr1))
    rhs1 = vol * float(np.sum(np.sum(G**2, axis=(0, 1)) * mr1))
    # |y|^{(r+1)/2} is not band-limited: differentiate it on the fine grid itself
    # (along each axis without its Nyquist wavenumber: that term is imaginary,
    # so the complex route drops it with the real part, and irfftn would not)
    gf = sp.TorusGrid(g.d, factor * g.N, g.L)
    wpow = op._pow0(m2, (r + 1) / 4.0)
    cw = np.fft.rfftn(wpow, norm="forward")
    ik = gf.ik * (np.abs(gf.wave) != gf.N // 2)
    gw = np.fft.irfftn(ik * cw[None], s=gf.shape, axes=gf.axes(), norm="forward")
    rhs2 = 4 * (r - 1) / (r + 1) ** 2 * vol * float(np.sum(gw**2))
    return abs(lhs - (rhs1 + rhs2)) / max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# spectral


def reality_defect(a: sp.SpectralField) -> float:
    """Largest imaginary residue of the complex inverse of the full spectrum."""
    vals = np.fft.ifftn(sp.full_spectrum(a.c, a.grid), axes=a.grid.axes()) * a.grid.N**a.grid.d
    return float(np.max(np.abs(vals.imag)))


def _kept_modes(g: sp.TorusGrid, M: int):
    """Index of the modes |k_i| < min(N, M)/2 in a stored half, valid on the
    N grid and the M grid alike (wavenumbers 0 .. K, then -K .. -1)."""
    K = min(g.N, M) // 2 - 1
    idx = np.r_[: K + 1, -K:0]
    return (Ellipsis,) + np.ix_(*[idx] * (g.d - 1), np.arange(K + 1))


def sample_kept_modes(half: np.ndarray, g: sp.TorusGrid, M: int) -> np.ndarray:
    """Nodal values on the M^d grid: the kept modes copied into a zeroed
    M-grid half spectrum, then one irfftn over every line."""
    kept = _kept_modes(g, M)
    spec = np.zeros(half.shape[: -g.d] + (M,) * (g.d - 1) + (M // 2 + 1,), dtype=complex)
    spec[kept] = half[kept]
    axes = tuple(range(spec.ndim - g.d, spec.ndim))
    return np.fft.irfftn(spec, s=(M,) * g.d, axes=axes, norm="forward")


def unsample_kept_modes(vals: np.ndarray, g: sp.TorusGrid) -> np.ndarray:
    """Stored halves on g of nodal values on an M^d grid: one rfftn over every
    line, then the kept modes copied into a zeroed half, made real."""
    kept = _kept_modes(g, vals.shape[-1])
    half = np.zeros(vals.shape[: -g.d] + g.half_shape, dtype=complex)
    axes = tuple(range(vals.ndim - g.d, vals.ndim))
    half[kept] = np.fft.rfftn(vals, axes=axes, norm="forward")[kept]
    return sp.enforce_real(half, g)


def stokes_shifted(a: sp.SpectralField) -> sp.SpectralField:
    """Apply I + A (spectrum 1 + 4 pi^2 |k|^2 / L^2)."""
    return sp.SpectralField(a.grid, a.c * (1.0 + a.grid.lap))


def resolvent(a: sp.SpectralField, lam: float) -> sp.SpectralField:
    """Apply (I + lam A)^{-1}; a contraction for lam >= 0."""
    return sp.SpectralField(a.grid, a.c / (1.0 + lam * a.grid.lap))


# ---------------------------------------------------------------------------
# constraint sets


def resolvent_invariance_margin(
    K, grid: sp.TorusGrid, lams, samples: int = 20, seed: int = 0, witnesses=()
) -> float:
    """Worst escape distance of (I + lam A)^{-1} K from K.

    Samples random members of K (projections of random fields, pushed toward
    the set where they sit), applies the resolvent for each lam, and returns
    the largest distance back to K.  Nonpositive-to-tiny means invariant;
    the caller can pass explicit witnesses to stress a suspect set.
    """
    worst = 0.0
    points = [K.project(sp.random_solenoidal(grid, seed=seed + t, decay=1.0)) for t in range(samples)]
    points += [K.project(2.0 * sp.random_solenoidal(grid, seed=seed + 1000 + t, decay=0.5)) for t in range(samples)]
    points += list(witnesses)
    for x in points:
        for lam in lams:
            y = resolvent(x, lam)
            worst = max(worst, K.distance(y))
    return worst


# ---------------------------------------------------------------------------
# recorded states


def record_states(cfg: ts.SimConfig):
    """Run ts.simulate(cfg) and return (trajectory, states).

    states holds the (t, z) pairs of the recorded samples: every state with
    m % record_every == 0, and the last one.  They are read through
    cfg.controller, which the stepper calls once per state after the
    constraint, and whose None result it skips.
    """
    dt = ts.step_size(cfg)
    feedback = cfg.controller
    seen = []

    def controller(z):
        seen.append(z.copy())
        return feedback(z) if feedback is not None else None

    traj = ts.simulate(dataclasses.replace(cfg, controller=controller))
    last = len(seen) - 1
    states = [(m * dt, z) for m, z in enumerate(seen) if m % cfg.record_every == 0 or m == last]
    return traj, states


def sup_state_distance(a: list, b: list) -> float:
    """sup over shared sample times of ||z_a(t) - z_b(t)||_H."""
    if len(a) != len(b):
        raise ValueError("trajectories recorded different sample counts")
    worst = 0.0
    for (ta, za), (tb, zb) in zip(a, b):
        if abs(ta - tb) > 1e-12 * max(1.0, abs(ta)):
            raise ValueError("trajectories sampled at different times")
        worst = max(worst, sp.norm_H(za - zb))
    return worst
