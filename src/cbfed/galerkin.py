"""Reduction to the leading eigenmodes and the localized linear feedback.

The perturbation about an equilibrium is projected onto the first n
divergence-free eigenfields, giving an ODE

    v' + L v + Q(v) + N(v) = B u,

with L the linearization (viscous + damping + convection around the
equilibrium), Q the quadratic self-advection tensor, N the Taylor
remainder of the power damping, and B the localized input coupling.  A
Riccati-based gain places the closed-loop linear spectrum at or beyond a
requested margin; the growth constants translate that margin into an
attraction radius for the full nonlinear reduced system.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import convex as cx
from . import operators as op
from . import spectral as sp
from . import timestep as ts
from .controllers import decay_rate_fit
from .errors import ConfigError, RegimeError, SolverDivergence


@dataclass
class GalerkinReduction:
    grid: sp.TorusGrid
    params: op.PhysicalParams
    y_e: sp.SpectralField
    n: int
    mask: np.ndarray
    modes: list
    lam: np.ndarray           # Stokes eigenvalues of the modes
    Lmat: np.ndarray          # (n, n), acts as (Lmat @ v)
    g1: np.ndarray            # (n, n, n), b(w_i, w_j, w_k) with k the output index
    Bmat: np.ndarray          # (n, n), input coupling (m w_j, w_k)
    _Wc: np.ndarray = dc_field(repr=False, default=None)   # mode coefficients
    _Wb: np.ndarray = dc_field(repr=False, default=None)   # base-grid samples
    _Wf: np.ndarray = dc_field(repr=False, default=None)   # oversampled samples
    _Yf: np.ndarray = dc_field(repr=False, default=None)   # equilibrium, oversampled; None at 0
    _factor: int = 2


def assemble_reduction(y_e, n, params, mask=None):
    """Project the linearization about y_e onto the first n eigenmodes."""
    g = y_e.grid
    m = np.ones(g.shape) if mask is None else np.asarray(mask, dtype=float)
    if m.shape != g.shape:
        raise ConfigError(f"mask shape {m.shape} does not match grid {g.shape}")
    modes = sp.eigenbasis(g, n)
    lam = np.array([mode.eigenvalue - 1.0 for mode in modes])
    factor = max(2, sp.oversample_factor(max(params.r, params.q)))
    cell_f = (g.L / (factor * g.N)) ** g.d

    Wc = np.stack([mode.field.c for mode in modes])
    Wb = np.stack([mode.field.physical() for mode in modes])
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
    for coef, p in ((params.beta, params.r), (params.gamma, params.q)):
        if coef == 0.0:
            continue
        S = op.damping_derivative_from_nodal(Yf_, Wf_, p)
        h2 += coef * cell_f * np.einsum("iax,kax->ik", S, Wf_, optimize=True)

    Lmat = np.diag(params.mu * lam + params.alpha) + h1.T + h2.T

    # input coupling on the base grid so that it matches the discrete inner
    # products of the physical-space controller exactly
    cell = g.cell_volume
    Wb_ = Wb.reshape(n, d, -1)
    Bmat = cell * np.einsum("jax,kax->jk", m.reshape(-1)[None, None] * Wb_, Wb_, optimize=True)
    Bmat = 0.5 * (Bmat + Bmat.T)

    return GalerkinReduction(
        grid=g, params=params, y_e=y_e, n=n, mask=m, modes=modes, lam=lam,
        Lmat=Lmat, g1=g1, Bmat=Bmat,
        _Wc=Wc, _Wb=Wb, _Wf=Wf_, _Yf=Yf_ if np.any(y_e.c) else None, _factor=factor,
    )


def restrict(red, z):
    """Mode coefficients (z, w_k) of a field."""
    flat = z.c.reshape(-1)
    return red.grid.L ** red.grid.d * np.real(
        np.einsum("nx,x->n", np.conj(red._Wc.reshape(red.n, -1)), flat)
    )


def lift(red, v):
    """Field sum v_k w_k from mode coefficients."""
    c = np.tensordot(np.asarray(v, dtype=float), red._Wc, axes=(0, 0))
    return sp.SpectralField(red.grid, c)


def quadratic_term(red, v):
    """Q(v)_k = sum_ij b(w_i, w_j, w_k) v_i v_j; v may carry batch axes."""
    v = np.asarray(v, dtype=float)
    return np.einsum("ijk,...i,...j->...k", red.g1, v, v)


@functools.lru_cache(maxsize=None)
def _taylor_rule(p):
    """Nodes theta and weights (1 - theta) w on [0, 1] for the exponent p.

    For odd integer p the integrand (1 - theta) C_p''(y_e + theta z)(z, z) is
    a polynomial of degree p - 1 in theta, which ceil(p / 2) Gauss nodes
    integrate exactly; any other p keeps 8 nodes.
    """
    odd = float(p).is_integer() and int(p) % 2 == 1
    x, w = np.polynomial.legendre.leggauss(max(1, (int(p) + 1) // 2) if odd else 8)
    theta = 0.5 * (x + 1.0)
    weight = 0.5 * w * (1.0 - theta)
    theta.setflags(write=False)        # cached: every caller shares the arrays
    weight.setflags(write=False)
    return theta, weight


def nonlinear_term(red, v):
    """Taylor remainder N(v)_k of the damping beyond its linearization.

    N(v)_k = int_0^1 (1 - theta) [beta C_r'' + gamma C_q''](y_e + theta z)(z, z)
    dtheta paired with w_k, z = sum_i v_i w_i, on the precomputed oversampled
    nodes.  Each exponent p gets its own Gauss-Legendre rule in theta: for odd
    integer p the integrand is a polynomial of degree p - 1 in theta, so
    ceil(p / 2) nodes are exact (2 for p = 3, 3 for p = 5); other p use 8.

    With A = y_e + theta z, C_p''(A)(z, z) = c1 z + c2 A for the pointwise
    scalars c1 = 2 (p-1) |A|^(p-3) (A.z) and
    c2 = (p-1) |A|^(p-3) |z|^2 + (p-1)(p-3) |A|^(p-5) (A.z)^2, so the
    weighted sum over nodes and exponents collapses to a z + b y_e before one
    matrix product with the modes.  At y_e = 0 (no _Yf) the y_e terms are
    scalar zeros and S is a z alone.  v may carry batch axes.
    """
    p = red.params
    v = np.asarray(v, dtype=float)
    Y = red._Yf                                          # (d, X) or None
    Z = np.tensordot(v, red._Wf, axes=(-1, 0))          # (..., d, X)
    z2 = np.einsum("...ax,...ax->...x", Z, Z)
    if Y is None:
        y2 = yz = 0.0
    else:
        y2 = np.sum(Y**2, axis=0)
        yz = np.einsum("ax,...ax->...x", Y, Z)
    a = np.zeros_like(z2)                                # weight of z
    b = np.zeros_like(z2)                                # weight of y_e
    for coef, expo in ((p.beta, p.r), (p.gamma, p.q)):
        if coef == 0.0:
            continue
        e3, e5 = (expo - 3) / 2.0, (expo - 5) / 2.0
        for theta, w in zip(*_taylor_rule(expo)):
            az = yz + theta * z2                         # A.z
            m2 = y2 + theta * (yz + az)                  # |A|^2
            p3 = (expo - 1) * op._pow0(m2, e3)
            c2 = p3 * z2
            if expo != 3:
                c2 = c2 + (expo - 1) * (expo - 3) * op._pow0(m2, e5) * az**2
            cw = coef * w
            a += cw * (2.0 * p3 * az + theta * c2)
            if Y is not None:
                b += cw * c2
    S = a[..., None, :] * Z
    if Y is not None:
        S += b[..., None, :] * Y
    cell_f = (red.grid.L / (red._factor * red.grid.N)) ** red.grid.d
    flat = S.reshape(S.shape[:-2] + (-1,))
    return cell_f * (flat @ red._Wf.reshape(red.n, -1).T)


def controllability_rank(Lmat, Bmat):
    """Numerical rank of the Kalman matrix [B, LB, ..., L^{n-1}B]."""
    n = Lmat.shape[0]
    blocks, cur = [], np.asarray(Bmat, dtype=float)
    for _ in range(n):
        blocks.append(cur)
        cur = Lmat @ cur
    svals = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > n * svals[0] * 1e-12))


@dataclass
class GainSynthesis:
    G: np.ndarray
    X: np.ndarray
    sigma: float
    M_hat: float
    spectrum: np.ndarray
    rank: int


def synthesize_gain(Lmat, Bmat, sigma):
    """Feedback gain pushing the closed-loop spectrum beyond the margin sigma.

    Linear-quadratic synthesis on the shifted pair (sigma I - L, B): the
    stabilizing solution of the Riccati equation A'X + XA - XBB'X = 0 is
    read off the stable invariant subspace of the Hamiltonian matrix, and
    the half gain G = -B'X/2 reflects the sub-margin eigenvalues onto the
    margin line while leaving the rest untouched.
    """
    Lmat = np.asarray(Lmat, dtype=float)
    Bmat = np.asarray(Bmat, dtype=float)
    n = Lmat.shape[0]
    if sigma <= 0:
        raise ConfigError("margin sigma must be positive")
    rank = controllability_rank(Lmat, Bmat)
    if rank < n:
        raise RegimeError(f"pair is not controllable (rank {rank} < {n})")
    A = sigma * np.eye(n) - Lmat
    ham = np.block([[A, -Bmat @ Bmat.T], [np.zeros((n, n)), -A.T]])
    evals, evecs = np.linalg.eig(ham)
    sel = np.where(evals.real < 0)[0]
    if len(sel) != n:
        raise SolverDivergence(
            f"Hamiltonian has {len(sel)} stable directions, expected {n}; "
            "sigma may sit on the open-loop spectrum"
        )
    U11, U21 = evecs[:n, sel], evecs[n:, sel]
    try:
        X = np.real(U21 @ np.linalg.inv(U11))
    except np.linalg.LinAlgError as exc:
        raise SolverDivergence("Riccati subspace is degenerate") from exc
    X = 0.5 * (X + X.T)
    G = -0.5 * Bmat.T @ X
    closed = Lmat - Bmat @ G
    spectrum, vecs = np.linalg.eig(closed)
    if spectrum.real.min() < sigma - 1e-8:
        raise SolverDivergence(
            f"closed-loop margin {spectrum.real.min():.3e} fell short of {sigma}"
        )
    return GainSynthesis(
        G=G, X=X, sigma=float(sigma), M_hat=float(np.linalg.cond(vecs)),
        spectrum=spectrum, rank=rank,
    )


def growth_constants(red, sigma):
    """Constants turning the linear margin into a nonlinear attraction radius.

    Certified regimes: cubic damping without pumping (r = 3, gamma = 0), and
    supercritical damping with negative pumping of order q in [3, r).
    """
    if sigma <= 0:
        raise ConfigError("margin sigma must be positive")
    p, g, n = red.params, red.grid, red.n
    L, d = g.L, g.d
    gamma0 = 4 * np.pi / L * np.sqrt(2.0 / L**d)
    out = {
        "regime": None, "sigma": float(sigma), "n": n, "gamma0": gamma0,
        "C1": None, "C2": None, "C3": None, "C4": None, "C5": None,
    }
    if p.r == 3 and p.gamma == 0.0:
        C1 = sp.norm_Lp(red.y_e, 1)
        gamma1 = 6 * p.beta * (2 * n / L**d) ** 1.5 * max(C1, np.sqrt(n) * L ** (d / 2.0))
        g0p = gamma0 + gamma1
        rho1 = np.sqrt(sigma / gamma1 + (g0p / (2 * gamma1)) ** 2) - g0p / (2 * gamma1)
        out.update(regime="critical", C1=C1, gamma1_or_2=gamma1,
                   gamma0_prime=g0p, rho1=float(rho1))
        return out
    if p.r > 3 and p.gamma < 0.0 and 3 <= p.q < p.r:
        C2 = sp.norm_Lp(red.y_e, p.r - 2) ** (p.r - 2)
        C3 = sp.norm_Lp(red.y_e, p.q - 2) ** (p.q - 2)
        pump = (2 * n / L**d) ** ((p.r - 2) / 2.0)
        gamma2 = (
            2.0 ** (p.r - 2) * p.r * (p.r - 1) * (4 * n / L**d) ** 1.5
            * max(p.beta * C2 + abs(p.gamma) * C3, p.beta * pump, abs(p.gamma) * pump)
        )
        g0p = gamma0 + gamma2
        C4 = (4 * gamma2 / sigma * (p.r - p.q) / (p.r - 1)) ** (
            (p.r - p.q) / (p.q - 1)
        ) * (p.q - 1) / (p.r - 1)
        C5 = (2 * g0p / sigma * (p.r - 3) / (p.r - 1)) ** ((p.r - 3) / 2.0) * 2 / (p.r - 1)
        a = (1 + C4) * gamma2
        x = (-g0p * C5 + np.sqrt((g0p * C5) ** 2 + 2 * a * sigma)) / (2 * a)
        out.update(regime="supercritical", C2=C2, C3=C3, C4=C4, C5=C5,
                   gamma1_or_2=gamma2, gamma0_prime=g0p,
                   rho1=float(x ** (2.0 / (p.r - 1))))
        return out
    raise RegimeError(
        "attraction radius certified only for r = 3 with gamma = 0 "
        "or r > 3, q in [3, r), gamma < 0"
    )


def reduced_simulate(red, v0, T, dt, gain=None, include_quadratic=True,
                     include_nonlinear=True, record_every=1, warn_radius=None):
    """Classical RK4 on the reduced ODE; v0 may be (n,) or a batch (B, n).

    Returns (times, V) with V[j] the state at times[j].
    """
    v = np.asarray(v0, dtype=float).copy()
    if warn_radius is not None:
        top = np.max(np.sqrt(np.sum(np.atleast_2d(v) ** 2, axis=-1)))
        if top >= warn_radius:
            warnings.warn(
                f"initial coefficient norm {top:.3g} outside the certified "
                f"radius {warn_radius:.3g}", stacklevel=2,
            )
    closed = red.Lmat if gain is None else red.Lmat - red.Bmat @ gain
    lin_t = -closed.T

    def rhs(u):
        out = u @ lin_t
        if include_quadratic:
            out = out - quadratic_term(red, u)
        if include_nonlinear:
            out = out - nonlinear_term(red, u)
        return out

    nsteps = max(1, int(round(T / dt)))
    guard = 1e6 * max(1.0, float(np.max(np.abs(v))))
    times, states = [0.0], [v.copy()]
    for m in range(1, nsteps + 1):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        top = float(np.max(np.abs(v)))
        if not np.isfinite(top) or top > guard:
            raise SolverDivergence(f"reduced state exploded at t={m * dt:.4g}")
        if m % record_every == 0 or m == nsteps:
            times.append(m * dt)
            states.append(v.copy())
    return np.array(times), np.stack(states)


def make_galerkin_controller(red, gain):
    """Feedback z -> Leray(mask * sum_j (G restrict(z))_j w_j)."""
    gain = np.asarray(gain, dtype=float)

    def controller(z):
        c = gain @ restrict(red, z)
        return sp.masked_leray(red.grid, red.mask, np.tensordot(c, red._Wb, axes=(0, 0)))

    return controller


def run_galerkin_loop(red, sigma, v0, T, dt_full=None, dt_reduced=None,
                      record_every=1, forcing=None):
    """Synthesize the gain, run reduced and full closed loops, report both fits."""
    gs = synthesize_gain(red.Lmat, red.Bmat, sigma)
    try:
        gc = growth_constants(red, sigma)
    except RegimeError:
        gc = {"gamma0": None, "gamma1_or_2": None, "C4": None, "C5": None, "rho1": None}
    if dt_reduced is None:
        dt_reduced = dt_full / 4 if dt_full else 2e-3
    warn_radius = None if gc["rho1"] is None else gc["rho1"] / gs.M_hat
    t_r, V = reduced_simulate(
        red, v0, T=T, dt=dt_reduced, gain=gs.G,
        record_every=record_every, warn_radius=warn_radius,
    )
    fit_reduced, _ = decay_rate_fit(t_r, np.linalg.norm(V, axis=-1))
    y_ref = red.y_e if sp.norm_H(red.y_e) > 0 else None
    cfg = ts.SimConfig(
        grid=red.grid, params=red.params, y0=lift(red, v0), T=T, dt=dt_full,
        forcing=forcing, y_ref=y_ref,
        controller=make_galerkin_controller(red, gs.G),
        constraint=cx.SpanConstraint([m.field for m in red.modes]),
        constraint_mode="project",
        control_bound=float(np.linalg.norm(gs.G, 2)),
        record_every=record_every,
    )
    traj = ts.simulate(cfg)
    fit_full, _ = decay_rate_fit(traj.t, traj.norm_H)
    report = {
        "n": red.n, "rank": gs.rank, "sigma": float(sigma), "M_hat": gs.M_hat,
        "gamma0": gc["gamma0"], "gamma1_or_2": gc["gamma1_or_2"],
        "C4": gc["C4"], "C5": gc["C5"], "rho1": gc["rho1"],
        "decay_fit_reduced": fit_reduced, "decay_fit_full": fit_full,
    }
    return report, (t_r, V), traj
