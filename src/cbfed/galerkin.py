"""Reduction to the leading eigenmodes and the localized linear feedback.

The perturbation about an equilibrium is projected onto the first n
divergence-free eigenfields, giving an ODE

    v' + L v + Q(v) + N(v) = B u,

with L the linearization (viscous + damping + convection around the
equilibrium), Q the quadratic self-advection tensor, N the remainder of
the power damping beyond its linearization, and B the localized input
coupling.  A Riccati-based gain places the closed-loop linear spectrum at
or beyond a requested margin; the growth constants translate that margin
into an attraction radius for the full nonlinear reduced system.

Every pairing is a rectangle rule on one quadrature grid of quad_N nodes
per axis.  At y_e = 0 the modes' span holds every state the reduction
pairs, so the grid is op.span_nodes of the span's bandwidth B (the largest
|k_i| of the modes), the one rule for states held in a span: with every
damping exponent an odd integer each integrand is a trigonometric
polynomial of degree at most (r+1) B per axis, and the smallest even
quad_N > (r+1) B, at least 4 and at most the damping grid, integrates it
exactly.  At the defaults (r = 5, B = 1) that is 8^d nodes instead of the
96^d of the damping grid.  The modes are sampled there from their stored
spectra (sp.sample), which holds them exactly since B < quad_N/2.  A
nonzero equilibrium is not held in the span, so it keeps the damping grid
damping_factor N, as does a fractional or even exponent; the tensors are
then bitwise those of the oversampled nodes.

The input coupling is read off the controller's images Leray(mask w_j), taken
once on the base grid where the physical-space controller pairs: Bmat holds
their mode coefficients through the span's dual, and the controller applies
the same images, so the coupling the reduction assumes is the one the full
loop gets.

N is computed as the difference C(y_e + z) - C(y_e) - C'(y_e) z paired
with the modes, with C = beta C_r + gamma C_q: the first pairing from
op.damping_weight on the quadrature nodes, the other two from run
constants of the reduction.  At y_e = 0 it is exact to roundoff in the
pairing.  Otherwise the subtraction leaves an absolute floor of about
10 eps max|(C(y_e), w_k)|, which for small |v| is many orders below |L v|.

assemble_reduction runs one mode at a time: each mode is sampled into its
row of _Wf, each mode gradient lives only while its column of the
quadratic tensor and its row of the linearized convection are taken, and
the damping derivative, its powers of |y_e| taken once per term, is paired
one mode at a time.  So the only n-mode array on the quadrature grid is
_Wf, which the reduced model keeps for N anyway, and the assembly's peak
memory is about twice that array.

The reduction's span (a cx.SpanConstraint) is the one owner of the stacked
mode spectra and their Parseval dual: it maps a field to its mode
coefficients (span.coeffs) and back (span.expand), the controller reads the
coefficients through it, and the full closed loop projects onto it.  The
span and the controller hold their stacks as (n, 2X) float views of the
flattened spectra, so each of these maps is one real matmul.  Every state
of the full loop at y_e = 0 is held in the span, so timestep.simulate steps
it on the same op.span_nodes grid as the reduction pairs on.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field, replace

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
    quad_N: int               # nodes per axis of the quadrature grid (op.span_nodes at 0)
    span: cx.SpanConstraint = dc_field(repr=False, default=None)  # the stacked modes
    _images: np.ndarray = dc_field(repr=False, default=None)  # Leray(m w_j), stacked spectra
    _Wf: np.ndarray = dc_field(repr=False, default=None)   # mode samples on the quad_N grid
    _Yf: np.ndarray = dc_field(repr=False, default=None)   # equilibrium there; None at 0
    _c_ref: np.ndarray = dc_field(repr=False, default=None)  # (C(y_e), w_k)
    _D: np.ndarray = dc_field(repr=False, default=None)      # (C'(y_e) w_i, w_k), i the row


def assemble_reduction(y_e, n, params, mask=None):
    """Project the linearization about y_e onto the first n eigenmodes.

    The modes are sampled on the quad_N grid.  The assembly runs one mode at
    a time, so the only n-mode array it holds on that grid is _Wf, the mode
    samples the reduction keeps.
    """
    g = y_e.grid
    m = np.ones(g.shape) if mask is None else sp.as_mask(mask, g)
    if n < 1:
        raise ConfigError(f"the reduction needs at least one mode, got n={n}")
    try:
        modes = sp.eigenbasis(g, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lam = np.array([mode.eigenvalue - 1.0 for mode in modes])
    d = g.d
    span = cx.SpanConstraint(modes)
    nonzero_eq = bool(np.any(y_e.c))
    M = params.damping_factor * g.N if nonzero_eq else op.span_nodes(params, g, span.bandwidth)
    cell_f = (g.L / M) ** d

    def gradient(a):    # nodal values of all partials of a on the M grid
        return sp.sample(g.ik[:, None] * a.c[None], g, M).reshape(d, d, -1)

    Wf = np.empty((n, d) + (M,) * d)
    for j, mode in enumerate(modes):
        sp.sample(mode.field.c, g, M, out=Wf[j])
    Wf_ = Wf.reshape(n, d, -1)
    Yf_ = sp.sample(y_e.c, g, M).reshape(d, -1)

    # g1[i, j, k] = b(w_i, w_j, w_k); linearized convection
    # h1[i, k] = b(w_i, y_e, w_k) + b(y_e, w_i, w_k), zero at y_e = 0.
    # Each gradient is dropped once its einsums are taken, before the next.
    g1 = np.empty((n, n, n))
    h1 = np.zeros((n, n))
    if nonzero_eq:
        DYf_ = gradient(y_e)
        h1 += np.einsum("iax,abx,kbx->ik", Wf_, DYf_, Wf_)
        del DYf_
    for j, mode in enumerate(modes):
        D_j = gradient(mode.field)
        g1[:, j] = np.einsum("iax,abx,kbx->ik", Wf_, D_j, Wf_)
        if nonzero_eq:
            h1[j] += np.einsum("ax,abx,kbx->k", Yf_, D_j, Wf_)
        del D_j
    g1 *= cell_f
    h1 *= cell_f
    # linearized damping: beta (C_r'(y_e) w_i, w_k) + gamma (C_q'(y_e) w_i, w_k),
    # with the powers of |y_e| taken once per term
    h2 = np.zeros((n, n))
    W_flat = Wf.reshape(n, -1)
    for coef, p in params.damping_terms:
        kernel = op.damping_derivative(Yf_, p)
        for i in range(n):
            h2[i] += coef * cell_f * (kernel(Wf_[i]).reshape(-1) @ W_flat.T)
        del kernel

    Lmat = np.diag(params.mu * lam + params.alpha) + h1.T + h2.T

    # input coupling (m w_j, w_k) = (Leray(m w_j), w_k): the mode coefficients
    # of the controller's images, which the controller reuses
    images = np.stack([sp.masked_leray(g, m, mode.field.physical()).c for mode in modes])
    Bmat = np.stack([span.coeffs(sp.SpectralField(g, image)) for image in images])
    Bmat = 0.5 * (Bmat + Bmat.T)

    return GalerkinReduction(
        grid=g, params=params, y_e=y_e, n=n, mask=m, modes=modes, lam=lam,
        Lmat=Lmat, g1=g1, Bmat=Bmat, quad_N=M,
        span=span, _images=images, _Wf=Wf_,
        _Yf=Yf_ if nonzero_eq else None,
        _c_ref=_damping_pairing(Yf_.copy(), Wf_, params.damping_terms, cell_f), _D=h2,
    )


def _damping_pairing(A, W, terms, cell_f):
    """(C(a), w_k) on the quadrature nodes: A holds a there, shape (..., d, X),
    W the modes, shape (n, d, X).  A is overwritten."""
    A *= op.damping_weight(sp.sum_squares(np.moveaxis(A, -2, 0)), terms)[..., None, :]
    return cell_f * (A.reshape(A.shape[:-2] + (-1,)) @ W.reshape(len(W), -1).T)


def quadratic_term(red, v):
    """Q(v)_k = sum_ij b(w_i, w_j, w_k) v_i v_j; v may carry batch axes."""
    v = np.asarray(v, dtype=float)
    return np.einsum("ijk,...i,...j->...k", red.g1, v, v)


def nonlinear_term(red, v):
    """Remainder N(v)_k = (C(y_e + z) - C(y_e) - C'(y_e) z, w_k) of the damping
    C = beta C_r + gamma C_q beyond its linearization, z = sum_i v_i w_i.

    The first pairing is taken on the precomputed quadrature nodes; the
    other two are the run constants _c_ref and v @ _D.  At y_e = 0 (no _Yf)
    nothing is added to z.  v may carry batch axes.
    """
    v = np.asarray(v, dtype=float)
    W = red._Wf    # one matmul with the modes flattened to (n, d X), then (..., d, X)
    A = (v @ W.reshape(len(W), -1)).reshape(v.shape[:-1] + W.shape[1:])
    if red._Yf is not None:
        A += red._Yf
    cell_f = (red.grid.L / red.quad_N) ** red.grid.d
    return _damping_pairing(A, red._Wf, red.params.damping_terms, cell_f) - red._c_ref - v @ red._D


def controllability_rank(Lmat, Bmat):
    """Numerical rank of the Kalman matrix [B, LB, ..., L^{n-1}B]."""
    n = Lmat.shape[0]
    blocks, cur = [], np.asarray(Bmat, dtype=float)
    for _ in range(n):
        blocks.append(cur)
        cur = Lmat @ cur
    return int(np.linalg.matrix_rank(np.hstack(blocks), rtol=n * 1e-12))


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
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(closed))):
        raise SolverDivergence(f"gain synthesis overflowed at sigma={sigma:g}")
    spectrum, vecs = np.linalg.eig(closed)
    if spectrum.real.min() < sigma - 1e-8 * max(1.0, sigma):
        raise SolverDivergence(
            f"closed-loop margin {spectrum.real.min():.3e} fell short of {sigma}"
        )
    return GainSynthesis(
        G=G, X=X, sigma=float(sigma), M_hat=float(np.linalg.cond(vecs)),
        spectrum=spectrum, rank=rank,
    )


def quadratic_gamma0(L: float, d: int) -> float:
    """gamma0 = (4 pi/L)(2/L^d)^{1/2}: ||Q(v)|| <= gamma0 ||v||^2 for the
    quadratic term of any span of unit-norm modes on [0, L]^d."""
    return 4 * np.pi / L * np.sqrt(2.0 / L**d)


def growth_constants(red, sigma):
    """Constants turning the linear margin into a nonlinear attraction radius.

    Certified regimes: cubic damping without pumping (r = 3, gamma = 0), and
    supercritical damping with negative pumping of order q in [3, r).
    """
    if sigma <= 0:
        raise ConfigError("margin sigma must be positive")
    p, g, n = red.params, red.grid, red.n
    L, d = g.L, g.d
    gamma0 = quadratic_gamma0(L, d)
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
        C4 = op.young_constant(1.0, p.r - p.q, sigma / (4 * gamma2), p.r - 1)
        C5 = op.young_constant(1.0, p.r - 3, sigma / (2 * g0p), p.r - 1)
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


def reduced_simulate(red, v0, T, dt, gain=None, record_every=1, warn_radius=None):
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
        return u @ lin_t - quadratic_term(red, u) - nonlinear_term(red, u)

    nsteps = max(1, int(round(T / dt)))
    guard = 1e6 * max(1.0, float(np.max(np.abs(v))))
    times, states = [0.0], [v.copy()]
    # a diverging state overflows inside the right-hand side; the guard after
    # each step reports it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
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
    """Feedback z -> Leray(mask * sum_j (G c)_j w_j), c = red.span.coeffs(z).

    The spectra Leray(mask * w_j) are the reduction's, from which its Bmat
    was read, seen as an (n, 2X) float view, as the span keeps its modes, so
    a call is the span's coefficient matmul and one real matmul with the
    gain-weighted coefficients.
    """
    gain = np.asarray(gain, dtype=float)
    shape = red._images.shape[1:]
    images_f = red._images.reshape(len(red._images), -1).view(float)

    def controller(z):
        c = (gain @ red.span.coeffs(z)) @ images_f
        return sp.SpectralField(red.grid, c.view(complex).reshape(shape))

    return controller


def run_galerkin_loop(red, sigma, v0, sim):
    """Synthesize the gain, run reduced and full closed loops, report both fits.

    The full loop is `sim` started at red.span.expand(v0), shifted around the
    reduction's equilibrium and projected onto red.span; the reduced model
    steps at dt/4 (2e-3 when sim.dt is None).
    """
    gs = synthesize_gain(red.Lmat, red.Bmat, sigma)
    try:
        gc = growth_constants(red, sigma)
    except RegimeError:
        gc = {"gamma0": None, "gamma1_or_2": None, "C4": None, "C5": None, "rho1": None}
    warn_radius = None if gc["rho1"] is None else gc["rho1"] / gs.M_hat
    t_r, V = reduced_simulate(
        red, v0, T=sim.T, dt=sim.dt / 4 if sim.dt else 2e-3, gain=gs.G,
        record_every=sim.record_every, warn_radius=warn_radius,
    )
    fit_reduced, _ = decay_rate_fit(t_r, np.linalg.norm(V, axis=-1))
    traj = ts.simulate(replace(
        sim, y0=red.span.expand(v0), y_ref=red.y_e if sp.norm_H(red.y_e) > 0 else None,
        controller=make_galerkin_controller(red, gs.G),
        constraint=red.span, constraint_mode="project",
        control_bound=float(np.linalg.norm(gs.G, 2)),
    ))
    fit_full, _ = decay_rate_fit(traj.t, traj.norm_H)
    report = {
        "n": red.n, "rank": gs.rank, "sigma": float(sigma), "M_hat": gs.M_hat,
        "gamma0": gc["gamma0"], "gamma1_or_2": gc["gamma1_or_2"],
        "C4": gc["C4"], "C5": gc["C5"], "rho1": gc["rho1"],
        "decay_fit_reduced": fit_reduced, "decay_fit_full": fit_full,
    }
    return report, (t_r, V), traj
