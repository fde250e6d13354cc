"""Feedback laws and decay-rate diagnostics for the perturbation equation.

Two of the three stabilizers live here: the plain damping feedback
u = -theta * z (with the threshold constant that certifies a decay rate)
and the localized proportional feedback u = -k * P(indicator * z).  The
finite-dimensional Galerkin feedback has its own module.
"""
from __future__ import annotations

import numpy as np

from . import operators as op
from . import spectral as sp
from .errors import ConfigError, RegimeError
from .timestep import SimConfig, simulate


def make_theta_controller(theta):
    """Feedback z -> -theta * z."""
    if theta < 0:
        raise ConfigError("theta must be nonnegative")

    def controller(z):
        return (-theta) * z

    return controller


def theta_threshold(params, points=16):
    """Smallest feedback strength that certifies exponential decay.

    Supercritical damping (r > 3): minimizes the sum of the convection
    absorption constant and the two pumping constants over a log-spaced
    grid of splitting parameters inside their admissible windows.  The
    constants are monotone in the splittings, so the window edge wins,
    but the search is kept as a guard against future regime changes.

    Critical damping (r = 3, needs 2*beta*mu > 1): the two closed-form
    pumping constants, no free parameter.

    Returns {"c_min", "eps", "eps_tilde"}.
    """
    if params.r > 3:
        eps_grid = np.logspace(-3, np.log10(0.5), points)
        eps_tilde_grid = np.logspace(-3, 0.0, points)
        best = (np.inf, None, None)
        for e in eps_grid:
            conv = op.convection_rate(params.mu, params.beta, params.r, e)
            pump_e = op.pumping_rate(params.beta, params.gamma, params.r, params.q, e)
            for et in eps_tilde_grid:
                c = conv + op.pumping_rate(params.beta, params.gamma, params.r, params.q, et) + pump_e
                if c < best[0]:
                    best = (c, e, et)
        return {"c_min": best[0], "eps": best[1], "eps_tilde": best[2]}
    if params.r == 3:
        a, b = op.critical_pumping_rates(params)
        return {"c_min": a + b, "eps": None, "eps_tilde": None}
    raise RegimeError("damping feedback threshold needs r >= 3")


def make_proportional_controller(grid, k_gain, mask):
    """Feedback z -> -k * Leray(mask * z), mask sampled on the grid nodes."""
    if k_gain < 0:
        raise ConfigError("k_gain must be nonnegative")
    m = np.asarray(mask, dtype=float)
    if m.shape != grid.shape:
        raise ConfigError(f"mask shape {m.shape} does not match grid {grid.shape}")

    def controller(z):
        return (-k_gain) * sp.masked_leray(grid, m, z.physical())

    return controller


def decay_rate_fit(times, norms, window=0.5):
    """Least-squares exponential rate over the trailing part of a norm history.

    Fits -log(norms) = a + delta * t on samples with t in the last
    `window` fraction of the time span.  Returns (delta, r_squared).
    """
    t = np.asarray(times, dtype=float)
    h = np.asarray(norms, dtype=float)
    if t.shape != h.shape or t.ndim != 1 or t.size < 2:
        raise ConfigError("need matching 1-d times and norms with at least 2 samples")
    t0 = t[-1] - window * (t[-1] - t[0])
    keep = (t >= t0 - 1e-12) & (h > 0)
    if np.count_nonzero(keep) < 2:
        raise ConfigError("not enough positive samples in the fit window")
    ts, ys = t[keep], -np.log(h[keep])
    slope, intercept = np.polyfit(ts, ys, 1)
    resid = ys - (intercept + slope * ts)
    ss_tot = np.sum((ys - ys.mean()) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - np.sum(resid**2) / ss_tot
    return float(slope), float(r2)


def pointwise_decay_ok(times, norms, delta, rel_tol=1e-9):
    """True if norms[i] <= norms[0] * exp(-delta * t_i) up to relative slack."""
    t = np.asarray(times, dtype=float)
    h = np.asarray(norms, dtype=float)
    bound = h[0] * np.exp(-delta * (t - t[0])) * (1.0 + rel_tol) + 1e-300
    return bool(np.all(h <= bound))


def run_theta_loop(grid, params, theta, constraint, z0, T, dt=None, y_ref=None,
                   forcing=None, mode="project", yosida_lam=None, slack=0.9,
                   record_every=1, invariance_tol=1e-10):
    """Closed loop under u = -theta * z with a convex state constraint.

    The claimed rate is slack * (theta + alpha - c_min); the report says
    whether the trajectory met it pointwise and stayed in the set.
    """
    th = theta_threshold(params)
    delta1 = theta + params.alpha - th["c_min"]
    delta_claim = slack * delta1
    cfg = SimConfig(
        grid=grid, params=params, y0=z0, T=T, dt=dt, forcing=forcing,
        y_ref=y_ref, constraint=constraint, constraint_mode=mode,
        yosida_lam=yosida_lam, controller=make_theta_controller(theta),
        control_bound=theta, record_every=record_every,
    )
    traj = simulate(cfg)
    delta_fit, _ = decay_rate_fit(traj.t, traj.norm_H)
    report = {
        "theta": float(theta),
        "c_min": float(th["c_min"]),
        "delta_claim": float(delta_claim),
        "delta_fit": delta_fit,
        "pointwise_ok": pointwise_decay_ok(traj.t, traj.norm_H, delta_claim),
        "invariance_ok": bool(np.max(traj.dist_K) <= invariance_tol),
    }
    return report, traj


def run_proportional_loop(grid, params, k_gain, mask, z0, T, delta, c_min,
                          dt=None, y_ref=None, forcing=None, constraint=None,
                          mode="project", yosida_lam=None, slack=0.9,
                          record_every=1, invariance_tol=1e-10):
    """Closed loop under u = -k * Leray(mask * z).

    `delta` is the decay rate certified upstream (principal eigenvalue of
    the damped Stokes operator minus the absorption total `c_min`); the
    report records slack * delta as the claim and checks it pointwise.
    """
    cfg = SimConfig(
        grid=grid, params=params, y0=z0, T=T, dt=dt, forcing=forcing,
        y_ref=y_ref, constraint=constraint, constraint_mode=mode,
        yosida_lam=yosida_lam,
        controller=make_proportional_controller(grid, k_gain, mask),
        control_bound=k_gain, record_every=record_every,
    )
    traj = simulate(cfg)
    delta_fit, _ = decay_rate_fit(traj.t, traj.norm_H)
    delta_claim = slack * delta
    report = {
        "k_gain": float(k_gain),
        "c_min": float(c_min),
        "delta_claim": float(delta_claim),
        "delta_fit": delta_fit,
        "pointwise_ok": pointwise_decay_ok(traj.t, traj.norm_H, delta_claim),
        "invariance_ok": True if constraint is None
        else bool(np.max(traj.dist_K) <= invariance_tol),
    }
    return report, traj
