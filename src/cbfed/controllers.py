"""Feedback laws and decay-rate diagnostics for the perturbation equation.

Two of the three stabilizers live here: the plain damping feedback
u = -theta * z (with the threshold constant that certifies a decay rate)
and the localized proportional feedback u = -k * P(indicator * z).  The
finite-dimensional Galerkin feedback has its own module.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import operators as op
from . import spectral as sp
from .errors import ConfigError, RegimeError
from .timestep import simulate

_FIT_WINDOW = 0.5
_POINTWISE_REL_TOL = 1e-9


def make_theta_controller(theta):
    """Feedback z -> -theta * z."""
    if theta < 0:
        raise ConfigError("theta must be nonnegative")

    def controller(z):
        return (-theta) * z

    return controller


def theta_threshold(params):
    """Smallest feedback strength that certifies exponential decay.

    Supercritical damping (r > 3): the convection absorption constant plus
    the two pumping constants, taken at the edge of their admissible
    windows, eps = 1/2 and eps_tilde = 1, where these decreasing constants
    are smallest.  A constant beyond the float range (r very close to 3)
    gives c_min = inf.  Where the pumping constant does not depend on its
    splitting (gamma = 0 or q = 1), neither does c_min; eps_tilde is then
    reported as 1e-3, the lower end of the range that earlier versions
    searched, so that recorded artifacts stay unchanged.

    Critical damping (r = 3, needs 2*beta*mu > 1): the two closed-form
    pumping constants, no free parameter.

    Returns {"c_min", "eps", "eps_tilde"}.
    """
    p = params
    if p.r > 3:
        eps, eps_tilde = 0.5, 1.0
        c_min = (
            op.convection_rate(p.mu, p.beta, p.r, eps)
            + op.pumping_rate(p.beta, p.gamma, p.r, p.q, eps_tilde)
            + op.pumping_rate(p.beta, p.gamma, p.r, p.q, eps)
        )
        if c_min == np.inf:
            return {"c_min": c_min, "eps": None, "eps_tilde": None}
        if p.gamma == 0 or p.q == 1:
            eps_tilde = 1e-3
        return {"c_min": c_min, "eps": eps, "eps_tilde": eps_tilde}
    if p.r == 3:
        a, b = op.critical_pumping_rates(p)
        return {"c_min": a + b, "eps": None, "eps_tilde": None}
    raise RegimeError("damping feedback threshold needs r >= 3")


def make_proportional_controller(grid, k_gain, mask):
    """Feedback z -> -k * Leray(mask * z), mask sampled on the grid nodes."""
    if k_gain < 0:
        raise ConfigError("k_gain must be nonnegative")
    m = sp.as_mask(mask, grid)

    def controller(z):
        return (-k_gain) * sp.masked_leray(grid, m, z.physical())

    return controller


def decay_rate_fit(times, norms):
    """Least-squares exponential rate over the trailing part of a norm history.

    Fits -log(norms) = a + delta * t on samples with t in the last
    _FIT_WINDOW fraction of the time span.  Returns (delta, r_squared).
    """
    t = np.asarray(times, dtype=float)
    h = np.asarray(norms, dtype=float)
    if t.shape != h.shape or t.ndim != 1 or t.size < 2:
        raise ConfigError("need matching 1-d times and norms with at least 2 samples")
    t0 = t[-1] - _FIT_WINDOW * (t[-1] - t[0])
    keep = (t >= t0 - 1e-12) & (h > 0)
    if np.count_nonzero(keep) < 2:
        raise ConfigError("not enough positive samples in the fit window")
    ts, ys = t[keep], -np.log(h[keep])
    slope, intercept = np.polyfit(ts, ys, 1)
    resid = ys - (intercept + slope * ts)
    ss_tot = np.sum((ys - ys.mean()) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - np.sum(resid**2) / ss_tot
    return float(slope), float(r2)


def pointwise_decay_ok(times, norms, delta):
    """True if norms[i] <= norms[0] * exp(-delta * t_i) up to relative slack _POINTWISE_REL_TOL."""
    t = np.asarray(times, dtype=float)
    h = np.asarray(norms, dtype=float)
    bound = h[0] * np.exp(-delta * (t - t[0])) * (1.0 + _POINTWISE_REL_TOL) + 1e-300
    return bool(np.all(h <= bound))


def _closed_loop(sim, delta_claim):
    """Simulate one closed loop, fit its decay and check the claim and the constraint."""
    traj = simulate(sim)
    delta_fit, _ = decay_rate_fit(traj.t, traj.norm_H)
    report = {
        "delta_claim": float(delta_claim),
        "delta_fit": delta_fit,
        "pointwise_ok": pointwise_decay_ok(traj.t, traj.norm_H, delta_claim),
        "invariance_ok": bool(np.max(traj.dist_K) <= 1e-10),
    }
    return report, traj


def run_theta_loop(sim, theta, slack=0.9):
    """Closed loop of `sim` under u = -theta * z, with its convex state constraint.

    The claimed rate is slack * (theta + alpha - c_min); the report says
    whether the trajectory met it pointwise and stayed in the set.
    Raises RegimeError when the threshold c_min is not finite (r just above
    3), since no finite theta then certifies decay.
    """
    params = sim.params
    th = theta_threshold(params)
    if not np.isfinite(th["c_min"]):
        raise RegimeError(
            f"theta threshold c_min is not finite at r={params.r:g}, q={params.q:g}"
        )
    report, traj = _closed_loop(
        replace(sim, controller=make_theta_controller(theta), control_bound=theta),
        slack * (theta + params.alpha - th["c_min"]),
    )
    return {"theta": float(theta), "c_min": float(th["c_min"]), **report}, traj


def run_proportional_loop(sim, k_gain, mask, delta, c_min, slack=0.9):
    """Closed loop of `sim` under u = -k * Leray(mask * z).

    `delta` is the decay rate certified upstream (principal eigenvalue of
    the damped Stokes operator minus the absorption total `c_min`); the
    report records slack * delta as the claim and checks it pointwise.
    """
    controller = make_proportional_controller(sim.grid, k_gain, mask)
    report, traj = _closed_loop(
        replace(sim, controller=controller, control_bound=k_gain), slack * delta
    )
    return {"k_gain": float(k_gain), "c_min": float(c_min), **report}, traj
