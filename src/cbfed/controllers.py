"""Feedback laws and decay-rate diagnostics for the perturbation equation.

Two of the three stabilizers live here: the plain damping feedback
u = -theta * z (with the threshold constant that certifies a decay rate)
and the localized proportional feedback u = -k * P(indicator * z).  The
finite-dimensional Galerkin feedback has its own module.

A loop's decay is read off a least-squares fit over the last half of its
run (decay_rate_fit); check_fit_window refuses, before any stepping, a time
grid that would record only the final state there, from the same window
rule (_window_start).
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

    def controller(z):
        return (-theta) * z

    return controller


def theta_threshold(params):
    """Smallest feedback strength that certifies exponential decay: the sum
    of op.threshold_split at eps = 1/2, eps_tilde = 1.

    Supercritical damping (r > 3): the convection absorption constant plus
    the two pumping constants, taken at the edge of their admissible
    windows, where these decreasing constants are smallest.  Where the
    pumping constant does not depend on its splitting (gamma = 0 or q = 1),
    neither does c_min; eps_tilde is then reported as 1e-3, the lower end of
    the range that earlier versions searched, so that recorded artifacts stay
    unchanged.

    Critical damping (r = 3, needs 2*beta*mu > 1): the two closed-form
    pumping constants, no free parameter.

    Returns {"c_min", "eps", "eps_tilde"}.  Raises RegimeError when c_min is
    not finite (a constant of the split beyond the float range, as just above
    r = 3), since no finite theta then certifies decay.
    """
    c_min = sum(op.threshold_split(params))
    if not np.isfinite(c_min):
        raise RegimeError(
            f"theta threshold c_min is not finite at r={params.r:g}, q={params.q:g}"
        )
    if params.regime == "critical":
        return {"c_min": c_min, "eps": None, "eps_tilde": None}
    eps_tilde = 1e-3 if params.gamma == 0 or params.q == 1 else 1.0
    return {"c_min": c_min, "eps": 0.5, "eps_tilde": eps_tilde}


def make_proportional_controller(k_gain, mask):
    """Feedback z -> -k * Leray(mask * z), mask sampled on the grid nodes."""

    def controller(z):
        return (-k_gain) * sp.masked_leray(mask, z)

    return controller


def _window_start(t_first, t_last):
    """First time of the fit window: the last _FIT_WINDOW fraction of
    [t_first, t_last], less a 1e-12 slack for the roundoff of m * dt."""
    return t_last - _FIT_WINDOW * (t_last - t_first) - 1e-12


def check_fit_window(dt, nsteps, every):
    """A ConfigError unless a run of nsteps steps of dt, recorded at every
    multiple of `every` and at its last step, records two states in the fit
    window: the last one, and the last recorded below it, at step
    every * ((nsteps - 1) // every).  decay_rate_fit reads the same window
    off the same times, so the two cannot disagree."""
    last = every * ((nsteps - 1) // every)
    if last * dt < _window_start(0.0, nsteps * dt):
        raise ConfigError(
            f"{nsteps} step(s) of {dt:.3g}, recorded every {every}, leave only the final state "
            f"in the fit window (the last {_FIT_WINDOW:.0%} of the run), and a decay fit needs "
            "two; raise integrator.T, or lower integrator.dt or integrator.record_every"
        )


def decay_rate_fit(times, norms):
    """Least-squares exponential rate over the trailing part of a norm history.

    Fits -log(norms) = a + delta * t on the positive samples in the last
    _FIT_WINDOW fraction of the time span (_window_start).  Returns
    (delta, r_squared).
    """
    t = np.asarray(times, dtype=float)
    h = np.asarray(norms, dtype=float)
    keep = (t >= _window_start(t[0], t[-1])) & (h > 0)
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


def _closed_loop(sim, delta_claim, linear_rate):
    """Simulate one closed loop, fit its decay and check the claim and the constraint.

    A run from zero has no decay to fit, a time grid that records one state
    in the fit window leaves none to fit either (check_fit_window), and a
    claim at or below 0 certifies no decay, whatever the run does, so all
    three are refused before stepping.
    At y_e = 0 (y_ref None, as ts.SimConfig makes an all-zero one) a small
    state decays no faster than the linear rate, linear_rate + gamma [q = 1]
    (C_r'(0) = 0, C_q'(0) = [q = 1] P), so a claim above it is refused too.
    A solved equilibrium's linearization is not symmetric; a claim around
    one is checked for its sign only.
    """
    if not np.any(sim.y0.c):
        raise ConfigError("the loop starts at zero, which leaves no decay to fit; "
                          "start it off zero with initial.kind and initial.amplitude")
    check_fit_window(sim.step, sim.nsteps, sim.record_every)
    if not delta_claim > 0:
        raise RegimeError(f"claimed decay rate {delta_claim:.6g} is not positive: "
                          "the loop certifies no decay")
    if sim.y_ref is None:
        linear_rate += sim.params.gamma if sim.params.q == 1 else 0.0
        if delta_claim > linear_rate:
            raise RegimeError(f"claimed decay rate {delta_claim:.6g} exceeds the linear "
                              f"rate {linear_rate:.6g} of the loop at y_e = 0")
    traj = simulate(sim)
    delta_fit, _ = decay_rate_fit(traj.t, traj.norm_H)
    report = {
        "delta_claim": float(delta_claim),
        "delta_fit": delta_fit,
        "pointwise_ok": pointwise_decay_ok(traj.t, traj.norm_H, delta_claim),
        "invariance_ok": bool(np.max(traj.dist_K) <= 1e-10),
    }
    return report, traj


def run_theta_loop(sim, theta, c_min, slack=0.9):
    """Closed loop of `sim` under u = -theta * z, with its convex state constraint.

    `c_min` is the threshold certified upstream (theta_threshold); the
    claimed rate is slack * (theta + alpha - c_min), and the report says
    whether the trajectory met it pointwise and stayed in the set.
    """
    report, traj = _closed_loop(
        replace(sim, controller=make_theta_controller(theta), control_bound=theta),
        slack * (theta + sim.params.alpha - c_min), sim.params.alpha + theta,
    )
    return {"theta": float(theta), "c_min": float(c_min), **report}, traj


def run_proportional_loop(sim, k_gain, mask, nu, delta, c_min, slack=0.9):
    """Closed loop of `sim` under u = -k * Leray(mask * z).

    `delta` is the decay rate certified upstream (nu, the smallest
    eigenvalue of mu A + alpha + k P mask P, minus the absorption total
    `c_min`); the report records slack * delta as the claim and checks it.
    """
    controller = make_proportional_controller(k_gain, mask)
    report, traj = _closed_loop(
        replace(sim, controller=controller, control_bound=k_gain), slack * delta, nu
    )
    return {"k_gain": float(k_gain), "c_min": float(c_min), **report}, traj
