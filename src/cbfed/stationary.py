"""Stationary states by damped Picard iteration, plus the smallness reports.

The fixed point solved is

    y = (mu A + alpha)^{-1} P[f_e - B(y) - beta C_r(y) - gamma C_q(y)],

iterated with under-relaxation that halves itself (up to four times) when the
residual stagnates.  The residual is measured in H on the discrete equation
itself, so a converged state satisfies the same operators the time stepper
uses.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from . import spectral as sp
from .errors import SolverDivergence


@dataclass
class StationaryResult:
    field: sp.SpectralField
    residual: float
    iterations: int
    converged: bool
    relaxation: float
    residual_history: list = field(default_factory=list)


def _rhs(y, params, f):
    out = f - op.convective(y) - params.beta * op.power_damping(y, params.r)
    if params.gamma != 0:
        out = out - params.gamma * op.power_damping(y, params.q)
    return out


def residual_norm(y, params, rhs) -> float:
    """||(mu A + alpha) y - rhs||_H, for rhs = _rhs(y, params, f)."""
    lin = sp.SpectralField(y.grid, y.c * (params.mu * y.grid.lap + params.alpha))
    return sp.norm_H(lin - rhs)


def solve_stationary(
    grid: sp.TorusGrid,
    params: op.PhysicalParams,
    forcing: sp.SpectralField,
    tol: float = 1e-11,
    max_iter: int = 400,
    relax: float = 1.0,
) -> StationaryResult:
    """Solve the stationary equation for the projected forcing."""
    f = sp.leray(forcing)
    inv = 1.0 / (params.mu * grid.lap + params.alpha)
    y = sp.SpectralField(grid, f.c * inv)
    omega = relax
    halvings = 0
    best = np.inf
    stall = 0
    history = []
    # one right-hand side per iterate: the residual's is reused by the update
    rhs = _rhs(y, params, f)
    res = residual_norm(y, params, rhs)
    history.append(res)
    for it in range(1, max_iter + 1):
        if not np.isfinite(res):
            raise SolverDivergence("stationary iteration produced non-finite residual")
        if res < tol:
            return StationaryResult(y, res, it - 1, True, omega, history)
        update = sp.SpectralField(grid, rhs.c * inv)
        y = (1 - omega) * y + omega * update
        rhs = _rhs(y, params, f)
        res = residual_norm(y, params, rhs)
        history.append(res)
        if res >= best * 0.999:
            stall += 1
            if stall >= 5:
                if halvings >= 4:
                    raise SolverDivergence(
                        f"stationary iteration stagnated at residual {res:.3e}"
                    )
                omega *= 0.5
                halvings += 1
                stall = 0
        else:
            best = res
            stall = 0
    if res < tol:
        return StationaryResult(y, res, max_iter, True, omega, history)
    raise SolverDivergence(
        f"stationary iteration did not reach tol={tol:.1e} in {max_iter} steps "
        f"(residual {res:.3e})"
    )


# ---------------------------------------------------------------------------
# smallness / energy certificates


def uniqueness_K1(beta: float, gamma: float, r: float, q: float) -> float:
    if gamma == 0:
        return 0.0
    # numpy scalars: with q near r the power leaves the float range and K1 is
    # inf, not an OverflowError
    with np.errstate(over="ignore"):
        lead = np.float64(abs(gamma)) ** ((r + 1) / (r - q))
    brk = op._bracket_pow(2 * (q + 1) / (beta * (r + 1)), (r - q) / (q + 1))
    return lead * brk * (r - q) / (r + 1)


def uniqueness_K2(beta: float, gamma: float, r: float, q: float) -> float:
    if gamma == 0:
        return 0.0
    base = 2.0 ** (q - 1) * q * abs(gamma) * (q - 1) / (beta * (r - 1))
    return op._bracket_pow(base, (q - 1) / (r - q)) * (r - q) / (r - 1)


def uniqueness_report(params: op.PhysicalParams, forcing, embed_const: float = 1.0) -> dict:
    """Sufficient smallness condition for the stationary state to be unique.

    min(mu, alpha) >= 2 K2 + C (||f_e||^2/(beta mu) + K1 |T^d|/beta)^{1/2};
    the embedding constant C is user-supplied (default 1), so the margin is a
    heuristic indicator, not a certificate.
    """
    f = sp.leray(forcing)
    k1 = uniqueness_K1(params.beta, params.gamma, params.r, params.q)
    k2 = uniqueness_K2(params.beta, params.gamma, params.r, params.q)
    vol = f.grid.L**f.grid.d
    rhs = 2 * k2 + embed_const * np.sqrt(
        sp.norm_H(f) ** 2 / (params.beta * params.mu) + k1 * vol / params.beta
    )
    lhs = min(params.mu, params.alpha)
    return {"lhs": lhs, "rhs": float(rhs), "satisfied": bool(lhs >= rhs), "heuristic": True}


def energy_report(y_e: sp.SpectralField, params: op.PhysicalParams, forcing) -> dict:
    """A-priori energy bound every stationary state must satisfy:

    min(mu, alpha/2) ||y_e||_{H1}^2 + (beta/2) ||y_e||_{L^{r+1}}^{r+1}
        <= ||f_e||^2/(2 mu) + K1 |T^d|.
    """
    f = sp.leray(forcing)
    k1 = uniqueness_K1(params.beta, params.gamma, params.r, params.q)
    lhs = min(params.mu, params.alpha / 2) * sp.norm_V(y_e) ** 2 + (
        params.beta / 2
    ) * sp.norm_Lp(y_e, params.r + 1) ** (params.r + 1)
    rhs = sp.norm_H(f) ** 2 / (2 * params.mu) + k1 * f.grid.L**f.grid.d
    return {"lhs": float(lhs), "rhs": float(rhs), "satisfied": bool(lhs <= rhs)}
