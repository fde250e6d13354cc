"""Stationary states by damped Picard iteration, plus the smallness reports.

The fixed point solved is

    y = (mu A + alpha)^{-1} P[f_e - B(y) - beta C_r(y) - gamma C_q(y)],

iterated with under-relaxation that halves itself (up to four times) when the
residual stagnates.  The residual is measured in H on the discrete equation
itself, with the time stepper's right-hand side (op.explicit_term), so a
converged state is a fixed point of the unshifted stepper with its forcing.
solve_stationary returns only a state whose residual is below tol; every
other exit raises SolverDivergence.
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
    relaxation: float
    residual_history: list = field(default_factory=list)


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
    lin = params.mu * grid.lap + params.alpha
    inv = 1.0 / lin
    y = sp.SpectralField(grid, f.c * inv)
    omega = relax
    halvings = 0
    best = np.inf
    stall = 0
    history = []
    # one right-hand side per iterate, the time stepper's explicit term
    # Leray-projected once as a whole: the residual's is reused by the update
    explicit = op.explicit_term(grid, params, f)
    # a diverging iterate overflows to inf and nan; the finiteness check below
    # reports it as a SolverDivergence, so numpy's warnings are not wanted
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iter + 1):
            if it > 0:
                update = sp.SpectralField(grid, rhs.c * inv)
                y = (1 - omega) * y + omega * update
            rhs = sp.leray(explicit(y)[0])
            res = sp.norm_H(sp.SpectralField(grid, y.c * lin) - rhs)    # ||(mu A + alpha) y - rhs||
            history.append(res)
            if not np.isfinite(res):
                last = f"{history[-2]:.3e}" if it > 0 else "none"
                raise SolverDivergence(
                    f"stationary iteration produced a non-finite residual at iteration "
                    f"{it} (last finite residual {last})"
                )
            if res < tol:
                return StationaryResult(y, res, it, omega, history)
            if it == 0:   # stagnation is judged from the first update on
                continue
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
    raise SolverDivergence(
        f"stationary iteration did not reach tol={tol:.1e} in {max_iter} steps "
        f"(residual {res:.3e})"
    )


# ---------------------------------------------------------------------------
# smallness / energy certificates


def uniqueness_K1(beta: float, gamma: float, r: float, q: float) -> float:
    """|gamma| s^{q+1} <= (beta/2) s^{r+1} + K1, the split of `energy_report`."""
    if gamma == 0:
        return 0.0
    return op.young_constant(abs(gamma), q + 1, beta / 2, r + 1)


def uniqueness_K2(beta: float, gamma: float, r: float, q: float) -> float:
    """The pumping rate absorbed at eps = 2."""
    return op.pumping_rate(beta, gamma, r, q, 2.0)


def uniqueness_report(params: op.PhysicalParams, forcing) -> dict:
    """Sufficient smallness condition for the stationary state to be unique.

    min(mu, alpha) >= 2 K2 + C (||f_e||^2/(beta mu) + K1 |T^d|/beta)^{1/2};
    the embedding constant C is taken as 1, not derived, so the margin is a
    heuristic indicator, not a certificate.
    """
    f = sp.leray(forcing)
    k1 = uniqueness_K1(params.beta, params.gamma, params.r, params.q)
    k2 = uniqueness_K2(params.beta, params.gamma, params.r, params.q)
    vol = f.grid.L**f.grid.d
    rhs = 2 * k2 + np.sqrt(
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
