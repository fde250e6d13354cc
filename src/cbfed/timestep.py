"""IMEX time stepping for the (possibly shifted and constrained) flow.

The evolved state z solves

    dz/dt + mu A z + alpha z + B~(z) + beta C~_r(z) + gamma C~_q(z)
        + (normal cone term) = P f + u(z),

where B~, C~ are the operators shifted around an optional reference state
(so z is a perturbation of an equilibrium), u is an optional feedback, and
the normal cone of a constraint set enters either as a hard projection after
every step (catching-up) or through its Yosida relaxation with parameter lam.

Two schemes: backward Euler on the linear part with explicit everything else
("imex1"), and Crank-Nicolson / Adams-Bashforth 2 ("cnab2").

`simulate` makes one pass per state m = 0..nsteps.  A pass with m > 0 first
steps from the previous state, Leray-projects, applies the constraint and
checks for blow-up (the initial state is not checked).  Every pass then
evaluates the feedback and, through op.explicit_term, the explicit term
f - B~ - beta C~_r - gamma C~_q and the L^{r+1} norm from one sample, and
records the state when m is a multiple of record_every or the last one.
The final state, which no step uses, gets only its norm.  A project-mode
span (cx.SpanConstraint) holds every state, so simulate passes its bandwidth
on to op.explicit_term, which picks the grids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import convex as cx
from . import operators as op
from . import spectral as sp
from .errors import ConfigError, RegimeError, SolverDivergence

COLUMNS = ("t", "norm_H", "norm_gradH", "norm_V", "norm_Lr1", "dist_K", "norm_u", "energy_defect")

_BLOWUP_FACTOR = 1e6


@dataclass
class SimConfig:
    grid: sp.TorusGrid
    params: op.PhysicalParams
    y0: sp.SpectralField | None        # None only until a loop sets its own
    T: float
    dt: float | None = None
    scheme: str = "imex1"
    forcing: sp.SpectralField | None = None
    y_ref: sp.SpectralField | None = None
    constraint: object | None = None
    constraint_mode: str = "project"   # "project" | "yosida"
    yosida_lam: float | None = None
    controller: object | None = None   # callable z -> feedback field
    control_bound: float = 0.0
    record_every: int = 1

    def __post_init__(self):
        if self.scheme not in ("imex1", "cnab2"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.constraint_mode not in ("project", "yosida"):
            raise ConfigError(f"unknown constraint mode {self.constraint_mode!r}")
        if self.constraint is not None and self.constraint_mode == "yosida":
            if not (self.yosida_lam and self.yosida_lam > 0):
                raise ConfigError("yosida mode needs a positive yosida_lam")
        if not (self.T > 0):
            raise ConfigError("final time must be positive")
        if self.dt is not None and not (self.dt > 0 and np.isfinite(self.T / self.dt)):
            raise ConfigError(f"time step dt={self.dt:g} must be positive, with T/dt finite")
        if self.dt is not None and abs(round(self.T / self.dt) * self.dt - self.T) > 1e-9 * self.T:
            raise ConfigError(f"time step dt={self.dt:g} does not divide T={self.T:g}")
        if not (self.record_every >= 1):
            raise ConfigError("record_every must be at least 1")


def write_csv(path, columns, rows, comment=None) -> None:
    """Numeric rows at 17 significant digits under a header, after an optional '# ' line."""
    with open(path, "w") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass
class Trajectory:
    t: np.ndarray
    norm_H: np.ndarray
    norm_gradH: np.ndarray
    norm_V: np.ndarray
    norm_Lr1: np.ndarray
    dist_K: np.ndarray
    norm_u: np.ndarray
    energy_defect: np.ndarray
    final: sp.SpectralField | None = None

    def to_csv(self, path, comment=None) -> None:
        write_csv(path, COLUMNS, zip(*(getattr(self, name) for name in COLUMNS)), comment)


def default_dt(grid: sp.TorusGrid, params: op.PhysicalParams, y0, y_ref=None) -> float:
    """min(0.25/(mu lam_max), 0.5/(||y0 + y_ref||_inf k_max 2 pi / L))."""
    lam_max = (2 * np.pi / grid.L) ** 2 * float(np.max(grid.k2[grid.keep]))
    dt = 0.25 / (params.mu * lam_max)
    total = y0 if y_ref is None else y0 + y_ref
    with np.errstate(over="ignore"):    # an infinite speed gives dt = 0, which step_size refuses
        vmax = float(np.max(np.sqrt(np.sum(total.physical() ** 2, axis=0))))
    if vmax > 0:
        kmax = grid.N // 2 - 1
        dt = min(dt, 0.5 / (vmax * kmax * 2 * np.pi / grid.L))
    return dt


def step_size(cfg: SimConfig) -> float:
    """cfg.dt, or else T over the fewest equal steps no longer than default_dt
    (the 1e-12 keeps an exact T/default_dt from gaining a step by roundoff);
    a ConfigError if default_dt is not positive or T/default_dt is not finite."""
    if cfg.dt is not None:
        return cfg.dt
    cap = default_dt(cfg.grid, cfg.params, cfg.y0, cfg.y_ref)
    if not (cap > 0 and np.isfinite(cfg.T / cap)):
        raise ConfigError(f"no default step for T={cfg.T:g} (got {cap:g}); set integrator.dt")
    return cfg.T / np.ceil(cfg.T / cap * (1 - 1e-12))


def energy_defects(t, h, gh, lr1, params, forcing_norm, control_bound) -> np.ndarray:
    """Discrete defect of the energy inequality along recorded samples.

    defect = d/dt ||z||^2 / 2 + mu/2 ||grad z||^2 + alpha ||z||^2
             + beta 2^{-r} ||z||_{L^{r+1}}^{r+1} - 1/4 ||f||^2 - k ||z||^2,

    with the forward difference quotient between samples and k the
    energy-inequality rate from the closed-form constants (nan when the
    parameter regime has no such constants).  Nonpositive means the budget
    holds at that sample; the first entry is 0 by convention.
    """
    try:
        k_rate = op.stability_constants(params, M=control_bound).energy_rate
    except RegimeError:
        return np.full(len(t), np.nan)
    h2 = np.asarray(h) ** 2
    out = np.zeros(len(t))
    out[1:] = (
        np.diff(h2) / (2 * np.diff(t))
        + 0.5 * params.mu * np.asarray(gh)[1:] ** 2
        + params.alpha * h2[1:]
        + params.beta * 2.0 ** (-params.r) * np.asarray(lr1)[1:] ** (params.r + 1)
        - 0.25 * forcing_norm**2
        - k_rate * h2[1:]
    )
    return out


def simulate(cfg: SimConfig) -> Trajectory:
    g, p = cfg.grid, cfg.params
    dt = step_size(cfg)
    nsteps = max(1, int(round(cfg.T / dt)))
    lin = p.mu * g.lap + p.alpha
    f = sp.leray(cfg.forcing) if cfg.forcing is not None else sp.SpectralField.zero(g)
    fnorm = sp.norm_H(f)
    K = cfg.constraint
    project_mode = K is not None and cfg.constraint_mode == "project"
    yosida_mode = K is not None and cfg.constraint_mode == "yosida"

    # a project-mode span holds every state, and its bandwidth sizes the grids
    bandwidth = getattr(K, "bandwidth", None) if project_mode else None
    explicit = op.explicit_term(g, p, f, cfg.y_ref, bandwidth)

    z = K.project(cfg.y0) if project_mode else cfg.y0.copy()
    nh = sp.norm_H(z)
    guard = _BLOWUP_FACTOR * max(1.0, nh)
    rows = []     # one row of COLUMNS[:-1] per recorded state
    prev_N = None
    denom1 = 1.0 + dt * lin
    half = 0.5 * dt * lin
    for m in range(nsteps + 1):
        if m > 0:
            if u is not None:
                N = N + u
            if yosida_mode:
                N = N - cx.yosida_term(K, z, cfg.yosida_lam)
            if cfg.scheme == "imex1" or prev_N is None:
                znew = sp.SpectralField(g, (z.c + dt * N.c) / denom1)
            else:
                num = z.c * (1.0 - half) + dt * (1.5 * N.c - 0.5 * prev_N.c)
                znew = sp.SpectralField(g, num / (1.0 + half))
            if cfg.scheme == "cnab2":
                prev_N = N
            # this projects the explicit damping, left unprojected because the
            # update is diagonal in k; it also drops roundoff gradient content,
            # which a Leray-projected feedback cannot see, so it would decay only
            # at the bare rate alpha + mu |k|^2
            znew = sp.leray(znew)
            z = K.project(znew) if project_mode else znew
            nh = sp.norm_H(z)
            if not np.isfinite(nh) or nh > guard:
                raise SolverDivergence(f"state norm {nh:.3e} exploded at t={m * dt:.4g}")
        # one feedback and one evaluation per state, shared by its record and
        # the next step: the explicit term, not Leray-projected (the next
        # Leray step does it), and ||z||_{L^{r+1}} when recorded; the final
        # state, which no step uses, gets its norm alone
        u = cfg.controller(z) if cfg.controller is not None else None
        recorded = m % cfg.record_every == 0 or m == nsteps
        N, lr1 = explicit(z, term=m < nsteps, norm=recorded)
        if recorded:
            gh = sp.norm_grad(z)
            rows.append((
                m * dt, nh, gh,
                float(np.hypot(nh, gh)),      # norm_V from the same floats
                lr1,
                K.distance(z) if K is not None else 0.0,
                sp.norm_H(u) if u is not None else 0.0,
            ))

    t, h, gh, v, lr1, dist, un = np.array(rows).T
    defect = energy_defects(t, h, gh, lr1, p, fnorm, cfg.control_bound)
    return Trajectory(t, h, gh, v, lr1, dist, un, defect, final=z)
