"""Model parameters and the nonlinear operators of the flow equation.

The state equation treated throughout is

    dy/dt + mu A y + alpha y + B(y) + beta C_r(y) + gamma C_q(y) = P f,

with A the Stokes operator, B(y) = P[(y.grad) y] the projected convection,
and C_p(y) = P[|y|^{p-1} y] the projected power damping.  All quadratic and
power-law products are evaluated pointwise on oversampled nodal grids so the
discrete pairings reproduce the continuous integral identities to roundoff
at the tested powers.

convective evaluates B in rotational form, sum_a y_a Omega_ab before P, with
Omega_ab = d_a y_b - d_b y_a, from the 2/3-rule dealiased y: one inverse
transform of y and the d(d-1)/2 components Omega_ab (a < b) stacked, one
forward transform of the product.  The advective form differs by
grad(|y|^2/2).  |y|^2 has modes |k_i| <= 2 ((N-1)//3), whose aliases on the
N-grid fall outside the dealias mask, so the kept coefficients of the
difference are those of an exact gradient, and the Leray projection removes
them: the two forms agree to roundoff.  The product runs on an M^d grid
through sp.sample and sp.unsample, the base grid unless M is given.

The damping beta C_r + gamma C_q is evaluated on one oversampled grid,
PhysicalParams.damping_factor (the C_r grid, the finer one), in the time
stepper, the stationary solve and the reduced model.  damping_weight is its
pointwise weight, the sum coef |y|^{p-1} from |y|^2; damping_from_nodal
applies it to the nodal values on that grid, or on any even M^d grid, and
does one transform back (sp.unsample), without the Leray projection, like
convective.  Each caller projects both once: simulate projects the new state
(the update is diagonal in k, so that projects its convection and damping
too), the stationary solve its whole right-hand side, and power_damping its
result.  The derivative C_p'(y) z has one kernel too, damping_derivative,
shared by gateaux_first and galerkin.assemble_reduction; it takes the powers
of |y| once and then serves any number of directions.  Its powers of |y|
follow _pow0: |y|^0 = 1, 0^0 included, so C_1' = P needs no branch, and a
negative power is 0 where y = 0.  power_damping evaluates a single term on
its own grid.

explicit_term is the one right-hand side f - B~ - beta C~_r - gamma C~_q of
the time stepper and the stationary solve, the one holder of the damping
grid's arrays, and the one place that picks the grids: span_nodes is the
rule for a state held in a span (the Galerkin reduction's, and the full
loop projected onto it).
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import spectral as sp
from .errors import ConfigError, RegimeError


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosity, Darcy drag, damping strengths and exponents."""

    mu: float
    alpha: float
    beta: float
    gamma: float
    r: float
    q: float

    def __post_init__(self):
        if not (self.mu > 0):
            raise ConfigError("viscosity mu must be positive")
        if not (self.alpha > 0):
            raise ConfigError("drag coefficient alpha must be positive")
        if not (self.beta > 0):
            raise ConfigError("damping coefficient beta must be positive")
        if not (self.q >= 1):
            raise ConfigError("lower exponent q must be >= 1")
        if not (self.r > self.q):
            raise ConfigError("exponents must satisfy r > q")

    @property
    def damping_terms(self) -> tuple:
        """(coef, p) of the damping terms beta C_r + gamma C_q with coef != 0."""
        return tuple((c, p) for c, p in ((self.beta, self.r), (self.gamma, self.q)) if c != 0)

    @property
    def damping_factor(self) -> int:
        """The one grid of beta C_r + gamma C_q: C_r's, the finer (r > q), and >= 2 (r > 1)."""
        return sp.oversample_factor(self.r)

    @property
    def odd_integer_damping(self) -> bool:
        """Every exponent in damping_terms an odd integer: the damping is then a
        polynomial in y, and span_nodes sizes its grid from a bandwidth."""
        return all(p % 2 == 1 for _, p in self.damping_terms)

    @property
    def regime(self) -> str:
        if self.r > 3:
            return "supercritical"
        if self.r == 3 and 2 * self.beta * self.mu > 1:
            return "critical"
        return "unsupported"


# ---------------------------------------------------------------------------
# pointwise helpers


def _pow0(base: np.ndarray, expo: float) -> np.ndarray:
    """base**expo for base >= 0, elementwise, with 0**e = 0 for e < 0.

    For e = 0 it is base**0 = 1 everywhere, 0**0 included (C_1' = P).
    """
    if expo >= 0.0:
        return base**expo
    out = np.zeros_like(base)
    nz = base > 0
    out[nz] = base[nz] ** expo
    return out


# ---------------------------------------------------------------------------
# convection


def convective(y: sp.SpectralField, M: int | None = None) -> sp.SpectralField:
    """sum_a y_a Omega_ab, the rotational form of (y.grad) y, with 2/3-rule
    dealiasing and not Leray-projected: its projection is B(y) = P[(y.grad) y].

    The product runs on the M^d grid, the base grid by default; a smaller M
    is exact for a y whose modes lie within a bandwidth B when M > 4 B
    (span_nodes).
    """
    g = y.grid
    M = M or g.N
    pairs = [(a, b) for a in range(g.d) for b in range(a + 1, g.d)]
    # the dealiased spectra of y and of Omega_ab = d_a y_b - d_b y_a (a < b),
    # stacked so that one inverse transform gives all their nodal values
    spec = np.empty((g.d + len(pairs),) + g.half_shape, dtype=complex)
    c = np.multiply(y.c, g.dealias, out=spec[: g.d])
    for w, (a, b) in zip(spec[g.d :], pairs):
        np.multiply(g.ik[a], c[b], out=w)
        w -= g.ik[b] * c[a]
    vals = sp.sample(spec, g, M)
    yv, omega = vals[: g.d], vals[g.d :]
    # sum_a y_a Omega_ab, so Omega_ba = -Omega_ab: each pair feeds two components
    adv = np.zeros_like(yv)
    for w, (a, b) in zip(omega, pairs):
        adv[b] += yv[a] * w
        adv[a] -= yv[b] * w
    ch = sp.unsample(adv, g)
    ch *= g.dealias
    return sp.SpectralField(g, ch)


def shifted_convective(z: sp.SpectralField, around, base=None, M=None) -> sp.SpectralField:
    """convective(around + z) - convective(around), unprojected; plain
    convective(z) when around is None.

    base, when given, is a precomputed convective(around); M is passed on.
    """
    if around is None:
        return convective(z, M)
    if base is None:
        base = convective(around, M)
    return convective(z + around, M) - base


def trilinear(y: sp.SpectralField, z: sp.SpectralField, w: sp.SpectralField) -> float:
    """b(y, z, w) = int (y.grad) z . w dx by oversampled nodal quadrature."""
    g = y.grid
    factor = 2
    yv = sp.oversample(y, factor)
    wv = sp.oversample(w, factor)
    gz = sp.gradient_physical(z, factor)              # gz[a, b] = d_a z_b
    M = factor * g.N
    prod = np.einsum(
        "aX,abX,bX->X", yv.reshape(g.d, -1), gz.reshape(g.d, g.d, -1), wv.reshape(g.d, -1)
    )
    return float(prod.sum() * (g.L / M) ** g.d)


# ---------------------------------------------------------------------------
# power damping and its derivatives


def damping_weight(m2: np.ndarray, terms, out=None) -> np.ndarray:
    """Pointwise weight sum coef |v|^{p-1} over terms [(coef, p), ...], p >= 1,
    from m2 = |v|^2: an array of m2's shape, p = 1 included (|v|^0 = 1).

    Each term's power is one ufunc call, m2^{(p-1)/2}, into out or a fresh
    array.  out may be m2 itself: the last term is formed in it once the
    others have read m2, so the other terms cost one array and a single term
    none.  The terms are summed in either order to the same bits.
    """
    *head, (coef, p) = terms
    rest = damping_weight(m2, head) if head else None
    expo = (p - 1) / 2.0
    if expo == 0.5:                 # the sqrt that m2**0.5 runs, twice as fast as np.power
        w = np.sqrt(m2, out=out)
    else:
        w = np.power(m2, expo, out=out)
    w *= coef                       # scaled in place, as every term
    if rest is not None:
        w += rest
    return w


def damping_from_nodal(vals: np.ndarray, grid: sp.TorusGrid, terms, mag2=None) -> sp.SpectralField:
    """sum coef |v|^{p-1} v over terms [(coef, p), ...], truncated to the coarse
    spectrum and not Leray-projected, from the nodal values v of the argument
    on the oversampled grid that the terms share.  Each caller projects once.

    |v|^2 is formed in mag2, a float array of one component's shape, when it
    is given, and the weight over it; the weight times v is written over
    vals (component axis first).  So a loop that passes the same mag2 each
    step allocates one fine array for a two-term damping, for the first
    term, and none for one term.
    """
    m2 = sp.sum_squares(vals, out=mag2)
    np.multiply(damping_weight(m2, terms, out=m2), vals, out=vals)
    return sp.SpectralField(grid, sp.unsample(vals, grid))


def span_nodes(params: PhysicalParams, grid: sp.TorusGrid, bandwidth: int) -> int:
    """Nodes per axis of the grid of a state whose modes lie within |k_i| <= B,
    B = bandwidth: the smallest even M > (r+1) B, at least 4 and at most the
    damping grid, when params.odd_integer_damping, and else the damping grid.

    |y|^{p-1} y is then a polynomial in y of degree p <= r.  On M nodes a
    mode aliases onto k only from k + jM, j != 0, so on M > (r+1) B nodes
    the damping, of degree at most r B per axis, has exact coefficients at
    |k_i| <= B, and the rectangle rule is exact for |y|^{r+1} and for every
    pairing of the reduction, each of degree at most (r+1) B.  The
    convection of the state is exact on min(M, N) nodes: its dealiased
    product has degree 2b, b = min(B, (N-1)//3), and its kept coefficients
    reach min(2b, (N-1)//3), so 4B < M nodes suffice (an odd r > q >= 1 is
    >= 3).
    """
    full = params.damping_factor * grid.N
    if not params.odd_integer_damping:
        return full
    degree = (int(params.r) + 1) * bandwidth
    return min(max(4, degree + 2 - degree % 2), full)


def explicit_term(grid, params: PhysicalParams, f: sp.SpectralField, around=None, bandwidth=None):
    """The explicit right-hand side z -> f - B~(z) - beta C~_r(z) - gamma C~_q(z),
    all of it unprojected, with B~, C~ shifted around `around` (plain B, C when
    None), as evaluate(z, term=True, norm=False) -> (term, ||z||_{L^{r+1}}),
    each None when not asked for.

    One sample of z serves both; the norm is taken before the nodal values
    of `around`, constant like its convection and damping, are added in place.
    Every z is sampled into one nodal array and takes |v|^2 in one scalar
    array, both held by evaluate: fresh fine temporaries would be trimmed
    by glibc's heap after each call and faulted back in by the next.  The
    damping runs on damping_factor, the norm there too when
    norm_factor(r + 1) agrees, and the convection on the base grid.

    States held in a span.  A bandwidth B, that of a span holding every z,
    with no `around` (not held there), puts the damping and the norm on
    M = span_nodes and the convection on min(M, N): exact at the modes the
    span keeps, so a run matches the full grids' to roundoff, on 8^2 nodes
    instead of 96^2 and 32^2 at the stabilize-galerkin defaults.
    """
    factor, terms = params.damping_factor, params.damping_terms
    held = around is None and bandwidth is not None     # every z in the span
    M = span_nodes(params, grid, bandwidth) if held else factor * grid.N
    banded = M < factor * grid.N
    M_conv = min(M, grid.N)
    norm_on_grid = banded or sp.norm_factor(params.r + 1) == factor
    nodal = np.empty((grid.d,) + (M,) * grid.d)
    mag2 = np.empty((M,) * grid.d)
    b_ref = y_nodal = d_ref = None
    if around is not None:
        b_ref = convective(around)
        y_nodal = sp.oversample(around, factor)
        d_ref = damping_from_nodal(y_nodal.copy(), grid, terms)

    p = params.r + 1

    def evaluate(z, term=True, norm=False):
        if not term and not (norm and norm_on_grid):     # no sample needed
            return None, sp.norm_Lp(z, p) if norm else None
        # the convection first: its temporaries, taken after the damping's
        # fine ones, raised the process's peak resident set in some runs
        rest = f - shifted_convective(z, around, b_ref, M_conv) if term else None
        vals = sp.sample(z.c, grid, M, out=nodal) if banded else sp.oversample(z, factor, out=nodal)
        lr1 = None
        if norm:
            lr1 = sp.norm_Lp_nodal(vals, grid, p, mag2) if norm_on_grid else sp.norm_Lp(z, p)
        if not term:
            return None, lr1
        if around is None:
            damp = damping_from_nodal(vals, grid, terms, mag2)
        else:
            vals += y_nodal
            damp = damping_from_nodal(vals, grid, terms, mag2) - d_ref
        return rest - damp, lr1

    return evaluate


def damping_derivative(Y: np.ndarray, p: float):
    """The C_p'(y) kernel Z -> |Y|^{p-1} Z + (p-1)|Y|^{p-3} (Y.Z) Y, as a function.

    Y holds the nodal values of y, component axis first; Z those of a
    direction, with the same layout and optionally a leading mode axis.  The
    powers of |Y| are taken once, here, and serve every direction.  The Leray
    projection is left to the caller.
    """
    m2 = sp.sum_squares(Y)
    w1 = _pow0(m2, (p - 1) / 2.0)
    a2 = (p - 1) * _pow0(m2, (p - 3) / 2.0)
    del m2

    def kernel(Z: np.ndarray) -> np.ndarray:
        dot = np.sum(Y * Z, axis=-Y.ndim)
        dot *= a2
        out = w1 * Z
        out += np.expand_dims(dot, -Y.ndim) * Y
        return out

    return kernel


def power_damping(y: sp.SpectralField, p: float) -> sp.SpectralField:
    """C_p(y) = P[|y|^{p-1} y], evaluated on an oversampled grid."""
    if p == 1:
        return sp.leray(y)
    vals = sp.oversample(y, sp.oversample_factor(p))
    return sp.leray(damping_from_nodal(vals, y.grid, [(1.0, p)]))


def gateaux_first(y: sp.SpectralField, z: sp.SpectralField, p: float) -> sp.SpectralField:
    """Directional derivative C_p'(y) z = P[|y|^{p-1} z + (p-1)|y|^{p-3} (y.z) y].

    With _pow0's conventions this is P z at p = 1.
    """
    g = y.grid
    factor = sp.oversample_factor(p)
    out = damping_derivative(sp.oversample(y, factor), p)(sp.oversample(z, factor))
    return sp.leray(sp.SpectralField(g, sp.fine_to_coeffs(out, g)))


def shifted_damping(z: sp.SpectralField, around, p: float) -> sp.SpectralField:
    """C_p(around + z) - C_p(around); plain C_p(z) when around is None."""
    if around is None:
        return power_damping(z, p)
    return power_damping(z + around, p) - power_damping(around, p)


# ---------------------------------------------------------------------------
# closed-form absorption constants
#
# Each constant is one Young bound C = sup_s (c1 s^b - c2 s^a), so c1 s^b <= c2 s^a + C:
#   convection_rate  (1, 2, eps beta mu/2, r-1)/(2 mu): s^2/(2 mu) vs (eps beta/4) s^{r-1}
#   eta_pump         (q|gamma|, q-1, beta/4, r-1): q|gamma| s^{q-1} vs (beta/4) s^{r-1}
#   galerkin C4, C5  (1, r-q, sigma/(4 gamma2), r-1), (1, r-3, sigma/(2 gamma0'), r-1)
#   stationary K1    (|gamma|, q+1, beta/2, r+1): |gamma| s^{q+1} vs (beta/2) s^{r+1}
#   pumping_rate     (1, q-1, eps beta/(2^q q|gamma|), r-1), and for r = 3 the
#                    critical branch of threshold_split (1, q-1, 1/(2^q q|gamma| mu), 2)
#                    and (1, q-1, (beta - 1/(2 mu))/(2^q q|gamma|), 2). With c1 = 1 these
#                    lack a power of |gamma| (ROADMAP item 1); they keep today's values
#                    until its derivation and a re-recorded benchmark reference land.
# A pumping constant is 0 outright when gamma = 0; with b = 0 the bound is c1.


def young_constant(c1: float, b: float, c2: float, a: float) -> float:
    """sup_{s >= 0} (c1 s^b - c2 s^a), c1, c2 > 0, 0 <= b < a; inf or 0 beyond float range."""
    # c2 = 0 (its weight beyond float range): b/0 = inf, or 0/0 = nan with nan**0 = 1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # never nan out
        bracket = c1 * (np.float64(b) / (a * c2)) ** (b / a)
        return (a - b) / a * bracket ** (a / (a - b))


def convection_rate(mu: float, beta: float, r: float, eps: float) -> float:
    """Convection rate absorbed by the eps-weighted damping; inf just above r = 3."""
    if not (r > 3):
        raise RegimeError("convection absorption constant requires r > 3")
    with np.errstate(over="ignore"):    # inf at a tiny mu; the certificates refuse it
        return young_constant(1.0, 2.0, eps * beta * mu / 2, r - 1) / (2 * mu)


def _pumping_weight(gamma: float, q: float) -> float:
    """2^q q |gamma|, the weight of the pumping term in its Young split; inf beyond float range."""
    with np.errstate(over="ignore"):
        return np.float64(2.0) ** q * q * abs(gamma)


def pumping_rate(beta: float, gamma: float, r: float, q: float, eps: float) -> float:
    """Rate absorbed when splitting the gamma-pumping term against damping."""
    if gamma == 0:
        return 0.0
    return young_constant(1.0, q - 1, eps * beta / _pumping_weight(gamma, q), r - 1)


def threshold_split(params: PhysicalParams, eps: float = 0.5, eps_tilde: float = 1.0):
    """The Young split of the convection and the gamma-pumping against the
    damping at (eps, eps_tilde): (convection at eps, pumping at eps_tilde,
    pumping at eps) for r > 3, and (0, rho~1, rho~2) at r = 3 under
    2 beta mu > 1, where the split has no free parameter.  A constant beyond
    the float range is inf.  Every decay certificate reads it at its own
    window: theta_threshold and growth_rate at (1/2, 1), threshold_rate at the
    caller's, eigen.proportional_decay_constant at (1, 2).
    """
    p = params
    if p.regime == "supercritical":
        return (
            convection_rate(p.mu, p.beta, p.r, eps),
            pumping_rate(p.beta, p.gamma, p.r, p.q, eps_tilde),
            pumping_rate(p.beta, p.gamma, p.r, p.q, eps),
        )
    if p.regime == "critical":
        if p.gamma == 0:
            return 0.0, 0.0, 0.0
        gq = _pumping_weight(p.gamma, p.q)
        return (
            0.0,
            young_constant(1.0, p.q - 1, 1.0 / gq / p.mu, 2.0),  # gq * mu may underflow to 0
            young_constant(1.0, p.q - 1, (p.beta - 1.0 / (2 * p.mu)) / gq, 2.0),
        )
    raise RegimeError(
        "no closed-form constants outside r > 3 or (r = 3 with 2 beta mu > 1)"
    )


@dataclass(frozen=True)
class StabilityConstants:
    """Absorption rates entering the feedback thresholds and energy budget."""

    conv_rate: float       # convection absorbed at the chosen eps
    pump_rate_a: float     # pumping absorbed at eps_tilde
    pump_rate_b: float     # pumping absorbed at eps
    threshold_rate: float  # sum of the three above
    eta_conv: float        # convection rate at unit eps
    eta_pump: float        # companion pumping rate
    shift_rate: float      # max(threshold_rate, eta_conv + eta_pump)
    growth_rate: float     # forcing-side growth constant (includes M)
    energy_rate: float     # growth_rate + 1, the energy-inequality rate


def stability_constants(
    params: PhysicalParams, eps: float = 0.5, eps_tilde: float = 1.0, M: float = 0.0
) -> StabilityConstants:
    """Bundle of closed-form constants for the admissible (eps, eps_tilde) window.

    threshold_rate sums threshold_split at (eps, eps_tilde), growth_rate adds
    M to the split at (1/2, 1).  Raises RegimeError naming the constants that
    are not finite (r just above 3 puts the convection rate beyond the float
    range).
    """
    if not (0 < eps <= 0.5):
        raise ConfigError("eps must lie in (0, 1/2]")
    if not (0 < eps_tilde <= 1.0):
        raise ConfigError("eps_tilde must lie in (0, 1]")
    split = threshold_split(params, eps, eps_tilde)
    total = sum(split)
    growth = M + total              # critical: the split is the same at every window
    eta_conv = eta_pump = 0.0
    if params.regime == "supercritical":
        p = params
        growth = sum(threshold_split(p), M)   # ((M + conv) + pump) + pump
        eta_conv = convection_rate(p.mu, p.beta, p.r, 1.0)
        if p.gamma != 0:
            eta_pump = young_constant(p.q * abs(p.gamma), p.q - 1, p.beta / 4, p.r - 1)
    shift = max(total, eta_conv + eta_pump)
    sc = StabilityConstants(*split, total, eta_conv, eta_pump, shift, growth, growth + 1.0)
    bad = [f.name for f in fields(sc) if not np.isfinite(getattr(sc, f.name))]
    if bad:
        raise RegimeError(
            f"closed-form constants not finite at r={params.r:g}, q={params.q:g}: "
            + ", ".join(bad)
        )
    return sc
