"""Principal eigenvalue of the damped Stokes operator with masked feedback.

The operator sends a divergence-free field y to

    mu * (Stokes y) + alpha * y + k * P(m y),

where m is the indicator of the control region, an array of nodal values
on the grid (box_indicator builds it from boxes), and P the solenoidal
projection.  As the gain k grows, the smallest eigenvalue climbs toward the
principal eigenvalue of the drag-shifted Stokes problem with the field pinned
on the control region; that limit is what certifies a decay rate for the
proportional feedback loop.  The routines here compute the smallest
eigenvalue at finite gain by preconditioned LOBPCG, extrapolate the
large-gain limit from a gain ladder, and evaluate an isoperimetric lower
bound that depends only on the volume of the uncontrolled region and a
tabulated first Bessel zero.

LOBPCG holds its basis [x, w, p] as one stacked spectrum of shape
(3, d, N, ..., N/2+1) and the operator images as a second one.  Both Gram
matrices of a Rayleigh-Ritz step are two real matmuls against one
sp.parseval_dual of the basis, and the new x and p are ``coef @ basis``.
"""
from __future__ import annotations

import math

import numpy as np

from . import operators as op
from . import spectral as sp
from .errors import ConfigError, RegimeError, SolverDivergence


def box_indicator(grid: sp.TorusGrid, boxes) -> np.ndarray:
    """Nodal indicator of the control region, a union of axis-aligned boxes.

    Boxes are half-open products of intervals, one ``(lo, hi)`` pair per
    axis.  The control region must be nonempty; it may cover the whole
    torus, which is the same as no mask (only `lambda_star_estimate` needs
    an uncontrolled region).
    """
    if not boxes:
        raise ConfigError("control region needs at least one box")
    nodes = grid.nodes()
    ind = np.zeros(grid.shape, dtype=bool)
    for box in boxes:
        if len(box) != grid.d:
            raise ConfigError("each box needs one (lo, hi) pair per axis")
        hit = np.ones(grid.shape, dtype=bool)
        for a, (lo, hi) in enumerate(box):
            if not (0.0 <= lo < hi <= grid.L + 1e-12):
                raise ConfigError("box edges must satisfy 0 <= lo < hi <= L")
            hit &= (nodes[a] >= lo - 1e-12) & (nodes[a] < hi - 1e-12)
        ind |= hit
    if not ind.any():
        raise ConfigError("control region has zero volume")
    return ind.astype(float)


def apply_Ak(y: sp.SpectralField, k_gain: float, mask, mu: float, alpha: float):
    """Damped Stokes operator plus the gain-weighted masked coupling, which
    is an exact zero at k = 0."""
    return mu * sp.stokes(y) + alpha * y + k_gain * sp.masked_leray(mask, y)


# LOBPCG iterations before giving up; 3-d N=12 at k=800 needs ~1400
MAX_ITERATIONS = 4000


def _scrub(field: sp.SpectralField) -> sp.SpectralField:
    """Unit-norm copy of the field's real solenoidal part.

    The coupling is blind to imaginary and to gradient content, so a
    roundoff leak of either kind would otherwise be amplified into a fake
    pure Stokes mode.  The real part is taken in spectral space
    (sp.enforce_real), as the FFT routes of the forward transform take it:
    a physical() round trip would only drop the same anti-Hermitian part of
    the k_d = 0 plane and zero the Nyquist planes.
    """
    g = field.grid
    w = sp.leray(sp.SpectralField(g, sp.enforce_real(field.c.copy(), g)))
    return (1.0 / sp.norm_H(w)) * w


def _rayleigh_ritz(grid, basis, images):
    """Lowest Ritz value on span(basis) and the coefficients of its unit Ritz vector.

    ``basis`` stacks spectra along its first axis and ``images`` holds the
    operator applied to them.  Both Gram matrices come from one
    sp.parseval_dual of the basis and two matmuls.  When the Gram matrix is
    not positive definite the third basis vector is dropped, so the
    coefficients may be one shorter than the basis.
    """
    # real matmuls on float views: at this shape several times faster than complex
    dual = sp.parseval_dual(basis, grid)
    gram_b = dual @ basis.reshape(len(basis), -1).view(float).T
    gram_a = dual @ images.reshape(len(basis), -1).view(float).T
    try:
        chol = np.linalg.cholesky(gram_b)
    except np.linalg.LinAlgError:
        gram_b, gram_a = gram_b[:2, :2], gram_a[:2, :2]
        chol = np.linalg.cholesky(gram_b)
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, gram_a).T)
    vals, vecs = np.linalg.eigh(reduced)
    return float(vals[0]), np.linalg.solve(chol.T, vecs[:, 0])


def smallest_eigenvalue_Ak(
    grid: sp.TorusGrid,
    k_gain: float,
    mask,
    mu: float,
    alpha: float,
    tol: float = 1e-9,
    seed: int = 7,
):
    """Smallest eigenvalue and eigenfield of the masked feedback operator.

    Preconditioned LOBPCG with block size one (Knyazev, SIAM J. Sci. Comput.
    23(2), 2001) on the real solenoidal fields.  Each iteration minimizes
    the Rayleigh quotient over span(x, T r, p): the current field x, its
    residual r preconditioned by T = (mu Stokes + alpha + k mean(m))^{-1} and
    scrubbed back into the real solenoidal sector, and the previous step p.
    The rows [x, w, p], w = T r, are one stacked ``(3, d, N, ..., N/2+1)``
    spectrum and their images a second one; that costs one operator apply
    per iteration, for w.  The Gram matrices of the Rayleigh-Ritz step come
    from one sp.parseval_dual of the rows, and x, p and their images are
    updated as ``coef @ rows``.  Once the residual of x is small, the
    scrubbed, normalized x is checked with a fresh apply, and the search
    returns ``(nu, eigenfield, iterations)`` when that eigen-residual is at
    most ``tol * max(1, nu)`` times the unit field norm.  Raises ConfigError
    for ``tol <= 0`` or ``k_gain < 0`` before iterating, and
    SolverDivergence on a non-positive or non-finite Ritz value, a collapsed
    search space, or after ``MAX_ITERATIONS`` iterations.
    """
    if not tol > 0.0:
        raise ConfigError(f"eigen tolerance must be positive, got {tol}")
    if not k_gain >= 0.0:
        raise ConfigError(f"k_gain must be nonnegative, got {k_gain}")

    def apply_op(c):
        return apply_Ak(sp.SpectralField(grid, c), k_gain, mask, mu, alpha).c

    # k P(m .) at its constant-coefficient part k mean(m) joins the diagonal
    precond = 1.0 / (mu * grid.lap + alpha + k_gain * float(np.mean(mask)))

    base = np.zeros((grid.d,) + grid.shape)
    base[0] = 1.0
    start = sp.SpectralField.from_physical(grid, base) + 0.2 * sp.random_solenoidal(
        grid, seed=seed, decay=1.5
    )
    rows = np.empty((3, grid.d) + grid.half_shape, dtype=complex)    # x, w, p
    images = np.empty_like(rows)
    x, ax = sp.SpectralField(grid, rows[0]), sp.SpectralField(grid, images[0])
    rows[0] = (1.0 / sp.norm_H(start)) * start.c
    images[0] = apply_op(rows[0])
    nu = sp.inner(ax, x)
    size = 2
    for it in range(1, MAX_ITERATIONS + 1):
        r = ax - nu * x
        res = sp.norm_H(r)
        if not (np.isfinite(nu) and nu > 0.0):
            raise SolverDivergence(
                f"feedback operator lost positivity: Ritz value {nu:.6g} at "
                f"LOBPCG iteration {it}, residual {res:.3g}"
            )
        if res <= tol * max(1.0, abs(nu)):
            scrubbed = _scrub(x)
            rows[0] = scrubbed.c
            images[0] = apply_op(rows[0])
            nu = sp.inner(ax, x)
            r = ax - nu * x
            res = sp.norm_H(r)
            if res <= tol * max(1.0, abs(nu)):
                return float(nu), scrubbed, it
        rows[1] = _scrub(sp.SpectralField(grid, r.c * precond)).c
        images[1] = apply_op(rows[1])
        try:
            nu, coef = _rayleigh_ritz(grid, rows[:size], images[:size])
        except np.linalg.LinAlgError:
            raise SolverDivergence(
                f"LOBPCG search space collapsed at iteration {it}: Ritz value "
                f"{nu:.12g}, residual {res:.3g}"
            ) from None
        # new x = coef @ rows and new p the same without x, on the float view
        mix = np.array([coef, np.concatenate(([0.0], coef[1:]))])
        for stack in (rows, images):
            stack[::2] = np.tensordot(mix, stack[: len(coef)].view(float), axes=1).view(complex)
        size = 3
        norm_p = sp.norm_H(sp.SpectralField(grid, rows[2]))
        if norm_p > 0.0:  # a zero step fails the next Cholesky and is dropped
            rows[2] *= 1.0 / norm_p
            images[2] *= 1.0 / norm_p
    raise SolverDivergence(
        f"LOBPCG did not converge in {MAX_ITERATIONS} iterations: last Ritz value "
        f"{nu:.12g}, residual {res:.3g} (tolerance {tol * max(1.0, abs(nu)):.3g})"
    )


def lambda_star_estimate(
    grid: sp.TorusGrid,
    mask,
    k_ladder,
    mu: float,
    alpha: float,
    tol: float = 1e-9,
    seed: int = 7,
):
    """Large-gain limit of the smallest eigenvalue along a gain ladder.

    The eigenvalue approaches its limit like ``limit - c / k``, so a ladder
    of geometrically increasing gains admits Richardson extrapolation in
    ``1 / k``; the last two rungs give the reported estimate.  The ladder of
    eigenvalues must be nondecreasing up to solver tolerance.
    """
    if mask.all():   # on the nodes: comp of a full mask is roundoff above 0 at N = 12
        raise ConfigError("complement empty: the gain limit needs an uncontrolled region")
    comp = grid.L**grid.d - float(mask.sum()) * grid.cell_volume
    ks = [float(k) for k in k_ladder]
    if len(ks) < 4:
        raise ConfigError("gain ladder needs at least four values")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ConfigError("gain ladder must be strictly increasing")
    nus = []
    iters = []
    for k in ks:
        nu, _, it = smallest_eigenvalue_Ak(grid, k, mask, mu=mu, alpha=alpha, tol=tol, seed=seed)
        nus.append(nu)
        iters.append(it)
    arr = np.asarray(nus)
    scale = max(1.0, float(np.max(np.abs(arr))))
    diffs = np.diff(arr)
    if np.any(diffs < -1e4 * tol * scale):
        raise SolverDivergence("eigenvalue ladder decreased; gain solves look unconverged")
    monotone_ok = bool(np.all(diffs >= -100 * tol * scale))
    k1, k2 = ks[-2], ks[-1]
    lam = (k2 * arr[-1] - k1 * arr[-2]) / (k2 - k1)
    lam = max(float(lam), float(arr.max()))
    return {
        "ks": ks,
        "nus": [float(x) for x in arr],
        "iterations": iters,
        "lambda_star": float(lam),
        "nu_max": float(arr.max()),
        "monotone_ok": monotone_ok,
        "complement_volume": float(comp),
    }


# per dimension d: the volume of the unit ball, and the first positive zero
# of the Bessel function J_{d/2-1} (J_{1/2}(x) ~ sin(x) / sqrt(x) at d = 3)
_BALL = {2: (math.pi, 2.404825557695773), 3: (4.0 * math.pi / 3.0, math.pi)}


def rfk_bound(volume: float, d: int) -> float:
    """Faber-Krahn style lower bound from the uncontrolled volume alone.

    Among regions of a given volume the ball minimizes the principal
    eigenvalue, which ties the large-gain limit to the first Bessel zero of
    order d/2 - 1 scaled by the ball of the same volume.
    """
    omega, zero = _BALL[d]
    return (omega / volume) ** (2.0 / d) * zero


def rfk_bound_scaled(volume: float, d: int, mu: float, alpha: float) -> float:
    """Dimensionally consistent companion: mu times the squared zero, plus drag."""
    omega, zero = _BALL[d]
    return mu * zero * zero * (omega / volume) ** (2.0 / d) + alpha


def proportional_decay_constant(nu: float, params: op.PhysicalParams, eps: float = 0.0):
    """Certified decay rate for the proportional loop at eigenvalue level nu.

    Subtracts the slack eps and the absorption rates spent on convection and
    on the sign-indefinite pumping term, op.threshold_split at (1, 2); only
    the supercritical damping range can pay for convection this way.  Raises
    RegimeError when their sum is not finite (a constant beyond the float
    range, as just above r = 3): no eigenvalue then certifies decay.
    """
    if eps < 0.0:
        raise ConfigError("eps must be nonnegative")
    if not params.r > 3:
        raise RegimeError("the proportional decay constant requires r > 3")
    split = op.threshold_split(params, eps=1.0, eps_tilde=2.0)
    if not np.isfinite(sum(split)):
        raise RegimeError(
            f"proportional absorption constants not finite at r={params.r:g}, q={params.q:g}"
        )
    rho_star, rho1, rho2 = split
    delta = float(nu) - float(eps) - rho_star - rho1 - rho2
    return {
        "nu": float(nu),
        "eps": float(eps),
        "rho_star": rho_star,
        "rho1_star": rho1,
        "rho2_star": rho2,
        "delta": delta,
        "positive": bool(delta > 0.0),
    }
