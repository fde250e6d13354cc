"""Spectral representation of periodic incompressible vector fields.

Everything downstream works on truncated Fourier series of d-component real
vector fields on the torus [0, L]^d, d = 2 or 3.  A field is stored as one
complex spectrum per component, normalized so that coefficient c_k multiplies
exp(2*pi*i k.x / L).  With that normalization Parseval reads

    ||u||_{L^2}^2 = L^d * sum_k |c_k|^2.

The Nyquist planes (k_i = -N/2, and k_d = N/2 on the last axis) are always
zeroed, so every stored spectrum corresponds to a real trigonometric
polynomial with modes |k_i| <= N/2 - 1.

Storage is the half spectrum of the last axis, shape (d, N, ..., N/2+1):
the columns k_d = 0 .. N/2, as rfftn returns them.  The other half is
c(-k) = conj c(k) and is never stored, so every diagonal operator, update,
sum and norm touches about half the data.  A forward transform keeps its
half and makes it exactly that of a real field (enforce_real): the k_d = 0
plane, which holds both k and -k, is replaced by its Hermitian part, and the
Nyquist planes are zeroed.  In a Parseval sum over the half the k_d = 0
plane counts once and every other column twice, for itself and its mirror:
inner, the norms and the mode duals (parseval_dual) weigh it that way.  The
full spectrum is rebuilt (full_spectrum) only where one is promised: the
snapshot format (version 1), which stays the full spectrum on disk, and the
mode coefficients a reduction writes out.

sample gives nodal values on any even M^d grid, M above or below N, and
unsample takes nodal values on such a grid back to the stored halves; both
keep the modes |k_i| < K = min(N, M)/2.  At M = N they are one irfftn and
one rfftn.  For every other M they take one of two routes, chosen by K
alone:

- K <= DFT_MAX_K = 16, the DFT-matrix route: one matrix product per axis
  with cached, read-only DFT matrices (_dft_matrices) between the kept rows
  and the M nodes, so the pruned transform (only the kept columns go in,
  only the kept ones come out) runs on BLAS.  The whole stack of fields
  (the leading indices) goes through one product chain: np.matmul
  broadcasts the complex matrices of the leading axes over it, and the last
  axis is one real matrix on the (re, im) pairs of the kept columns of all
  fields, a single dgemm, which sample writes straight into out.  Each
  field's values are bitwise those of its own products, and agree with a
  copy of the kept modes around one irfftn or rfftn to 1e-14 of the
  largest value, not bitwise.
- K > 16, the line-pruned FFT route, one field (leading index) at a time,
  so that its multi-MB temporaries are of one component's size, and one
  axis at a time, each axis resized (zero-padded or cut, _resize_axis)
  just before its inverse transform or just after its forward one, so no
  line of padded zeros is transformed along an earlier axis and no cut
  line along a later one.  Each line that is transformed is the same 1-d
  transform, in the same axis order, that irfftn or rfftn on the whole
  M-grid half spectrum computes, so the results are bitwise those of a
  copy of the kept modes around one irfftn or rfftn.

The rule is the crossover of the two routes, timed on one BLAS thread
(best of three passes of 300 sample + unsample round trips of a d-component
field, 100 for 3-d N >= 24, in microseconds, numpy 2.4 with OpenBLAS 0.3.31
on a shared 2-vCPU AVX-512 x86-64 host), with the stack of fields batched
on the matrix route:

    d    N -> M     K   FFT route        matrix route
    3    8 -> 24     4     231 + 246          62 + 65
    3   16 -> 48     8    1309 + 1232        627 + 555
    3   24 -> 72    12    4733 + 4155       2516 + 2373
    3   32 -> 96    16   13083 + 10131      6863 + 7012
    3   40 -> 120   20   29357 + 22576     26135 + 20553
    2   32 -> 96    16      82 + 100          35 + 43
    2   40 -> 120   20     112 + 127          71 + 82
    2   56 -> 168   28     230 + 255         171 + 183
    2   64 -> 192   32     240 + 250         252 + 272
    2  128 -> 384   64    1060 + 1105       1827 + 1960

The matrix route keeps ahead here up to about K = 28 in 2-d and K = 20 in
3-d; the rule stops at 16, where it still saves a fifth or more, to keep a
margin on hosts whose BLAS is slower against their FFT.

SpectralField.physical and from_physical are sample and unsample at M = N,
oversample and gradient_physical are sample on the (factor*N)^d grid, and
fine_to_coeffs is unsample.  op.span_nodes sizes the M of a state held in a
span from its bandwidth.

sample and oversample can write into a given array (out=), and sum_squares
and norm_Lp_nodal can form |v|^2 in one: op.explicit_term holds one nodal
array and one |v|^2 array for a whole loop, so no step faults fresh zeroed
pages in for its multi-MB fine-grid values.
"""
from __future__ import annotations

import functools
import struct
from itertools import product

import numpy as np

from .errors import ConfigError

TWO_THIRDS = 2.0 / 3.0


class TorusGrid:
    """Uniform N^d collocation grid on [0, L]^d with cached wavenumber arrays.

    Each array is of the stored halves, (..., N, ..., N/2+1): the integer
    wavevectors wave, |k|^2 (k2), the gradient and -Laplacian symbols ik and
    lap, the masks keep (no Nyquist component), its complement nyquist and
    dealias (the 2/3 rule).  leray multiplies wave and 1/|k|^2 into complex
    spectra, where numpy would cast them to complex on every call, so they
    are held complex-typed: wave_c beside wave, and inv_k2 (0 at k = 0)
    only so.
    """

    def __init__(self, d: int, N: int, L: float = 2 * np.pi):
        # each message opens with the argument it rejects, so a caller can name its source
        if d not in (2, 3):
            raise ValueError(f"d={d}: the dimension must be 2 or 3")
        if N < 4 or N % 2:
            raise ValueError(f"N={N}: must be an even integer >= 4")
        if not (L > 0):
            raise ValueError(f"L={L:g}: the period L must be positive")
        # L**d weighs every Parseval sum and (2 pi/L)**2 scales A.  A field whose
        # 2 d N**d stored coefficients have modulus up to 1 must keep a finite
        # norm: beyond that a random initial state normalizes to 0.
        L64 = np.float64(L)
        with np.errstate(over="ignore", under="ignore"):
            if not all(0 < s < np.inf for s in (L64**d * (2 * d * N**d), (2 * np.pi / L64) ** 2)):
                raise ValueError(f"L={L:g}: the period L puts the Parseval weight L**d or "
                                 "(2 pi/L)**2 out of float range")
        self.d = int(d)
        self.N = int(N)
        self.L = float(L)
        k1 = np.fft.fftfreq(N, 1.0 / N).astype(np.int64)
        mesh = np.meshgrid(*([k1] * (d - 1)), np.arange(N // 2 + 1), indexing="ij")
        self.wave = np.stack(mesh)                     # (d, N, ..., N/2+1) integer wavevectors
        self.ik = (2j * np.pi / self.L) * self.wave    # symbol of the gradient
        self.k2 = np.sum(self.wave**2, axis=0)         # |k|^2, integer
        self.lap = (2 * np.pi / L) ** 2 * self.k2      # -Laplacian symbol
        self.keep = np.all(np.abs(self.wave) != N // 2, axis=0)
        self.nyquist = ~self.keep
        # 2/3 rule, strict: kept |k_i| < N/3 so quadratic aliases fall outside
        kmax_dealias = (N - 1) // 3
        self.dealias = np.all(np.abs(self.wave) <= kmax_dealias, axis=0) & self.keep
        self.wave_c = self.wave.astype(complex)
        inv = np.zeros(self.k2.shape, dtype=complex)
        nz = self.k2 > 0
        inv[nz] = 1.0 / self.k2[nz]
        self.inv_k2 = inv
        # index maps k -> -k: over the leading d-1 axes, and from the stored
        # half k_d = 1 .. N/2-1 of the last axis onto k_d = N/2+1 .. N-1
        neg = [(-np.arange(N)) % N] * (d - 1)
        self.flip_lead = np.ix_(*neg)
        self.mirror = np.ix_(*neg, np.arange(N // 2 - 1, 0, -1))

    @property
    def shape(self):
        """Nodal shape (N, ..., N)."""
        return (self.N,) * self.d

    @property
    def half_shape(self):
        """Shape (N, ..., N/2+1) of one stored spectrum component."""
        return (self.N,) * (self.d - 1) + (self.N // 2 + 1,)

    @property
    def cell_volume(self):
        return (self.L / self.N) ** self.d

    def nodes(self):
        x1 = np.arange(self.N) * (self.L / self.N)
        return np.stack(np.meshgrid(*([x1] * self.d), indexing="ij"))

    def __eq__(self, other):
        return (
            isinstance(other, TorusGrid)
            and self.d == other.d
            and self.N == other.N
            and self.L == other.L
        )

    def __repr__(self):
        return f"TorusGrid(d={self.d}, N={self.N}, L={self.L})"


class SpectralField:
    """A truncated d-component Fourier series on a TorusGrid (last-axis half stored)."""

    __slots__ = ("grid", "c")

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        self.grid = grid
        self.c = coeffs

    @classmethod
    def from_physical(cls, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.d,) + grid.shape:
            raise ValueError(f"expected shape {(grid.d,) + grid.shape}, got {values.shape}")
        return cls(grid, unsample(values, grid))

    @classmethod
    def zero(cls, grid: TorusGrid):
        return cls(grid, np.zeros((grid.d,) + grid.half_shape, dtype=complex))

    def physical(self) -> np.ndarray:
        return sample(self.c, self.grid, self.grid.N)

    def copy(self):
        return SpectralField(self.grid, self.c.copy())

    def __add__(self, other):
        return SpectralField(self.grid, self.c + other.c)

    def __sub__(self, other):
        return SpectralField(self.grid, self.c - other.c)

    def __mul__(self, a):
        return SpectralField(self.grid, self.c * a)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.c)


class EigenMode:
    """One orthonormal eigenfield of I - Laplacian on divergence-free fields."""

    __slots__ = ("field", "eigenvalue", "shell", "wavevector", "phase", "axis")

    def __init__(self, field, eigenvalue, shell, wavevector, phase, axis):
        self.field = field
        self.eigenvalue = float(eigenvalue)
        self.shell = int(shell)
        self.wavevector = tuple(int(k) for k in wavevector)
        self.phase = phase
        self.axis = int(axis)

    def __repr__(self):
        return (
            f"EigenMode(k={self.wavevector}, {self.phase}, axis={self.axis}, "
            f"lam={self.eigenvalue:g})"
        )


# ---------------------------------------------------------------------------
# inner products and norms


# Parseval over the stored half: the k_d = 0 plane counts once and every
# other column twice, for k and its mirror -k.  _pairing sums that way with
# two dot products; parseval_dual puts the same weights into its rows.


def _pairing(x: np.ndarray, y: np.ndarray, grid: TorusGrid) -> float:
    """L^d Re sum_k conj(x_k) y_k over the full spectrum, from stored halves."""
    total = np.vdot(x, y).real
    plane = np.vdot(x[..., 0], y[..., 0]).real
    return float(grid.L**grid.d * (2.0 * total - plane))


def parseval_dual(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Rows whose real dot products with the float view of a flattened stored
    spectrum x are the inner products (x, w_k); coeffs stacks the spectra w_k.

    Re(conj(w) x) = w.real x.real + w.imag x.imag, so a row is the
    Parseval-weighted w_k itself, flattened and viewed as floats, two per
    complex number: an (n, 2X) float array."""
    dual = coeffs * (2.0 * grid.L**grid.d)
    dual[..., 0] *= 0.5
    return dual.reshape(len(coeffs), -1).view(float)


def inner(a: SpectralField, b: SpectralField) -> float:
    """L^2 inner product (a, b) via Parseval."""
    return _pairing(b.c, a.c, a.grid)


def norm_H(a: SpectralField) -> float:
    return float(np.sqrt(_pairing(a.c, a.c, a.grid)))


def norm_grad(a: SpectralField) -> float:
    return float(np.sqrt(_pairing(a.c, a.c * a.grid.lap, a.grid)))


def norm_V(a: SpectralField) -> float:
    return float(np.hypot(norm_H(a), norm_grad(a)))


def oversample_factor(p: float) -> int:
    """Zero-padding factor for p-th power integrands (capped at 4)."""
    return max(1, min(int(np.ceil((p + 1) / 2)), 4))


def norm_factor(p: float) -> int:
    """Oversampling factor of norm_Lp.

    For even integer p, |a|^p is a trigonometric polynomial with modes
    |k_i| <= p (N/2 - 1) < (p/2) N, so the rectangle rule on the factor-p/2
    grid integrates it exactly; that factor is used up to the cap of
    oversample_factor.  Every other p uses oversample_factor(p).
    """
    if p > 0 and p % 2 == 0:
        return min(int(p) // 2, oversample_factor(p))
    return oversample_factor(p)


def sum_squares(vals: np.ndarray, out=None) -> np.ndarray:
    """|v|^2 over the leading (component) axis, one component at a time:
    bitwise np.sum(vals**2, axis=0) without its (d, M, ..., M) temporary;
    written into out when it is given."""
    out = np.square(vals[0], out=out)
    for comp in vals[1:]:
        out += np.square(comp)
    return out


def norm_Lp_nodal(vals: np.ndarray, grid: TorusGrid, p: float, mag2=None) -> float:
    """L^p norm by rectangle rule from nodal values on any (M, ..., M) grid;
    |v|^2 is formed in mag2, a float array of one component's shape, when it
    is given."""
    M = vals.shape[-1]
    mag2 = sum_squares(vals, out=mag2)
    # a small integer p/2: repeated products, about twice as fast as the
    # generic pow; past 4 their count grows with p, and pow's does not
    half = p / 2.0
    if half in (1.0, 2.0, 3.0, 4.0):
        powed = mag2.copy()
        for _ in range(int(half) - 1):
            powed *= mag2
    else:
        powed = np.power(mag2, half, out=mag2)
    integral = np.sum(powed) * (grid.L / M) ** grid.d
    return float(integral ** (1.0 / p))


def norm_Lp(a: SpectralField, p: float) -> float:
    """L^p norm by rectangle rule on the factor-norm_factor(p) nodal grid.

    op.explicit_term, holding the nodal values on the damping grid, passes them
    to norm_Lp_nodal instead when norm_factor(r + 1) is its factor.
    """
    return norm_Lp_nodal(oversample(a, norm_factor(p)), a.grid, p)


def divergence_max(a: SpectralField) -> float:
    """max_k |k . c_k| (integer wavevectors), zero for solenoidal fields."""
    dot = np.sum(a.grid.wave * a.c, axis=0)
    return float(np.max(np.abs(dot)))


# ---------------------------------------------------------------------------
# linear operators (diagonal in Fourier space)


def leray(a: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: c_k -> c_k - k (k.c_k)/|k|^2."""
    g = a.grid
    dot = g.wave_c[0] * a.c[0]      # k.c one component at a time, then scaled, in place
    for k, comp in zip(g.wave_c[1:], a.c[1:]):
        dot += k * comp
    dot *= g.inv_k2
    out = np.multiply(g.wave_c, dot)  # the one array of the result
    return SpectralField(g, np.subtract(a.c, out, out=out))


def as_mask(mask, grid: TorusGrid) -> np.ndarray:
    """A control-region mask as a float array of nodal values on the grid."""
    m = np.asarray(mask, dtype=float)
    if m.shape != grid.shape:
        raise ConfigError(f"mask shape {m.shape} does not match the grid {grid.shape}")
    return m


def masked_leray(mask: np.ndarray, field: SpectralField) -> SpectralField:
    """Leray projection of a field multiplied pointwise by a scalar mask of
    nodal values on its grid."""
    return leray(SpectralField.from_physical(field.grid, mask * field.physical()))


def stokes(a: SpectralField) -> SpectralField:
    """Apply A = -Laplacian."""
    return SpectralField(a.grid, a.c * a.grid.lap)


def gradient_physical(a: SpectralField, factor: int = 1) -> np.ndarray:
    """Nodal values of all partials on the (factor*N)^d grid: out[i, j] = d u_j / d x_i.

    The spectra of the partials go through sample, as oversample's do.
    """
    g = a.grid
    return sample(g.ik[:, None] * a.c[None], g, factor * g.N)


# ---------------------------------------------------------------------------
# real transforms and zero-padded oversampling
#
# Nodal values are real, so their spectra are Hermitian and every transform
# works on the half spectrum k_d = 0 .. M/2 of the last axis of an M^d grid.
# norm="forward" puts the 1/M^d on the forward transform, which is the
# normalization of the stored coefficients.


def enforce_real(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Make coarse last-axis halves exactly those of real fields, in place.

    The k_d = 0 plane holds both k and -k, so it is replaced by its
    Hermitian part 0.5 (c(k) + conj c(-k)); the Nyquist planes are zeroed.
    The columns k_d > 0 stand for their mirrors too and are left as they are.
    """
    plane = half[..., 0]
    half[..., 0] = 0.5 * (plane + np.conj(plane[(Ellipsis,) + grid.flip_lead]))
    np.copyto(half, 0, where=grid.nyquist)
    return half


def full_spectrum(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Full spectra (..., N, ..., N) from stored halves (..., N, ..., N/2+1).

    The columns k_d = N/2+1 .. N-1 are rebuilt from c(-k) = conj c(k).
    """
    h = grid.N // 2 + 1
    full = np.empty(half.shape[:-1] + (grid.N,), dtype=complex)
    full[..., :h] = half
    full[..., h:] = np.conj(half[(Ellipsis,) + grid.mirror])
    return full


def _keep_half(full: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The stored half (a contiguous copy) of full spectra built in the full layout."""
    return full[..., : grid.N // 2 + 1].copy()


def _resize_axis(x: np.ndarray, axis: int, M: int) -> np.ndarray:
    """x with `axis` (a negative index, n rows in FFT order) padded or cut to
    M rows: the rows |k| < min(n, M)/2 are copied, the others are zero."""
    n = x.shape[axis]
    K = min(n, M) // 2
    shape = list(x.shape)
    shape[axis] = M
    out = np.zeros(shape, dtype=complex)
    lead = (slice(None),) * (x.ndim + axis)
    out[lead + (slice(0, K),)] = x[lead + (slice(0, K),)]
    out[lead + (slice(M - K + 1, M),)] = x[lead + (slice(n - K + 1, n),)]
    return out


# The largest K = min(N, M)/2 at which sample and unsample take the DFT-matrix
# route; beyond it the FFT route is faster (the crossover in the module text).
DFT_MAX_K = 16


@functools.lru_cache(maxsize=16)
def _dft_matrices(N: int, M: int):
    """Read-only DFT matrices between the kept rows |k| < K = min(N, M)/2 of
    an N-row axis (in FFT order) and M nodes, normalized as the transforms:

    E (M, N), complex: the inverse along a leading axis, nodes from rows;
    F (N, M), complex: the forward one, rows from nodes, with its 1/M;
    R (2K, M), real: the inverse along the last axis, nodes from the (re, im)
        pairs of the columns k = 0 .. K-1, each k > 0 weighed twice for its
        mirror and the imaginary part of k = 0 dropped, as irfft does;
    Rf (M, 2K), real: the forward one, those pairs from nodes, with its 1/M.

    The columns of E and the rows of F of the rows that are not kept are
    zero, so each product pads or cuts the axis too.  Each phase is reduced
    to (j k) mod M before it is scaled, which keeps it exact in the integers.
    """
    K = min(N, M) // 2
    k = np.fft.fftfreq(N, 1.0 / N).astype(np.int64)
    nodes = np.arange(M)
    phase = (2 * np.pi / M) * ((nodes[:, None] * k) % M)
    kept = np.abs(k) < K
    E = np.where(kept, np.exp(1j * phase), 0)
    F = np.where(kept[:, None], np.exp(-1j * phase.T) / M, 0)
    cols = (2 * np.pi / M) * ((np.arange(K)[:, None] * nodes) % M)
    weight = np.where(np.arange(K) == 0, 1.0, 2.0)[:, None]
    R = np.empty((2 * K, M))
    R[0::2] = weight * np.cos(cols)
    R[1::2] = -weight * np.sin(cols)
    Rf = np.empty((M, 2 * K))
    Rf[:, 0::2] = np.cos(cols).T / M
    Rf[:, 1::2] = -np.sin(cols).T / M
    for matrix in (E, F, R, Rf):
        matrix.flags.writeable = False
    return E, F, R, Rf


def _sample_dft(x: np.ndarray, d: int, N: int, M: int, out: np.ndarray) -> None:
    """The nodal values of a stack of fields into out, lead + (M, ..., M),
    from their columns k_d < K, lead + (N, ..., N, K): one DFT-matrix
    product per axis over the whole stack.  np.matmul runs the same complex
    gemm on each field's slice as on the field alone, and the last axis is
    one dgemm over the rows of all fields, so the values are bitwise those
    of each field sampled by itself."""
    K = x.shape[-1]
    E, _, R, _ = _dft_matrices(N, M)
    if d == 3:
        x = (E @ x.reshape(-1, N, N * K)).reshape(x.shape[:-3] + (M, N, K))
    x = np.matmul(E, x)
    np.matmul(x.view(float).reshape(-1, 2 * K), R, out=out.reshape(-1, M))


def _sample_fft(x: np.ndarray, N: int, M: int, out: np.ndarray) -> None:
    """One field's _sample_dft by the line-pruned FFTs: the leading axes in
    irfftn's order, each resized to M rows just before its ifft, the last of
    them written into its columns of a zeroed (M, ..., M/2+1) spectrum, so
    one length-M irfft along the last axis reads whole lines."""
    K = x.shape[-1]
    for axis in range(-x.ndim, -2):
        x = np.fft.ifft(_resize_axis(x, axis, M), axis=axis, norm="forward")
    spec = np.zeros(x.shape[:-2] + (M, M // 2 + 1), dtype=complex)
    np.fft.ifft(_resize_axis(x, -2, M), axis=-2, norm="forward", out=spec[..., :K])
    np.fft.irfft(spec, n=M, axis=-1, norm="forward", out=out)


def _unsample_dft(vals: np.ndarray, d: int, N: int, K: int) -> np.ndarray:
    """The columns k_d < K, lead + (N, ..., N, K), of a stack of fields from
    their nodal values, lead + (M, ..., M): one DFT-matrix product per axis
    over the whole stack, bitwise each field's by itself, as in _sample_dft."""
    M = vals.shape[-1]
    _, F, _, Rf = _dft_matrices(N, M)
    x = (vals.reshape(-1, M) @ Rf).view(complex).reshape(vals.shape[:-1] + (K,))
    x = np.matmul(F, x)
    if d == 3:
        x = (F @ x.reshape(-1, M, N * K)).reshape(x.shape[:-3] + (N, N, K))
    return x


def _unsample_fft(vals: np.ndarray, N: int, K: int) -> np.ndarray:
    """One field's _unsample_dft by the line-pruned FFTs: an rfft along the
    last axis keeps the columns k_d < K, and the leading axes follow in
    rfftn's order, each resized to N rows just after its fft."""
    x = np.fft.rfft(vals, axis=-1, norm="forward")[..., :K]
    for axis in range(-2, -vals.ndim - 1, -1):
        x = _resize_axis(np.fft.fft(x, axis=axis, norm="forward"), axis, N)
    return x


def oversample(a: SpectralField, factor: int, out: np.ndarray | None = None) -> np.ndarray:
    """Nodal values on the refined (factor*N)^d grid (exact interpolation):
    sample at M = factor*N, into out when it is given."""
    return sample(a.c, a.grid, factor * a.grid.N, out)


def sample(half: np.ndarray, g: TorusGrid, M: int, out=None) -> np.ndarray:
    """Nodal values on the M^d grid (M even, >= 4) of the spectra whose stored
    halves on g are given, keeping their modes |k_i| < K = min(N, M)/2.

    When out, a C-contiguous float array of shape (..., M, ..., M), is
    given, the values are written into it and it is returned.  At M = N
    this is one irfftn.  Otherwise only the columns k_d < K enter: through
    DFT-matrix products over the whole stack of fields for K <= DFT_MAX_K,
    whose values agree with irfftn on the kept modes copied into a zeroed
    M-grid half spectrum to 1e-14 of their largest, and through line-pruned
    FFTs one field at a time beyond, whose values are bitwise those of that
    irfftn.  Both are exact when the spectra have no mode at |k_i| >= M/2.
    """
    if M == g.N:
        # irfftn (and rfftn in unsample), not the DFT-matrix route, although
        # that samples six 16^3 fields in about two thirds of irfftn's time: its
        # roundoff differs, and galerkin.assemble_reduction's images
        # masked_leray(m, w_j) at 2-d N = 32 go through here.  On that route
        # Bmat moves by 4.4e-16 (Lmat not at all), and M_hat, the condition
        # number of the eigenvectors of Lmat - Bmat G, jumps from 1.0 to 1.695:
        # that spectrum repeats eigenvalues, where M_hat is not continuous.
        axes = tuple(range(half.ndim - g.d, half.ndim))
        return np.fft.irfftn(half, s=g.shape, axes=axes, norm="forward", out=out)
    K = min(g.N, M) // 2
    lead = half.shape[: -g.d]
    if out is None:
        out = np.empty(lead + (M,) * g.d)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if K <= DFT_MAX_K:
        _sample_dft(half[..., :K], g.d, g.N, M, out)
    else:
        for i in np.ndindex(lead):
            _sample_fft(half[i][..., :K], g.N, M, out[i])
    return out


def unsample(vals: np.ndarray, g: TorusGrid) -> np.ndarray:
    """Stored halves on g of real nodal values on any even M^d grid: the
    inverse of sample, keeping the modes |k_i| < K = min(N, M)/2, made those
    of real fields (enforce_real).

    At M = N this is one rfftn.  Otherwise only the columns k_d < K are
    formed: through DFT-matrix products over the whole stack of fields for
    K <= DFT_MAX_K, whose coefficients agree with rfftn on the whole grid
    followed by a copy of the kept modes to 1e-14 of their largest, and
    through line-pruned FFTs one field at a time beyond, where the cut lines
    never feed a kept one and the coefficients are bitwise those of that
    rfftn and copy.
    They are exact when the values are of a trigonometric polynomial of
    degree D per axis and M > D + min(D, N/2 - 1): a mode aliases onto k
    only from k + jM, j != 0.
    """
    M = vals.shape[-1]
    if M == g.N:
        axes = tuple(range(vals.ndim - g.d, vals.ndim))
        return enforce_real(np.fft.rfftn(vals, axes=axes, norm="forward"), g)
    K = min(g.N, M) // 2
    lead = vals.shape[: -g.d]
    half = np.zeros(lead + g.half_shape, dtype=complex)
    if K <= DFT_MAX_K:
        half[..., :K] = _unsample_dft(vals, g.d, g.N, K)
    else:
        for i in np.ndindex(lead):
            half[i][..., :K] = _unsample_fft(vals[i], g.N, K)
    return enforce_real(half, g)


def fine_to_coeffs(vals: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Stored halves of nodal values on a fine grid, truncated to the coarse
    modes: unsample, which reads the fine grid from the values."""
    return unsample(vals, grid)


# ---------------------------------------------------------------------------
# eigenbasis of I + A on divergence-free fields


def _polarizations(k: np.ndarray, d: int):
    khat = k / np.linalg.norm(k)
    first = None
    for j in range(d):
        cand = np.eye(d)[j] - np.dot(np.eye(d)[j], khat) * khat
        n = np.linalg.norm(cand)
        if n > 1e-10:
            first = cand / n
            break
    if d == 2:
        return [first]
    return [first, np.cross(khat, first)]


def _canonical(k):
    for ki in k:
        if ki != 0:
            return ki > 0
    return False


def eigenbasis(grid: TorusGrid, n: int):
    """First n orthonormal eigenmodes of I + A, deterministically ordered.

    Ordering: by shell |k|^2, then wavevector (lexicographic over canonical
    representatives, first nonzero component positive), then phase
    (cosine before sine), then polarization index.  Shell zero supplies the
    d constant modes.
    """
    d, N, L = grid.d, grid.N, grid.L
    kmax = N // 2 - 1
    modes = []
    for axis in range(d):
        c = np.zeros((d,) + grid.shape, dtype=complex)
        c[axis][(0,) * d] = L ** (-d / 2.0)
        field = SpectralField(grid, _keep_half(c, grid))
        modes.append(EigenMode(field, 1.0, 0, (0,) * d, "constant", axis))
    if n <= d:
        return modes[:n]

    reps = [
        k
        for k in product(range(-kmax, kmax + 1), repeat=d)
        if _canonical(k) and sum(ki**2 for ki in k) > 0
    ]
    reps.sort(key=lambda k: (sum(ki**2 for ki in k), k))
    amp = np.sqrt(2.0 / L**d)
    for k in reps:
        if len(modes) >= n:
            break
        shell = sum(ki**2 for ki in k)
        lam = 1.0 + (2 * np.pi / L) ** 2 * shell
        pols = _polarizations(np.array(k, dtype=float), d)
        pos = tuple(ki % N for ki in k)
        neg = tuple((-ki) % N for ki in k)
        for phase in ("cosine", "sine"):
            for axis, p in enumerate(pols):
                c = np.zeros((d,) + grid.shape, dtype=complex)
                if phase == "cosine":
                    for comp in range(d):
                        c[comp][pos] = 0.5 * amp * p[comp]
                        c[comp][neg] = 0.5 * amp * p[comp]
                else:
                    for comp in range(d):
                        c[comp][pos] = -0.5j * amp * p[comp]
                        c[comp][neg] = +0.5j * amp * p[comp]
                field = SpectralField(grid, _keep_half(c, grid))
                modes.append(EigenMode(field, lam, shell, k, phase, axis))
    if len(modes) < n:
        raise ValueError(f"grid supports only {len(modes)} modes, requested {n}")
    return modes[:n]


# ---------------------------------------------------------------------------
# random fields (counter-based generator, reproducible)


def random_field(grid: TorusGrid, seed: int, decay: float = 2.0) -> SpectralField:
    """Random real field with spectrum scaled by (1 + |k|^2)^(-decay/2).

    The draw and its symmetrization run on the full spectrum, then the half
    is kept.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    shape = (grid.d,) + grid.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k1 = np.fft.fftfreq(grid.N, 1.0 / grid.N).astype(np.int64)
    k2 = sum(np.meshgrid(*([k1**2] * grid.d), indexing="ij"))
    c *= (1.0 + k2) ** (-decay / 2.0)
    idx = (-np.arange(grid.N)) % grid.N
    flipped = c
    for ax in range(1, grid.d + 1):
        flipped = np.take(flipped, idx, axis=ax)
    c = 0.5 * (c + np.conj(flipped))
    return SpectralField(grid, _keep_half(c, grid) * grid.keep)


def random_solenoidal(grid: TorusGrid, seed: int, decay: float = 2.0) -> SpectralField:
    """Divergence-free unit-H-norm random field, deterministic per seed; a draw
    of zero or non-finite norm (an overflowing decay) is a ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = leray(random_field(grid, seed, decay))
        nrm = norm_H(f)
    if not 0 < nrm < np.inf:
        raise ValueError("degenerate random draw")
    return (1.0 / nrm) * f


# ---------------------------------------------------------------------------
# snapshot file format
#
# header (32 bytes, little-endian): magic "CBFD", version u32, d u32, N u32,
# L f64, mode count u64; payload: the full spectrum, fftshifted so that each
# wavevector axis runs k = -N/2 .. N/2-1, with the velocity component as the
# last axis, in C order as little-endian complex128, i.e. (re, im) f64 pairs.
# write_snapshot rebuilds the full spectrum from the stored half, and
# read_snapshot keeps the half of what it reads.

_HEADER = struct.Struct("<4sIIIdQ")
SNAPSHOT_VERSION = 1


def write_snapshot(field: SpectralField, path) -> None:
    g = field.grid
    axes = tuple(range(1, g.d + 1))
    arr = np.moveaxis(np.fft.fftshift(full_spectrum(field.c, g), axes=axes), 0, -1)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"CBFD", SNAPSHOT_VERSION, g.d, g.N, g.L, g.N**g.d))
        fh.write(arr.astype("<c16").tobytes())


def read_snapshot(path) -> SpectralField:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("snapshot too short")
        magic, version, d, N, L, count = _HEADER.unpack(head)
        if magic != b"CBFD":
            raise ValueError("bad magic, not a field snapshot")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        grid = TorusGrid(d=d, N=N, L=L)
        if count != N**d:
            raise ValueError("inconsistent mode count")
        payload = fh.read()
    if len(payload) != count * d * 16:
        raise ValueError("truncated snapshot payload")
    arr = np.frombuffer(payload, dtype="<c16").reshape((N,) * d + (d,))
    c = np.fft.ifftshift(np.moveaxis(arr, -1, 0), axes=tuple(range(1, d + 1)))
    return SpectralField(grid, _keep_half(c, grid))
