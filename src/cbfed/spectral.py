"""Spectral representation of periodic incompressible vector fields.

Everything downstream works on truncated Fourier series of d-component real
vector fields on the torus [0, L]^d, d = 2 or 3.  A field is stored as one
complex spectrum per component, normalized so that coefficient c_k multiplies
exp(2*pi*i k.x / L).  With that normalization Parseval reads

    ||u||_{L^2}^2 = L^d * sum_k |c_k|^2.

The Nyquist planes (k_i = -N/2) are always zeroed, so every stored spectrum
corresponds to a real trigonometric polynomial with modes |k_i| <= N/2 - 1.

Storage is the full spectrum, shape (d, N, ..., N), and the snapshot format
(version 1) is unchanged, but the transforms to and from nodal values are
real: they read or produce only the half spectrum k_d >= 0 of the last axis.
A forward transform rebuilds the other half from c(-k) = conj c(k), so the
spectra it returns are exactly Hermitian.

The zero-padded transforms to and from the refined (factor*N)^d grids
(oversample, fine_to_coeffs) run one axis at a time and transform only the
lines that can be nonzero (inverse) or that are kept (forward).  Each line
is the same 1-d transform, in the same axis order, that irfftn/rfftn on the
fully padded array would compute, so the results are bitwise the same
without the all-zero or discarded lines.
"""
from __future__ import annotations

import struct
from itertools import product

import numpy as np

TWO_THIRDS = 2.0 / 3.0


class TorusGrid:
    """Uniform N^d collocation grid on [0, L]^d with cached wavenumber arrays."""

    def __init__(self, d: int, N: int, L: float = 2 * np.pi):
        if d not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if N < 4 or N % 2:
            raise ValueError("N must be an even integer >= 4")
        if not (L > 0):
            raise ValueError("period L must be positive")
        self.d = int(d)
        self.N = int(N)
        self.L = float(L)
        k1 = np.fft.fftfreq(N, 1.0 / N).astype(np.int64)
        mesh = np.meshgrid(*([k1] * d), indexing="ij")
        self.wave = np.stack(mesh)                     # (d, N, ..., N) integer wavevectors
        self.k2 = np.sum(self.wave**2, axis=0)         # |k|^2, integer
        self.lap = (2 * np.pi / L) ** 2 * self.k2      # -Laplacian symbol
        self.keep = np.all(self.wave != -N // 2, axis=0)
        # 2/3 rule, strict: kept |k_i| < N/3 so quadratic aliases fall outside
        kmax_dealias = (N - 1) // 3
        self.dealias = np.all(np.abs(self.wave) <= kmax_dealias, axis=0) & self.keep
        inv = np.zeros_like(self.lap)
        nz = self.k2 > 0
        inv[nz] = 1.0 / self.k2[nz]
        self.inv_k2 = inv
        # index maps k -> -k: over the leading d-1 axes, and from the kept
        # half k_d = 1 .. N/2-1 of the last axis onto k_d = N/2+1 .. N-1
        neg = [(-np.arange(N)) % N] * (d - 1)
        self.flip_lead = np.ix_(*neg)
        self.mirror = np.ix_(*neg, np.arange(N // 2 - 1, 0, -1))

    @property
    def shape(self):
        return (self.N,) * self.d

    @property
    def cell_volume(self):
        return (self.L / self.N) ** self.d

    def nodes(self):
        x1 = np.arange(self.N) * (self.L / self.N)
        return np.stack(np.meshgrid(*([x1] * self.d), indexing="ij"))

    def axes(self):
        return tuple(range(1, self.d + 1))

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
    """A truncated d-component Fourier series on a TorusGrid."""

    __slots__ = ("grid", "c")

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        self.grid = grid
        self.c = coeffs

    @classmethod
    def from_physical(cls, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.d,) + grid.shape:
            raise ValueError(f"expected shape {(grid.d,) + grid.shape}, got {values.shape}")
        return cls(grid, _full_spectrum(_rfft(values, grid.d), grid))

    @classmethod
    def zero(cls, grid: TorusGrid):
        return cls(grid, np.zeros((grid.d,) + grid.shape, dtype=complex))

    def physical(self) -> np.ndarray:
        g = self.grid
        return _irfft(self.c[..., : g.N // 2 + 1], g.shape)

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


def inner(a: SpectralField, b: SpectralField) -> float:
    """L^2 inner product (a, b) via Parseval."""
    return float(a.grid.L**a.grid.d * np.real(np.vdot(b.c, a.c)))


def norm_H(a: SpectralField) -> float:
    return float(np.sqrt(a.grid.L**a.grid.d * np.sum(np.abs(a.c) ** 2)))


def norm_grad(a: SpectralField) -> float:
    w = a.grid.lap * np.sum(np.abs(a.c) ** 2, axis=0)
    return float(np.sqrt(a.grid.L**a.grid.d * np.sum(w)))


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


def norm_Lp_nodal(vals: np.ndarray, grid: TorusGrid, p: float) -> float:
    """L^p norm by rectangle rule from nodal values on any (M, ..., M) grid."""
    M = vals.shape[-1]
    mag2 = np.sum(vals**2, axis=0)
    integral = np.sum(mag2 ** (p / 2.0)) * (grid.L / M) ** grid.d
    return float(integral ** (1.0 / p))


def norm_Lp(a: SpectralField, p: float) -> float:
    """L^p norm by rectangle rule on the factor-norm_factor(p) nodal grid.

    A caller that already holds the nodal values of `a` on that grid (the
    time stepper's C_r grid when norm_factor(r + 1) == oversample_factor(r))
    passes them to norm_Lp_nodal instead of transforming again.
    """
    return norm_Lp_nodal(oversample(a, norm_factor(p)), a.grid, p)


def divergence_max(a: SpectralField) -> float:
    """max_k |k . c_k| (integer wavevectors), zero for solenoidal fields."""
    dot = np.sum(a.grid.wave * a.c, axis=0)
    return float(np.max(np.abs(dot)))


def reality_defect(a: SpectralField) -> float:
    """Largest imaginary residue of the inverse transform."""
    vals = np.fft.ifftn(a.c, axes=a.grid.axes()) * a.grid.N**a.grid.d
    return float(np.max(np.abs(vals.imag)))


# ---------------------------------------------------------------------------
# linear operators (diagonal in Fourier space)


def leray(a: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: c_k -> c_k - k (k.c_k)/|k|^2."""
    g = a.grid
    dot = np.sum(g.wave * a.c, axis=0)
    return SpectralField(g, a.c - g.wave * (dot * g.inv_k2))


def masked_leray(grid: TorusGrid, mask: np.ndarray, values: np.ndarray) -> SpectralField:
    """Leray projection of nodal values multiplied pointwise by a scalar mask."""
    return leray(SpectralField.from_physical(grid, mask * values))


def stokes(a: SpectralField) -> SpectralField:
    """Apply A = -Laplacian."""
    return SpectralField(a.grid, a.c * a.grid.lap)


def stokes_shifted(a: SpectralField) -> SpectralField:
    """Apply I + A (spectrum 1 + 4 pi^2 |k|^2 / L^2)."""
    return SpectralField(a.grid, a.c * (1.0 + a.grid.lap))


def resolvent(a: SpectralField, lam: float) -> SpectralField:
    """Apply (I + lam A)^{-1}; a contraction for lam >= 0."""
    return SpectralField(a.grid, a.c / (1.0 + lam * a.grid.lap))


def gradient_physical(a: SpectralField) -> np.ndarray:
    """Nodal values of all partials: out[i, j] = d u_j / d x_i."""
    g = a.grid
    h = g.N // 2 + 1
    ik = (2j * np.pi / g.L) * g.wave[..., :h]
    return _irfft(ik[:, None] * a.c[None, ..., :h], g.shape)


# ---------------------------------------------------------------------------
# real transforms and zero-padded oversampling
#
# Nodal values are real, so their spectra are Hermitian and every transform
# works on the half spectrum k_d = 0 .. M/2 of the last axis of an M^d grid.
# norm="forward" puts the 1/M^d on the forward transform, which is the
# normalization of the stored coefficients.


def _rfft(vals: np.ndarray, d: int) -> np.ndarray:
    """Half spectra of real nodal values over their last d axes."""
    return np.fft.rfftn(vals, axes=tuple(range(vals.ndim - d, vals.ndim)), norm="forward")


def _irfft(half: np.ndarray, shape) -> np.ndarray:
    """Real nodal values of Hermitian spectra given by their last-axis halves."""
    n = len(shape)
    axes = tuple(range(half.ndim - n, half.ndim))
    return np.fft.irfftn(half, s=shape, axes=axes, norm="forward")


def _full_spectrum(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Full coarse spectra from last-axis halves, with the Nyquist planes zeroed.

    The missing half is rebuilt from c(-k) = conj c(k), and the k_d = 0
    plane, which the half holds whole, is symmetrized the same way, so the
    result is exactly Hermitian.
    """
    h = grid.N // 2 + 1
    full = np.empty(half.shape[:-1] + (grid.N,), dtype=complex)
    full[..., :h] = half
    full[..., h:] = np.conj(half[(Ellipsis,) + grid.mirror])
    plane = full[..., 0]
    full[..., 0] = 0.5 * (plane + np.conj(plane[(Ellipsis,) + grid.flip_lead]))
    full *= grid.keep
    return full


def _block_pairs(N: int, M: int):
    # (coarse slab, fine slab) index pairs for spectrum embedding
    return [
        (slice(0, N // 2), slice(0, N // 2)),
        (slice(N // 2, N), slice(M - N // 2, M)),
    ]


def pad_coeffs(c: np.ndarray, grid: TorusGrid, M: int) -> np.ndarray:
    """Embed coarse spectra (leading component axis) into an M^d spectrum."""
    N, d = grid.N, grid.d
    out = np.zeros(c.shape[:-d] + (M,) * d, dtype=complex)
    for corner in product(range(2), repeat=d):
        src = tuple(_block_pairs(N, M)[i][0] for i in corner)
        dst = tuple(_block_pairs(N, M)[i][1] for i in corner)
        out[(Ellipsis,) + dst] = c[(Ellipsis,) + src]
    return out


def _pad_axis(x: np.ndarray, axis: int, M: int) -> np.ndarray:
    """Embed the coarse rows of `axis` (a negative index) into M padded rows."""
    shape = list(x.shape)
    shape[axis] = M
    out = np.zeros(shape, dtype=complex)
    lead = (slice(None),) * (x.ndim + axis)
    for src, dst in _block_pairs(x.shape[axis], M):
        out[lead + (dst,)] = x[lead + (src,)]
    return out


def _trim_axis(x: np.ndarray, axis: int, N: int) -> np.ndarray:
    """Keep the fine rows of `axis` (a negative index) that hold coarse modes."""
    lead = (slice(None),) * (x.ndim + axis)
    blocks = [x[lead + (dst,)] for _, dst in _block_pairs(N, x.shape[axis])]
    return np.concatenate(blocks, axis=axis)


def oversample(a: SpectralField, factor: int) -> np.ndarray:
    """Nodal values on the refined (factor*N)^d grid (exact interpolation).

    Only the lines that can be nonzero are transformed: ifft along the
    leading spatial axes in irfftn's order (first to last), each over the
    block the previous ones filled, zero-padded to M = factor*N along that
    axis alone; then one length-M irfft along the last axis of the kept
    columns 0 .. N/2-1, which numpy zero-pads to M/2+1.  The coarse Nyquist
    column N/2 is left out: it is zero in every stored spectrum.  Every
    line is the 1-d transform irfftn would compute, so the values are
    bitwise those of irfftn on the fully padded half spectrum.
    """
    if factor == 1:
        return a.physical()
    g = a.grid
    M = factor * g.N
    x = a.c[..., : g.N // 2]
    for axis in range(-g.d, -1):
        x = np.fft.ifft(_pad_axis(x, axis, M), axis=axis, norm="forward")
    return np.fft.irfft(x, n=M, axis=-1, norm="forward")


def fine_to_coeffs(vals: np.ndarray, grid: TorusGrid, factor: int) -> np.ndarray:
    """Transform fine nodal values and truncate to the coarse spectrum.

    For factor > 1 only the kept lines are computed: rfft along the last
    axis keeping columns 0 .. N/2-1, then fft along the leading spatial axes
    in rfftn's order (last to first), keeping after each the rows of the
    coarse wavenumbers before the next axis is transformed.  The discarded
    lines never feed a kept one, so the coefficients are bitwise those of
    rfftn on the whole grid followed by truncation.
    """
    if factor == 1:
        return _full_spectrum(_rfft(vals, grid.d), grid)
    N, d = grid.N, grid.d
    x = np.fft.rfft(vals, axis=-1, norm="forward")[..., : N // 2]
    for axis in range(-2, -d - 1, -1):
        x = _trim_axis(np.fft.fft(x, axis=axis, norm="forward"), axis, N)
    half = np.zeros(x.shape[:-1] + (N // 2 + 1,), dtype=complex)
    half[..., : N // 2] = x
    return _full_spectrum(half, grid)


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
        modes.append(EigenMode(SpectralField(grid, c), 1.0, 0, (0,) * d, "constant", axis))
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
                modes.append(EigenMode(SpectralField(grid, c), lam, shell, k, phase, axis))
    if len(modes) < n:
        raise ValueError(f"grid supports only {len(modes)} modes, requested {n}")
    return modes[:n]


# ---------------------------------------------------------------------------
# random fields (counter-based generator, reproducible)


def random_field(grid: TorusGrid, seed: int, decay: float = 2.0) -> SpectralField:
    """Random real field with spectrum scaled by (1 + |k|^2)^(-decay/2)."""
    rng = np.random.Generator(np.random.Philox(seed))
    shape = (grid.d,) + grid.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= (1.0 + grid.k2) ** (-decay / 2.0)
    idx = (-np.arange(grid.N)) % grid.N
    flipped = c
    for ax in range(1, grid.d + 1):
        flipped = np.take(flipped, idx, axis=ax)
    c = 0.5 * (c + np.conj(flipped))
    c *= grid.keep
    return SpectralField(grid, c)


def random_solenoidal(grid: TorusGrid, seed: int, decay: float = 2.0) -> SpectralField:
    """Divergence-free unit-H-norm random field, deterministic per seed."""
    f = leray(random_field(grid, seed, decay))
    nrm = norm_H(f)
    if nrm == 0:
        raise ValueError("degenerate random draw")
    return (1.0 / nrm) * f


# ---------------------------------------------------------------------------
# snapshot file format
#
# header (32 bytes, little-endian): magic "CBFD", version u32, d u32, N u32,
# L f64, mode count u64; payload: for each wavevector in lexicographic order
# (components -N/2 .. N/2-1), for each velocity component, (re, im) as f64.

_HEADER = struct.Struct("<4sIIIdQ")
SNAPSHOT_VERSION = 1


def _lex_index(N: int) -> np.ndarray:
    return np.arange(-N // 2, N // 2) % N


def write_snapshot(field: SpectralField, path) -> None:
    g = field.grid
    idx = _lex_index(g.N)
    gathered = field.c[(slice(None),) + np.ix_(*([idx] * g.d))]
    arr = np.moveaxis(gathered, 0, -1)  # (*sorted wavevectors, component)
    flat = np.empty(arr.size * 2, dtype="<f8")
    flat[0::2] = arr.real.ravel()
    flat[1::2] = arr.imag.ravel()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"CBFD", SNAPSHOT_VERSION, g.d, g.N, g.L, g.N**g.d))
        fh.write(flat.tobytes())


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
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if payload.size != count * d * 2:
        raise ValueError("truncated snapshot payload")
    arr = payload[0::2] + 1j * payload[1::2]
    arr = arr.reshape((N,) * d + (d,))
    arr = np.moveaxis(arr, -1, 0)
    idx = _lex_index(N)
    c = np.zeros((d,) + grid.shape, dtype=complex)
    c[(slice(None),) + np.ix_(*([idx] * d))] = arr
    return SpectralField(grid, c)
