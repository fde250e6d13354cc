"""Closed convex constraint sets and their Moreau-Yosida machinery.

A constraint object needs two methods, project(x) and distance(x): the
time stepper calls both, and yosida_term calls project.  The two families
used by the feedback laws are H-balls and spans of low eigenmodes; both
contain 0 and are invariant under the Stokes resolvent.  A span also has a
bandwidth, the largest |k_i| of its modes, which bounds every state
projected onto it: op.span_nodes, the one rule for the grid of such a
state, sizes from it the time stepper's transform grids and the Galerkin
reduction's quadrature grid.
"""
from __future__ import annotations

import numpy as np

from . import spectral as sp


class BallConstraint:
    """{x : ||x||_H <= R}."""

    def __init__(self, radius: float):
        self.radius = float(radius)

    def project(self, x: sp.SpectralField) -> sp.SpectralField:
        n = sp.norm_H(x)
        if n <= self.radius:
            return x.copy()
        return (self.radius / n) * x

    def distance(self, x: sp.SpectralField) -> float:
        return max(0.0, sp.norm_H(x) - self.radius)

    def __repr__(self):
        return f"BallConstraint(R={self.radius:g})"


class SpanConstraint:
    """Span of a list of orthonormal eigenmodes (sp.EigenMode).

    The span is the one owner of the stacked mode spectra and of their
    sp.parseval_dual rows: the Galerkin reduction keeps one, and its
    coefficient map, its expansion and its controller go through it.

    Both maps are real matmuls on float views of flattened spectra, each
    complex number read as two floats: the coefficients are the (n, 2X)
    parseval_dual rows @ the view of x, and a real combination v of the modes
    is v @ the (n, 2X) view of spectra, read back as complex.  spectra itself
    stays for the callers that write the modes out.
    """

    def __init__(self, modes):
        fields = [m.field for m in modes]
        self.grid = fields[0].grid
        self.spectra = np.stack([w.c for w in fields])          # (n, d, N, ..., N/2+1)
        # the largest |k_i| of any mode: a projected state has no mode beyond it
        held = np.any(self.spectra != 0, axis=(0, 1))
        self.bandwidth = int(np.max(np.abs(self.grid.wave[:, held]), initial=0))
        self._dual_f = sp.parseval_dual(self.spectra, self.grid)            # (n, 2X)
        self._spectra_f = self.spectra.reshape(len(fields), -1).view(float)  # (n, 2X)

    def coeffs(self, x: sp.SpectralField) -> np.ndarray:
        """Mode coefficients (x, w_k)."""
        return self._dual_f @ np.ascontiguousarray(x.c, dtype=complex).reshape(-1).view(float)

    def expand(self, v) -> sp.SpectralField:
        """Field sum_k v_k w_k from mode coefficients."""
        c = np.asarray(v, dtype=float) @ self._spectra_f
        return sp.SpectralField(self.grid, c.view(complex).reshape(self.spectra.shape[1:]))

    def project(self, x: sp.SpectralField) -> sp.SpectralField:
        return self.expand(self.coeffs(x))

    def distance(self, x: sp.SpectralField) -> float:
        """||x - P x||_H, projecting again even where x was just projected.

        The dist_K record of a trajectory and the invariance_ok certificate
        read from it rest on this value, so it stays a fault check of the
        projection (a non-orthonormal stack shows here) instead of an
        assumed 0.
        """
        return sp.norm_H(x - self.expand(self.coeffs(x)))

    def __repr__(self):
        return f"SpanConstraint(n={len(self.spectra)})"


def yosida_term(K, x: sp.SpectralField, lam: float) -> sp.SpectralField:
    """Yosida approximation of the normal-cone term: (x - P_K x)/lam."""
    return (1.0 / lam) * (x - K.project(x))
