"""Graph Fourier transform, smoothness functionals and quantile band energies.

A SpectralBasis is the eigensystem of a symmetric (usually normalized
Laplacian) matrix; signals live on its nodes, one column per feature.
Forward GFT projects onto the eigenvector columns, so Parseval holds
exactly up to the orthonormality of the basis.
"""

from dataclasses import dataclass

import numpy as np

from freqrec.errors import InputError
from freqrec.numcore.linalg import sym_eigendecompose

# Ascending eigenvalues closer than this (relative to max(1, |lambda|max))
# form one cluster whose energy band_energy spreads evenly over its ranks.
CLUSTER_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralBasis:
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues

    @property
    def size(self):
        return self.eigenvalues.shape[0]


def basis_from_matrix(laplacian):
    """Dense eigendecomposition of a symmetric operator into a SpectralBasis."""
    w, u = sym_eigendecompose(laplacian)
    return SpectralBasis(eigenvalues=w, eigenvectors=u)


def gft(basis, signal, inverse=False):
    """Forward (U^T F) or inverse (U F_hat) graph Fourier transform of an
    n x d signal matrix (1-D inputs are treated as a single column)."""
    f = np.asarray(signal, dtype=float)
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    if f.shape[0] != basis.size:
        raise InputError(
            f"signal has {f.shape[0]} rows but the basis has {basis.size} nodes")
    u = basis.eigenvectors
    out = (u @ f) if inverse else (u.T @ f)
    return out[:, 0] if squeeze else out


def smoothness(laplacian, signal):
    """Laplacian quadratic form trace(F^T L F); nonnegative for PSD L and
    zero exactly when every column lies in the kernel."""
    f = np.asarray(signal, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    lap = np.asarray(laplacian, dtype=float)
    if lap.shape[0] != f.shape[0]:
        raise InputError(
            f"signal has {f.shape[0]} rows but the operator is {lap.shape[0]}x{lap.shape[1]}")
    return float(np.sum(f * (lap @ f)))


@dataclass(frozen=True)
class BandEnergy:
    n_bands: int
    energies: np.ndarray     # per-band energy, sums to total signal energy
    boundaries: np.ndarray   # band b covers eigenvalue ranks [boundaries[b], boundaries[b+1])

    @property
    def total(self):
        return float(self.energies.sum())

    def shares(self):
        tot = self.total
        if tot == 0.0:
            return np.zeros(self.n_bands)
        return self.energies / tot


def band_boundaries(n, n_bands):
    """Contiguous rank-quantile boundaries: n frequencies split into n_bands
    groups as evenly as possible, ties resolved by stable ascending rank."""
    if n_bands < 1 or n_bands > n:
        raise InputError(f"n_bands must be in [1, {n}], got {n_bands}")
    return np.array([round(b * n / n_bands) for b in range(n_bands + 1)], dtype=int)


def band_energy(basis, coefficients, n_bands=4):
    """Group per-frequency energies ||row_k||^2 of GFT coefficients into
    rank-quantile bands.

    Within a cluster of (numerically) equal eigenvalues only the total
    energy ||U_c^T h||^2 is independent of the eigenbasis the solver
    returned, so each cluster's energy is spread evenly over its ranks
    before binning.  This is the expected split over uniformly random bases
    of the eigenspace, and it changes nothing when no cluster straddles a
    band boundary."""
    c = np.asarray(coefficients, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    if c.shape[0] != basis.size:
        raise InputError(
            f"coefficients have {c.shape[0]} rows but the basis has {basis.size} nodes")
    w = basis.eigenvalues
    tol = CLUSTER_RTOL * max(1.0, float(np.max(np.abs(w))))
    starts = np.flatnonzero(np.r_[True, np.diff(w) > tol])
    sizes = np.diff(np.r_[starts, w.size])
    per_freq = np.repeat(np.add.reduceat(np.sum(c * c, axis=1), starts) / sizes, sizes)
    bounds = band_boundaries(basis.size, n_bands)
    energies = np.array([per_freq[bounds[b]:bounds[b + 1]].sum() for b in range(n_bands)])
    return BandEnergy(n_bands=n_bands, energies=energies, boundaries=bounds)
