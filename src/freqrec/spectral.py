"""Graph Fourier transform, smoothness functionals and quantile band energies.

A SpectralBasis is the eigensystem of a symmetric (usually normalized
Laplacian) matrix, or of each matrix of a (B, n, n) stack; signals live on
its nodes, one column per feature.  Forward GFT projects onto the
eigenvector columns, so Parseval holds exactly up to the orthonormality of
the basis.  With a stacked basis, signals and coefficients carry the same
B axis, and any axes before it (layers, say) broadcast.
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
    eigenvalues: np.ndarray   # ascending, (n,) or (B, n)
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues

    @property
    def size(self):
        return self.eigenvalues.shape[-1]


def basis_from_matrix(laplacian):
    """Dense eigendecomposition of a symmetric operator, or of each matrix of
    a (B, n, n) stack, into a SpectralBasis."""
    w, u = sym_eigendecompose(laplacian)
    return SpectralBasis(eigenvalues=w, eigenvectors=u)


def gft(basis, signal):
    """Forward graph Fourier transform U^T F of an n x d signal matrix, or
    of a (..., B, n, d) signal through a basis stacked over B graphs."""
    f = np.asarray(signal, dtype=float)
    if f.ndim < 2 or f.shape[-2] != basis.size:
        raise InputError(f"signal of shape {f.shape} does not have the basis' "
                         f"{basis.size} nodes as rows")
    return np.swapaxes(basis.eigenvectors, -1, -2) @ f


def smoothness(laplacian, signal):
    """Laplacian quadratic form trace(F^T L F); nonnegative for PSD L and
    zero exactly when every column lies in the kernel."""
    f = np.asarray(signal, dtype=float)
    lap = np.asarray(laplacian, dtype=float)
    if lap.shape[0] != f.shape[0]:
        raise InputError(
            f"signal has {f.shape[0]} rows but the operator is {lap.shape[0]}x{lap.shape[1]}")
    return float(np.sum(f * (lap @ f)))


def band_boundaries(n, n_bands):
    """Contiguous rank-quantile boundaries: n frequencies split into n_bands
    groups as evenly as possible, ties resolved by stable ascending rank."""
    if n_bands < 1 or n_bands > n:
        raise InputError(f"n_bands must be in [1, {n}], got {n_bands}")
    return np.array([round(b * n / n_bands) for b in range(n_bands + 1)], dtype=int)


def band_energy(basis, coefficients, n_bands):
    """Group per-frequency energies ||row_k||^2 of GFT coefficients into
    rank-quantile bands.

    Within a cluster of (numerically) equal eigenvalues only the total
    energy ||U_c^T h||^2 is independent of the eigenbasis the solver
    returned, so each cluster's energy is spread evenly over its ranks
    before binning.  This is the expected split over uniformly random bases
    of the eigenspace, and it changes nothing when no cluster straddles a
    band boundary.

    Coefficients are (..., n, d), or (..., B, n, d) for a basis stacked over
    B graphs; returns the energies, (..., n_bands) or (..., B, n_bands),
    which sum to the signal's energy.  Band b covers the eigenvalue ranks
    [bounds[b], bounds[b + 1]) of `band_boundaries(n, n_bands)`.  Each
    graph's clusters are found once and shared by the leading axes."""
    c = np.asarray(coefficients, dtype=float)
    w = basis.eigenvalues
    per_freq = np.sum(c * c, axis=-1)
    if per_freq.shape[-w.ndim:] != w.shape:
        raise InputError(f"coefficients of shape {c.shape} do not fit a basis with "
                         f"eigenvalues of shape {w.shape}")
    lead = per_freq.shape[:-w.ndim]
    n = basis.size
    bounds = band_boundaries(n, n_bands)
    # one row per graph; cluster and band starts index the flattened ranks,
    # and every graph's first rank starts both
    w = w.reshape(-1, n)
    tol = CLUSTER_RTOL * np.maximum(1.0, np.max(np.abs(w), axis=1, keepdims=True))
    new_cluster = np.ones(w.shape, dtype=bool)
    new_cluster[:, 1:] = np.diff(w, axis=1) > tol
    starts = np.flatnonzero(new_cluster)
    sizes = np.diff(np.r_[starts, w.size])
    flat = per_freq.reshape(lead + (w.size,))
    spread = np.repeat(np.add.reduceat(flat, starts, axis=-1) / sizes, sizes, axis=-1)
    band_starts = (np.arange(w.shape[0])[:, None] * n + bounds[:-1]).ravel()
    return np.add.reduceat(spread, band_starts, axis=-1).reshape(
        per_freq.shape[:-1] + (n_bands,))
