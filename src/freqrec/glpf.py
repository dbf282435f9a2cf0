"""Global graph low-pass filter over the item catalog.

The production path evaluates a polynomial in the normalized Laplacian by
repeated sparse matvec sweeps, never materializing L^k.  The dense
spectral oracle applies an arbitrary frequency response through a full
eigendecomposition and exists to verify the polynomial path and to drive
the ideal-truncation probe.  First-order mode uses the response
h(lambda) = 1 - alpha * lambda with alpha in [0, 1]: alpha = 0 leaves
embeddings untouched, alpha = 1 smooths maximally.
"""

from dataclasses import dataclass

import numpy as np

from freqrec.errors import CapabilityError, InputError
from freqrec.numcore.linalg import MAX_EIGEN_SIZE, sym_eigendecompose

ORACLE_MAX_NODES = MAX_EIGEN_SIZE


@dataclass(frozen=True)
class PolyFilterSpec:
    """Coefficients theta_0..theta_K of a polynomial in the Laplacian."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise InputError("a polynomial filter needs at least theta_0")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self):
        return len(self.coefficients) - 1

    def response(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        for theta in reversed(self.coefficients):
            out = out * lam + theta
        return out

    @classmethod
    def first_order(cls, alpha):
        if not (0.0 <= alpha <= 1.0):
            raise InputError(f"filter strength alpha must lie in [0, 1], got {alpha}")
        return cls((1.0, -float(alpha)))


def polynomial_filter(graph, spec, embeddings):
    """E' = sum_k theta_k L^k E via K Laplacian matvec sweeps."""
    e = np.asarray(embeddings, dtype=float)
    if e.ndim != 2 or e.shape[0] != graph.n_items:
        raise InputError(
            f"embeddings must be (n_items, d) with n_items={graph.n_items}, got {e.shape}")
    acc = spec.coefficients[0] * e
    power = e
    for theta in spec.coefficients[1:]:
        power = graph.laplacian_matvec(power)
        acc = acc + theta * power
    return acc


def spectral_oracle_filter(graph, response, embeddings, basis=None):
    """Exact spectral filtering E' = U diag(h(lambda)) U^T E through a dense
    eigendecomposition; test and probe use only.  A precomputed
    (eigenvalues, eigenvectors) pair of the graph's normalized Laplacian
    may be passed to amortize the decomposition across several responses."""
    n = graph.n_items
    if n > ORACLE_MAX_NODES:
        raise CapabilityError(
            f"graph has {n} nodes; the dense oracle handles at most "
            f"{ORACLE_MAX_NODES} - use polynomial_filter instead")
    e = np.asarray(embeddings, dtype=float)
    if e.ndim != 2 or e.shape[0] != n:
        raise InputError(
            f"embeddings must be (n_items, d) with n_items={n}, got {e.shape}")
    w, u = basis if basis is not None else sym_eigendecompose(graph.dense_laplacian())
    gains = np.asarray(response(w), dtype=float)
    return u @ (gains[:, None] * (u.T @ e))


def truncation_gains(n, fraction):
    """Hard low-pass by eigenvalue rank: keep the lowest floor(p * n)
    frequencies, drop the rest."""
    if not (0.0 <= fraction <= 1.0):
        raise InputError(f"fraction must lie in [0, 1], got {fraction}")
    keep = int(np.floor(fraction * n + 1e-12))
    gains = np.zeros(n)
    gains[:keep] = 1.0
    return gains


@dataclass
class TruncationSweep:
    fractions: list
    metrics: list

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("p,metric\n")
            for p, m in zip(self.fractions, self.metrics):
                fh.write(f"{p!r},{m!r}\n")


def truncation_sweep(graph, embeddings, fractions, downstream_eval):
    """For each retain-fraction p, project the embeddings onto the lowest
    p-share of graph frequencies and report downstream_eval of the result."""
    n = graph.n_items
    if n > ORACLE_MAX_NODES:
        raise CapabilityError(
            f"graph has {n} nodes; run the sweep on a sampled subgraph of at most "
            f"{ORACLE_MAX_NODES}")
    e = np.asarray(embeddings, dtype=float)
    w, u = sym_eigendecompose(graph.dense_laplacian())
    coeffs = u.T @ e
    metrics = []
    for p in fractions:
        gains = truncation_gains(n, p)
        filtered = u @ (gains[:, None] * coeffs)
        try:
            metrics.append(float(downstream_eval(filtered)))
        except Exception as exc:
            raise InputError(f"downstream evaluation failed at p={p}: {exc}") from exc
    return TruncationSweep(fractions=list(fractions), metrics=metrics)
