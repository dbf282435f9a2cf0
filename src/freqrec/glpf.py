"""Global graph low-pass filter over the item catalog.

The production path evaluates a polynomial in the normalized Laplacian by
repeated sparse matvec sweeps, never materializing L^k.  The dense
spectral oracle applies an arbitrary frequency response through a full
eigendecomposition and exists to verify the polynomial path.  First-order
mode uses the response h(lambda) = 1 - alpha * lambda with alpha in
[0, 1]: alpha = 0 leaves embeddings untouched, alpha = 1 smooths
maximally.
`stage_filter` says where a config filters and on which graph: a
`StageFilter` (spec and graph) at the stage glpf.apply_to names, or None;
it is the one place that refuses a filter without a graph.
"""

from dataclasses import dataclass

import numpy as np

from freqrec.errors import CapabilityError, InputError
from freqrec.numcore.linalg import MAX_EIGEN_SIZE, sym_eigendecompose

ORACLE_MAX_NODES = MAX_EIGEN_SIZE
APPLY_TO = ("id", "fused")


@dataclass(frozen=True)
class PolyFilterSpec:
    """Coefficients theta_0..theta_K of a polynomial in the Laplacian."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise InputError("a polynomial filter needs at least theta_0")
        if not np.all(np.isfinite(coeffs)):
            raise InputError(f"polynomial filter coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coefficients", coeffs)

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

    @classmethod
    def from_config(cls, glpf):
        """The filter a config's glpf section names: its explicit
        coefficients, else first order in alpha."""
        if glpf["coefficients"] is not None:
            return cls(tuple(glpf["coefficients"]))
        return cls.first_order(glpf["alpha"])


@dataclass(frozen=True, eq=False)
class StageFilter:
    """The G-LPF one stage applies: a polynomial spec on the graph it
    filters over (compared by identity, since the graph holds arrays)."""

    spec: PolyFilterSpec
    graph: "CooccurrenceGraph"

    def apply(self, rows):
        """The filtered rows; linear and self-adjoint, so also its VJP."""
        return polynomial_filter(self.graph, self.spec, rows)


def stage_filter(glpf, stage, graph):
    """The filter a config's glpf section applies at `stage` ("id" or
    "fused") on `graph`, or None when it applies none there."""
    if not (glpf["enabled"] and glpf["apply_to"] == stage):
        return None
    if graph is None:
        raise InputError(f"glpf.apply_to={stage} needs --graph")
    return StageFilter(PolyFilterSpec.from_config(glpf), graph)


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
    eigendecomposition; test use only.  A precomputed
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
