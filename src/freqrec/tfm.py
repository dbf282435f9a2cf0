"""Temporal frequency modulation: zero-phase Butterworth low-pass filtering
of hidden-state sequences along the time axis.

Bin k of a length-T DFT maps to the normalized frequency
omega_k = 2 * min(k, T-k) / T in [0, 1] (1 = Nyquist), and receives the
real magnitude gain sqrt(1 / (1 + (omega_k / omega_c)^(2n))).  Conjugate
bin pairs share a gain, so the filter runs on numpy's real FFT
(rfft/irfft, O(T log T) for every T): a real matrix maps to a real
matrix with no phase shift.  The operator is linear with a symmetric
real spectral multiplier, hence self-adjoint.  `tfm_apply` and
`make_filter` run that FFT.

`TemporalFilter` is the backbone's filter, one cached (T, T) matrix per
length and dtype; at every `max_seq_len` in use that matmul costs a
fraction of an rfft/irfft pair (the two cross near T = 400).
"""

import functools
from dataclasses import dataclass

import numpy as np

from freqrec.errors import InputError
from freqrec.numcore.linalg import sym_eigendecompose
from freqrec.spectral import SpectralBasis


@dataclass(frozen=True)
class ButterworthSpec:
    """Cutoff in normalized-frequency units (1 = Nyquist) and filter order."""

    cutoff: float = 0.3
    order: int = 2

    def __post_init__(self):
        if not (0.0 < self.cutoff <= 1.0):
            raise InputError(f"cutoff must lie in (0, 1], got {self.cutoff}")
        if self.order < 1:
            raise InputError(f"order must be a positive integer, got {self.order}")


def bin_frequencies(t_len):
    k = np.arange(t_len)
    return 2.0 * np.minimum(k, t_len - k) / t_len


def butterworth_gains(spec, t_len):
    """Per-bin magnitude gains; DC gain is exactly 1 and gains are monotone
    nonincreasing in the bin frequency."""
    if t_len < 1:
        raise InputError(f"need at least one bin, got T={t_len}")
    omega = bin_frequencies(t_len)
    return np.sqrt(1.0 / (1.0 + (omega / spec.cutoff) ** (2 * spec.order)))


def tfm_apply(h, spec):
    """Filter each column of a T x d real matrix in the temporal frequency
    domain; T = 1 is the identity."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] == 0:
        raise InputError(f"expected a T x d matrix with T >= 1, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise InputError("input contains non-finite entries")
    return make_filter(spec, h.shape[0])(h)


def make_filter(spec, t_len):
    """Fixed-length filter closure (linear and self-adjoint by
    construction).  It filters along axis -2, so a (B, T, d) stack is B
    independent T x d matrices.  The real FFT keeps bins 0..T//2 only; the
    gains are conjugate-symmetric, so the dropped bins need none."""
    gains = butterworth_gains(spec, t_len)[:t_len // 2 + 1, None]

    def apply(h):
        if h.shape[-2] != t_len:
            raise InputError(f"filter built for T={t_len}, got {h.shape[-2]} rows")
        return np.fft.irfft(np.fft.rfft(h, axis=-2) * gains, n=t_len, axis=-2)

    return apply


@dataclass(frozen=True)
class TemporalFilter:
    """The backbone's temporal filter: the Butterworth response `spec`,
    circular or, `causal_safe`, row t filtering the prefix up to t alone,
    plus the unfiltered state when `residual`.  Only off or causal-safe is
    the stack causal, and the leak reaches the loss: `sequence_loss` scores
    position t from a forward of the whole sequence, `evaluate` from one of
    its prefix, and the two differ by 0.76 circular and 2.9 residual (and
    agree to rounding off and causal-safe) in `tests/test_model.py`."""

    spec: ButterworthSpec = ButterworthSpec()
    causal_safe: bool = False
    residual: bool = False

    @classmethod
    def from_config(cls, tfm):
        return cls(ButterworthSpec(cutoff=tfm["cutoff"], order=tfm["order"]),
                   causal_safe=tfm["causal_safe"], residual=tfm["residual"])

    @functools.lru_cache(maxsize=256)
    def operator(self, t_len, dtype):
        """The filter at length T as one read-only (T, T) matrix in dtype,
        built in float64 and cast once: the FFT filter of the identity or,
        causal-safe, row t of the length-(t+1) circulant, zero-padded, as row t."""
        if self.causal_safe:
            op = np.zeros((t_len, t_len))
            for n in range(1, t_len + 1):    # row n - 1 filters the length-n prefix
                kernel = np.fft.ifft(butterworth_gains(self.spec, n)).real
                op[n - 1, :n] = kernel[(np.arange(n) + 1 - n) % n]
        else:
            op = make_filter(self.spec, t_len)(np.eye(t_len))
        op = op.astype(dtype, copy=False)
        op.flags.writeable = False
        return op

    def apply(self, h):
        filtered = self.operator(h.shape[-2], h.dtype) @ h
        return h + filtered if self.residual else filtered

    def adjoint(self, g):
        """The transpose of `apply`, on the gradient of its output."""
        filtered = self.operator(g.shape[-2], g.dtype).T @ g
        return g + filtered if self.residual else filtered


def ring_graph_laplacian(t_len):
    lap = 2.0 * np.eye(t_len)
    for i in range(t_len):
        lap[i, (i + 1) % t_len] -= 1.0
        lap[(i + 1) % t_len, i] -= 1.0
    return lap


def ring_graph_basis(t_len):
    """Numeric eigendecomposition of the T-node ring's combinatorial
    Laplacian.  Its eigenvalues are 2 - 2cos(2 pi k / T) and its
    eigenspaces are spanned by the cosine/sine pairs of the real DFT
    basis, which is what ties temporal frequencies to graph frequencies."""
    if t_len < 3:
        raise InputError(f"a ring needs at least 3 nodes, got {t_len}")
    w, u = sym_eigendecompose(ring_graph_laplacian(t_len))
    return SpectralBasis(eigenvalues=w, eigenvectors=u)


def ring_eigenvalues_analytic(t_len):
    k = np.arange(t_len)
    return np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * k / t_len))


def ring_analytic_span(t_len, k):
    """Orthonormal real basis of the ring eigenspace for frequency index
    k (0 <= k <= T/2): the constant vector, the alternating vector at the
    Nyquist index, or a cosine/sine pair otherwise."""
    t = np.arange(t_len)
    if k == 0:
        return np.ones((t_len, 1)) / np.sqrt(t_len)
    if 2 * k == t_len:
        v = np.cos(np.pi * t)
        return (v / np.linalg.norm(v))[:, None]
    c = np.cos(2.0 * np.pi * k * t / t_len)
    s = np.sin(2.0 * np.pi * k * t / t_len)
    basis = np.stack([c / np.linalg.norm(c), s / np.linalg.norm(s)], axis=1)
    return basis
