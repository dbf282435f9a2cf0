"""Dense symmetric eigendecomposition (input checks around LAPACK's
symmetric solver, `numpy.linalg.eigh`) and the row scatter-add that
sparse products and gather gradients share."""

import numpy as np

from freqrec.errors import InputError, NumericError

MAX_EIGEN_SIZE = 1024


def sym_eigendecompose(m):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    symmetric matrix, or of each matrix of a (..., n, n) stack (LAPACK runs
    once per matrix, so a stack gives the same eigenpairs as separate calls).

    Each matrix must be finite and symmetric within 1e-9 of its own
    magnitude; it is symmetrized by averaging before decomposition.  Sizes n
    above MAX_EIGEN_SIZE are rejected; the stack depth is not capped.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InputError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if n == 0:
        raise InputError("cannot decompose an empty matrix")
    if n > MAX_EIGEN_SIZE:
        raise InputError(f"matrix size {n} exceeds dense eigensolver cap {MAX_EIGEN_SIZE}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix contains non-finite entries")
    at = np.swapaxes(a, -1, -2)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    if np.any(np.max(np.abs(a - at), axis=(-2, -1)) > 1e-9 * scale):
        raise InputError("matrix is not symmetric within 1e-9")
    try:
        return np.linalg.eigh((a + at) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed for n={n}: {exc}") from exc


def add_rows_at(target, idx, rows):
    """In place, np.add.at(target, idx, rows) for a C-contiguous 2-D target:
    row idx[...] of target gains the matching row of `rows`, shaped
    idx.shape + (d,).  It runs on the flat view through numpy's 1-D fast
    path; the flat indices visit every element in the same order as the
    row-wise call, so the sums are the same bit for bit.

    A float64 target of even width d is viewed, with its rows, as d / 2
    complex128 columns.  A complex add is two independent float64 adds,
    one per half, so every element still gets the same additions in the
    same order, while the scatter walks half as many indices.  Other
    targets keep the float scatter.  The flat index, half as large as the
    rows on the complex path and as large on the float one, is built in
    one pass and is the one temporary (besides a float64 copy of rows
    that are not C-contiguous float64 already); a caller with many rows
    scatters them in blocks."""
    if target.ndim != 2 or not target.flags.c_contiguous:
        raise InputError(f"need a C-contiguous 2-D target, got shape {target.shape}")
    d = target.shape[1]
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.broadcast_to(rows, idx.shape + (d,))
    if target.dtype == np.float64 and d % 2 == 0:
        target = target.view(np.complex128)
        rows = np.ascontiguousarray(rows, dtype=np.float64).view(np.complex128)
        d //= 2
    flat = (idx * d)[..., None] + np.arange(d)
    np.add.at(target.reshape(-1), flat.reshape(-1), rows.reshape(-1))
