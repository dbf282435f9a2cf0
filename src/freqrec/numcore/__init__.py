"""Numerical substrate: checked entry points to numpy's symmetric
eigensolver and discrete Fourier transforms, and a one-level reverse-mode
tape (a loss node with one VJP over its parameters)."""

from freqrec.numcore.linalg import sym_eigendecompose
from freqrec.numcore.fourier import dft
from freqrec.numcore.autodiff import (
    Var,
    node,
    parameter,
    tape_gradient,
    finite_difference_check,
)

__all__ = [
    "sym_eigendecompose",
    "dft",
    "Var",
    "node",
    "parameter",
    "tape_gradient",
    "finite_difference_check",
]
