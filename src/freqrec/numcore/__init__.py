"""Numerical substrate: checked entry points to numpy's symmetric
eigensolver and discrete Fourier transforms, and a minimal reverse-mode
differentiation tape."""

from freqrec.numcore.linalg import sym_eigendecompose
from freqrec.numcore.fourier import dft
from freqrec.numcore.autodiff import (
    Var,
    constant,
    parameter,
    tape_gradient,
    finite_difference_check,
)

__all__ = [
    "sym_eigendecompose",
    "dft",
    "Var",
    "constant",
    "parameter",
    "tape_gradient",
    "finite_difference_check",
]
