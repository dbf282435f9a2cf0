"""Discrete Fourier transforms (numpy's FFT behind the project's checks).

Convention: forward bins are X[k] = sum_t x[t] * exp(-2j*pi*k*t/T) with no
normalization; the inverse carries the 1/T factor, so idft(dft(x)) == x.

Inputs may be 1-D (one signal) or 2-D (one signal per column, transformed
along axis 0).
"""

import numpy as np

from freqrec.errors import InputError


def dft(x, inverse=False):
    """Forward or inverse DFT along axis 0. Returns a complex array of the
    same shape; forward of a real input has conjugate-symmetric bins."""
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2):
        raise InputError(f"dft expects a 1-D or 2-D array, got ndim={x.ndim}")
    if x.shape[0] == 0:
        raise InputError("dft of an empty sequence")
    return (np.fft.ifft if inverse else np.fft.fft)(x, axis=0)
