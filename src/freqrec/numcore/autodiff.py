"""Minimal reverse-mode differentiation tape over numpy arrays, one level
deep.

A node is its forward value, its parents and one vector-Jacobian product
that maps the value's gradient to one gradient per parent; the parents are
parameters (leaves).  Composites computed in plain numpy enter the tape as
one node with a hand-written VJP, and the training loss does this
(model.training): each length group of a batch is one node over the
batch's token block, and `tape_gradient` calls its VJP once.

`gelu` and `gelu_slope` are the plain-array activation and its derivative
that the fusion MLP and the backbone's FFN share.
"""

import functools

import numpy as np

from freqrec.errors import InputError, ProtocolError


class Var:
    """One tape node: a value, its parents and one VJP that maps the
    value's gradient to one gradient per parent.  A parameter has neither."""

    __slots__ = ("value", "parents", "vjp", "name")

    def __init__(self, value, parents=(), vjp=None, name=""):
        self.value = np.asarray(value, dtype=float)
        self.parents = tuple(parents)
        self.vjp = vjp
        self.name = name


def parameter(value, name=""):
    return Var(value, name=name)


def node(value, parents, vjp, name=""):
    """A node over parameters: its value plus vjp(g), which returns one
    gradient per parent."""
    return Var(value, parents, vjp, name)


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_K = 0.044715


def gelu(x):
    """Smooth Gaussian-error-style activation (tanh form) of an array.
    Returns the activation and th = tanh(C * (x + K * x^3)), which
    gelu_slope needs; the slope differentiates this exact expression, so
    gradient checks are tight."""
    # out = 0.5 * x * (1 + th), computed in place in the same operation order
    # (so the same values) to keep fewer full-size arrays alive at once: this
    # is the widest array of a forward
    th = x * x
    th *= x
    th *= _GELU_K
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    out = 1.0 + th
    out *= 0.5 * x
    return out, th


def gelu_slope(x, th):
    """Elementwise derivative of gelu at x, given its th."""
    # 0.5 * (1 + th) + 0.5 * x * (1 - th**2) * C * (1 + 3K * x**2), computed
    # in place in two arrays with the same operations in the same order
    # (each swapped operand pair is an exact, commutative + or *)
    slope = th * th
    np.subtract(1.0, slope, out=slope)
    d_inner = np.multiply(x, 0.5)
    slope *= d_inner
    np.multiply(x, x, out=d_inner)
    d_inner *= 3.0 * _GELU_K
    d_inner += 1.0
    d_inner *= _GELU_C
    slope *= d_inner
    np.add(th, 1.0, out=d_inner)
    d_inner *= 0.5
    slope += d_inner
    return slope


def tape_gradient(loss, params):
    """Gradients of a scalar loss node for each parameter, from one call of
    its VJP; a parameter that is a parent more than once gets the sum.

    Returns (grads, unreachable): one array per parameter, and the names of
    parameters that are not parents of the loss (their gradient is zeros).
    """
    if loss.value.size != 1:
        raise InputError(f"loss must be scalar, got shape {loss.value.shape}")
    given = loss.vjp(np.ones_like(loss.value))
    grads, unreachable = [], []
    for i, p in enumerate(params):
        mine = [g for parent, g in zip(loss.parents, given) if parent is p]
        if not mine:
            unreachable.append(p.name or f"param{i}")
            mine = [np.zeros_like(p.value)]
        grads.append(np.array(functools.reduce(np.add, mine), dtype=float))
    return grads, unreachable


class GradientCheckReport:
    """Worst-case comparison of analytic against central-difference gradients."""

    def __init__(self, per_param):
        self.per_param = per_param
        self.max_relative_error = max((e for _, e, _ in per_param), default=0.0)

    def worst(self):
        return max(self.per_param, key=lambda t: t[1])

    def __repr__(self):
        return f"GradientCheckReport(max_relative_error={self.max_relative_error:.3e})"


def finite_difference_check(loss_fn, params, tape_grads, step=1e-5, rel_floor=1e-6):
    """Central differences (f(p+h)-f(p-h))/2h versus tape gradients.

    loss_fn maps a list of parameter arrays to a float and must be
    deterministic; it is evaluated twice at the base point to verify this.
    The relative error divides by max(|analytic|, |numeric|, floor) where
    the floor is rel_floor times the largest gradient magnitude seen, so a
    parameter with no influence reports exactly zero error.
    """
    values = [np.array(p, dtype=float, copy=True) for p in params]
    base = loss_fn(values)
    again = loss_fn([v.copy() for v in values])
    if base != again:
        raise ProtocolError(
            f"loss_fn is not deterministic: {base!r} vs {again!r} at the same point")

    fd_grads = []
    for i, v in enumerate(values):
        fd = np.zeros_like(v)
        flat = v.reshape(-1)
        fd_flat = fd.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = loss_fn(values)
            flat[j] = orig - step
            lo = loss_fn(values)
            flat[j] = orig
            fd_flat[j] = (hi - lo) / (2.0 * step)
        fd_grads.append(fd)

    scale_ = max(
        max((float(np.max(np.abs(g))) for g in tape_grads), default=0.0),
        max((float(np.max(np.abs(g))) for g in fd_grads), default=0.0),
        1e-12,
    )
    floor = rel_floor * scale_
    report = []
    for i, (ad, fd) in enumerate(zip(tape_grads, fd_grads)):
        denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), floor)
        rel = np.abs(ad - fd) / denom
        idx = np.unravel_index(int(np.argmax(rel)), rel.shape) if rel.size else ()
        report.append((f"param{i}", float(rel.max()) if rel.size else 0.0, idx))
    return GradientCheckReport(report)
