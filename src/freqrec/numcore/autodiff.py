"""Minimal reverse-mode differentiation tape over numpy arrays.

A node is its forward value plus one vector-Jacobian product per parent,
and `node` alone decides what the tape records.  A node that no parameter
(requires_grad) feeds records nothing: no parents and no backward rule.
Composites computed in plain numpy enter the tape as one node with a
hand-written VJP; the training loss does this (model.training), so its
tape is that node over the fusion MLP's parameters.

`gelu` and `gelu_slope` are the plain-array activation and its derivative
that the fusion MLP and the backbone's FFN share.
"""

import numpy as np

from freqrec.errors import InputError, ProtocolError


class Var:
    """One tape node: a value, its provenance and a backward rule."""

    __slots__ = ("value", "grad", "parents", "backward_rule", "requires_grad", "name")

    def __init__(self, value, requires_grad=False, name=""):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self.parents = ()
        self.backward_rule = None
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = self.name or "var"
        return f"Var({tag}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(value, name=""):
    return Var(value, name=name)


def parameter(value, name=""):
    return Var(value, requires_grad=True, name=name)


def node(value, parents, vjps, name=""):
    """A derived node: its value plus one vector-Jacobian product per parent.

    Parents and a backward rule are recorded only when some parent requires
    a gradient, and the rule calls vjps[i] only for those parents."""
    out = Var(value, name=name)
    live = [(p, vjp) for p, vjp in zip(parents, vjps) if p.requires_grad]
    if live:
        out.requires_grad = True
        out.parents = tuple(parents)

        def rule(g):
            for p, vjp in live:
                _accumulate(p, vjp(g))

        out.backward_rule = rule
    return out


def _accumulate(var, g):
    if var.grad is None:
        var.grad = np.array(g, dtype=float, copy=True)
    else:
        var.grad += g


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


def _topo_order(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        var, expanded = stack.pop()
        if expanded:
            order.append(var)
            continue
        if id(var) in seen:
            continue
        seen.add(id(var))
        stack.append((var, True))
        for p in var.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def tape_gradient(loss, params):
    """Reverse-mode gradients of a scalar loss for each trainable parameter.

    Returns (grads, unreachable): one array per parameter, and the names of
    parameters the loss does not depend on (their gradient is zeros).
    """
    if loss.value.size != 1:
        raise InputError(f"loss must be scalar, got shape {loss.value.shape}")
    order = _topo_order(loss)
    for var in order:
        var.grad = None
    loss.grad = np.ones_like(loss.value)
    for var in reversed(order):
        if var.grad is None or var.backward_rule is None:
            continue
        var.backward_rule(var.grad)
    grads, unreachable = [], []
    for i, p in enumerate(params):
        if p.grad is None:
            grads.append(np.zeros_like(p.value))
            unreachable.append(p.name or f"param{i}")
        else:
            grads.append(p.grad)
    return grads, unreachable


class GradientCheckReport:
    """Worst-case comparison of analytic against central-difference gradients."""

    def __init__(self, per_param):
        self.per_param = per_param
        self.max_relative_error = max((e for _, e, _ in per_param), default=0.0)

    def worst(self):
        name, err, idx = max(self.per_param, key=lambda t: t[1])
        return name, err, idx

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
