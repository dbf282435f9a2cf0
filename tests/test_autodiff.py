"""Tape tests: one-node `ad.node` losses through `tape_gradient` and
`finite_difference_check` (the analytic and protocol cases), and the
activation's slope against central differences."""

import numpy as np
import pytest

from freqrec.errors import InputError, ProtocolError
from freqrec.numcore import autodiff as ad


def square_sum(p):
    """sum(p * p) as one node over p."""
    return ad.node(np.sum(p.value * p.value), (p,), lambda g: [g * 2.0 * p.value])


def norm_squared_of_wx(w, x):
    """||W x||^2 at a fixed x, as one node over W: d/dW = 2 (W x) x^T."""
    wx = w.value @ x
    return ad.node(np.sum(wx * wx), (w,), lambda g: [g * 2.0 * wx @ x.T])


class TestAnalyticCases:
    def test_one_var_as_both_parents_sums(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 3))
        p = ad.parameter(v.copy())
        # sum(a * b) with a and b the same Var: the two contributions add
        loss = ad.node(np.sum(p.value * p.value), (p, p),
                       lambda g: [g * p.value, g * p.value])
        grads, _ = ad.tape_gradient(loss, [p])
        report = ad.finite_difference_check(lambda vals: float(np.sum(vals[0] * vals[0])),
                                            [v], grads)
        assert report.max_relative_error < 1e-9

    def test_unreachable_parameter_reports_zero(self):
        a = ad.parameter(np.ones((2, 2)), name="used")
        b = ad.parameter(np.ones((3, 3)), name="unused")
        grads, unreachable = ad.tape_gradient(square_sum(a), [a, b])
        assert unreachable == ["unused"]
        np.testing.assert_allclose(grads[1], 0.0)

    def test_parent_outside_params_contributes_nothing(self):
        a = ad.parameter(np.full((2, 2), 3.0), name="a")
        c = ad.parameter(np.ones((2, 2)), name="c")
        # sum(a * c) over both, differentiated for a alone
        loss = ad.node(np.sum(a.value * c.value), (a, c),
                       lambda g: [g * c.value, g * a.value])
        grads, unreachable = ad.tape_gradient(loss, [a])
        assert unreachable == [] and len(grads) == 1
        np.testing.assert_array_equal(grads[0], c.value)

    def test_quadratic_loss_fd_below_1e9(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal((3, 3))
        p = ad.parameter(v.copy())
        grads, _ = ad.tape_gradient(square_sum(p), [p])
        report = ad.finite_difference_check(
            lambda vals: float(np.sum(vals[0] * vals[0])), [v], grads)
        assert report.max_relative_error < 1e-9

    def test_zero_influence_error_is_zero(self):
        v = np.ones((2, 2))
        report = ad.finite_difference_check(lambda vals: 1.0, [v], [np.zeros((2, 2))])
        assert report.max_relative_error == 0.0


class TestPrimitiveGradients:
    def test_gelu(self):
        # gelu_slope against central differences of gelu
        rng = np.random.default_rng(0)
        x = 2.0 * rng.standard_normal((6, 3))
        weights = rng.standard_normal((6, 3))
        _, th = ad.gelu(x)
        report = ad.finite_difference_check(
            lambda vals: float(np.sum(weights * ad.gelu(vals[0])[0])), [x],
            [weights * ad.gelu_slope(x, th)])
        assert report.max_relative_error < 1e-4, report.worst()


class TestProtocol:
    def test_non_scalar_loss_rejected(self):
        p = ad.parameter(np.ones((2, 2)))
        with pytest.raises(InputError):
            ad.tape_gradient(ad.node(2.0 * p.value, (p,), lambda g: [2.0 * g]), [p])

    def test_nondeterministic_loss_rejected(self):
        state = {"n": 0}

        def noisy(vals):
            state["n"] += 1
            return float(state["n"])

        with pytest.raises(ProtocolError):
            ad.finite_difference_check(noisy, [np.ones(2)], [np.zeros(2)])

    def test_repeated_backward_is_stable(self):
        p = ad.parameter(np.arange(6.0).reshape(2, 3))
        x = np.ones((3, 1))
        loss = norm_squared_of_wx(p, x)
        g1, _ = ad.tape_gradient(loss, [p])
        g2, _ = ad.tape_gradient(loss, [p])
        np.testing.assert_array_equal(g1[0], g2[0])
        np.testing.assert_array_equal(g1[0], 2.0 * (p.value @ x) @ x.T)
