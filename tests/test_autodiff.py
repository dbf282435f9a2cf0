"""Tape gradient tests: every primitive against central differences, plus
the analytic and protocol cases."""

import numpy as np
import pytest

from freqrec.errors import InputError, ProtocolError
from freqrec.numcore import autodiff as ad


def check_primitive(build_loss, shapes, seed=0, tol=1e-4):
    """Gradient-check a scalar loss built from parameters of given shapes."""
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(s) for s in shapes]
    params = [ad.parameter(v.copy(), name=f"p{i}") for i, v in enumerate(values)]
    loss = build_loss(params)
    grads, _ = ad.tape_gradient(loss, params)

    def loss_fn(vals):
        ps = [ad.parameter(v) for v in vals]
        return float(build_loss(ps).value)

    report = ad.finite_difference_check(loss_fn, values, grads)
    assert report.max_relative_error < tol, report.worst()


class TestPrimitiveGradients:
    def test_matmul(self):
        check_primitive(lambda p: ad.mean_all(ad.mul(ad.matmul(p[0], p[1]), ad.matmul(p[0], p[1]))),
                        [(3, 4), (4, 2)])

    def test_add_broadcast_bias(self):
        check_primitive(lambda p: ad.mean_all(ad.mul(ad.add(p[0], p[1]), ad.add(p[0], p[1]))),
                        [(5, 3), (3,)])
        # one Var as both parents: the two contributions are summed
        check_primitive(lambda p: ad.mean_all(ad.mul(ad.add(p[0], p[0]), p[1])),
                        [(4, 3), (4, 3)])

    def test_sub_and_scale(self):
        check_primitive(lambda p: ad.mean_all(ad.mul(ad.sub(ad.scale(p[0], 1.7), p[1]),
                                                     ad.sub(ad.scale(p[0], 1.7), p[1]))),
                        [(4, 4), (4, 4)])

    def test_gelu(self):
        check_primitive(lambda p: ad.mean_all(ad.mul(ad.gelu(p[0]), ad.gelu(p[0]))), [(6, 3)])

    def test_log_softmax(self):
        check_primitive(lambda p: ad.mean_all(ad.mul(ad.log_softmax(p[0]), p[1])),
                        [(4, 5), (4, 5)])

    def test_gather_and_slice(self):
        idx = np.array([0, 2, 2, 1])
        check_primitive(lambda p: ad.mean_all(ad.mul(ad.gather_rows(p[0], idx),
                                                     ad.slice_rows(p[1], 0, 4))),
                        [(3, 4), (6, 4)])

    def test_concat_take_reshape_sum(self):
        def loss(p):
            cat = ad.concat_cols([p[0], p[1]])
            col = ad.take_column(cat, 2)
            flat = ad.reshape(ad.mul(cat, cat), (-1,))
            return ad.add(ad.mean_all(flat), ad.mean_all(ad.mul(col, col)))
        check_primitive(loss, [(4, 2), (4, 3)])

    def test_batched_matmul_transpose_concat_slice(self):
        # a B = 3 stack of 4 x 5 matrices: 2-D operands on either side of a
        # batched matmul get gradients summed over the batch
        def build(p):
            x, w, v, m = p
            q = ad.matmul(x, w)
            s = ad.matmul(m, ad.matmul(q, ad.transpose(q)))
            cat = ad.slice_rows(ad.concat_cols([s, ad.matmul(x, v)]), 1, 3)
            return ad.mean_all(ad.mul(cat, cat))
        check_primitive(build, [(3, 4, 5), (5, 2), (5, 3), (4, 4)])

    def test_sum_axis1_and_transpose(self):
        check_primitive(lambda p: ad.mean_all(ad.mul(ad.sum_axis1(ad.matmul(p[0], ad.transpose(p[0]))),
                                                     ad.sum_axis1(p[0]))),
                        [(4, 3)])

    def test_self_adjoint_linear(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 6))
        sym = (x + x.T) / 2

        def op(arr):
            return sym @ arr

        check_primitive(lambda p: ad.mean_all(ad.mul(ad.self_adjoint_linear(p[0], op),
                                                     ad.self_adjoint_linear(p[0], op))),
                        [(6, 3)])

class TestAnalyticCases:
    def test_norm_squared_of_wx(self):
        # loss = ||W x||^2 at fixed x -> dLoss/dW = 2 (W x) x^T
        rng = np.random.default_rng(8)
        w_val = rng.standard_normal((4, 3))
        x_val = rng.standard_normal((3, 1))
        w = ad.parameter(w_val, name="W")
        y = ad.matmul(w, ad.constant(x_val))
        loss = ad.mean_all(ad.scale(ad.mul(y, y), y.value.size))
        grads, unreachable = ad.tape_gradient(loss, [w])
        np.testing.assert_allclose(grads[0], 2.0 * (w_val @ x_val) @ x_val.T, atol=1e-12)
        assert unreachable == []

    def test_unreachable_parameter_reports_zero(self):
        a = ad.parameter(np.ones((2, 2)), name="used")
        b = ad.parameter(np.ones((3, 3)), name="unused")
        loss = ad.mean_all(ad.mul(a, a))
        grads, unreachable = ad.tape_gradient(loss, [a, b])
        assert unreachable == ["unused"]
        np.testing.assert_allclose(grads[1], 0.0)

    def test_quadratic_loss_fd_below_1e9(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal((3, 3))
        p = ad.parameter(v.copy())
        loss = ad.mean_all(ad.mul(p, p))
        grads, _ = ad.tape_gradient(loss, [p])
        report = ad.finite_difference_check(
            lambda vals: float(np.mean(vals[0] * vals[0])), [v], grads)
        assert report.max_relative_error < 1e-9

    def test_zero_influence_error_is_zero(self):
        v = np.ones((2, 2))
        report = ad.finite_difference_check(lambda vals: 1.0, [v], [np.zeros((2, 2))])
        assert report.max_relative_error == 0.0


class TestProtocol:
    def test_non_scalar_loss_rejected(self):
        p = ad.parameter(np.ones((2, 2)))
        with pytest.raises(InputError):
            ad.tape_gradient(ad.mul(p, p), [p])

    def test_nondeterministic_loss_rejected(self):
        state = {"n": 0}

        def noisy(vals):
            state["n"] += 1
            return float(state["n"])

        with pytest.raises(ProtocolError):
            ad.finite_difference_check(noisy, [np.ones(2)], [np.zeros(2)])

    def test_repeated_backward_is_stable(self):
        p = ad.parameter(np.arange(4.0).reshape(2, 2))
        loss = ad.mean_all(ad.mul(p, p))
        g1, _ = ad.tape_gradient(loss, [p])
        g2, _ = ad.tape_gradient(loss, [p])
        np.testing.assert_allclose(g1[0], g2[0])
