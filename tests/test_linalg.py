"""Symmetric eigensolver contract tests."""

import tracemalloc

import numpy as np
import pytest

from freqrec.errors import InputError, NumericError
from freqrec.numcore.linalg import MAX_EIGEN_SIZE, add_rows_at, sym_eigendecompose


def ring_laplacian(t):
    lap = 2.0 * np.eye(t)
    for i in range(t):
        lap[i, (i + 1) % t] -= 1.0
        lap[(i + 1) % t, i] -= 1.0
    return lap


class TestKnownSpectra:
    def test_identity(self):
        w, u = sym_eigendecompose(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)

    def test_2x2_exchange(self):
        # characteristic polynomial lambda^2 - 1 -> eigenvalues -1, 1
        w, u = sym_eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(u[:, 0]), [inv_sqrt2, inv_sqrt2], atol=1e-10)
        np.testing.assert_allclose(np.abs(u[:, 1]), [inv_sqrt2, inv_sqrt2], atol=1e-10)
        assert np.sign(u[0, 0] * u[1, 0]) < 0  # antisymmetric mode
        assert np.sign(u[0, 1] * u[1, 1]) > 0  # symmetric mode

    def test_ring_t4_eigenvalues(self):
        # 2 - 2cos(2 pi k / 4) for k = 0..3 -> {0, 2, 2, 4}
        w, _ = sym_eigendecompose(ring_laplacian(4))
        np.testing.assert_allclose(w, [0.0, 2.0, 2.0, 4.0], atol=1e-9)


class TestContracts:
    def test_eigenpair_residual_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 17, 48):
            x = rng.standard_normal((n, n))
            m = (x + x.T) / 2
            w, u = sym_eigendecompose(m)
            assert np.all(np.diff(w) >= -1e-12)
            resid = np.max(np.abs(m @ u - u * w[None, :]))
            assert resid <= 1e-8 * np.linalg.norm(m)
            np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-9)

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, n))
        m = (x + x.T) / 2
        w, u = sym_eigendecompose(m)
        rel = np.linalg.norm(u @ (w[:, None] * u.T) - m) / np.linalg.norm(m)
        assert rel < 1e-8

    def test_zero_and_single(self):
        w, u = sym_eigendecompose(np.zeros((4, 4)))
        np.testing.assert_allclose(w, 0.0)
        np.testing.assert_allclose(u, np.eye(4))
        w, u = sym_eigendecompose(np.array([[3.5]]))
        assert w[0] == 3.5 and u[0, 0] == 1.0

    def test_near_symmetric_is_averaged(self):
        m = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
        w, _ = sym_eigendecompose(m)
        np.testing.assert_allclose(w, [-1.0, 3.0], atol=1e-9)


class TestErrors:
    def test_non_finite(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InputError):
            sym_eigendecompose(m)

    def test_asymmetric(self):
        with pytest.raises(InputError):
            sym_eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_not_square(self):
        with pytest.raises(InputError):
            sym_eigendecompose(np.zeros((2, 3)))

    def test_size_cap(self):
        with pytest.raises(InputError):
            sym_eigendecompose(np.eye(1025))

    def test_solver_failure_is_numeric_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericError):
            sym_eigendecompose(np.eye(3))


def symmetric_stack(rng, shape, n):
    x = rng.standard_normal(shape + (n, n))
    return (x + np.swapaxes(x, -1, -2)) / 2


class TestStack:
    @pytest.mark.parametrize("shape,n", [((6,), 1), ((6,), 5), ((64,), 11), ((2, 3), 44)])
    def test_equals_per_matrix_calls(self, shape, n):
        stack = symmetric_stack(np.random.default_rng(n), shape, n)
        w, u = sym_eigendecompose(stack)
        assert w.shape == shape + (n,) and u.shape == shape + (n, n)
        for idx in np.ndindex(*shape):
            w1, u1 = sym_eigendecompose(stack[idx])
            np.testing.assert_array_equal(w[idx], w1)
            np.testing.assert_array_equal(u[idx], u1)

    def test_one_non_symmetric_member_rejected(self):
        # member 0's magnitude must not widen member 1's symmetry tolerance
        stack = symmetric_stack(np.random.default_rng(1), (4,), 5)
        stack[0] *= 1e6
        stack[1, 0, 1] += 1e-6
        with pytest.raises(InputError, match="symmetric"):
            sym_eigendecompose(stack)
        sym_eigendecompose(stack[[0, 2, 3]])

    def test_one_non_finite_member_rejected(self):
        stack = symmetric_stack(np.random.default_rng(2), (4,), 5)
        stack[2, 3, 3] = np.inf
        with pytest.raises(InputError, match="non-finite"):
            sym_eigendecompose(stack)

    def test_size_cap_is_on_n_not_depth(self):
        w, _ = sym_eigendecompose(np.broadcast_to(np.eye(2), (MAX_EIGEN_SIZE + 1, 2, 2)))
        np.testing.assert_array_equal(w, 1.0)
        with pytest.raises(InputError, match="cap"):
            sym_eigendecompose(np.broadcast_to(np.eye(MAX_EIGEN_SIZE + 1),
                                               (2, MAX_EIGEN_SIZE + 1, MAX_EIGEN_SIZE + 1)))

    def test_non_square_stack_rejected(self):
        with pytest.raises(InputError, match="square"):
            sym_eigendecompose(np.zeros((3, 2, 4)))


class TestAddRowsAt:
    @pytest.mark.parametrize("idx_shape, width, rows_dtype, specials", [
        ((400,), 5, np.float64, False),
        ((40, 10), 5, np.float64, False),
        ((40, 10), 6, np.float64, False),
        ((40, 10), 6, np.float32, False),
        ((40, 10), 6, np.float64, True),
    ], ids=["idx_shape0", "idx_shape1", "even_width", "float32_rows", "signed_zero_inf_nan"])
    def test_bit_identical_to_row_add_at(self, idx_shape, width, rows_dtype, specials):
        # few target rows, many duplicate indices: the summation order
        # matters.  An odd width takes the float scatter, an even one the
        # complex-pair scatter.
        rng = np.random.default_rng(0)
        target = rng.standard_normal((7, width))
        idx = rng.integers(0, 7, size=idx_shape)
        rows = (rng.standard_normal(idx_shape + (width,))
                * 10.0 ** rng.integers(-8, 8, idx_shape + (width,))).astype(rows_dtype)
        if specials:
            hit = rng.random(rows.shape) < 0.01
            rows[hit] = rng.choice([-0.0, np.inf, -np.inf, np.nan], size=hit.sum())
            # a row that only ever adds -0.0 keeps its sign bit
            target[0] = -0.0
            rows[idx == 0] = -0.0
        expected = target.copy()
        with np.errstate(invalid="ignore"):         # inf + -inf
            np.add.at(expected, idx, rows)
            add_rows_at(target, idx, rows)
        assert target.dtype == expected.dtype and target.tobytes() == expected.tobytes()
        if specials:
            assert np.signbit(target[0]).all()
            assert np.isnan(target).any() and np.isinf(target).any()

    def test_flat_index_is_the_one_temporary(self):
        # (1024, 16) float64 rows scatter as (1024, 8) complex pairs, so the
        # flat index is half as large as the rows and built in one pass
        rng = np.random.default_rng(0)
        target = np.zeros((64, 16))
        idx = rng.integers(0, 64, size=1024)
        rows = rng.standard_normal((1024, 16))
        tracemalloc.start()
        try:
            add_rows_at(target, idx, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * rows.nbytes

    def test_rejects_a_view_it_cannot_write_through(self):
        with pytest.raises(InputError):
            add_rows_at(np.zeros((5, 4)).T, np.array([0, 1]), np.ones((2, 5)))
