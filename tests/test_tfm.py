"""Butterworth gain and temporal filtering tests."""

import numpy as np
import pytest

from freqrec.errors import InputError
from freqrec.spectral import smoothness
from freqrec.tfm import (
    ButterworthSpec,
    bin_frequencies,
    butterworth_gains,
    make_filter,
    ring_analytic_span,
    ring_eigenvalues_analytic,
    ring_graph_basis,
    ring_graph_laplacian,
    tfm_apply,
)


class TestGains:
    def test_cutoff_gain_is_inv_sqrt2(self):
        # T chosen so a bin lands exactly on omega_c: omega = 2k/T
        spec = ButterworthSpec(cutoff=0.5, order=3)
        gains = butterworth_gains(spec, 8)   # bin 2 -> omega = 0.5
        assert abs(gains[2] - 1.0 / np.sqrt(2.0)) < 1e-12

    def test_dc_gain_one(self):
        for t_len in (1, 2, 5, 32):
            gains = butterworth_gains(ButterworthSpec(0.3, 2), t_len)
            assert gains[0] == 1.0

    def test_brickwall_limit_order_16(self):
        spec = ButterworthSpec(cutoff=0.4, order=16)
        t_len = 40
        omega = bin_frequencies(t_len)
        gains = butterworth_gains(spec, t_len)
        assert np.all(gains[omega <= 0.5 * spec.cutoff] > 0.999)
        assert np.all(gains[omega >= 2.0 * spec.cutoff] < 0.001)

    def test_monotone_in_frequency_and_symmetric(self):
        spec = ButterworthSpec(cutoff=0.25, order=2)
        for t_len in (6, 7, 16, 33):
            gains = butterworth_gains(spec, t_len)
            omega = bin_frequencies(t_len)
            order = np.argsort(omega, kind="stable")
            assert np.all(np.diff(gains[order]) <= 1e-15)
            for k in range(1, t_len):
                assert gains[k] == gains[t_len - k]
            assert np.all(gains > 0.0) and np.all(gains <= 1.0)

    def test_degenerate_cutoff_rejected(self):
        with pytest.raises(InputError):
            ButterworthSpec(cutoff=0.0, order=2)
        with pytest.raises(InputError):
            ButterworthSpec(cutoff=0.3, order=0)


class TestApply:
    def test_constant_column_unchanged(self):
        h = np.full((9, 3), 1.5)
        np.testing.assert_allclose(tfm_apply(h, ButterworthSpec(0.3, 2)), h, atol=1e-12)

    def test_nyquist_column_scaling(self):
        # alternating +-1 is the single omega = 1 bin; with omega_c = 0.25 and
        # n = 2 the gain is sqrt(1 / (1 + 4^4))
        t_len = 8
        h = np.array([1.0 if t % 2 == 0 else -1.0 for t in range(t_len)])[:, None]
        out = tfm_apply(h, ButterworthSpec(cutoff=0.25, order=2))
        expect = h * np.sqrt(1.0 / (1.0 + 4.0**4))
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_energy_nonexpansive_1000_random(self):
        rng = np.random.default_rng(0)
        spec = ButterworthSpec(0.3, 2)
        for _ in range(1000):
            t_len = int(rng.integers(1, 33))
            h = rng.standard_normal((t_len, 4))
            out = tfm_apply(h, spec)
            assert np.linalg.norm(out) <= np.linalg.norm(h) + 1e-12

    def test_t1_identity(self):
        h = np.array([[3.0, -1.0]])
        np.testing.assert_array_equal(tfm_apply(h, ButterworthSpec(0.3, 2)), h)

    def test_twice_equals_squared_gains(self):
        rng = np.random.default_rng(1)
        spec = ButterworthSpec(0.35, 3)
        h = rng.standard_normal((12, 5))
        twice = tfm_apply(tfm_apply(h, spec), spec)
        gains = butterworth_gains(spec, 12) ** 2
        from freqrec.numcore.fourier import dft
        squared = dft(dft(h) * gains[:, None], inverse=True).real
        assert np.max(np.abs(twice - squared)) < 1e-10

    def test_dc_preservation(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((16, 6))
        out = tfm_apply(h, ButterworthSpec(0.2, 2))
        np.testing.assert_allclose(out.mean(axis=0), h.mean(axis=0), atol=1e-10)

    def test_shift_covariance_on_ring(self):
        rng = np.random.default_rng(3)
        spec = ButterworthSpec(0.3, 2)
        h = rng.standard_normal((10, 4))
        for shift in (1, 3, 7):
            rolled = np.roll(h, shift, axis=0)
            a = tfm_apply(rolled, spec)
            b = np.roll(tfm_apply(h, spec), shift, axis=0)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_rayleigh_never_increases_on_ring(self):
        rng = np.random.default_rng(4)
        spec = ButterworthSpec(0.3, 2)
        violations = 0
        for _ in range(1000):
            t_len = int(rng.integers(3, 33))
            lap = ring_graph_laplacian(t_len)
            h = rng.standard_normal((t_len, 3))
            out = tfm_apply(h, spec)
            r_before = smoothness(lap, h) / np.sum(h * h)
            r_after = smoothness(lap, out) / max(np.sum(out * out), 1e-300)
            if r_after > r_before + 1e-10 * max(1.0, abs(r_before)):
                violations += 1
        assert violations == 0

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            tfm_apply(np.array([[np.inf], [0.0]]), ButterworthSpec(0.3, 2))

    def test_make_filter_matches_apply(self):
        rng = np.random.default_rng(5)
        spec = ButterworthSpec(0.4, 2)
        h = rng.standard_normal((8, 3))
        fixed = make_filter(spec, 8)
        np.testing.assert_allclose(fixed(h), tfm_apply(h, spec), atol=1e-12)
        with pytest.raises(InputError):
            fixed(rng.standard_normal((9, 3)))


class TestRingBasis:
    def test_t4_multiset(self):
        basis = ring_graph_basis(4)
        np.testing.assert_allclose(np.sort(basis.eigenvalues), [0.0, 2.0, 2.0, 4.0],
                                   atol=1e-9)

    def test_t3_multiset(self):
        basis = ring_graph_basis(3)
        np.testing.assert_allclose(np.sort(basis.eigenvalues), [0.0, 3.0, 3.0],
                                   atol=1e-9)

    def test_constant_vector_is_kernel(self):
        for t_len in (3, 8, 13):
            basis = ring_graph_basis(t_len)
            v = basis.eigenvectors[:, 0]
            assert abs(basis.eigenvalues[0]) < 1e-9
            np.testing.assert_allclose(np.abs(v), 1.0 / np.sqrt(t_len), atol=1e-8)

    def test_analytic_multiset_and_spans(self):
        for t_len in (3, 4, 5, 8, 12, 17):
            basis = ring_graph_basis(t_len)
            np.testing.assert_allclose(basis.eigenvalues,
                                       ring_eigenvalues_analytic(t_len), atol=1e-9)
            analytic = ring_eigenvalues_analytic(t_len)
            for idx in range(t_len):
                lam = basis.eigenvalues[idx]
                k = int(np.argmin(np.abs(2.0 - 2.0 * np.cos(
                    2.0 * np.pi * np.arange(t_len // 2 + 1) / t_len) - lam)))
                span = ring_analytic_span(t_len, k)
                vec = basis.eigenvectors[:, idx]
                residual = vec - span @ (span.T @ vec)
                assert np.linalg.norm(residual) < 1e-8

    def test_too_small_rejected(self):
        with pytest.raises(InputError):
            ring_graph_basis(2)
