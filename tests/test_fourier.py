"""DFT contract tests: convention, roundtrip, agreement with the explicit matrix."""

import numpy as np
import pytest

from freqrec.errors import InputError
from freqrec.numcore.fourier import dft


class TestConvention:
    def test_constant_signal_is_dc_only(self):
        c = 2.75
        x = np.full(6, c)
        bins = dft(x)
        np.testing.assert_allclose(bins[0], 6 * c, atol=1e-12)
        np.testing.assert_allclose(bins[1:], 0.0, atol=1e-12)

    def test_unit_impulse_has_flat_spectrum(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(dft(x), np.ones(4), atol=1e-12)

    def test_matches_definition_sum(self):
        rng = np.random.default_rng(3)
        for t_len in (1, 2, 5, 8, 12):
            x = rng.standard_normal(t_len)
            expected = np.array([
                sum(x[t] * np.exp(-2j * np.pi * k * t / t_len) for t in range(t_len))
                for k in range(t_len)
            ])
            np.testing.assert_allclose(dft(x), expected, atol=1e-10)


class TestRoundtripAndSymmetry:
    def test_roundtrip_1000_random(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            t_len = int(rng.integers(1, 65))
            x = rng.standard_normal(t_len)
            back = dft(dft(x), inverse=True)
            worst = max(worst, np.max(np.abs(back - x)) / max(np.max(np.abs(x)), 1e-300))
        assert worst < 1e-12

    def test_conjugate_symmetry_real_input(self):
        rng = np.random.default_rng(9)
        for t_len in (4, 7, 16, 33):
            x = rng.standard_normal(t_len)
            bins = dft(x)
            scale = np.max(np.abs(bins))
            for k in range(1, t_len):
                assert abs(bins[k] - np.conj(bins[t_len - k])) <= 1e-12 * scale

    def test_parseval_inverse_scaling(self):
        rng = np.random.default_rng(13)
        for t_len in (3, 8, 50, 64):
            x = rng.standard_normal(t_len)
            lhs = np.sum(x * x)
            rhs = np.sum(np.abs(dft(x)) ** 2) / t_len
            assert abs(lhs - rhs) <= 1e-10 * lhs


class TestPaths:
    def test_matches_explicit_matrix(self):
        rng = np.random.default_rng(21)
        for t_len in (2, 8, 45, 64, 199, 256):
            x = (rng.standard_normal((t_len, 3)) + 1j * rng.standard_normal((t_len, 3)))
            k = np.arange(t_len)
            b = np.exp(-2j * np.pi * np.outer(k, k) / t_len) @ x
            a = dft(x)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_2d_transforms_columns(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 4))
        full = dft(x)
        for j in range(4):
            np.testing.assert_allclose(full[:, j], dft(x[:, j]), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            dft(np.array([]))

    def test_ndim_guard(self):
        with pytest.raises(InputError):
            dft(np.zeros((2, 2, 2)))
