"""GFT, smoothness and band-energy tests."""

import numpy as np
import pytest

from freqrec.analysis import profile_from_trace
from freqrec.errors import InputError
from freqrec.graph import normalized_laplacian
from freqrec.spectral import (
    CLUSTER_RTOL,
    SpectralBasis,
    band_boundaries,
    band_energy,
    basis_from_matrix,
    gft,
    smoothness,
)
from freqrec.tfm import ring_graph_laplacian


def random_laplacian(rng, n, normalized=True):
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    if normalized:
        return normalized_laplacian(a), a
    d = np.diag(a.sum(axis=1))
    return d - a, a


def loop_band_energy(eigenvalues, coefficients, n_bands):
    """Reference band energies of one basis by explicit loops over clusters
    and bands."""
    per_rank = np.sum(coefficients * coefficients, axis=1)
    tol = CLUSTER_RTOL * max(1.0, float(np.max(np.abs(eigenvalues))))
    spread, start = np.empty(per_rank.size), 0
    for k in range(1, per_rank.size + 1):
        if k == per_rank.size or eigenvalues[k] - eigenvalues[k - 1] > tol:
            spread[start:k] = per_rank[start:k].sum() / (k - start)
            start = k
    bounds = band_boundaries(per_rank.size, n_bands)
    return np.array([spread[bounds[b]:bounds[b + 1]].sum() for b in range(n_bands)])


class TestGft:
    def test_eigenvector_maps_to_unit_coefficient(self):
        rng = np.random.default_rng(0)
        lap, _ = random_laplacian(rng, 8)
        basis = basis_from_matrix(lap)
        for k in (0, 3, 7):
            coeffs = gft(basis, basis.eigenvectors[:, k:k + 1])[:, 0]
            expect = np.zeros(8)
            expect[k] = 1.0
            np.testing.assert_allclose(np.abs(coeffs), expect, atol=1e-9)

    def test_constant_on_connected_regular_graph_is_dc(self):
        basis = basis_from_matrix(normalized_laplacian(
            ring_adjacency := 2 * np.eye(6) - ring_graph_laplacian(6)))
        f = np.ones((6, 2))
        coeffs = gft(basis, f)
        energy = np.sum(coeffs**2, axis=1)
        assert energy[0] / energy.sum() > 1.0 - 1e-10

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        lap, _ = random_laplacian(rng, 32)
        basis = basis_from_matrix(lap)
        f = rng.standard_normal((32, 8))
        back = basis.eigenvectors @ gft(basis, f)
        assert np.max(np.abs(back - f)) < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(2)
        lap, _ = random_laplacian(rng, 20)
        basis = basis_from_matrix(lap)
        f = rng.standard_normal((20, 5))
        coeffs = gft(basis, f)
        assert abs(np.sum(f * f) - np.sum(coeffs * coeffs)) <= 1e-10 * np.sum(f * f)

    def test_dimension_mismatch(self):
        basis = basis_from_matrix(np.eye(4))
        with pytest.raises(InputError):
            gft(basis, np.ones((5, 2)))


class TestSmoothness:
    def test_constant_on_connected_combinatorial(self):
        lap = ring_graph_laplacian(7)
        assert abs(smoothness(lap, np.ones(7))) < 1e-12

    def test_ring_alternating_hand_value(self):
        # f = (1,-1,1,-1) on the 4-ring, combinatorial L: sum over 4 edges of
        # (f_i - f_j)^2 = 4 * 4 = 16
        lap = ring_graph_laplacian(4)
        f = np.array([1.0, -1.0, 1.0, -1.0])
        assert abs(smoothness(lap, f) - 16.0) < 1e-12

    def test_edge_sum_equals_spectral_form(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(3, 12))
            lap, _ = random_laplacian(rng, n)
            basis = basis_from_matrix(lap)
            f = rng.standard_normal((n, 2))
            direct = smoothness(lap, f)
            coeffs = gft(basis, f)
            spectral_form = float(np.sum(basis.eigenvalues[:, None] * coeffs**2))
            assert abs(direct - spectral_form) <= 1e-9 * max(1.0, abs(direct))

    def test_nonnegative_and_kernel(self):
        rng = np.random.default_rng(4)
        lap, a = random_laplacian(rng, 10)
        f = rng.standard_normal((10, 3))
        assert smoothness(lap, f) >= -1e-12
        d = a.sum(axis=1)
        kernel_vec = np.where(d > 0, np.sqrt(d), 0.0)
        assert abs(smoothness(lap, kernel_vec)) < 1e-9


class TestBandEnergy:
    def test_energy_on_first_eigenvector_in_band_one(self):
        rng = np.random.default_rng(5)
        lap, _ = random_laplacian(rng, 12)
        basis = basis_from_matrix(lap)
        coeffs = np.zeros((12, 3))
        coeffs[0] = 2.0
        energies = band_energy(basis, coeffs, n_bands=4)
        np.testing.assert_allclose(energies / energies.sum(), [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_flat_spectrum_quarter_per_band(self):
        rng = np.random.default_rng(6)
        lap, _ = random_laplacian(rng, 8)
        basis = basis_from_matrix(lap)
        coeffs = np.ones((8, 1))
        energies = band_energy(basis, coeffs, n_bands=4)
        np.testing.assert_allclose(energies / energies.sum(), 0.25, atol=1e-12)

    def test_band_sum_is_total_energy(self):
        rng = np.random.default_rng(7)
        lap, _ = random_laplacian(rng, 17)
        basis = basis_from_matrix(lap)
        coeffs = rng.standard_normal((17, 6))
        energies = band_energy(basis, coeffs, n_bands=4)
        total = float(np.sum(coeffs * coeffs))
        assert energies.shape == (4,) and abs(energies.sum() - total) <= 1e-9 * total

    def test_boundaries_cover_all_ranks(self):
        for n in (4, 7, 10, 33):
            for n_bands in (1, 2, 4):
                bounds = band_boundaries(n, n_bands)
                assert bounds[0] == 0 and bounds[-1] == n
                assert np.all(np.diff(bounds) >= 1)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(8)
        lap, _ = random_laplacian(rng, 9)
        basis = basis_from_matrix(lap)
        coeffs = rng.standard_normal((9, 5))
        e1 = band_energy(basis, coeffs, n_bands=3)
        e2 = band_energy(basis, coeffs[:, rng.permutation(5)], n_bands=3)
        np.testing.assert_allclose(e1, e2, atol=1e-12)

    def test_rotation_inside_straddling_eigenspace_is_invisible(self):
        # the 4-ring has eigenvalues {0, 2, 2, 4}; with 4 bands the double
        # eigenvalue straddles the boundary between bands 1 and 2
        basis = basis_from_matrix(ring_graph_laplacian(4))
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-9)
        rng = np.random.default_rng(12)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.eye(4)
        rot[1:3, 1:3] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        rotated = SpectralBasis(eigenvalues=basis.eigenvalues,
                                eigenvectors=basis.eigenvectors @ rot)
        h = rng.standard_normal((4, 3))
        tol = 1e-12 * float(np.sum(h * h))
        a = band_energy(basis, gft(basis, h), n_bands=4)
        b = band_energy(rotated, gft(rotated, h), n_bands=4)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=tol)
        trace = [h, 2.0 * h]
        np.testing.assert_allclose(profile_from_trace(trace, basis, 4),
                                   profile_from_trace(trace, rotated, 4), rtol=0.0, atol=4.0 * tol)

    @pytest.mark.parametrize("n", [4, 9])
    def test_stack_equals_per_basis_loop(self, n):
        rng = np.random.default_rng(n)
        bases = [basis_from_matrix(random_laplacian(rng, n)[0]) for _ in range(5)]
        if n == 4:
            # the 4-ring's double eigenvalue straddles the band 1/2 boundary;
            # a rotated copy of its eigenspace must give the same energies
            ring = basis_from_matrix(ring_graph_laplacian(4))
            theta = rng.uniform(0.0, 2.0 * np.pi)
            rot = np.eye(4)
            rot[1:3, 1:3] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            bases += [ring, SpectralBasis(eigenvalues=ring.eigenvalues,
                                          eigenvectors=ring.eigenvectors @ rot)]
        stacked = SpectralBasis(eigenvalues=np.stack([b.eigenvalues for b in bases]),
                                eigenvectors=np.stack([b.eigenvectors for b in bases]))
        trace = [rng.standard_normal((len(bases), n, 3)) for _ in range(3)]
        if n == 4:
            for h in trace:
                h[-1] = h[-2]
        coeffs = gft(stacked, np.stack(trace))
        energies = band_energy(stacked, coeffs, n_bands=4)
        profile = profile_from_trace(trace, stacked, 4)
        assert energies.shape == (3, len(bases), 4) and profile.shape == (len(bases), 3, 4)
        for b, basis in enumerate(bases):
            for l, h in enumerate(trace):
                np.testing.assert_allclose(coeffs[l, b], gft(basis, h[b]), rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(
                    energies[l, b], loop_band_energy(basis.eigenvalues, gft(basis, h[b]), 4),
                    rtol=1e-12)
            np.testing.assert_allclose(profile[b], profile_from_trace([h[b] for h in trace],
                                                                      basis, 4), rtol=1e-12)
        if n == 4:
            tol = 1e-12 * max(float(np.sum(h[-1] ** 2)) for h in trace)
            np.testing.assert_allclose(profile[-1], profile[-2], rtol=0.0, atol=tol)

    def test_stack_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        stacked = basis_from_matrix(np.stack([random_laplacian(rng, 5)[0] for _ in range(3)]))
        with pytest.raises(InputError):
            band_energy(stacked, np.ones((2, 5, 1)), n_bands=4)
        with pytest.raises(InputError):
            band_energy(stacked, np.ones((3, 4, 1)), n_bands=4)

    def test_too_many_bands_rejected(self):
        basis = basis_from_matrix(np.eye(3))
        with pytest.raises(InputError):
            band_energy(basis, np.ones((3, 1)), n_bands=4)
