"""Spectral profile, attenuation and theorem-probe tests."""

import numpy as np
import pytest

from freqrec.analysis import (
    SpectralProfile,
    attenuation_metric,
    profile_from_trace,
    theorem1_probe,
    trace_spectral_profile,
)
from freqrec.dataset import SynthConfig, build_split, synthesize
from freqrec.errors import InputError
from freqrec.graph import build_cooccurrence, local_subgraph, normalized_laplacian
from freqrec import glpf
from freqrec.model.network import forward
from freqrec.spectral import basis_from_matrix
from freqrec.tfm import ButterworthSpec
from tests.test_model import TFM_MODES, config_model, count_calls, small_model


@pytest.fixture(scope="module")
def setup():
    log, _ = synthesize(SynthConfig(users=40, items=30, mean_length=12, rho=0.5, seed=0))
    split = build_split(log, min_interactions=5)
    graph = build_cooccurrence(split)
    model = small_model(split, d_model=16, n_layers=2)
    return split, graph, model


class TestProfile:
    def test_eigenvector_signal_all_band_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 6))
        basis = basis_from_matrix((x + x.T) / 2)
        u1 = basis.eigenvectors[:, :1]
        trace = [u1 @ rng.standard_normal((1, 4)) for _ in range(3)]
        raw = profile_from_trace(trace, basis, n_bands=3)
        shares = raw / raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(shares[:, 0], 1.0, atol=1e-10)

    def test_two_node_hand_case(self):
        # two targets joined by weight w > 0: L = [[1,-1],[-1,1]], modes
        # (1,1)/sqrt(2) at 0 and (1,-1)/sqrt(2) at 2; H = [[1,0],[-1,0]]
        # lies entirely on the high mode
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        basis = basis_from_matrix(lap)
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
        h = np.array([[1.0, 0.0], [-1.0, 0.0]])
        raw = profile_from_trace([h], basis, n_bands=2)
        shares = raw / raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(shares[0], [0.0, 1.0], atol=1e-12)

    def test_trace_shapes_and_share_rows(self, setup):
        split, graph, model = setup
        profile = trace_spectral_profile(model, split.sequences, graph, n_bands=4)
        assert profile.raw.shape == (model.backbone.n_layers + 1, 4)
        assert profile.user_count > 0
        shares = profile.shares()
        np.testing.assert_allclose(shares.sum(axis=1), 1.0, atol=1e-9)

    def test_short_sequences_skipped(self, setup):
        split, graph, model = setup
        seqs = [split.sequences[0], np.array([1, 2]), np.array([3])]
        profile = trace_spectral_profile(model, seqs, graph, n_bands=4)
        assert profile.skipped_short == 2
        assert profile.user_count == 1

    def test_energy_conservation_per_user(self, setup):
        split, graph, model = setup
        seq = split.sequences[0]
        _, trace = forward(model, seq, capture=True)
        basis = basis_from_matrix(normalized_laplacian(local_subgraph(graph, seq[1:])))
        cut = [h[:-1] for h in trace]
        raw = profile_from_trace(cut, basis, n_bands=4)
        for l, h in enumerate(cut):
            total = float(np.sum(h * h))
            assert abs(raw[l].sum() - total) <= 1e-9 * max(total, 1.0)

    @pytest.mark.parametrize("backbone_kw", [
        TFM_MODES[mode] for mode in ("off", "on", "causal_safe")
    ], ids=["off", "on", "causal_safe"])
    def test_matches_per_sequence_sum(self, setup, backbone_kw):
        split, graph, _ = setup
        model = small_model(split, d_model=16, n_layers=2, **backbone_kw)
        # plus two short sequences and one whose targets are a single item
        # (its local graph has no edges)
        seqs = list(split.sequences) + [np.array([1, 2]), np.array([4]),
                                        np.array([0, 5, 5, 5])]
        profile = trace_spectral_profile(model, seqs, graph, n_bands=4)
        raw, users, energies, short, degenerate = None, [], [], 0, 0
        for user, seq in enumerate(seqs):
            if seq.size < 3:
                short += 1
                continue
            adjacency = local_subgraph(graph, seq[1:])
            if not adjacency.any():
                degenerate += 1
                continue
            _, trace = forward(model, seq, capture=True)
            mat = profile_from_trace([h[:-1] for h in trace],
                                     basis_from_matrix(normalized_laplacian(adjacency)), 4)
            raw = mat if raw is None else raw + mat
            users.append(user)
            energies.append(mat)
        np.testing.assert_allclose(profile.raw, raw, rtol=1e-12)
        assert (profile.user_count, profile.skipped_short, profile.skipped_degenerate) == (
            len(users), 2, 1)
        assert (short, degenerate) == (2, 1)
        np.testing.assert_array_equal(profile.users, users)
        assert profile.user_energies.shape == (len(users), model.backbone.n_layers + 1, 4)
        np.testing.assert_allclose(profile.user_energies, np.stack(energies), rtol=1e-12)
        np.testing.assert_array_equal(profile.raw, profile.user_energies.sum(axis=0))

    @pytest.mark.parametrize("form", TFM_MODES)
    def test_both_modes_are_two_single_mode_calls(self, setup, form):
        split, graph, _ = setup
        model = small_model(split, d_model=16, n_layers=2, **TFM_MODES[form])
        # plus a short sequence, a length-4 chunk whose one graph has no
        # edges and an edgeless graph among the length-6 sequences
        seqs = list(split.sequences) + [np.array([1, 2]), np.array([0, 5, 5, 5]),
                                        np.array([3, 5, 5, 5, 5, 5])]
        assert any(seq.size == 6 for seq in split.sequences)
        both = trace_spectral_profile(model, seqs, graph, n_bands=3, tfm_modes=(True, False))
        for enabled, profile in zip((True, False), both):
            model.backbone.tfm_enabled = enabled
            single = trace_spectral_profile(model, seqs, graph, n_bands=3)
            np.testing.assert_array_equal(profile.raw, single.raw)
            np.testing.assert_array_equal(profile.user_energies, single.user_energies)
            np.testing.assert_array_equal(profile.users, single.users)
            assert (profile.user_count, profile.skipped_short, profile.skipped_degenerate) == (
                single.user_count, 1, 2)

    def test_windows_too_short_for_the_bands_are_skipped(self, setup):
        split, graph, model = setup
        # a 4-item window has 3 target nodes: enough for 3 bands, not for 4
        seqs = list(split.sequences) + [np.array([0, 1, 2, 3]), np.array([0, 5, 5, 5])]
        three = trace_spectral_profile(model, seqs, graph, n_bands=3)
        four = trace_spectral_profile(model, seqs, graph, n_bands=4)
        assert (three.skipped_short, three.skipped_degenerate) == (0, 1)
        assert (four.skipped_short, four.skipped_degenerate) == (1, 1)
        assert four.user_count == three.user_count - 1 == len(split.sequences)
        assert len(seqs) - 2 in three.users and len(seqs) - 2 not in four.users

    def test_fused_table_filtered_once(self, setup, monkeypatch):
        split, graph, _ = setup
        model = config_model(split, graph, {"glpf.apply_to": "fused"})
        calls = count_calls(monkeypatch, glpf, "polynomial_filter")
        trace_spectral_profile(model, split.sequences, graph, n_bands=4)
        assert len(calls) == 1

    def test_additivity(self, setup):
        split, graph, model = setup
        seqs = list(split.sequences)
        half = len(seqs) // 2
        full = trace_spectral_profile(model, seqs, graph, n_bands=4)
        part_a = trace_spectral_profile(model, seqs[:half], graph, n_bands=4)
        part_b = trace_spectral_profile(model, seqs[half:], graph, n_bands=4)
        np.testing.assert_allclose(full.raw, part_a.raw + part_b.raw, rtol=1e-12)


class TestAttenuation:
    def make_profile(self, shares):
        shares = np.asarray(shares, dtype=float)
        return SpectralProfile(raw=shares, n_bands=shares.shape[1], user_count=1)

    def ratios_and_slopes(self, shares):
        summary = attenuation_metric(self.make_profile(shares))
        assert [entry["band"] for entry in summary] == list(range(len(shares[0])))
        return [entry["ratio"] for entry in summary], [entry["slope"] for entry in summary]

    def test_constant_profile(self):
        ratios, slopes = self.ratios_and_slopes([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        assert ratios == [1.0, 1.0]
        np.testing.assert_allclose(slopes, 0.0, atol=1e-12)

    def test_linear_decay_slope(self):
        ratios, slopes = self.ratios_and_slopes([[1.0, 0.0], [0.8, 0.2], [0.6, 0.4]])
        assert slopes[0] == pytest.approx(-0.2)
        assert ratios[0] == pytest.approx(0.6)

    def test_zero_initial_band_undefined(self):
        ratios, _ = self.ratios_and_slopes([[1.0, 0.0], [0.9, 0.1]])
        assert ratios[1] is None

    def test_hand_case_band2_ratio_one(self):
        ratios, _ = self.ratios_and_slopes([[0.0, 1.0], [0.0, 1.0]])
        assert ratios[1] == pytest.approx(1.0)

    def test_single_layer_rejected(self):
        with pytest.raises(InputError):
            attenuation_metric(self.make_profile([[1.0, 0.0]]))


class TestTheoremProbe:
    def test_ring_family_zero_violations(self):
        report = theorem1_probe(ButterworthSpec(0.3, 2), "ring", trials=300, seed=0)
        assert report.violations_rayleigh == 0
        assert report.mean_smoothness_after < report.mean_smoothness_before

    def test_locality_within_pilot_threshold(self):
        report = theorem1_probe(ButterworthSpec(0.3, 2), "locality", rho=0.5,
                                trials=300, seed=1)
        assert report.within_threshold()
        assert report.mean_smoothness_after < report.mean_smoothness_before

    def test_identity_filter_exact(self):
        report = theorem1_probe(None, "ring", trials=100, seed=2)
        assert report.violations_rayleigh == 0
        assert report.violations_quadratic == 0
        assert report.mean_smoothness_before == report.mean_smoothness_after

    def test_ring_report_has_no_rho(self):
        ring = theorem1_probe(ButterworthSpec(0.3, 2), "ring", rho=0.5, trials=10, seed=0)
        assert ring.rho is None and ring.to_dict()["rho"] is None
        locality = theorem1_probe(ButterworthSpec(0.3, 2), "locality", rho=0.5, trials=10)
        assert locality.to_dict()["rho"] == 0.5

    def test_bad_family(self):
        with pytest.raises(InputError):
            theorem1_probe(ButterworthSpec(0.3, 2), "torus", trials=10)

    def test_bad_rho(self):
        with pytest.raises(InputError):
            theorem1_probe(ButterworthSpec(0.3, 2), "locality", rho=1.5, trials=10)
