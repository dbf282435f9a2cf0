"""Graph low-pass filter tests: polynomial path against the dense oracle."""

import numpy as np
import pytest

from freqrec.dataset import SynthConfig, build_split, synthesize
from freqrec.errors import CapabilityError, InputError
from freqrec.glpf import (
    PolyFilterSpec,
    polynomial_filter,
    spectral_oracle_filter,
    stage_filter,
)
from freqrec.graph import CooccurrenceGraph, build_cooccurrence
from freqrec.numcore.linalg import sym_eigendecompose


def random_graph(rng, n, density=0.3):
    """Random sparse symmetric co-occurrence-like graph as a CooccurrenceGraph."""
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w = np.triu(w, k=1)
    w = w + w.T
    rows, cols = np.nonzero(w)
    order = np.argsort(rows.astype(np.int64) * n + cols.astype(np.int64), kind="stable")
    rows, cols = rows[order], cols[order]
    weights = w[rows, cols]
    degrees = np.bincount(rows, weights=weights, minlength=n).astype(float)
    return CooccurrenceGraph(n_items=n, rows=rows, cols=cols, weights=weights,
                             degrees=degrees)


def synth_graph(seed=0):
    log, _ = synthesize(SynthConfig(users=40, items=30, mean_length=10, rho=0.5, seed=seed))
    split = build_split(log, min_interactions=5)
    return build_cooccurrence(split)


class TestPolynomialFilter:
    def test_alpha_zero_is_identity(self):
        graph = synth_graph()
        rng = np.random.default_rng(0)
        e = rng.standard_normal((graph.n_items, 5))
        out = polynomial_filter(graph, PolyFilterSpec.first_order(0.0), e)
        np.testing.assert_array_equal(out, e)

    def test_alpha_one_flips_top_eigenvector(self):
        # adjacency [[0,1],[1,0]] has normalized-Laplacian eigenvalue 2 with
        # eigenvector (1,-1)/sqrt(2); gain 1 - 2 = -1
        graph = random_graph(np.random.default_rng(1), 2, density=2.0)
        w, u = sym_eigendecompose(graph.dense_laplacian())
        top = u[:, -1:]
        assert abs(w[-1] - 2.0) < 1e-9
        out = polynomial_filter(graph, PolyFilterSpec.first_order(1.0), top)
        np.testing.assert_allclose(out, -top, atol=1e-10)

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(5, 40))
            graph = random_graph(rng, n)
            e = rng.standard_normal((n, 7))
            for alpha in (0.0, 0.3, 1.0):
                spec = PolyFilterSpec.first_order(alpha)
                a = polynomial_filter(graph, spec, e)
                b = spectral_oracle_filter(graph, spec.response, e)
                scale = max(1.0, np.max(np.abs(b)))
                assert np.max(np.abs(a - b)) <= 1e-10 * scale
            coeffs = tuple(rng.standard_normal(4))
            spec = PolyFilterSpec(coeffs)
            a = polynomial_filter(graph, spec, e)
            b = spectral_oracle_filter(graph, spec.response, e)
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))

    def test_linearity(self):
        graph = synth_graph(3)
        rng = np.random.default_rng(3)
        e1 = rng.standard_normal((graph.n_items, 4))
        e2 = rng.standard_normal((graph.n_items, 4))
        spec = PolyFilterSpec.first_order(0.4)
        combined = polynomial_filter(graph, spec, 2.0 * e1 - 3.0 * e2)
        separate = 2.0 * polynomial_filter(graph, spec, e1) - 3.0 * polynomial_filter(graph, spec, e2)
        assert np.max(np.abs(combined - separate)) < 1e-10 * max(1.0, np.max(np.abs(separate)))

    def test_first_order_gain_bound(self):
        # |1 - alpha * lambda| <= 1 for alpha in [0, 1], lambda in [0, 2],
        # with equality at the endpoints
        lams = np.linspace(0.0, 2.0, 201)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            gains = PolyFilterSpec.first_order(alpha).response(lams)
            assert np.all(np.abs(gains) <= 1.0 + 1e-12)
        assert PolyFilterSpec.first_order(1.0).response(np.array([2.0]))[0] == -1.0

    def test_alpha_out_of_range(self):
        with pytest.raises(InputError):
            PolyFilterSpec.first_order(1.5)
        with pytest.raises(InputError):
            PolyFilterSpec.first_order(-0.1)

    @pytest.mark.parametrize("coefficients", [(), (1.0, np.nan), (np.inf,), (1.0, -np.inf)])
    def test_coefficients_refused(self, coefficients):
        with pytest.raises(InputError):
            PolyFilterSpec(coefficients)

    def test_dimension_mismatch(self):
        graph = synth_graph(4)
        with pytest.raises(InputError):
            polynomial_filter(graph, PolyFilterSpec.first_order(0.3),
                              np.ones((graph.n_items + 1, 3)))


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("apply_to", ["id", "fused"])
def test_stage_filter_is_the_configured_filter_at_its_one_stage(enabled, apply_to):
    graph = synth_graph(4)
    glpf = {"enabled": enabled, "alpha": 0.4, "coefficients": None, "apply_to": apply_to}
    explicit = dict(glpf, coefficients=[1.0, -0.6, 0.2])
    for section, coefficients in ((glpf, (1.0, -0.4)), (explicit, (1.0, -0.6, 0.2))):
        for stage in ("id", "fused"):
            found = stage_filter(section, stage, graph)
            if enabled and stage == apply_to:
                assert found.spec == PolyFilterSpec(coefficients) and found.graph is graph
                e = np.random.default_rng(3).standard_normal((graph.n_items, 2))
                np.testing.assert_array_equal(
                    found.apply(e), polynomial_filter(graph, found.spec, e))
            else:
                assert found is None


@pytest.mark.parametrize("apply_to", ["id", "fused"])
def test_stage_filter_without_a_graph_is_refused(apply_to):
    glpf = {"enabled": True, "alpha": 0.4, "coefficients": None, "apply_to": apply_to}
    with pytest.raises(InputError, match=f"glpf.apply_to={apply_to} needs --graph"):
        stage_filter(glpf, apply_to, None)
    # a stage where the config filters nothing needs no graph
    other = "fused" if apply_to == "id" else "id"
    assert stage_filter(glpf, other, None) is None
    assert stage_filter(dict(glpf, enabled=False), apply_to, None) is None


class TestOracle:
    def test_identity_response(self):
        graph = synth_graph(5)
        rng = np.random.default_rng(5)
        e = rng.standard_normal((graph.n_items, 3))
        out = spectral_oracle_filter(graph, lambda lam: np.ones_like(lam), e)
        np.testing.assert_allclose(out, e, atol=1e-9)

    def test_size_cap(self):
        graph = random_graph(np.random.default_rng(6), 4)
        graph.n_items = 2000  # simulate an oversized catalog
        with pytest.raises(CapabilityError, match="polynomial_filter"):
            spectral_oracle_filter(graph, lambda lam: lam, np.ones((2000, 2)))
