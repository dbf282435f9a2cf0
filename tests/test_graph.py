"""Co-occurrence graph and local subgraph tests."""

import re

import numpy as np
import pytest

from freqrec.dataset import SplitDataset, SynthConfig, build_split, synthesize
from freqrec.errors import InputError
from freqrec.graph import (
    build_cooccurrence,
    load_graph,
    local_subgraph,
    normalized_laplacian,
    save_graph,
)
from freqrec.numcore.linalg import sym_eigendecompose


def split_from_histories(histories):
    """SplitDataset whose train views equal the given token lists; two pad
    tokens per user sit in the leave-one-out tail and never reach training."""
    vocab = sorted({t for h in histories for t in h} | {"zzpad1", "zzpad2"})
    index = {t: i for i, t in enumerate(vocab)}
    seqs = [np.array([index[t] for t in h] + [index["zzpad1"], index["zzpad2"]],
                     dtype=np.int64) for h in histories]
    return SplitDataset(user_tokens=[f"u{k}" for k in range(len(histories))],
                        item_tokens=vocab, sequences=seqs,
                        item_text=[""] * len(vocab), max_seq_len=1000,
                        min_interactions=1)


class TestBuildCooccurrence:
    def test_hand_example(self):
        # R = [[1,1,0],[1,1,1]] -> R^T R, zero diagonal: [[0,2,1],[2,0,1],[1,1,0]]
        split = split_from_histories([["a", "b"], ["a", "b", "c"]])
        graph = build_cooccurrence(split)
        ia, ib, ic = (split.item_tokens.index(t) for t in "abc")
        w = graph.dense_adjacency()
        sub = w[np.ix_([ia, ib, ic], [ia, ib, ic])]
        np.testing.assert_array_equal(sub, [[0, 2, 1], [2, 0, 1], [1, 1, 0]])
        np.testing.assert_array_equal(graph.degrees[[ia, ib, ic]], [3, 3, 2])

    def test_binarize_counts_users_not_events(self):
        split = split_from_histories([["a", "a", "b"], ["a", "b"]])
        ia = split.item_tokens.index("a")
        ib = split.item_tokens.index("b")
        assert build_cooccurrence(split).dense_adjacency()[ia, ib] == 2.0

    def test_single_training_item_gives_zero_graph(self):
        split = split_from_histories([["a"]])
        graph = build_cooccurrence(split)
        np.testing.assert_array_equal(graph.dense_adjacency(), 0.0)
        np.testing.assert_array_equal(graph.degrees, 0.0)

    def test_symmetry_against_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_users = int(rng.integers(1, 6))
            n_items = int(rng.integers(3, 8))
            histories = [[f"i{int(rng.integers(0, n_items))}"
                          for _ in range(int(rng.integers(1, 6)))]
                         for _ in range(n_users)]
            split = split_from_histories(histories)
            graph = build_cooccurrence(split)
            w = graph.dense_adjacency()
            expect = np.zeros_like(w)
            for items in split.train_views().values():
                uniq = sorted(set(int(x) for x in items))
                for a_i, a in enumerate(uniq):
                    for b in uniq[a_i + 1:]:
                        expect[a, b] += 1
                        expect[b, a] += 1
            np.testing.assert_array_equal(w, expect)
            np.testing.assert_array_equal(w, w.T)

    def test_laplacian_kernel_vector(self):
        log, _ = synthesize(SynthConfig(users=40, items=25, mean_length=10, rho=0.5, seed=2))
        split = build_split(log, min_interactions=5)
        graph = build_cooccurrence(split)
        v = np.where(graph.degrees > 0, np.sqrt(graph.degrees), 0.0)
        np.testing.assert_allclose(graph.laplacian_matvec(v), 0.0, atol=1e-10)

    def test_matvec_matches_dense(self):
        log, _ = synthesize(SynthConfig(users=30, items=20, mean_length=8, rho=0.4, seed=5))
        split = build_split(log, min_interactions=5)
        graph = build_cooccurrence(split)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((graph.n_items, 3))
        np.testing.assert_allclose(graph.laplacian_matvec(x),
                                   graph.dense_laplacian() @ x, atol=1e-10)

    def test_empty_training_rejected(self):
        split = split_from_histories([[]])
        with pytest.raises(InputError):
            build_cooccurrence(split)


class TestLocalSubgraph:
    def make_graph(self):
        split = split_from_histories([["a", "b"], ["a", "b", "c"]])
        return split, build_cooccurrence(split)

    def test_copy_of_global_block(self):
        split, graph = self.make_graph()
        items = [split.item_tokens.index(t) for t in "abc"]
        local = local_subgraph(graph, items)
        np.testing.assert_array_equal(local, graph.dense_adjacency()[np.ix_(items, items)])
        np.testing.assert_array_equal(local, [[0, 2, 1], [2, 0, 1], [1, 1, 0]])

    def test_repeated_item_yields_identity_laplacian(self):
        split, graph = self.make_graph()
        ia = split.item_tokens.index("a")
        local = local_subgraph(graph, [ia, ia])
        np.testing.assert_array_equal(local, np.zeros((2, 2)))
        np.testing.assert_array_equal(normalized_laplacian(local), np.eye(2))
        assert not local.any()

    def test_spectrum_in_zero_two(self):
        log, _ = synthesize(SynthConfig(users=60, items=30, mean_length=12, rho=0.5, seed=8))
        split = build_split(log, min_interactions=5)
        graph = build_cooccurrence(split)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            t_len = int(rng.integers(2, 9))
            items = rng.integers(0, graph.n_items, size=t_len)
            w, _ = sym_eigendecompose(normalized_laplacian(local_subgraph(graph, items)))
            assert w[0] >= -1e-9
            assert w[-1] <= 2.0 + 1e-9

    def test_quadratic_form_identity(self):
        # f^T L f equals the degree-scaled edge sum, isolated nodes adding f_i^2
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            a = (a + a.T) / 2
            np.fill_diagonal(a, 0.0)
            lap = normalized_laplacian(a)
            d = a.sum(axis=1)
            f = rng.standard_normal(n)
            quad = f @ lap @ f
            scaled = np.where(d > 0, f / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
            edge_sum = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    edge_sum += a[i, j] * (scaled[i] - scaled[j]) ** 2
            edge_sum += float(np.sum(f[d == 0] ** 2))
            assert abs(quad - edge_sum) <= 1e-9 * max(1.0, abs(quad))

    def test_relabeling_permutes_consistently(self):
        split, graph = self.make_graph()
        items = np.array([split.item_tokens.index(t) for t in "abc"])
        perm = np.array([2, 0, 1])
        direct = local_subgraph(graph, items[perm])
        permuted = local_subgraph(graph, items)[np.ix_(perm, perm)]
        np.testing.assert_array_equal(direct, permuted)

    def test_too_short_rejected(self):
        _, graph = self.make_graph()
        with pytest.raises(InputError):
            local_subgraph(graph, [0])

    def test_out_of_range_rejected(self):
        _, graph = self.make_graph()
        with pytest.raises(InputError):
            local_subgraph(graph, [0, graph.n_items])

    def test_stack_equals_per_sequence_calls(self):
        log, _ = synthesize(SynthConfig(users=60, items=30, mean_length=12, rho=0.5, seed=8))
        graph = build_cooccurrence(build_split(log, min_interactions=5))
        rng = np.random.default_rng(5)
        for n in (2, 3, 11):
            block = rng.integers(0, graph.n_items, size=(7, n))
            block[3] = block[3, 0]          # one item repeated: no edge at all
            stacked = local_subgraph(graph, block)
            assert stacked.shape == (7, n, n)
            edgeless = ~stacked.any(axis=(-2, -1))
            assert edgeless.shape == (7,) and edgeless[3]
            laplacians = normalized_laplacian(stacked)
            for b, items in enumerate(block):
                one = local_subgraph(graph, items)
                np.testing.assert_array_equal(stacked[b], one)
                np.testing.assert_array_equal(laplacians[b], normalized_laplacian(one))
                assert edgeless[b] == (not one.any())

    def test_stack_out_of_range_rejected(self):
        _, graph = self.make_graph()
        block = np.zeros((4, 3), dtype=int)
        block[2, 1] = graph.n_items
        with pytest.raises(InputError, match="out of range"):
            local_subgraph(graph, block)
        block[2, 1] = -1
        with pytest.raises(InputError, match="out of range"):
            local_subgraph(graph, block)
        with pytest.raises(InputError):
            local_subgraph(graph, np.zeros((2, 2, 3), dtype=int))


class TestGraphIO:
    def test_roundtrip(self, tmp_path):
        log, _ = synthesize(SynthConfig(users=30, items=20, mean_length=8, rho=0.4, seed=6))
        split = build_split(log, min_interactions=5)
        graph = build_cooccurrence(split)
        graph.fingerprint = "cafe0123"
        path = tmp_path / "graph.tsv"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.n_items == graph.n_items
        assert loaded.fingerprint == "cafe0123"
        np.testing.assert_array_equal(loaded.rows, graph.rows)
        np.testing.assert_array_equal(loaded.cols, graph.cols)
        np.testing.assert_allclose(loaded.weights, graph.weights)
        np.testing.assert_allclose(loaded.degrees, graph.degrees)
        assert loaded.digest() == graph.digest()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("not json\n0\t1\t2\n")
        with pytest.raises(InputError):
            load_graph(path)

    @pytest.mark.parametrize("header", ["null", "[1, 2]", "5", '"nnz"', '{"n_items": 5}',
                                        '{"n_items": null, "nnz": 1}',
                                        '{"n_items": 5, "nnz": "x"}',
                                        '{"n_items": -1, "nnz": 0}'])
    def test_header_not_an_object_of_counts(self, tmp_path, header):
        path = tmp_path / "bad.tsv"
        path.write_text(header + "\n0\t1\t2.0\n")
        with pytest.raises(InputError, match="malformed graph header"):
            load_graph(path)

    @pytest.mark.parametrize("line, reason", [
        ("0\t5\t1.0", "outside"),
        ("-1\t3\t1.0", "outside"),
        ("2\t2\t1.0", "not i < j"),
        ("3\t1\t1.0", "not i < j"),
        ("0\t1\t2.0", "repeated"),
        ("1\t3\tnan", "weight"),
        ("1\t3\tinf", "weight"),
        ("1\t3\t0.0", "weight"),
        ("1\t3\t-2.0", "weight"),
    ])
    def test_bad_line_named(self, tmp_path, line, reason):
        # a 5-item graph whose third line is the bad one
        path = tmp_path / "bad.tsv"
        path.write_text('{"n_items": 5, "nnz": 2}\n0\t1\t1.0\n' + line + "\n")
        with pytest.raises(InputError, match=re.escape(f"{path}:3: ") + f".*{reason}"):
            load_graph(path)
