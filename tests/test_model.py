"""Model tests: embeddings, fusion, backbone, training."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from freqrec.checkpoint import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from freqrec.config import fingerprint, load_config
from freqrec.dataset import InteractionLog, SynthConfig, build_split, synthesize
from freqrec.errors import InputError
from freqrec.evalharness import draw_candidates, evaluate
from freqrec.glpf import PolyFilterSpec, polynomial_filter
from freqrec.graph import EDGE_BLOCK, build_cooccurrence
from freqrec import evalharness, glpf
from freqrec.model import network, training
from freqrec.model.embeddings import (
    PAIR_BLOCK,
    EmbeddingTable,
    PretrainConfig,
    _window_pairs,
    load_external,
    pretrain_id_embeddings,
    save_table,
    text_surrogate_embeddings,
)
from freqrec.model.network import (
    CHUNK_ROWS,
    RecModel,
    all_item_tokens,
    backbone_forward,
    build_model,
    forward,
    fuse,
    init_backbone,
    init_fusion_mlp,
    length_chunks,
    model_tokens,
)
from freqrec.model.training import TrainConfig, batch_loss, sequence_loss, train
from freqrec.numcore import autodiff as ad
from freqrec.tfm import (
    ButterworthSpec,
    TemporalFilter,
    butterworth_gains,
    make_filter,
    tfm_apply,
)


def cycle_log(n_cycles=40, cycle_len=3, laps=4):
    """Disjoint deterministic item cycles; two phase-shifted users walk each
    cycle, so the next item is always determined by the current one."""
    rows = []
    for c in range(n_cycles):
        items = [f"i{c:03d}_{j}" for j in range(cycle_len)]
        for u in range(2):
            user = f"u{c:03d}_{u}"
            for t in range(cycle_len * laps):
                rows.append((user, items[(t + u) % cycle_len], t, ""))
    return InteractionLog(rows)


def small_model(split, d_id=8, d_text=4, d_model=16, n_layers=2, seed=0,
                tfm_enabled=False, **backbone_kw):
    rng = np.random.default_rng(seed)
    id_table = EmbeddingTable(split.n_items, d_id,
                              rng.standard_normal((split.n_items, d_id)), provenance="id")
    text_table = EmbeddingTable(split.n_items, d_text,
                                rng.standard_normal((split.n_items, d_text)),
                                provenance="text")
    mlp = init_fusion_mlp(d_id + d_text, d_model, seed=seed + 1)
    backbone = init_backbone(n_layers=n_layers, d_model=d_model, n_heads=2,
                             seed=seed + 2, tfm_enabled=tfm_enabled, **backbone_kw)
    return RecModel(id_table=id_table, text_table=text_table, mlp=mlp, backbone=backbone)


def count_calls(monkeypatch, module, name):
    """A list that gains one entry per call of module.name from now on."""
    calls, fn = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def valid_draw(split):
    """The validation draw the training tests rank: 10 candidates, seed 0."""
    return draw_candidates(split, "valid", 10, 0)


def short_user_split():
    """Every fourth user has one training item, which training skips."""
    rng = np.random.default_rng(3)
    rows = [(f"u{u}", f"i{int(rng.integers(12))}", t, "")
            for u in range(16) for t in range(3 if u % 4 == 0 else 8)]
    return build_split(InteractionLog(rows), min_interactions=3)


@pytest.fixture(scope="module")
def synth_split():
    log, _ = synthesize(SynthConfig(users=30, items=24, mean_length=10, rho=0.5, seed=0))
    return build_split(log, min_interactions=5)


SMALL = {"model.d_id": 8, "model.d_text": 4, "model.d_model": 16, "backbone.layers": 2}


def small_config(overrides=None):
    return load_config(overrides={**SMALL, **(overrides or {})})


def config_model(split, graph, overrides):
    """A small model built from the effective config, as the CLI builds it."""
    rng = np.random.default_rng(0)
    id_table = EmbeddingTable(split.n_items, 8, rng.standard_normal((split.n_items, 8)))
    text_table = EmbeddingTable(split.n_items, 4, rng.standard_normal((split.n_items, 4)))
    return build_model(small_config(overrides), id_table, text_table, graph=graph)


def reference_window_pairs(sequences, window):
    """The pair list as a loop over sequences, centers and contexts."""
    centers, contexts = [], []
    for seq in sequences:
        n = len(seq)
        for i in range(n):
            for j in range(max(0, i - window), min(n, i + window + 1)):
                if j != i:
                    centers.append(seq[i])
                    contexts.append(seq[j])
    return np.asarray(centers, dtype=np.intp), np.asarray(contexts, dtype=np.intp)


def reference_pretrain(split, config):
    """Skip-gram on separate w_in / w_out tables, one mean-over-duplicates
    SGD step per table and term (centers, contexts, negatives)."""
    def scatter_mean_update(target, idx, grads):
        counts = np.bincount(idx, minlength=target.shape[0])[idx].astype(float)
        np.add.at(target, idx, (-config.lr / counts)[:, None] * grads)

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    sequences = [v for v in split.train_views() if len(v) > 0]
    n_items = split.n_items
    rng = np.random.default_rng(config.seed)
    w_in = (rng.random((n_items, config.dim)) - 0.5) / config.dim
    w_out = np.zeros((n_items, config.dim))
    centers, contexts = reference_window_pairs(sequences, config.window)
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(centers.size)
        negs = rng.integers(0, n_items, size=(centers.size, config.negatives))
        epoch_loss = 0.0
        for start in range(0, centers.size, config.chunk):
            sel = order[start:start + config.chunk]
            c_idx, o_idx, n_idx = centers[sel], contexts[sel], negs[sel]
            c, o, nv = w_in[c_idx], w_out[o_idx], w_out[n_idx]
            pos = sigmoid(np.sum(c * o, axis=1))
            neg = sigmoid(np.einsum("bd,bkd->bk", c, nv))
            epoch_loss += float(-np.sum(np.log(np.maximum(pos, 1e-12)))
                                - np.sum(np.log(np.maximum(1.0 - neg, 1e-12))))
            g_pos = (pos - 1.0)[:, None]
            grad_c = g_pos * o + np.einsum("bk,bkd->bd", neg, nv)
            scatter_mean_update(w_in, c_idx, grad_c)
            scatter_mean_update(w_out, o_idx, g_pos * c)
            scatter_mean_update(w_out, n_idx.reshape(-1),
                                (neg[:, :, None] * c[:, None, :]).reshape(-1, config.dim))
        losses.append(epoch_loss / centers.size)
    return w_in, losses


def duplicate_heavy_split():
    """A 6-item catalog, so every chunk repeats rows in every group."""
    rng = np.random.default_rng(3)
    rows = [(f"u{u}", f"i{int(rng.integers(6))}", t, "")
            for u in range(12) for t in range(int(rng.integers(5, 14)))]
    return build_split(InteractionLog(rows), min_interactions=3)


# the golden pretraining case, its table's sha256 and its epoch losses
GOLDEN_TABLE_SHA256 = "33b4352a59e25e45638321d52f2dd8f1b24c78217ec95eedc60fad2b0cb7af2f"
GOLDEN_LOSSES = ["0x1.0960c0cc4ed66p+2", "0x1.81e4ec361f324p+1"]


def golden_pretrain_case():
    log, _ = synthesize(SynthConfig(users=300, items=200, mean_length=12, rho=0.5, seed=4))
    return build_split(log, min_interactions=5), PretrainConfig(dim=8, epochs=2, seed=3)


def table_sha256(rows):
    return hashlib.sha256(np.ascontiguousarray(rows, dtype="<f8").tobytes()).hexdigest()


class TestPretrain:
    @pytest.mark.parametrize("case, config", [
        ("duplicates", PretrainConfig(dim=6, window=3, negatives=4, epochs=3, lr=0.2,
                                      seed=2, chunk=16)),
        ("ragged_last_chunk", PretrainConfig(dim=8, window=2, epochs=2, seed=5, chunk=37)),
        ("chunk_1", PretrainConfig(dim=5, window=2, negatives=3, epochs=2, seed=1,
                                   chunk=1)),
        ("no_negatives", PretrainConfig(dim=6, negatives=0, epochs=2, seed=4, chunk=8)),
        ("default", PretrainConfig()),
    ], ids=["duplicates", "ragged_last_chunk", "chunk_1", "no_negatives", "default"])
    def test_stacked_step_matches_reference(self, synth_split, case, config):
        split = duplicate_heavy_split() if case == "duplicates" else synth_split
        if case == "ragged_last_chunk":
            centers, _ = reference_window_pairs(
                [v for v in split.train_views() if len(v) > 0], config.window)
            assert centers.size % config.chunk != 0
        table, losses = pretrain_id_embeddings(split, config)
        rows, ref_losses = reference_pretrain(split, config)
        # summation order differs, so entries near zero are compared on the
        # scale of the table
        np.testing.assert_allclose(table.rows, rows, rtol=1e-12,
                                   atol=1e-12 * np.abs(rows).max())
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12)

    @pytest.mark.parametrize("lengths", [[1], [2], [3, 1, 4], [12, 7, 2, 1, 9]])
    @pytest.mark.parametrize("window", [1, 5])
    def test_window_pairs_match_loop(self, lengths, window):
        rng = np.random.default_rng(sum(lengths))
        sequences = [rng.integers(0, 50, n) for n in lengths]
        pairs, ref = _window_pairs(sequences, window), reference_window_pairs(sequences, window)
        for got, want in zip(pairs, ref):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.shape == want.shape

    def test_separable_cosines(self):
        # items a, b always co-consumed; c lives with d in other users
        rows = []
        for u in range(6):
            rows += [(f"ab{u}", it, t, "") for t, it in enumerate(["a", "b", "a", "b", "a", "b"])]
            rows += [(f"cd{u}", it, t, "") for t, it in enumerate(["c", "d", "c", "d", "c", "d"])]
        split = build_split(InteractionLog(rows), min_interactions=5)
        table, losses = pretrain_id_embeddings(
            split, PretrainConfig(dim=16, epochs=20, lr=0.1, seed=1, chunk=64))
        ia, ib, ic = (split.item_tokens.index(t) for t in "abc")

        def cosine(x, y):
            return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))

        assert cosine(table.rows[ia], table.rows[ib]) > cosine(table.rows[ia], table.rows[ic])
        assert losses[-1] < losses[0]

    def test_deterministic(self, synth_split):
        cfg = PretrainConfig(dim=12, epochs=2, seed=7)
        t1, l1 = pretrain_id_embeddings(synth_split, cfg)
        t2, l2 = pretrain_id_embeddings(synth_split, cfg)
        np.testing.assert_array_equal(t1.rows, t2.rows)
        assert l1 == l2

    def test_dim_honored(self, synth_split):
        table, _ = pretrain_id_embeddings(synth_split, PretrainConfig(dim=50, epochs=1))
        assert table.rows.shape == (synth_split.n_items, 50)

    def test_pretrained_and_filtered_table_bytes(self):
        """The sha256 of the pretrained ID table and of its G-LPF-filtered
        form, and the epoch losses as float.hex, pin the pair order, the
        negative stream, the scatter order and the loss summation order.
        The shape spans several pair blocks and edge blocks, and neither
        path calls BLAS, so the thread count does not matter."""
        split, config = golden_pretrain_case()
        graph = build_cooccurrence(split)
        pairs, _ = _window_pairs([v for v in split.train_views() if len(v)],
                                 config.window)
        assert pairs.size > 4 * PAIR_BLOCK and graph.nnz > 2 * EDGE_BLOCK
        table, losses = pretrain_id_embeddings(split, config)
        filtered = polynomial_filter(graph, PolyFilterSpec((1.0, -0.6, 0.2)), table.rows)
        assert [table_sha256(a) for a in (table.rows, filtered)] == [
            GOLDEN_TABLE_SHA256,
            "82f6638d3256bf0dfbde36a54eba0c91c5ff8885392f1bbab9be8e92e8914b03",
        ]
        assert [float.hex(x) for x in losses] == GOLDEN_LOSSES

    @pytest.mark.parametrize("pair_block", [PretrainConfig.chunk, 10 * PAIR_BLOCK],
                             ids=["one_chunk", "ten_default_blocks"])
    def test_table_and_losses_do_not_depend_on_pair_block(self, monkeypatch, pair_block):
        split, config = golden_pretrain_case()
        monkeypatch.setattr("freqrec.model.embeddings.PAIR_BLOCK", pair_block)
        table, losses = pretrain_id_embeddings(split, config)
        assert table_sha256(table.rows) == GOLDEN_TABLE_SHA256
        assert [float.hex(x) for x in losses] == GOLDEN_LOSSES


class TestTextSurrogate:
    def test_identical_metadata_identical_vectors(self, synth_split):
        table = text_surrogate_embeddings(synth_split, d_text=16, seed=0)
        texts = synth_split.item_text
        for i in range(len(texts)):
            for j in range(i + 1, len(texts)):
                if texts[i] and texts[i] == texts[j]:
                    np.testing.assert_array_equal(table.rows[i], table.rows[j])

    def test_empty_metadata_zero_vector(self):
        log, _ = synthesize(SynthConfig(users=20, items=10, mean_length=8, rho=0.5,
                                        seed=1, with_text=False))
        split = build_split(log, min_interactions=5)
        table = text_surrogate_embeddings(split, d_text=8)
        np.testing.assert_array_equal(table.rows, 0.0)

    def test_hashing_stable_across_runs(self, synth_split):
        t1 = text_surrogate_embeddings(synth_split, d_text=16, seed=3)
        t2 = text_surrogate_embeddings(synth_split, d_text=16, seed=3)
        np.testing.assert_array_equal(t1.rows, t2.rows)

    def test_table_io_roundtrip(self, synth_split, tmp_path):
        table = text_surrogate_embeddings(synth_split, d_text=16, seed=3)
        table.fingerprint = "abc123"
        path = tmp_path / "text.emb"
        save_table(table, path)
        loaded = load_external(path)
        np.testing.assert_array_equal(loaded.rows, table.rows)
        assert loaded.provenance == "text"
        assert loaded.fingerprint == "abc123"
        with pytest.raises(InputError):
            load_external(path, expect_dim=99)

    @pytest.mark.parametrize("header", [b"{not json", b"[1, 2]", b"5", b"null", b'"dim"',
                                        b'{"n_items": 2}', b'{"n_items": null, "dim": 3}',
                                        b'{"n_items": "x", "dim": 3}',
                                        b'{"n_items": -2, "dim": -3}',
                                        b'{"n_items": "2", "dim": 3}',
                                        b'{"n_items": true, "dim": 3}',
                                        b'{"n_items": 2, "dim": 3.0}',
                                        b'{"n_items": 2, "dim": 3, "fingerprint": null}',
                                        b'{"n_items": 2, "dim": 3, "provenance": null}',
                                        b'{"n_items": 2, "dim": 3, "provenance": 3}'])
    def test_malformed_table_header_is_an_input_error(self, tmp_path, header):
        path = tmp_path / "bad.emb"
        path.write_bytes(header + b"\n" + bytes(48))
        with pytest.raises(InputError, match="malformed embedding header"):
            load_external(path)

    def test_non_finite_table_row_names_the_file(self, tmp_path):
        rows = np.arange(6.0).reshape(2, 3)
        rows[1, 2] = np.nan
        path = tmp_path / "nan.emb"
        path.write_bytes(b'{"n_items": 2, "dim": 3}\n' + rows.astype("<f8").tobytes())
        with pytest.raises(InputError, match="non-finite") as err:
            load_external(path)
        assert str(path) in str(err.value)


class TestFuse:
    def test_zero_mlp_zero_tokens(self, synth_split):
        model = small_model(synth_split)
        for a in model.mlp.param_arrays():
            a[...] = 0.0
        tokens = fuse(model.id_table, model.text_table, model.mlp)
        np.testing.assert_array_equal(tokens, 0.0)

    def test_identity_like_linear_mlp(self, synth_split):
        d = 6
        rng = np.random.default_rng(0)
        id_table = EmbeddingTable(synth_split.n_items, d,
                                  rng.standard_normal((synth_split.n_items, d)))
        text_table = EmbeddingTable(synth_split.n_items, d,
                                    rng.standard_normal((synth_split.n_items, d)))
        mlp = init_fusion_mlp(2 * d, 2 * d, hidden=2 * d, activation="linear")
        mlp.w1[...] = np.eye(2 * d)
        mlp.b1[...] = 0.0
        mlp.w2[...] = np.eye(2 * d)
        mlp.b2[...] = 0.0
        tokens = fuse(id_table, text_table, mlp)
        np.testing.assert_allclose(tokens,
                                   np.concatenate([id_table.rows, text_table.rows], axis=1),
                                   atol=1e-12)

    def test_item_rows_are_the_gathered_inputs(self, synth_split):
        model = small_model(synth_split)
        ids = np.array([5, 0, 5, 17, 2])
        inputs = np.concatenate([model.id_table.rows, model.text_table.rows], axis=1)[ids]
        tokens = fuse(model.id_table, model.text_table, model.mlp, item_ids=ids)
        np.testing.assert_array_equal(tokens, model.mlp.apply(inputs))

    def test_vocabulary_mismatch(self, synth_split):
        id_table = EmbeddingTable(3, 4, np.zeros((3, 4)))
        text_table = EmbeddingTable(4, 4, np.zeros((4, 4)))
        with pytest.raises(InputError):
            fuse(id_table, text_table, init_fusion_mlp(8, 8))


class TestForward:
    def test_t1_runs_and_tfm_identity(self, synth_split):
        base = small_model(synth_split)
        hidden_off, _ = forward(base, [0])
        filt = small_model(synth_split, tfm_enabled=True)
        hidden_on, _ = forward(filt, [0])
        np.testing.assert_allclose(hidden_off, hidden_on, atol=1e-12)

    def test_causality_without_tfm(self, synth_split):
        model = small_model(synth_split)
        seq = list(synth_split.sequences[0][:6])
        _, trace = forward(model, seq, capture=True)
        perturbed = list(seq)
        perturbed[4] = (perturbed[4] + 1) % synth_split.n_items
        _, trace2 = forward(model, perturbed, capture=True)
        for h1, h2 in zip(trace, trace2):
            np.testing.assert_allclose(h1[:4], h2[:4], atol=1e-12)

    def test_tfm_breaks_strict_causality(self, synth_split):
        model = small_model(synth_split, tfm_enabled=True)
        seq = list(synth_split.sequences[0][:6])
        _, trace = forward(model, seq, capture=True)
        perturbed = list(seq)
        perturbed[5] = (perturbed[5] + 1) % synth_split.n_items
        _, trace2 = forward(model, perturbed, capture=True)
        assert np.max(np.abs(trace[-1][:5] - trace2[-1][:5])) > 1e-9

    def test_capture_shapes(self, synth_split):
        model = small_model(synth_split, n_layers=3)
        seq = list(synth_split.sequences[1][:5])
        _, trace = forward(model, seq, capture=True)
        assert len(trace) == 3 + 1
        for h in trace:
            assert h.shape == (5, model.backbone.d_model)

    def test_unknown_item_rejected(self, synth_split):
        model = small_model(synth_split)
        with pytest.raises(InputError):
            forward(model, [synth_split.n_items])

    def test_disable_flag_equals_never_enabled(self, synth_split):
        base = small_model(synth_split, tfm_enabled=False)
        toggled = small_model(synth_split, tfm_enabled=True)
        toggled.backbone.tfm_enabled = False
        seq = list(synth_split.sequences[2][:7])
        a, _ = forward(base, seq)
        b, _ = forward(toggled, seq)
        np.testing.assert_allclose(a[-1], b[-1], atol=1e-8)

    def test_value_only_passes_record_no_tape(self, synth_split):
        graph = build_cooccurrence(synth_split)
        seq = list(synth_split.sequences[0][:6])
        for model in (small_model(synth_split, tfm_enabled=True),
                      config_model(synth_split, graph, {"glpf.apply_to": "fused"})):
            hidden, _ = forward(model, seq)
            for out in (hidden, model_tokens(model), all_item_tokens(model)):
                assert type(out) is np.ndarray

    def test_wide_open_cutoff_gains_above_inv_sqrt2(self):
        gains = butterworth_gains(ButterworthSpec(cutoff=1.0, order=1), 16)
        assert np.all(gains >= 1.0 / np.sqrt(2.0) - 1e-12)

    def test_causal_safe_mode_preserves_prefixes(self, synth_split):
        model = small_model(synth_split, tfm_enabled=True, tfm=TemporalFilter(causal_safe=True))
        seq = list(synth_split.sequences[0][:6])
        _, trace = forward(model, seq, capture=True)
        perturbed = list(seq)
        perturbed[5] = (perturbed[5] + 1) % synth_split.n_items
        _, trace2 = forward(model, perturbed, capture=True)
        for h1, h2 in zip(trace, trace2):
            np.testing.assert_allclose(h1[:5], h2[:5], atol=1e-12)


TFM_MODES = {"off": {}, "on": {"tfm_enabled": True},
             "causal_safe": {"tfm_enabled": True, "tfm": TemporalFilter(causal_safe=True)},
             "residual": {"tfm_enabled": True, "tfm": TemporalFilter(residual=True)}}


class TestBatchedForward:
    @pytest.mark.parametrize("mode", TFM_MODES)
    def test_backbone_block_is_stacked_single_sequences(self, synth_split, mode):
        model = small_model(synth_split, **TFM_MODES[mode])
        tokens = np.random.default_rng(4).standard_normal((5, 7, model.backbone.d_model))
        hidden, trace = backbone_forward(model.backbone, tokens, capture=True)
        singles = [backbone_forward(model.backbone, t, capture=True) for t in tokens]
        np.testing.assert_array_equal(hidden, np.stack([h for h, _ in singles]))
        for layer, h in enumerate(trace):
            np.testing.assert_array_equal(h, np.stack([t[layer] for _, t in singles]))

    @pytest.mark.parametrize("mode", TFM_MODES)
    def test_filter_modes_are_single_mode_passes(self, synth_split, mode):
        model = small_model(synth_split, **TFM_MODES[mode])
        tokens = np.random.default_rng(5).standard_normal((3, 7, model.backbone.d_model))
        runs = backbone_forward(model.backbone, tokens, capture=True,
                                tfm_modes=(True, False, True))
        assert len(runs) == 3
        for enabled, (hidden, trace) in zip((True, False, True), runs):
            model.backbone.tfm_enabled = enabled
            single, single_trace = backbone_forward(model.backbone, tokens, capture=True)
            np.testing.assert_array_equal(hidden, single)
            for h, expected in zip(trace, single_trace, strict=True):
                np.testing.assert_array_equal(h, expected)
        block = np.stack([synth_split.sequences[u][:6] for u in range(4)])
        for enabled, (hidden, _) in zip((False, True),
                                        forward(model, block, tfm_modes=(False, True))):
            model.backbone.tfm_enabled = enabled
            np.testing.assert_array_equal(hidden, forward(model, block)[0])
        with pytest.raises(InputError):
            backbone_forward(model.backbone, tokens, grad=True, tfm_modes=(True,))

    @pytest.mark.parametrize("mode", TFM_MODES)
    def test_forward_block_is_stacked_single_sequences(self, synth_split, mode):
        model = small_model(synth_split, **TFM_MODES[mode])
        block = np.stack([synth_split.sequences[u][:6] for u in range(4)])
        hidden, _ = forward(model, block)
        assert hidden.shape == (4, 6, model.backbone.d_model)
        np.testing.assert_array_equal(hidden, np.stack([forward(model, seq)[0] for seq in block]))

    def test_block_rejects_unknown_item(self, synth_split):
        model = small_model(synth_split)
        block = np.zeros((3, 4), dtype=int)
        block[2, 1] = synth_split.n_items
        with pytest.raises(InputError):
            forward(model, block)


def _ref_layer_norm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    return (x - mu) * inv, inv


def _ref_layer_norm_adjoint(g, xhat, inv):
    return inv * (g - g.mean(axis=-1, keepdims=True)
                  - xhat * (g * xhat).sum(axis=-1, keepdims=True) / xhat.shape[-1])


def _ref_gelu_slope(x, th):
    c, k = np.sqrt(2.0 / np.pi), 0.044715
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * c * (1.0 + 3.0 * k * x**2)


def reference_backbone(backbone, tokens):
    """The frozen stack with the plain kernels: per-head projections (head
    slices of `wqkv`'s Q, K and V blocks), softmaxes and adjoints, `x.var`
    layer norm without affine, and the FFT filter closure (the causal-safe
    prefix matrix in that mode) applied again, or transposed, in the
    adjoint.  Returns (hidden, snapshots, vjp)."""
    t_len, d = tokens.shape[-2:]
    dh = d // backbone.n_heads
    scale = 1.0 / np.sqrt(dh)
    mask = np.triu(np.full((t_len, t_len), network.CAUSAL_MASK_VALUE), k=1)
    filt = filt_adjoint = None
    tfm = backbone.tfm
    if backbone.tfm_enabled and tfm.causal_safe:
        m = tfm.operator(t_len, np.dtype(np.float64))
        filt, filt_adjoint = (lambda a: m @ a), (lambda g: m.T @ g)
    elif backbone.tfm_enabled:
        filt = filt_adjoint = make_filter(tfm.spec, t_len)
    heads = [slice(i * dh, (i + 1) * dh) for i in range(backbone.n_heads)]
    mT = lambda a: np.swapaxes(a, -1, -2)  # noqa: E731
    h, snapshots, caches = tokens, [tokens], []
    for layer in backbone.layers:
        wq, wk, wv = np.split(layer.wqkv, 3, axis=1)
        y1, inv1 = _ref_layer_norm(h)
        outs, saved = [], []
        for sl in heads:
            q, k, v = y1 @ wq[:, sl], y1 @ wk[:, sl], y1 @ wv[:, sl]
            s = (q @ mT(k)) * scale + mask
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            outs.append(p @ v)
            saved.append((q, k, v, p))
        h = h + np.concatenate(outs, axis=-1) @ layer.wo
        y2, inv2 = _ref_layer_norm(h)
        pre = y2 @ layer.wf1
        act, th = ad.gelu(pre)
        h = h + act @ layer.wf2
        if filt is not None:
            h = h + filt(h) if tfm.residual else filt(h)
        snapshots.append(h)
        caches.append((y1, inv1, saved, y2, inv2, pre, th))

    def vjp(g):
        for layer, (xhat1, inv1, saved, xhat2, inv2, pre, th) in zip(
                reversed(backbone.layers), reversed(caches)):
            if filt_adjoint is not None:
                g = g + filt_adjoint(g) if tfm.residual else filt_adjoint(g)
            g_pre = (g @ layer.wf2.T) * _ref_gelu_slope(pre, th)
            g = g + _ref_layer_norm_adjoint(g_pre @ layer.wf1.T, xhat2, inv2)
            wq, wk, wv = np.split(layer.wqkv, 3, axis=1)
            g_heads = g @ layer.wo.T
            g_y = 0.0
            for sl, (q, k, v, p) in zip(heads, saved):
                g_h = g_heads[..., sl]
                g_p = g_h @ mT(v)
                g_s = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * scale
                g_y = (g_y + (g_s @ k) @ wq[:, sl].T + (mT(g_s) @ q) @ wk[:, sl].T
                       + (mT(p) @ g_h) @ wv[:, sl].T)
            g = g + _ref_layer_norm_adjoint(g_y, xhat1, inv1)
        return g

    return h, snapshots, vjp


def assert_close_to_scale(got, want, rel):
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * np.max(np.abs(want)))


class TestReferenceKernels:
    """The backbone's fused kernels (one (T, T) filter operator, one QKV
    projection with a head axis, single-pass layer norm) against the
    per-head, FFT-filter stack they replace."""

    @pytest.mark.parametrize("t_len", [1, 2, 7, 8, 45])
    @pytest.mark.parametrize("mode", TFM_MODES)
    def test_backbone_matches_reference(self, synth_split, mode, t_len):
        model = small_model(synth_split, dtype="float64", **TFM_MODES[mode])
        rng = np.random.default_rng(t_len)
        tokens = rng.standard_normal((3, t_len, model.backbone.d_model))
        hidden, trace, vjp = backbone_forward(model.backbone, tokens, capture=True, grad=True)
        want, snapshots, want_vjp = reference_backbone(model.backbone, tokens)
        assert_close_to_scale(hidden, want, 1e-14)
        assert len(trace) == len(snapshots)
        for got, ref in zip(trace, snapshots):
            assert_close_to_scale(got, ref, 1e-14)
        g = rng.standard_normal(hidden.shape)
        assert_close_to_scale(vjp(g), want_vjp(g), 1e-12)

    def test_weights_are_the_seeded_draws_in_order(self):
        # wq, wk, wv, wo, wf1, wf2 per layer from one stream, each scaled by
        # 1/sqrt(fan-in): the weights behind every stored number
        d, hidden, seed = 8, 16, 7
        backbone = init_backbone(n_layers=3, d_model=d, n_heads=2, seed=seed, ffn_mult=2,
                                 dtype="float64")
        rng = np.random.default_rng(seed)
        for layer in backbone.layers:
            q, k, v, o = (rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(4))
            np.testing.assert_array_equal(layer.wqkv, np.concatenate([q, k, v], axis=1))
            np.testing.assert_array_equal(layer.wo, o)
            np.testing.assert_array_equal(layer.wf1, rng.standard_normal((d, hidden)) / np.sqrt(d))
            np.testing.assert_array_equal(layer.wf2,
                                          rng.standard_normal((hidden, d)) / np.sqrt(hidden))

    @pytest.mark.parametrize("t_len", [1, 2, 7, 8, 45])
    def test_operator_is_the_fft_filter(self, t_len):
        spec = ButterworthSpec(cutoff=0.3, order=2)
        op = TemporalFilter(spec).operator(t_len, np.dtype(np.float64))
        assert op is TemporalFilter(spec).operator(t_len, np.dtype(np.float64))
        assert not op.flags.writeable
        h = np.random.default_rng(t_len).standard_normal((t_len, 5))
        assert_close_to_scale(op @ h, tfm_apply(h, spec), 1e-14)

    @pytest.mark.parametrize("t_len", [1, 2, 7, 8, 45])
    def test_causal_safe_row_is_its_prefix_filter(self, t_len):
        spec = ButterworthSpec(cutoff=0.25, order=3)
        op = TemporalFilter(spec, causal_safe=True).operator(t_len, np.dtype(np.float64))
        h = np.random.default_rng(t_len).standard_normal((t_len, 4))
        out = op @ h
        for t in range(t_len):
            assert_close_to_scale(out[t], tfm_apply(h[:t + 1], spec)[t], 1e-14)


def arrays_in(value):
    """Every array in a nest of tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)


class TestStackDtype:
    """The stack runs in its weights' dtype (float32 as `build_model`
    builds it) and hands float64 back: weights, filter operator, every
    intermediate and the adjoint in the stack's dtype, the hidden states,
    snapshots and input gradients in float64."""

    @pytest.mark.parametrize("t_len", [1, 2, 7, 8, 45])
    @pytest.mark.parametrize("mode", TFM_MODES)
    def test_float32_agrees_with_float64(self, synth_split, mode, t_len):
        narrow, wide = (small_model(synth_split, dtype=dtype, **TFM_MODES[mode])
                        for dtype in ("float32", "float64"))
        rng = np.random.default_rng(t_len)
        tokens = rng.standard_normal((3, t_len, wide.backbone.d_model))
        hidden, trace, vjp = backbone_forward(narrow.backbone, tokens, capture=True, grad=True)
        want, snapshots, want_vjp = backbone_forward(wide.backbone, tokens, capture=True,
                                                     grad=True)
        assert_close_to_scale(hidden, want, 1e-5)
        assert len(trace) == len(snapshots)
        for got, ref in zip(trace, snapshots):
            assert_close_to_scale(got, ref, 1e-5)
        g = rng.standard_normal(hidden.shape)
        assert_close_to_scale(vjp(g), want_vjp(g), 1e-5)

    @pytest.mark.parametrize("mode", TFM_MODES)
    def test_no_silent_upcast(self, synth_split, mode, monkeypatch):
        model = small_model(synth_split, **TFM_MODES[mode])
        backbone = model.backbone
        assert backbone.dtype == np.float32
        for layer in backbone.layers:
            for w in (layer.wqkv, layer.wo, layer.wf1, layer.wf2):
                assert w.dtype == np.float32
        seen = {"_blocks": 0, "_layer_adjoint": 0}

        def checked(name):
            fn = getattr(network, name)

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen[name] += 1
                for a in arrays_in(out):
                    assert a.dtype == np.float32, name
                return out
            return wrapped

        for name in seen:
            monkeypatch.setattr(network, name, checked(name))
        t_len = 7
        op = backbone.tfm.operator(t_len, backbone.dtype)
        assert op.dtype == np.float32
        rng = np.random.default_rng(9)
        tokens = rng.standard_normal((2, t_len, backbone.d_model))
        hidden, trace, vjp = backbone_forward(backbone, tokens, capture=True, grad=True)
        g = vjp(rng.standard_normal(hidden.shape))
        assert seen == {"_blocks": backbone.n_layers, "_layer_adjoint": backbone.n_layers}
        for a in (hidden, *trace, g):
            assert a.dtype == np.float64
        for hidden, trace in backbone_forward(backbone, tokens, capture=True,
                                              tfm_modes=(True, False)):
            for a in (hidden, *trace):
                assert a.dtype == np.float64

    def test_float32_weights_are_the_float64_draws_cast(self):
        narrow, wide = (init_backbone(n_layers=2, d_model=8, n_heads=2, seed=5, dtype=dtype)
                        for dtype in ("float32", "float64"))
        for a, b in zip(narrow.layers, wide.layers):
            for name in ("wqkv", "wo", "wf1", "wf2"):
                np.testing.assert_array_equal(getattr(a, name),
                                              getattr(b, name).astype(np.float32))
        with pytest.raises(InputError, match="dtype"):
            init_backbone(dtype="float16")


class TestLengthChunks:
    def test_equal_lengths_under_the_cap(self):
        lengths = [3, 5, 3, 3, 5, 3, 9, 3, 40]
        chunks = length_chunks(lengths, max_rows=7)
        # ascending length; input order within a bucket; a sequence longer
        # than the cap still gets a chunk of its own
        assert chunks == [[0, 2], [3, 5], [7], [1], [4], [6], [8]]
        for chunk in chunks:
            assert len({lengths[i] for i in chunk}) == 1
            assert len(chunk) == 1 or len(chunk) * lengths[chunk[0]] <= 7

    def test_default_cap(self):
        chunks = length_chunks([12] * 100)
        assert sorted(i for c in chunks for i in c) == list(range(100))
        assert all(len(c) * 12 <= CHUNK_ROWS for c in chunks)
        assert len(chunks) == -(-100 // (CHUNK_ROWS // 12))


def group_reference(model, sequences, negatives, grad=True):
    """The per-group composition that `batch_loss` replaced: each length
    group's own token pass, loss node and MLP VJP.  Returns the summed loss
    and the summed gradients (None without grad)."""
    total, grads = 0.0, None
    for group in length_chunks([len(seq) for seq in sequences]):
        seqs = np.stack([sequences[i] for i in group])
        negs = np.asarray(negatives)[group]
        unique, inverse = np.unique(np.concatenate([seqs.ravel(), negs.ravel()]),
                                    return_inverse=True)
        block, vjp = (model_tokens(model, item_ids=unique, grad=True) if grad
                      else (model_tokens(model, item_ids=unique), None))
        tokens = ad.parameter(block)
        loss = sequence_loss(model.backbone, inverse[:seqs.size].reshape(seqs.shape),
                             inverse[seqs.size:].reshape(negs.shape), tokens)
        total += float(loss.value)
        if grad:
            (g,), unreachable = ad.tape_gradient(loss, [tokens])
            assert unreachable == []
            mine = vjp(g)
            grads = mine if grads is None else [a + b for a, b in zip(grads, mine)]
    return total, grads


def mode_model(split, mode, **small_kw):
    """small_model in one TFM mode, or for "fused" the config's model with
    glpf.apply_to=fused, whose stack takes only small_kw's dtype."""
    if mode == "fused":
        model = config_model(split, build_cooccurrence(split), {"glpf.apply_to": "fused"})
        if "dtype" not in small_kw:
            return model
        # the config's stack redrawn in that dtype: its seed and FFN width are
        # init_backbone's defaults
        b = model.backbone
        return dataclasses.replace(model, backbone=init_backbone(
            n_layers=b.n_layers, d_model=b.d_model, n_heads=b.n_heads,
            tfm_enabled=b.tfm_enabled, tfm=b.tfm, dtype=small_kw["dtype"]))
    return small_model(split, **small_kw, **TFM_MODES[mode])


def assert_gradient_fd(model, seq, negs):
    """batch_loss's gradients for one sequence against central differences
    of the value-only loss."""
    _, grads = batch_loss(model, [seq], negs[None])
    originals = [np.array(a, copy=True) for a in model.mlp.param_arrays()]

    def loss_fn(values):
        for target, v in zip(model.mlp.param_arrays(), values):
            target[...] = v
        out, _ = group_reference(model, [seq], negs[None], grad=False)
        for target, orig in zip(model.mlp.param_arrays(), originals):
            target[...] = orig
        return out

    report = ad.finite_difference_check(loss_fn, originals, grads)
    assert report.max_relative_error < 1e-4, report.worst()


class TestEndToEndGradient:
    @pytest.mark.parametrize("mode", [*TFM_MODES, "fused"])
    def test_full_graph_matches_finite_differences(self, synth_split, mode):
        # d_model 16, T = 8, gradient path through fusion MLP, the token
        # filter when fused, the frozen backbone's adjoint and the temporal
        # filter
        model = mode_model(synth_split, mode, d_id=6, d_text=4, d_model=16, n_layers=2,
                           dtype="float64")
        assert_gradient_fd(model, np.asarray(synth_split.sequences[0][:8], dtype=np.intp),
                           np.array([1, 5, 9, 13], dtype=np.intp))

    def test_causal_safe_filter_gradient(self, synth_split):
        model = small_model(synth_split, d_id=4, d_text=4, d_model=16, n_layers=1,
                            tfm_enabled=True, tfm=TemporalFilter(causal_safe=True),
                            dtype="float64")
        assert_gradient_fd(model, np.asarray(synth_split.sequences[1][:6], dtype=np.intp),
                           np.array([0, 3, 7], dtype=np.intp))


class TestTrainingLeak:
    """Training scores position t from one forward of the whole sequence,
    `evaluate` from a forward of the prefix up to t: a filter that is not
    causal leaks later items into the training loss."""

    @pytest.mark.parametrize("mode", TFM_MODES)
    def test_sequence_loss_is_the_prefix_scored_loss(self, synth_split, mode):
        model = small_model(synth_split, dtype="float64", **TFM_MODES[mode])
        seq = np.asarray(synth_split.sequences[0][:7], dtype=np.intp)
        negs = np.array([1, 5, 9, 13], dtype=np.intp)
        table = all_item_tokens(model)
        loss = float(sequence_loss(model.backbone, seq[None], negs[None],
                                   ad.parameter(table)).value)
        terms = []
        for t in range(seq.size - 1):
            hidden, _ = forward(model, seq[:t + 1], table=table)
            logits = table[np.concatenate([seq[t + 1:t + 2], negs])] @ hidden[-1]
            top = logits.max()
            terms.append(top + np.log(np.exp(logits - top).sum()) - logits[0])
        prefix_scored = float(np.mean(terms))
        if mode in ("off", "causal_safe"):
            assert abs(loss - prefix_scored) <= 1e-12
        else:
            assert abs(loss - prefix_scored) > 0.1, (loss, prefix_scored)


def assert_matches(losses, grads, ref_loss, ref_grads):
    assert sum(losses) == pytest.approx(ref_loss, rel=1e-12)
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        # relative to the parameter's largest entry: entries that cancel
        # to near zero carry the summation-order rounding of the others
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), i


class TestGroupedLoss:
    @pytest.mark.parametrize("mode", [*TFM_MODES, "fused"])
    def test_block_is_the_sum_of_its_rows(self, synth_split, mode):
        model = mode_model(synth_split, mode)
        block = np.stack([synth_split.sequences[u][:6] for u in range(5)])
        negs = np.random.default_rng(6).integers(0, synth_split.n_items, size=(5, 9))
        rows = [batch_loss(model, [seq], neg[None]) for seq, neg in zip(block, negs)]
        assert_matches(*batch_loss(model, block, negs), sum(sum(r[0]) for r in rows),
                       [sum(r[1][i] for r in rows) for i in range(4)])

    @pytest.mark.parametrize("mode", [*TFM_MODES, "fused"])
    def test_batch_matches_the_per_group_reference(self, synth_split, mode):
        model = mode_model(synth_split, mode)
        lengths = [3, 5, 6, 3, 5, 4, 6, 2]
        seqs = [np.asarray(synth_split.sequences[u][:n]) for u, n in enumerate(lengths)]
        negs = np.random.default_rng(7).integers(0, synth_split.n_items, size=(8, 9))
        losses, grads = batch_loss(model, seqs, negs)
        assert len(losses) == len(set(lengths)) >= 3
        assert_matches(losses, grads, *group_reference(model, seqs, negs))

    def test_one_group_alive_at_a_time(self, synth_split):
        """A batch of two equal-size length groups peaks near one group's
        peak: the first group's node and gradient are freed before the
        second group's forward runs."""
        model = small_model(synth_split)
        rng = np.random.default_rng(8)

        def peak(lengths):
            seqs = [rng.integers(0, synth_split.n_items, n) for n in lengths]
            negs = rng.integers(0, synth_split.n_items, size=(len(lengths), 20))
            tracemalloc.start()
            try:
                batch_loss(model, seqs, negs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak([60, 60, 61, 61]) < 1.25 * peak([60, 60])

    def test_tape_size_does_not_grow_with_depth(self, synth_split):
        block = np.stack([synth_split.sequences[u][:6] for u in range(3)])
        negs = np.arange(12).reshape(3, 4)
        sizes = []
        for n_layers in (1, 4):
            model = small_model(synth_split, n_layers=n_layers, tfm_enabled=True)
            tokens = ad.parameter(all_item_tokens(model))
            loss = sequence_loss(model.backbone, block, negs, tokens)
            seen, stack = set(), [loss]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node.parents)
            sizes.append(len(seen))
        assert sizes == [2, 2]

    def test_one_node_with_a_lazy_backward(self, synth_split, monkeypatch):
        model = config_model(synth_split, build_cooccurrence(synth_split),
                             {"glpf.apply_to": "fused"})
        calls = {"filter": 0, "adjoint": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(glpf, "polynomial_filter",
                            counting("filter", glpf.polynomial_filter))
        monkeypatch.setattr(network, "_layer_adjoint",
                            counting("adjoint", network._layer_adjoint))
        block, vjp = model_tokens(model, item_ids=np.arange(8), grad=True)
        tokens = ad.parameter(block)
        loss = sequence_loss(model.backbone, [[0, 5, 2, 7, 1, 3]], [np.arange(4)], tokens)
        assert loss.parents == (tokens,)
        # the token pass filters the table once; the value-only node runs no
        # backward; the tape runs each layer's adjoint once, and the MLP's
        # VJP filters the gradient once
        assert calls == {"filter": 1, "adjoint": 0}
        (g,), _ = ad.tape_gradient(loss, [tokens])
        assert calls == {"filter": 1, "adjoint": model.backbone.n_layers}
        vjp(g)
        assert calls == {"filter": 2, "adjoint": model.backbone.n_layers}

    def test_rejects_mismatched_negatives(self, synth_split):
        model = small_model(synth_split)
        block = np.stack([synth_split.sequences[u][:6] for u in range(3)])
        with pytest.raises(InputError):
            sequence_loss(model.backbone, block, np.zeros((2, 4), dtype=int),
                          ad.parameter(all_item_tokens(model)))

    def test_fused_epoch_filters_once_per_batch(self, synth_split, monkeypatch):
        model = config_model(synth_split, build_cooccurrence(synth_split),
                             {"glpf.apply_to": "fused"})
        config = TrainConfig(epochs=1, seed=4, batch_size=8, n_negatives=8)
        order = np.random.default_rng(config.seed).permutation(synth_split.n_users)
        batches = groups = 0
        for start in range(0, order.size, config.batch_size):
            lengths = [synth_split.train_items(int(u)).size
                       for u in order[start:start + config.batch_size]]
            groups += len(length_chunks([n for n in lengths if n >= 2]))
            batches += any(n >= 2 for n in lengths)
        assert batches < groups

        calls = count_calls(monkeypatch, glpf, "polynomial_filter")
        train(model, synth_split, valid_draw(synth_split), config)
        # per batch one filtered table and one filtered gradient (the filter
        # is self-adjoint), whatever its number of groups, and one table for
        # validation
        assert len(calls) == 2 * batches + 1


class TestTrain:
    def test_zero_epochs_unchanged(self, synth_split):
        model = small_model(synth_split)
        before = [np.array(a, copy=True) for a in model.mlp.param_arrays()]
        result = train(model, synth_split, valid_draw(synth_split), TrainConfig(epochs=0))
        for a, b in zip(model.mlp.param_arrays(), before):
            np.testing.assert_array_equal(a, b)
        assert result.entries == []

    def test_validation_candidates_drawn_once(self, synth_split, monkeypatch):
        calls = count_calls(monkeypatch, evalharness, "sample_candidates")
        result = train(small_model(synth_split), synth_split, valid_draw(synth_split),
                       TrainConfig(epochs=3, patience=3, n_negatives=8))
        assert len(result.entries) == 3
        assert len(calls) == synth_split.n_users

    def test_validation_ranks_the_handed_draw(self, synth_split, monkeypatch):
        valid = valid_draw(synth_split)
        ranked, evaluate_fn = [], training.evaluate

        def recording(model, split, candidates, *args, **kwargs):
            ranked.append(candidates)
            return evaluate_fn(model, split, candidates, *args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("train drew candidates")

        monkeypatch.setattr(training, "evaluate", recording)
        monkeypatch.setattr(evalharness, "draw_candidates", refused)
        monkeypatch.setattr(evalharness, "sample_candidates", refused)
        result = train(small_model(synth_split), synth_split, valid,
                       TrainConfig(epochs=2, patience=2, n_negatives=8))
        assert len(result.entries) == 2
        assert len(ranked) == 2 and all(c is valid for c in ranked)

    def test_a_test_draw_is_refused(self, synth_split):
        model = small_model(synth_split)
        before = [np.array(a, copy=True) for a in model.mlp.param_arrays()]
        with pytest.raises(InputError, match="'valid' draw"):
            train(model, synth_split, draw_candidates(synth_split, "test", 10, 0),
                  TrainConfig(epochs=1, n_negatives=8))
        for a, b in zip(model.mlp.param_arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_negatives_are_the_per_user_stream(self, monkeypatch, caplog):
        # the reference: one rng.integers call per user in shuffled order,
        # skipped users included, each row kept when its user is used
        split = short_user_split()
        config = TrainConfig(epochs=3, patience=3, batch_size=5, n_negatives=6)
        rng = np.random.default_rng(config.seed)
        expected = []
        for _ in range(config.epochs):
            order = rng.permutation(split.n_users)
            rows = [(split.train_items(int(user)).size >= 2,
                     rng.integers(0, split.n_items, size=config.n_negatives)) for user in order]
            for start in range(0, len(rows), config.batch_size):
                kept = [neg for used, neg in rows[start:start + config.batch_size] if used]
                if kept:
                    expected.append(np.stack(kept))
        seen, loss_fn = [], training.batch_loss

        def recording(model, sequences, negatives):
            seen.append(negatives)
            return loss_fn(model, sequences, negatives)

        monkeypatch.setattr(training, "batch_loss", recording)
        with caplog.at_level("INFO", logger="freqrec"):
            result = train(small_model(split), split, draw_candidates(split, "valid", 4, 0),
                           config)
        assert len(result.entries) == config.epochs
        n_short = sum(not used for used, _ in rows)
        assert n_short > 0
        epochs = [r.getMessage() for r in caplog.records if "train epoch" in r.getMessage()]
        assert len(epochs) == config.epochs
        assert all(f", {n_short} skipped," in line for line in epochs)
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            np.testing.assert_array_equal(got, want)

    def test_backbone_frozen(self, synth_split):
        model = small_model(synth_split)
        before = model.backbone.parameter_hash()
        train(model, synth_split, valid_draw(synth_split), TrainConfig(epochs=2, n_negatives=8))
        assert model.backbone.parameter_hash() == before

    def test_training_deterministic(self, synth_split):
        r1, r2 = (train(small_model(synth_split), synth_split, valid_draw(synth_split),
                        TrainConfig(epochs=2, seed=5, n_negatives=8)) for _ in range(2))
        assert r1.entries == r2.entries

    def test_separable_dataset_reaches_perfect_recall(self):
        split = build_split(cycle_log(n_cycles=40), min_interactions=5)
        assert split.n_items == 120
        table, _ = pretrain_id_embeddings(
            split, PretrainConfig(dim=16, epochs=20, lr=0.1, seed=0, chunk=64, window=2))
        text = text_surrogate_embeddings(split, d_text=8, seed=0)
        mlp = init_fusion_mlp(16 + 8, 32, seed=1)
        backbone = init_backbone(n_layers=2, d_model=32, n_heads=2, seed=2)
        model = RecModel(id_table=table, text_table=text, mlp=mlp, backbone=backbone)
        result = train(model, split, draw_candidates(split, "valid", 100, 0),
                       TrainConfig(epochs=50, lr=1e-3, patience=50, n_negatives=32))
        assert result.best_valid_ndcg > 0.0
        best = max(e["valid_recall10"] for e in result.entries)
        assert best == 1.0
        assert result.entries[-1]["epoch"] <= 50

    def test_checkpoint_roundtrip(self, synth_split, tmp_path):
        model = config_model(synth_split, None, {})
        train(model, synth_split, valid_draw(synth_split), TrainConfig(epochs=1, n_negatives=8))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, small_config())
        loaded, header = load_checkpoint(path, model.id_table, model.text_table)
        assert header["fingerprint"] == fingerprint(small_config())
        assert header["config"] == small_config() and header["graph"] is None
        for a, b in zip(loaded.mlp.param_arrays(), model.mlp.param_arrays()):
            np.testing.assert_array_equal(a, b)
        assert loaded.backbone.parameter_hash() == model.backbone.parameter_hash()
        assert loaded.backbone.dtype == model.backbone.dtype == np.float32
        seq = list(synth_split.sequences[0][:5])
        a, _ = forward(model, seq)
        b, _ = forward(loaded, seq)
        np.testing.assert_allclose(a[-1], b[-1], atol=1e-12)

    def test_checkpoint_rejects_wrong_tables(self, synth_split, tmp_path):
        model = config_model(synth_split, None, {})
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, small_config())
        bad = EmbeddingTable(synth_split.n_items, 5,
                             np.zeros((synth_split.n_items, 5)))
        with pytest.raises(InputError):
            load_checkpoint(path, bad, model.text_table)

    def test_non_finite_loss_in_epoch_one_keeps_the_initial_weights(self, synth_split):
        model = small_model(synth_split)
        model.mlp.w2 *= 1e300             # every token overflows, so every loss is NaN
        before = [np.array(a, copy=True) for a in model.mlp.param_arrays()]
        with np.errstate(all="ignore"):
            result = train(model, synth_split, valid_draw(synth_split),
                           TrainConfig(epochs=2, n_negatives=8))
        assert result.aborted and result.entries == [] and result.best_epoch == 0
        for a, b in zip(model.mlp.param_arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_non_finite_loss_later_keeps_the_best_epoch(self, synth_split, monkeypatch):
        config = TrainConfig(epochs=3, seed=2, batch_size=8, n_negatives=8)
        losses, steps, loss_fn, step_fn = [], [], training.sequence_loss, training.AdamW.step
        poison_at = [None]

        def poisoned(*args, **kwargs):
            loss = loss_fn(*args, **kwargs)
            losses.append(1)
            if len(losses) == poison_at[0]:
                loss.value = np.array(np.nan)
            return loss

        def counted(self, grads):
            steps.append(1)
            return step_fn(self, grads)

        monkeypatch.setattr(training, "sequence_loss", poisoned)
        monkeypatch.setattr(training.AdamW, "step", counted)
        epoch_one = small_model(synth_split)
        train(epoch_one, synth_split, valid_draw(synth_split),
              dataclasses.replace(config, epochs=1))
        per_epoch, epoch_steps = len(losses), len(steps)
        # the second loss of epoch 2 is NaN: its batch's first group was
        # finite, yet that batch takes no step
        losses.clear(), steps.clear()
        poison_at[0] = per_epoch + 2
        model = small_model(synth_split)
        result = train(model, synth_split, valid_draw(synth_split), config)
        assert result.aborted and result.best_epoch == 1 and len(result.entries) == 1
        assert len(steps) == epoch_steps
        for a, b in zip(model.mlp.param_arrays(), epoch_one.mlp.param_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_evaluation_reproducible(self, synth_split):
        model = small_model(synth_split)
        r1, r2 = (evaluate(model, synth_split, draw_candidates(synth_split, "test", 10, 3))
                  for _ in range(2))
        assert r1.ndcg == r2.ndcg and r1.recall == r2.recall
        assert r1.per_user == r2.per_user


FUSED = {"glpf.apply_to": "fused"}


def restamped(header):
    """header with the fingerprint of its own config."""
    return dict(header, fingerprint=fingerprint(header["config"]))


def set_config(dotted, value, restamp=True):
    """A checkpoint-header edit that sets one config key; restamped, only
    the config's value checks can refuse it."""
    section, key = dotted.split(".")

    def edit(header):
        config = dict(header["config"])
        config[section] = dict(config[section], **{key: value})
        edited = dict(header, config=config)
        return restamped(edited) if restamp else edited

    return edit


class TestCheckpointRecipe:
    """Every config field that shapes the model survives save and load."""

    @pytest.mark.parametrize("overrides", [
        {**FUSED, "glpf.alpha": 0.8},
        {**FUSED, "glpf.coefficients": [1.0, -0.6, 0.2]},
        {**FUSED, "glpf.enabled": False},
        {"tfm.enabled": False},
        {"tfm.residual": True},
        {"tfm.causal_safe": True},
        {"tfm.cutoff": 0.55, "tfm.order": 3},
        {"model.activation": "linear"},
        {"model.mlp_seed": 7},
        {"backbone.layers": 3, "backbone.heads": 4, "backbone.seed": 9,
         "backbone.ffn_mult": 2},
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_reload_is_the_trained_model(self, synth_split, tmp_path, overrides):
        graph = build_cooccurrence(synth_split)
        model = config_model(synth_split, graph, overrides)
        train(model, synth_split, valid_draw(synth_split), TrainConfig(epochs=1, n_negatives=8))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, small_config(overrides))
        # only a token-filtering model needs its graph back
        loaded, _ = load_checkpoint(path, model.id_table, model.text_table,
                                    graph=graph if model.token_filter else None)
        np.testing.assert_array_equal(all_item_tokens(loaded), all_item_tokens(model))
        seq = list(synth_split.sequences[0][:7])
        np.testing.assert_array_equal(forward(loaded, seq)[0], forward(model, seq)[0])

    def test_fused_checkpoint_needs_its_graph(self, synth_split, tmp_path):
        graph = build_cooccurrence(synth_split)
        model = config_model(synth_split, graph, FUSED)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, small_config(FUSED))
        with pytest.raises(InputError, match="--graph"):
            load_checkpoint(path, model.id_table, model.text_table)
        graph.weights = graph.weights * 2.0
        with pytest.raises(InputError, match="not the graph"):
            load_checkpoint(path, model.id_table, model.text_table, graph=graph)

    def test_graph_digest_must_fit_the_config(self, synth_split, tmp_path):
        graph = build_cooccurrence(synth_split)
        for overrides, digest in ((FUSED, None), ({}, graph.digest())):
            model, path = self.edited_checkpoint(synth_split, tmp_path, lambda h, w: (
                dict(h, graph=digest), w), overrides, graph)
            with pytest.raises(InputError, match="malformed checkpoint header") as info:
                load_checkpoint(path, model.id_table, model.text_table, graph=graph)
            assert str(path) in str(info.value)

    def test_format_1_asks_for_retraining(self, synth_split, tmp_path):
        # formats 1 and 2 stored a recipe of their own, not the config
        for old in (1, 2):
            model, path = self.edited_checkpoint(synth_split, tmp_path,
                                                 lambda h, w: (dict(h, format=old), w))
            with pytest.raises(InputError, match="re-train") as info:
                load_checkpoint(path, model.id_table, model.text_table)
            assert str(path) in str(info.value)

    @pytest.mark.parametrize("header", [b"{not json", b'{"format": 2}', b"[2]"])
    def test_malformed_header_is_an_input_error(self, synth_split, tmp_path, header):
        model = small_model(synth_split)
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + header + b"\n")
        with pytest.raises(InputError, match="malformed checkpoint header"):
            load_checkpoint(path, model.id_table, model.text_table)

    @staticmethod
    def edited_checkpoint(synth_split, tmp_path, edit, overrides=None, graph=None):
        """A saved checkpoint whose header (as a dict) and weight payload
        pass through edit(header, payload) -> (header, payload)."""
        model = config_model(synth_split, graph, overrides or {})
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, small_config(overrides))
        header, _, weights = path.read_bytes()[len(CHECKPOINT_MAGIC):].partition(b"\n")
        header, weights = edit(json.loads(header), weights)
        path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + weights)
        return model, path

    @pytest.mark.parametrize("edit", [
        lambda h: dict(h, n_items="23"), lambda h: dict(h, n_items=True),
        lambda h: dict(h, fingerprint=None),
        lambda h: {k: v for k, v in h.items() if k != "config"},
        lambda h: dict(h, config=5), lambda h: dict(h, config=[h["config"]]),
        # values the config checks refuse, each under its config's own fingerprint
        set_config("backbone.ffn_mult", 0), set_config("tfm.residual", "false"),
        set_config("tfm.causal_safe", "no"), set_config("backbone.heads", 2.0),
        set_config("backbone.layers", 0), set_config("model.activation", "relu"),
        set_config("glpf.coefficients", [float("nan"), -0.3]),
        lambda h: restamped(dict(h, config=dict(h["config"], mlp={}))),
        # a valid value under the fingerprint of the trained config
        set_config("backbone.seed", 9, restamp=False),
    ], ids=["n_items-23", "n_items-True", "fingerprint-None", "no-config", "config-number",
            "config-list", "ffn_mult-0", "residual-text", "causal_safe-text", "heads-float",
            "layers-0", "activation-relu", "coefficient-nan", "unknown-section",
            "stale-fingerprint"])
    def test_malformed_header_field_is_an_input_error(self, synth_split, tmp_path, edit):
        model, path = self.edited_checkpoint(synth_split, tmp_path,
                                             lambda h, w: (edit(h), w))
        with pytest.raises(InputError, match="malformed checkpoint header") as info:
            load_checkpoint(path, model.id_table, model.text_table)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("index, value", [(0, np.nan), (-1, np.inf), (5, -np.inf)])
    def test_non_finite_weight_is_an_input_error(self, synth_split, tmp_path, index, value):
        def edit(header, weights):
            patched = np.frombuffer(weights, dtype="<f8").copy()
            patched[index] = value
            return header, patched.tobytes()

        model, path = self.edited_checkpoint(synth_split, tmp_path, edit)
        with pytest.raises(InputError, match="non-finite") as info:
            load_checkpoint(path, model.id_table, model.text_table)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("edit", [
        lambda h, w: (h, w[:-8]), lambda h, w: (h, w[:8]), lambda h, w: (h, b""),
        lambda h, w: (h, w + bytes(8)), lambda h, w: (h, w[:-1]),
        # a valid config whose MLP is narrower than the payload's
        lambda h, w: (set_config("model.d_model", 8)(h), w),
    ], ids=["one-float-short", "one-float", "empty", "one-float-over", "one-byte-short",
            "other-d_model"])
    def test_payload_not_of_the_header_shapes(self, synth_split, tmp_path, edit):
        model, path = self.edited_checkpoint(synth_split, tmp_path, edit)
        with pytest.raises(InputError, match="weight payload"):
            load_checkpoint(path, model.id_table, model.text_table)
