"""Model tests: embeddings, fusion, backbone, training."""

import json

import numpy as np
import pytest

from freqrec.config import load_config
from freqrec.dataset import InteractionLog, SynthConfig, build_split, synthesize
from freqrec.errors import InputError
from freqrec.evalharness import evaluate
from freqrec.graph import build_cooccurrence
from freqrec.model import network
from freqrec.model.embeddings import (
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
from freqrec.model.training import (
    CHECKPOINT_MAGIC,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    sequence_loss,
    train,
)
from freqrec.numcore import autodiff as ad
from freqrec.tfm import ButterworthSpec, butterworth_gains, make_filter, tfm_apply


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


@pytest.fixture(scope="module")
def synth_split():
    log, _ = synthesize(SynthConfig(users=30, items=24, mean_length=10, rho=0.5, seed=0))
    return build_split(log, min_interactions=5)


SMALL = {"model.d_id": 8, "model.d_text": 4, "model.d_model": 16, "backbone.layers": 2}


def config_model(split, graph, overrides):
    """A small model built from the effective config, as the CLI builds it."""
    cfg = load_config(overrides={**SMALL, **overrides})
    rng = np.random.default_rng(0)
    id_table = EmbeddingTable(split.n_items, 8, rng.standard_normal((split.n_items, 8)))
    text_table = EmbeddingTable(split.n_items, 4, rng.standard_normal((split.n_items, 4)))
    return build_model(cfg, id_table, text_table, graph=graph)


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

    sequences = [v for v in split.train_views().values() if len(v) > 0]
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
                [v for v in split.train_views().values() if len(v) > 0], config.window)
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
                                        b'{"n_items": -2, "dim": -3}'])
    def test_malformed_table_header_is_an_input_error(self, tmp_path, header):
        path = tmp_path / "bad.emb"
        path.write_bytes(header + b"\n" + bytes(48))
        with pytest.raises(InputError, match="malformed embedding header"):
            load_external(path)


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
        model = small_model(synth_split, tfm_enabled=True, tfm_causal_safe=True)
        seq = list(synth_split.sequences[0][:6])
        _, trace = forward(model, seq, capture=True)
        perturbed = list(seq)
        perturbed[5] = (perturbed[5] + 1) % synth_split.n_items
        _, trace2 = forward(model, perturbed, capture=True)
        for h1, h2 in zip(trace, trace2):
            np.testing.assert_allclose(h1[:5], h2[:5], atol=1e-12)


TFM_MODES = {"off": {}, "on": {"tfm_enabled": True},
             "causal_safe": {"tfm_enabled": True, "tfm_causal_safe": True},
             "residual": {"tfm_enabled": True, "tfm_residual": True}}


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


def _ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv


def _ref_layer_norm_adjoint(g, gain, xhat, inv):
    gx = g * gain
    return inv * (gx - gx.mean(axis=-1, keepdims=True)
                  - xhat * (gx * xhat).sum(axis=-1, keepdims=True) / xhat.shape[-1])


def _ref_gelu_slope(x, th):
    c, k = np.sqrt(2.0 / np.pi), 0.044715
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * c * (1.0 + 3.0 * k * x**2)


def reference_backbone(backbone, tokens):
    """The frozen stack with the plain kernels: per-head projections,
    softmaxes and adjoints, `x.var` layer norm, and the FFT filter closure
    (the causal-safe prefix matrix in that mode) applied again, or
    transposed, in the adjoint.  Returns (hidden, snapshots, vjp)."""
    t_len, d = tokens.shape[-2:]
    dh = d // backbone.n_heads
    scale = 1.0 / np.sqrt(dh)
    mask = np.triu(np.full((t_len, t_len), network.CAUSAL_MASK_VALUE), k=1)
    filt = filt_adjoint = None
    if backbone.tfm_enabled and backbone.tfm_causal_safe:
        m = network._causal_safe_matrix(backbone.tfm_spec, t_len)
        filt, filt_adjoint = (lambda a: m @ a), (lambda g: m.T @ g)
    elif backbone.tfm_enabled:
        filt = filt_adjoint = make_filter(backbone.tfm_spec, t_len)
    heads = [slice(i * dh, (i + 1) * dh) for i in range(backbone.n_heads)]
    mT = lambda a: np.swapaxes(a, -1, -2)  # noqa: E731
    h, snapshots, caches = tokens, [tokens], []
    for layer in backbone.layers:
        y1, xhat1, inv1 = _ref_layer_norm(h, layer.ln1_g, layer.ln1_b)
        outs, saved = [], []
        for sl in heads:
            q, k, v = y1 @ layer.wq[:, sl], y1 @ layer.wk[:, sl], y1 @ layer.wv[:, sl]
            s = (q @ mT(k)) * scale + mask
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            outs.append(p @ v)
            saved.append((q, k, v, p))
        h = h + np.concatenate(outs, axis=-1) @ layer.wo
        y2, xhat2, inv2 = _ref_layer_norm(h, layer.ln2_g, layer.ln2_b)
        pre = y2 @ layer.wf1 + layer.bf1
        act, th = ad.gelu(pre)
        h = h + (act @ layer.wf2 + layer.bf2)
        if filt is not None:
            h = h + filt(h) if backbone.tfm_residual else filt(h)
        snapshots.append(h)
        caches.append((xhat1, inv1, saved, xhat2, inv2, pre, th))

    def vjp(g):
        for layer, (xhat1, inv1, saved, xhat2, inv2, pre, th) in zip(
                reversed(backbone.layers), reversed(caches)):
            if filt_adjoint is not None:
                g = g + filt_adjoint(g) if backbone.tfm_residual else filt_adjoint(g)
            g_pre = (g @ layer.wf2.T) * _ref_gelu_slope(pre, th)
            g = g + _ref_layer_norm_adjoint(g_pre @ layer.wf1.T, layer.ln2_g, xhat2, inv2)
            g_heads = g @ layer.wo.T
            g_y = 0.0
            for sl, (q, k, v, p) in zip(heads, saved):
                g_h = g_heads[..., sl]
                g_p = g_h @ mT(v)
                g_s = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * scale
                g_y = (g_y + (g_s @ k) @ layer.wq[:, sl].T + (mT(g_s) @ q) @ layer.wk[:, sl].T
                       + (mT(p) @ g_h) @ layer.wv[:, sl].T)
            g = g + _ref_layer_norm_adjoint(g_y, layer.ln1_g, xhat1, inv1)
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
        model = small_model(synth_split, **TFM_MODES[mode])
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

    @pytest.mark.parametrize("t_len", [1, 2, 7, 8, 45])
    def test_operator_is_the_fft_filter(self, t_len):
        spec = ButterworthSpec(cutoff=0.3, order=2)
        op = network._filter_operator(spec, t_len, False)
        assert op is network._filter_operator(spec, t_len, False)
        assert not op.flags.writeable
        h = np.random.default_rng(t_len).standard_normal((t_len, 5))
        assert_close_to_scale(op @ h, tfm_apply(h, spec), 1e-14)

    @pytest.mark.parametrize("t_len", [1, 2, 7, 8, 45])
    def test_causal_safe_row_is_its_prefix_filter(self, t_len):
        spec = ButterworthSpec(cutoff=0.25, order=3)
        op = network._filter_operator(spec, t_len, True)
        h = np.random.default_rng(t_len).standard_normal((t_len, 4))
        out = op @ h
        for t in range(t_len):
            assert_close_to_scale(out[t], tfm_apply(h[:t + 1], spec)[t], 1e-14)


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


class TestEndToEndGradient:
    @pytest.mark.parametrize("mode", [*TFM_MODES, "fused"])
    def test_full_graph_matches_finite_differences(self, synth_split, mode):
        # d_model 16, T = 8, gradient path through fusion MLP, the token
        # filter when fused, the frozen backbone's adjoint and the temporal
        # filter
        if mode == "fused":
            model = config_model(synth_split, build_cooccurrence(synth_split),
                                 {"glpf.apply_to": "fused"})
        else:
            model = small_model(synth_split, d_id=6, d_text=4, d_model=16, n_layers=2,
                                **TFM_MODES[mode])
        seq = np.asarray(synth_split.sequences[0][:8], dtype=np.intp)
        negs = np.array([1, 5, 9, 13], dtype=np.intp)

        mlp_vars = model.mlp.make_vars()
        loss = sequence_loss(model, seq, negs, mlp_vars)
        grads, unreachable = ad.tape_gradient(loss, mlp_vars)
        assert unreachable == []

        originals = [np.array(a, copy=True) for a in model.mlp.param_arrays()]

        def loss_fn(values):
            for target, v in zip(model.mlp.param_arrays(), values):
                target[...] = v
            lv = sequence_loss(model, seq, negs, model.mlp.make_vars())
            for target, orig in zip(model.mlp.param_arrays(), originals):
                target[...] = orig
            return float(lv.value)

        report = ad.finite_difference_check(loss_fn, originals, grads)
        assert report.max_relative_error < 1e-4, report.worst()

    def test_causal_safe_filter_gradient(self, synth_split):
        model = small_model(synth_split, d_id=4, d_text=4, d_model=16, n_layers=1,
                            tfm_enabled=True, tfm_causal_safe=True)
        seq = np.asarray(synth_split.sequences[1][:6], dtype=np.intp)
        negs = np.array([0, 3, 7], dtype=np.intp)
        mlp_vars = model.mlp.make_vars()
        grads, _ = ad.tape_gradient(sequence_loss(model, seq, negs, mlp_vars), mlp_vars)
        originals = [np.array(a, copy=True) for a in model.mlp.param_arrays()]

        def loss_fn(values):
            for target, v in zip(model.mlp.param_arrays(), values):
                target[...] = v
            out = float(sequence_loss(model, seq, negs, model.mlp.make_vars()).value)
            for target, orig in zip(model.mlp.param_arrays(), originals):
                target[...] = orig
            return out

        report = ad.finite_difference_check(loss_fn, originals, grads)
        assert report.max_relative_error < 1e-4, report.worst()


def group_gradients(model, block, negs):
    mlp_vars = model.mlp.make_vars()
    loss = sequence_loss(model, block, negs, mlp_vars)
    grads, unreachable = ad.tape_gradient(loss, mlp_vars)
    assert unreachable == []
    return float(loss.value), grads


class TestGroupedLoss:
    @pytest.mark.parametrize("mode", [*TFM_MODES, "fused"])
    def test_block_is_the_sum_of_its_rows(self, synth_split, mode):
        if mode == "fused":
            model = config_model(synth_split, build_cooccurrence(synth_split),
                                 {"glpf.apply_to": "fused"})
        else:
            model = small_model(synth_split, **TFM_MODES[mode])
        block = np.stack([synth_split.sequences[u][:6] for u in range(5)])
        negs = np.random.default_rng(6).integers(0, synth_split.n_items, size=(5, 9))
        loss, grads = group_gradients(model, block, negs)
        rows = [group_gradients(model, seq, neg) for seq, neg in zip(block, negs)]
        assert loss == pytest.approx(sum(r[0] for r in rows), rel=1e-12)
        for i, g in enumerate(grads):
            ref = sum(r[1][i] for r in rows)
            # relative to the parameter's largest entry: entries that cancel
            # to near zero carry the summation-order rounding of the others
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), i

    def test_tape_size_does_not_grow_with_depth(self, synth_split):
        block = np.stack([synth_split.sequences[u][:6] for u in range(3)])
        negs = np.arange(12).reshape(3, 4)
        sizes = []
        for n_layers in (1, 4):
            model = small_model(synth_split, n_layers=n_layers, tfm_enabled=True)
            loss = sequence_loss(model, block, negs, model.mlp.make_vars())
            seen, stack = set(), [loss]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node.parents)
            sizes.append(len(seen))
        assert sizes[0] == sizes[1]

    def test_one_node_with_a_lazy_backward(self, synth_split, monkeypatch):
        model = config_model(synth_split, build_cooccurrence(synth_split),
                             {"glpf.apply_to": "fused"})
        calls, filter_fn = [], network.polynomial_filter

        def counting(*args, **kwargs):
            calls.append(1)
            return filter_fn(*args, **kwargs)

        monkeypatch.setattr(network, "polynomial_filter", counting)
        mlp_vars = model.mlp.make_vars()
        loss = sequence_loss(model, synth_split.sequences[0][:6], np.arange(4), mlp_vars)
        assert loss.parents == tuple(mlp_vars)
        # the forward filters the table once; the backward, run once for all
        # four parameters, filters the gradient once
        assert len(calls) == 1
        ad.tape_gradient(loss, mlp_vars)
        assert len(calls) == 2

    def test_rejects_foreign_vars(self, synth_split):
        model = small_model(synth_split)
        foreign = [ad.parameter(a.copy()) for a in model.mlp.param_arrays()]
        with pytest.raises(InputError):
            sequence_loss(model, synth_split.sequences[0][:6], np.arange(4), foreign)

    def test_rejects_mismatched_negatives(self, synth_split):
        model = small_model(synth_split)
        block = np.stack([synth_split.sequences[u][:6] for u in range(3)])
        with pytest.raises(InputError):
            sequence_loss(model, block, np.zeros((2, 4), dtype=int), model.mlp.make_vars())

    def test_fused_epoch_filters_once_per_group(self, synth_split, monkeypatch):
        model = config_model(synth_split, build_cooccurrence(synth_split),
                             {"glpf.apply_to": "fused"})
        config = TrainConfig(epochs=1, seed=4, batch_size=8, n_negatives=8,
                             eval_candidates=10)
        order = np.random.default_rng(config.seed).permutation(synth_split.n_users)
        groups = 0
        for start in range(0, order.size, config.batch_size):
            lengths = [synth_split.train_items(int(u)).size
                       for u in order[start:start + config.batch_size]]
            groups += len(length_chunks([n for n in lengths if n >= 2]))
        assert groups < synth_split.n_users

        calls, filter_fn = [], network.polynomial_filter

        def counting(*args, **kwargs):
            calls.append(1)
            return filter_fn(*args, **kwargs)

        monkeypatch.setattr(network, "polynomial_filter", counting)
        train(model, synth_split, config)
        # per group one filtered table and one filtered gradient (the node is
        # self-adjoint), and one table for validation
        assert len(calls) == 2 * groups + 1


class TestTrain:
    def test_zero_epochs_unchanged(self, synth_split):
        model = small_model(synth_split)
        before = [np.array(a, copy=True) for a in model.mlp.param_arrays()]
        result = train(model, synth_split, TrainConfig(epochs=0))
        for a, b in zip(model.mlp.param_arrays(), before):
            np.testing.assert_array_equal(a, b)
        assert result.entries == []

    def test_backbone_frozen(self, synth_split):
        model = small_model(synth_split)
        before = model.backbone.parameter_hash()
        train(model, synth_split, TrainConfig(epochs=2, n_negatives=8, eval_candidates=10))
        assert model.backbone.parameter_hash() == before

    def test_training_deterministic(self, synth_split):
        r1 = train(small_model(synth_split),
                   synth_split, TrainConfig(epochs=2, seed=5, n_negatives=8,
                                            eval_candidates=10))
        r2 = train(small_model(synth_split),
                   synth_split, TrainConfig(epochs=2, seed=5, n_negatives=8,
                                            eval_candidates=10))
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
        result = train(model, split, TrainConfig(epochs=50, lr=1e-3, patience=50,
                                                 n_negatives=32, eval_candidates=100))
        assert result.best_valid_ndcg > 0.0
        best = max(e["valid_recall10"] for e in result.entries)
        assert best == 1.0
        assert result.entries[-1]["epoch"] <= 50

    def test_checkpoint_roundtrip(self, synth_split, tmp_path):
        model = small_model(synth_split)
        train(model, synth_split, TrainConfig(epochs=1, n_negatives=8, eval_candidates=10))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, fingerprint="fp42")
        loaded, header = load_checkpoint(path, model.id_table, model.text_table)
        assert header["fingerprint"] == "fp42"
        for a, b in zip(loaded.mlp.param_arrays(), model.mlp.param_arrays()):
            np.testing.assert_array_equal(a, b)
        assert loaded.backbone.parameter_hash() == model.backbone.parameter_hash()
        seq = list(synth_split.sequences[0][:5])
        a, _ = forward(model, seq)
        b, _ = forward(loaded, seq)
        np.testing.assert_allclose(a[-1], b[-1], atol=1e-12)

    def test_checkpoint_rejects_wrong_tables(self, synth_split, tmp_path):
        model = small_model(synth_split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        bad = EmbeddingTable(synth_split.n_items, 5,
                             np.zeros((synth_split.n_items, 5)))
        with pytest.raises(InputError):
            load_checkpoint(path, bad, model.text_table)

    def test_evaluation_reproducible(self, synth_split):
        model = small_model(synth_split)
        r1 = evaluate(model, synth_split, phase="test", seed=3, n_candidates=10)
        r2 = evaluate(model, synth_split, phase="test", seed=3, n_candidates=10)
        assert r1.ndcg == r2.ndcg and r1.recall == r2.recall
        assert r1.per_user == r2.per_user


FUSED = {"glpf.apply_to": "fused"}


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
        train(model, synth_split, TrainConfig(epochs=1, n_negatives=8, eval_candidates=10))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
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
        save_checkpoint(model, path)
        with pytest.raises(InputError, match="--graph"):
            load_checkpoint(path, model.id_table, model.text_table)
        graph.weights = graph.weights * 2.0
        with pytest.raises(InputError, match="not the graph"):
            load_checkpoint(path, model.id_table, model.text_table, graph=graph)

    def test_format_1_asks_for_retraining(self, synth_split, tmp_path):
        model = small_model(synth_split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()[len(CHECKPOINT_MAGIC):]
        header, _, weights = blob.partition(b"\n")
        old = dict(json.loads(header), format=1)
        path.write_bytes(CHECKPOINT_MAGIC + json.dumps(old).encode() + b"\n" + weights)
        with pytest.raises(InputError, match="re-train"):
            load_checkpoint(path, model.id_table, model.text_table)

    @pytest.mark.parametrize("header", [b"{not json", b'{"format": 2}', b"[2]"])
    def test_malformed_header_is_an_input_error(self, synth_split, tmp_path, header):
        model = small_model(synth_split)
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + header + b"\n")
        with pytest.raises(InputError, match="malformed checkpoint header"):
            load_checkpoint(path, model.id_table, model.text_table)

    @staticmethod
    def edited_checkpoint(synth_split, tmp_path, edit):
        """A saved checkpoint whose header (as a dict) and weight payload
        pass through edit(header, payload) -> (header, payload)."""
        model = small_model(synth_split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header, _, weights = path.read_bytes()[len(CHECKPOINT_MAGIC):].partition(b"\n")
        header, weights = edit(json.loads(header), weights)
        path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + weights)
        return model, path

    @pytest.mark.parametrize("field, value", [
        ("mlp", 5), ("mlp", {"activation": "gelu"}), ("mlp", {"activation": "gelu", "shapes": 5}),
        ("mlp", {"activation": "gelu", "shapes": [["a"]]}), ("backbone", 5),
        ("backbone", {"layers": 2}), ("token_filter", 5), ("token_filter", {"graph": "x"}),
    ], ids=str)
    def test_malformed_header_field_is_an_input_error(self, synth_split, tmp_path, field,
                                                      value):
        model, path = self.edited_checkpoint(synth_split, tmp_path,
                                             lambda h, w: (dict(h, **{field: value}), w))
        with pytest.raises(InputError, match="malformed checkpoint header"):
            load_checkpoint(path, model.id_table, model.text_table)

    @pytest.mark.parametrize("edit", [
        lambda h, w: (h, w[:-8]), lambda h, w: (h, w[:8]), lambda h, w: (h, b""),
        lambda h, w: (h, w + bytes(8)), lambda h, w: (h, w[:-1]),
        # the payload fits the shapes, but they are not the MLP's four
        lambda h, w: (dict(h, mlp=dict(h["mlp"], shapes=[[len(w) // 8]])), w),
    ], ids=["one-float-short", "one-float", "empty", "one-float-over", "one-byte-short",
            "one-shape"])
    def test_payload_not_of_the_header_shapes(self, synth_split, tmp_path, edit):
        model, path = self.edited_checkpoint(synth_split, tmp_path, edit)
        with pytest.raises(InputError, match="weight payload"):
            load_checkpoint(path, model.id_table, model.text_table)
