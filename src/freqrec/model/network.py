"""Fusion MLP, frozen causal Transformer backbone and scoring.

The backbone is a seeded, randomly initialized pre-normalization stack.
Each layer is four matrices (`BackboneLayer`): its layer norms have no
affine, since a frozen gain of 1 and bias of 0 change no bit, and its FFN
has no biases for the same reason.  Its weights are plain arrays, never
tape parameters, which is the freeze contract: gradients flow through the
stack to the fusion MLP, but no backbone gradient is ever computed.
Every pass here is plain numpy, arrays in and arrays out.  When training
asks for a gradient (`grad`), `fuse`, `model_tokens` and
`backbone_forward` also return a VJP closure over what their forward
kept: the MLP's two matmuls and activation, the token filter, and the
backbone's hand-written adjoint with respect to its input alone (layer
norm, attention, the FFN and the temporal filter, backwards through the
layers).  Value-only passes keep nothing.  A fused-stage G-LPF is one
`glpf.StageFilter`, which filters the full token table and its gradient.

When temporal filtering is enabled, the backbone's `tfm.TemporalFilter`
runs on the full hidden matrix after each layer's residual blocks, and
its transpose in the adjoint; it says where it breaks causality.

Attention projects each layer's rows once, through the (d, 3d) `wqkv`,
and runs all heads at once on a head axis (..., H, T, dh).  The kernels
update their own temporaries in place, with the operations and order of
the plain expressions, so the values are the same bit for bit; no array
a capture snapshot holds is ever written.

The stack runs in one dtype, `Backbone.dtype`, the dtype of its
weights: float32 as `build_model` builds it, or float64 from
`init_backbone(dtype="float64")`, the reference the kernel and gradient
checks run.  In it are the four layer matrices (the seeded float64
draws cast once), the filter's cached operator, the causal mask and
everything between the stack's ends: the residual stream, every
kernel's temporaries and the VJP's cache and gradients.
`backbone_forward` casts the tokens down as they enter and casts the
hidden states and every capture snapshot (index 0 holds the tokens as
given) back to float64 as they leave; its VJP casts the incoming
gradient down and its result back up.  Everything else is float64: the
fusion MLP, the token filter, scoring, the loss and the optimizer, as
are the spectral analysis's eigendecompositions and band energies.  In a
float64 stack every cast is a no-op.

No positional embeddings: position information enters only through the
causal mask, which is all the spectral instrumentation needs.

Every pass runs one forward per chunk of equal-length sequences
(`length_chunks`): evaluation, validation and spectral analysis over one
token table, and training over one token block per optimizer batch, with
one loss per chunk.  The filter gains depend on T, so exact-length buckets
need no padding and give each sequence the numbers its own forward would.
"""

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from freqrec.errors import InputError
from freqrec.glpf import StageFilter, stage_filter
from freqrec.numcore import autodiff as ad
from freqrec.tfm import TemporalFilter

log = logging.getLogger(__name__)

CAUSAL_MASK_VALUE = -1e9
ACTIVATIONS = ("gelu", "linear")
DTYPES = ("float32", "float64")
# Token rows (sequences x length) one batched forward holds; it bounds the
# FFN activations at CHUNK_ROWS x ffn_mult * d_model floats per array.
# Grouping does not change the numbers: at 128 and 256 rows the analyze
# and evaluate files are byte-identical (benchmark seeds 12 and 3).
# Benchmark analyze median on a 2-core box: 154.5, 147.2, 149.6 and 154.2
# ms at 128, 256, 512 and 1024 rows, within noise; peak RSS 45.3 MiB at
# 128 rows and 47.7 at 256.
CHUNK_ROWS = 128


@dataclass
class FusionMLP:
    """Two affine layers with a nonlinearity between; the only trainable
    component of the model."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.activation!r}")

    def param_arrays(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def apply(self, x, grad=False):
        """The MLP on input rows x; with grad, also a VJP from the output's
        gradient to the gradients of (w1, b1, w2, b2)."""
        pre = x @ self.w1 + self.b1
        act, th = ad.gelu(pre) if self.activation == "gelu" else (pre, None)
        out = act @ self.w2 + self.b2
        if not grad:
            return out

        def vjp(g):
            g_pre = g @ self.w2.T
            if th is not None:
                g_pre = g_pre * ad.gelu_slope(pre, th)
            return [x.T @ g_pre, g_pre.sum(axis=0), act.T @ g, g.sum(axis=0)]

        return out, vjp

    @property
    def d_in(self):
        return self.w1.shape[0]

    @property
    def d_model(self):
        return self.w2.shape[1]


def init_fusion_mlp(d_in, d_model, hidden=None, seed=1, activation="gelu"):
    hidden = hidden if hidden is not None else 2 * d_model
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((d_in, hidden)) / np.sqrt(d_in)
    w2 = rng.standard_normal((hidden, d_model)) / np.sqrt(hidden)
    return FusionMLP(w1=w1, b1=np.zeros(hidden), w2=w2, b2=np.zeros(d_model),
                     activation=activation)


@dataclass
class BackboneLayer:
    """The four matrices a frozen layer's kernels read: wq, wk and wv side
    by side as the one (d, 3d) projection `wqkv`, then `wo`, `wf1` and
    `wf2`.  Its layer norms have no affine and its FFN no biases."""

    wqkv: np.ndarray
    wo: np.ndarray
    wf1: np.ndarray
    wf2: np.ndarray


@dataclass
class Backbone:
    """The frozen stack and what its passes read: the layers, the head
    count and the temporal filter, run when `tfm_enabled`.  `init_backbone`
    draws it from a seed; the config, which a checkpoint stores, describes it."""

    layers: list
    n_heads: int
    tfm_enabled: bool
    tfm: TemporalFilter

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def d_model(self):
        return self.layers[0].wqkv.shape[0]

    @property
    def dtype(self):
        return self.layers[0].wqkv.dtype

    def parameter_hash(self):
        digest = hashlib.sha256()
        for layer in self.layers:
            for a in (layer.wqkv, layer.wo, layer.wf1, layer.wf2):
                digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return digest.hexdigest()


def check_heads(d_model, n_heads):
    """Refuses a head count below 1 or one that does not divide d_model."""
    if n_heads < 1 or d_model % n_heads:
        raise InputError(f"heads must be at least 1 and divide d_model {d_model}, got {n_heads}")


def init_backbone(n_layers=4, d_model=64, n_heads=2, seed=2, ffn_mult=4,
                  tfm_enabled=False, tfm=TemporalFilter(), dtype="float32"):
    """A seeded frozen stack; its defaults are the config's `backbone`
    section and `model.d_model`.  Temporal filtering defaults to off here
    and on in the config (`tfm.enabled`): the bare stack here, the default
    experiment there; `tfm` is the filter it runs.  The float64 draws are
    cast once to `dtype`, the stack's one dtype (`DTYPES`); no key sets it."""
    if n_layers < 1:
        raise InputError(f"a backbone needs at least 1 layer, got {n_layers}")
    if dtype not in DTYPES:
        raise InputError(f"backbone dtype must be one of {', '.join(DTYPES)}, got {dtype!r}")
    check_heads(d_model, n_heads)
    rng = np.random.default_rng(seed)
    hidden = ffn_mult * d_model
    layers = []
    for _ in range(n_layers):
        # draw order wq, wk, wv, wo, wf1, wf2: the weights behind every stored number
        wqkv = np.concatenate([rng.standard_normal((d_model, d_model)) / np.sqrt(d_model)
                               for _ in range(3)], axis=1)
        wo = rng.standard_normal((d_model, d_model)) / np.sqrt(d_model)
        wf1 = rng.standard_normal((d_model, hidden)) / np.sqrt(d_model)
        wf2 = rng.standard_normal((hidden, d_model)) / np.sqrt(hidden)
        layers.append(BackboneLayer(*(w.astype(dtype, copy=False)
                                      for w in (wqkv, wo, wf1, wf2))))
    return Backbone(layers=layers, n_heads=n_heads, tfm_enabled=tfm_enabled, tfm=tfm)


def _mT(x):
    return np.swapaxes(x, -1, -2)


def _layer_norm(x, eps=1e-5):
    """Normalization over the last axis, without affine (the frozen stack's
    gain would be 1 and its bias 0); returns xhat and the inv its adjoint
    needs.  It centres once: the means are `x.mean`'s own sum over n, and
    the variance takes `x.var`'s own steps on the centred rows, which xhat
    then reuses."""
    n = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    return xhat, inv


def _layer_norm_adjoint(g, xhat, inv):
    """Gradient with respect to the layer norm's input, computed in place
    on g, a temporary of the caller's."""
    n = xhat.shape[-1]
    mean = g.sum(axis=-1, keepdims=True) / n
    proj = xhat * (g * xhat).sum(axis=-1, keepdims=True)
    proj /= n
    g -= mean
    g -= proj
    g *= inv
    return g


def _softmax(s):
    """Row softmax over the last axis, computed with max subtraction, in
    place on s."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _head_views(x, n_heads, parts):
    """Views (parts, ..., H, T, dh) of a (..., T, parts * H * dh) array: its
    column blocks, each split into heads.  Writes to a view reach x."""
    *lead, t_len, width = x.shape
    x = x.reshape(*lead, t_len, parts, n_heads, width // (parts * n_heads))
    n = len(lead)
    return x.transpose(n + 1, *range(n), n + 2, n, n + 3)


def _attention(y, layer, n_heads, mask, record):
    """Causal multi-head self-attention on normalized rows y, every head in
    one matmul per step; with record, also the (q, k, v, probabilities)
    its adjoint needs."""
    q, k, v = _head_views(y @ layer.wqkv, n_heads, 3)
    scale = float(1.0 / np.sqrt(q.shape[-1]))
    p = _softmax((q @ _mT(k)) * scale + mask)
    heads = np.empty(y.shape, dtype=y.dtype)
    np.matmul(p, v, out=_head_views(heads, n_heads, 1)[0])
    return heads @ layer.wo, ((q, k, v, p) if record else None)


def _attention_adjoint(g_out, layer, saved):
    """Gradient with respect to the attention input rows y."""
    q, k, v, p = saved
    n_heads = q.shape[-3]
    scale = float(1.0 / np.sqrt(q.shape[-1]))
    g_h = _head_views(g_out @ layer.wo.T, n_heads, 1)[0]
    g_s = g_h @ _mT(v)
    g_s -= (g_s * p).sum(axis=-1, keepdims=True)
    g_s *= p
    g_s *= scale
    g_qkv = np.empty(g_out.shape[:-1] + (3 * g_out.shape[-1],), dtype=g_out.dtype)
    g_q, g_k, g_v = _head_views(g_qkv, n_heads, 3)
    np.matmul(g_s, k, out=g_q)
    np.matmul(_mT(g_s), q, out=g_k)
    np.matmul(_mT(p), g_h, out=g_v)
    return g_qkv @ layer.wqkv.T


def _blocks(h, layer, n_heads, mask, record):
    """One layer's two pre-normalization residual blocks, attention and FFN.
    Returns the new state and, with record, what the adjoint needs."""
    xhat1, inv1 = _layer_norm(h)
    att, saved = _attention(xhat1, layer, n_heads, mask, record)
    h = h + att
    xhat2, inv2 = _layer_norm(h)
    pre = xhat2 @ layer.wf1
    act, th = ad.gelu(pre)
    ffn = act @ layer.wf2
    ffn += h
    return ffn, ((xhat1, inv1, saved, xhat2, inv2, pre, th) if record else None)


def _layer_adjoint(g, layer, cache):
    """Gradient with respect to a layer's input state, given the gradient
    with respect to its residual blocks' output."""
    xhat1, inv1, saved, xhat2, inv2, pre, th = cache
    g_pre = g @ layer.wf2.T
    g_pre *= ad.gelu_slope(pre, th)
    g = g + _layer_norm_adjoint(g_pre @ layer.wf1.T, xhat2, inv2)
    return g + _layer_norm_adjoint(_attention_adjoint(g, layer, saved), xhat1, inv1)


def _float64(a):
    """a as it leaves the stack: float64, the same array when it is."""
    return a.astype(np.float64, copy=False)


def backbone_forward(backbone, tokens, capture=False, grad=False, tfm_modes=None):
    """Run the frozen stack on a T x d_model token matrix, or a (B, T,
    d_model) stack of B equal-length sequences.  Returns the final hidden
    states and, when capture is set, the list of value snapshots of the
    residual stream (else None): index 0 is the input tokens, index l the
    state after layer l, filter included.  With grad it also returns a VJP
    from the hidden states' gradient to the tokens'.

    tfm_modes, on the value path only, is a sequence of filter switches
    (True for the stack's own filter form, False for none) and gives one
    (hidden, trace) per mode; layer 1's residual blocks run once for all.

    It runs in the stack's dtype; what it returns, VJP results included,
    is float64.  Only with grad does it keep each layer's intermediates
    for the VJP."""
    if grad and tfm_modes is not None:
        raise InputError("a gradient needs the stack's own filter mode")
    modes = [backbone.tfm_enabled] if tfm_modes is None else list(tfm_modes)
    t_len, dtype = tokens.shape[-2], backbone.dtype
    mask = np.triu(np.full((t_len, t_len), CAUSAL_MASK_VALUE, dtype=dtype), k=1)
    states = [tokens.astype(dtype, copy=False)] * len(modes)
    snapshots = [[tokens.copy()] * len(modes)] if capture else None
    caches = []
    for layer in backbone.layers:
        last, outs = None, []
        for h, on in zip(states, modes):
            if h is not last:
                (blocks, cache), last = _blocks(h, layer, backbone.n_heads, mask, grad), h
                caches.append(cache)
            outs.append(backbone.tfm.apply(blocks) if on else blocks)
        states = outs
        if capture:
            snapshots.append([_float64(s) for s in states])
    hidden = snapshots[-1] if capture else [_float64(s) for s in states]
    traces = [list(s) for s in zip(*snapshots)] if capture else [None] * len(modes)
    if tfm_modes is not None:
        return list(zip(hidden, traces))
    h, trace, on = hidden[0], traces[0], modes[0]
    if not grad:
        return h, trace

    def vjp(g):
        g = g.astype(dtype, copy=False)
        for layer, cache in zip(reversed(backbone.layers), reversed(caches)):
            g = _layer_adjoint(backbone.tfm.adjoint(g) if on else g, layer, cache)
        return _float64(g)

    return h, trace, vjp


@dataclass
class RecModel:
    id_table: "EmbeddingTable"
    text_table: "EmbeddingTable"
    mlp: FusionMLP
    backbone: Backbone
    # optional G-LPF over the item axis, applied to the full fused token
    # table (filtering at the token stage instead of offline on the ID
    # table); forces full-catalog token computation
    token_filter: StageFilter = None

    def __post_init__(self):
        if self.id_table.n_items != self.text_table.n_items:
            raise InputError("ID and text tables cover different item vocabularies")
        if self.mlp.d_in != self.id_table.dim + self.text_table.dim:
            raise InputError(
                f"fusion MLP expects input width {self.mlp.d_in}, tables give "
                f"{self.id_table.dim + self.text_table.dim}")
        if self.mlp.d_model != self.backbone.d_model:
            raise InputError("fusion MLP output width must equal backbone width")
        if self.token_filter is not None and self.token_filter.graph.n_items != self.n_items:
            raise InputError("a token filter needs a graph over the model's items")

    @property
    def n_items(self):
        return self.id_table.n_items


def build_model(cfg, id_table, text_table, graph=None):
    """The model an effective config describes, over the given embedding
    tables; glpf.apply_to=fused filters its item tokens on `graph`."""
    m, b, t = cfg["model"], cfg["backbone"], cfg["tfm"]
    mlp = init_fusion_mlp(id_table.dim + text_table.dim, m["d_model"],
                          seed=m["mlp_seed"], activation=m["activation"])
    backbone = init_backbone(n_layers=b["layers"], d_model=m["d_model"],
                             n_heads=b["heads"], seed=b["seed"], ffn_mult=b["ffn_mult"],
                             tfm_enabled=t["enabled"], tfm=TemporalFilter.from_config(t))
    log.info("frozen stack: %d layers, d_model %d, %s", backbone.n_layers, backbone.d_model,
             backbone.dtype)
    return RecModel(id_table=id_table, text_table=text_table, mlp=mlp, backbone=backbone,
                    token_filter=stage_filter(cfg["glpf"], "fused", graph))


def fuse(id_table, text_table, mlp, item_ids=None, grad=False):
    """Tokens for the given items (all items by default): concatenate
    (id, text) rows and push them through the fusion MLP.  With grad, also
    the MLP's VJP (FusionMLP.apply)."""
    if id_table.n_items != text_table.n_items:
        raise InputError("ID and text tables cover different item vocabularies")
    if item_ids is None:
        inputs = np.concatenate([id_table.rows, text_table.rows], axis=1)
    else:
        ids = np.asarray(item_ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= id_table.n_items):
            raise InputError("item index out of range")
        inputs = np.concatenate([id_table.rows[ids], text_table.rows[ids]], axis=1)
    return mlp.apply(inputs, grad=grad)


def model_tokens(model, item_ids=None, grad=False):
    """Tokens for the model's items, honoring the optional token-stage graph
    filter (which needs the full catalog before any row selection).  With
    grad, also a VJP from the tokens' gradient to the MLP's; item_ids must
    then be distinct."""
    if model.token_filter is None:
        return fuse(model.id_table, model.text_table, model.mlp, item_ids=item_ids,
                    grad=grad)
    rows = slice(None) if item_ids is None else np.asarray(item_ids, dtype=np.intp)
    if not grad:
        full = fuse(model.id_table, model.text_table, model.mlp)
        return model.token_filter.apply(full)[rows]
    full, mlp_vjp = fuse(model.id_table, model.text_table, model.mlp, grad=True)
    filtered = model.token_filter.apply(full)

    def vjp(g):
        g_full = np.zeros_like(filtered)
        g_full[rows] = g
        return mlp_vjp(model.token_filter.apply(g_full))   # the filter is its own VJP

    return filtered[rows], vjp


def forward(model, sequence, capture=False, table=None, tfm_modes=None):
    """Backbone pass for one item-index sequence (T,), or for each row of a
    (B, T) block of equal-length sequences: gather the tokens from the
    model's full token table and run them through the backbone.  `table`
    is that table (`all_item_tokens`) when the caller holds one; without it
    the forward computes its own.

    Returns (final_hidden, trace) as `backbone_forward` does; a block adds
    a leading B axis, and the user representation is the last position's
    row, final_hidden[..., -1, :].  With tfm_modes it returns one such pair
    per mode."""
    seq = np.asarray(sequence, dtype=np.intp)
    if seq.ndim not in (1, 2) or seq.size == 0:
        raise InputError("sequence must be a non-empty 1-D list of item indices "
                         "or a (B, T) block of them")
    if seq.min() < 0 or seq.max() >= model.n_items:
        raise InputError("unknown item index in sequence")
    tokens = (all_item_tokens(model) if table is None else table)[seq]
    return backbone_forward(model.backbone, tokens, capture=capture, tfm_modes=tfm_modes)


def length_chunks(lengths, max_rows=CHUNK_ROWS):
    """Positions of sequences grouped for one batched forward each: exact-
    length buckets in ascending length, each split in input order into
    chunks of at most max_rows token rows (and at least one sequence)."""
    buckets = {}
    for i, n in enumerate(lengths):
        buckets.setdefault(int(n), []).append(i)
    chunks = []
    for n in sorted(buckets):
        members, step = buckets[n], max(1, max_rows // max(n, 1))
        chunks.extend(members[s:s + step] for s in range(0, len(members), step))
    return chunks


def all_item_tokens(model):
    """Token table for every item, for scoring."""
    return model_tokens(model)
