"""Fusion MLP, frozen causal Transformer backbone and scoring.

The backbone is a seeded, randomly initialized pre-normalization stack.
Its weights are plain arrays, never tape parameters, which is the freeze
contract: gradients flow through the stack to the fusion MLP, but no
backbone gradient is ever computed.  Every pass here is plain numpy,
arrays in and arrays out.  When training asks for a gradient (`grad`),
`fuse`, `model_tokens` and `backbone_forward` also return a VJP closure
over what their forward kept: the MLP's two matmuls and activation, the
token filter, and the backbone's hand-written adjoint with respect to its
input alone (layer norm, attention, the FFN and the temporal filter,
backwards through the layers).  Value-only passes keep nothing.

When temporal filtering is enabled it runs on the full hidden matrix after
each layer's residual blocks, as one dense (T, T) operator per length
(`_filter_operator`, built once per spec, length and mode): the FFT
filter's own matrix, or the causal-safe prefix matrix.  The forward
applies `op @ h` and the adjoint its transpose, `op.T @ g`.  At every
`max_seq_len` in use this matmul costs a fraction of an rfft/irfft pair
(the two cross near T = 400).  Note the full-matrix filter intentionally
mixes information across positions, so strict causality holds only with
the filter disabled (or in the causal-safe mode, whose row t filters the
prefix up to t alone).

Attention projects each layer's rows once, through the (d, 3d) `wqkv`,
and runs all heads at once on a head axis (..., H, T, dh).  The kernels
update their own temporaries in place, with the operations and order of
the plain expressions, so the values are the same bit for bit; no array
a capture snapshot holds is ever written.

No positional embeddings: position information enters only through the
causal mask, which is all the spectral instrumentation needs.

Every pass runs one forward per chunk of equal-length sequences
(`length_chunks`): evaluation, validation, spectral analysis, and the
training loss of each optimizer batch.  The filter gains depend on T, so
exact-length buckets need no padding and give each sequence the numbers
its own forward would.
"""

import functools
import hashlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from freqrec.errors import InputError
from freqrec.glpf import PolyFilterSpec, filters_tokens, polynomial_filter
from freqrec.numcore import autodiff as ad
from freqrec.tfm import ButterworthSpec, butterworth_gains, make_filter

CAUSAL_MASK_VALUE = -1e9
ACTIVATIONS = ("gelu", "linear")
# Token rows (sequences x length) one batched forward holds; it bounds the
# FFN activations at CHUNK_ROWS x ffn_mult * d_model floats per array.
# Measured on both benchmark workloads: 128 rows gave the fastest pipeline
# evaluate (3 sequences at T = 40); 256 and more cost the analyze workload
# about 10% in peak memory.  Re-measured with the fused layer kernels (12
# alternating in-process runs, 2-core box): pipeline evaluate 0.31, 0.27,
# 0.27 and 0.28 s at 64, 128, 256 and 512 rows; analyze 0.24, 0.22, 0.19
# and 0.19 s.  256 would buy analyze about 10% but regroups its per-chunk
# sums, so it needs its own change.
CHUNK_ROWS = 128


@dataclass
class FusionMLP:
    """Two affine layers with a nonlinearity between; the only trainable
    component of the model."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    activation: str = "gelu"

    def param_arrays(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def param_names(self):
        return ["mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"]

    def make_vars(self):
        return [ad.parameter(a, name=n) for a, n in zip(self.param_arrays(), self.param_names())]

    def apply(self, x, grad=False):
        """The MLP on input rows x; with grad, also a VJP from the output's
        gradient to the gradients of (w1, b1, w2, b2)."""
        if self.activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.activation!r}")
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
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    wf1: np.ndarray
    bf1: np.ndarray
    wf2: np.ndarray
    bf2: np.ndarray

    def arrays(self):
        return [self.ln1_g, self.ln1_b, self.wq, self.wk, self.wv, self.wo,
                self.ln2_g, self.ln2_b, self.wf1, self.bf1, self.wf2, self.bf2]

    @functools.cached_property
    def wqkv(self):
        """wq, wk and wv side by side, (d, 3d): the layer's one projection,
        built once because the stack is frozen."""
        return np.concatenate([self.wq, self.wk, self.wv], axis=1)


@dataclass
class Backbone:
    layers: list
    d_model: int
    n_heads: int
    seed: int
    ffn_mult: int = 4
    tfm_enabled: bool = False
    tfm_spec: ButterworthSpec = field(default_factory=ButterworthSpec)
    tfm_residual: bool = False
    tfm_causal_safe: bool = False

    @property
    def n_layers(self):
        return len(self.layers)

    def recipe(self):
        """init_backbone's keyword arguments for this stack, as JSON data."""
        kwargs = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "layers"}
        kwargs.update(n_layers=self.n_layers, tfm_spec=asdict(self.tfm_spec))
        return kwargs

    def parameter_hash(self):
        digest = hashlib.sha256()
        for layer in self.layers:
            for a in layer.arrays():
                digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return digest.hexdigest()


def check_heads(d_model, n_heads):
    """Refuses a head count below 1 or one that does not divide d_model."""
    if n_heads < 1 or d_model % n_heads:
        raise InputError(f"heads must be at least 1 and divide d_model {d_model}, got {n_heads}")


def init_backbone(n_layers=4, d_model=64, n_heads=2, seed=2, ffn_mult=4,
                  tfm_enabled=False, tfm_spec=None, tfm_residual=False,
                  tfm_causal_safe=False):
    """A seeded frozen stack; its defaults are the config's `backbone`
    section and `model.d_model`.  Temporal filtering defaults to off here
    and on in the config (`tfm.enabled`): the bare stack here, the default
    experiment there."""
    check_heads(d_model, n_heads)
    rng = np.random.default_rng(seed)
    hidden = ffn_mult * d_model
    layers = []
    for _ in range(n_layers):
        layers.append(BackboneLayer(
            ln1_g=np.ones(d_model), ln1_b=np.zeros(d_model),
            wq=rng.standard_normal((d_model, d_model)) / np.sqrt(d_model),
            wk=rng.standard_normal((d_model, d_model)) / np.sqrt(d_model),
            wv=rng.standard_normal((d_model, d_model)) / np.sqrt(d_model),
            wo=rng.standard_normal((d_model, d_model)) / np.sqrt(d_model),
            ln2_g=np.ones(d_model), ln2_b=np.zeros(d_model),
            wf1=rng.standard_normal((d_model, hidden)) / np.sqrt(d_model),
            bf1=np.zeros(hidden),
            wf2=rng.standard_normal((hidden, d_model)) / np.sqrt(hidden),
            bf2=np.zeros(d_model),
        ))
    return Backbone(layers=layers, d_model=d_model, n_heads=n_heads, seed=seed,
                    ffn_mult=ffn_mult, tfm_enabled=tfm_enabled,
                    tfm_spec=tfm_spec if tfm_spec is not None else ButterworthSpec(),
                    tfm_residual=tfm_residual, tfm_causal_safe=tfm_causal_safe)


def _causal_safe_matrix(spec, t_len):
    """Dense operator for prefix-only filtering: row t is row t of the
    length-(t+1) circulant filter, zero-padded.  Linear but not symmetric,
    so its adjoint is the transpose."""
    m = np.zeros((t_len, t_len))
    for t in range(t_len):
        n = t + 1
        kernel = np.fft.ifft(butterworth_gains(spec, n)).real
        m[t, :n] = kernel[(np.arange(n) - t) % n]
    return m


@functools.lru_cache(maxsize=256)
def _filter_operator(spec, t_len, causal_safe):
    """The temporal filter at length T as one read-only (T, T) matrix: the
    causal-safe prefix matrix, or the FFT filter applied to the identity."""
    op = (_causal_safe_matrix(spec, t_len) if causal_safe
          else make_filter(spec, t_len)(np.eye(t_len)))
    op.flags.writeable = False
    return op


def _mT(x):
    return np.swapaxes(x, -1, -2)


def _layer_norm(x, gain, bias, eps=1e-5):
    """Normalization over the last axis with the layer's fixed gain and bias;
    also returns the (xhat, inv) its adjoint needs.  It centres once: the
    means are `x.mean`'s own sum over n, and the variance takes `x.var`'s
    own steps on the centred rows, which xhat then reuses."""
    n = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    y = xhat * gain
    y += bias
    return y, xhat, inv


def _layer_norm_adjoint(g, gain, xhat, inv):
    n = xhat.shape[-1]
    gx = g * gain
    mean = gx.sum(axis=-1, keepdims=True) / n
    proj = xhat * (gx * xhat).sum(axis=-1, keepdims=True)
    proj /= n
    gx -= mean
    gx -= proj
    gx *= inv
    return gx


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
    heads = np.empty(y.shape)
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
    g_qkv = np.empty(g_out.shape[:-1] + (3 * g_out.shape[-1],))
    g_q, g_k, g_v = _head_views(g_qkv, n_heads, 3)
    np.matmul(g_s, k, out=g_q)
    np.matmul(_mT(g_s), q, out=g_k)
    np.matmul(_mT(p), g_h, out=g_v)
    return g_qkv @ layer.wqkv.T


def _blocks(h, layer, n_heads, mask, record):
    """One layer's two pre-normalization residual blocks, attention and FFN.
    Returns the new state and, with record, what the adjoint needs."""
    y1, xhat1, inv1 = _layer_norm(h, layer.ln1_g, layer.ln1_b)
    att, saved = _attention(y1, layer, n_heads, mask, record)
    h = h + att
    y2, xhat2, inv2 = _layer_norm(h, layer.ln2_g, layer.ln2_b)
    pre = y2 @ layer.wf1
    pre += layer.bf1
    act, th = ad.gelu(pre)
    ffn = act @ layer.wf2
    ffn += layer.bf2
    ffn += h
    return ffn, ((xhat1, inv1, saved, xhat2, inv2, pre, th) if record else None)


def _filtered(h, op, residual):
    """The temporal filter operator op on a state, when op is set."""
    if op is None:
        return h
    filtered = op @ h
    return h + filtered if residual else filtered


def _layer_adjoint(g, layer, cache, op, residual):
    """Gradient with respect to a layer's input state, given the gradient
    with respect to its output."""
    xhat1, inv1, saved, xhat2, inv2, pre, th = cache
    if op is not None:
        filtered = op.T @ g
        g = g + filtered if residual else filtered
    g_pre = g @ layer.wf2.T
    g_pre *= ad.gelu_slope(pre, th)
    g = g + _layer_norm_adjoint(g_pre @ layer.wf1.T, layer.ln2_g, xhat2, inv2)
    return g + _layer_norm_adjoint(_attention_adjoint(g, layer, saved),
                                   layer.ln1_g, xhat1, inv1)


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

    Only with grad does it keep each layer's intermediates for the VJP."""
    if grad and tfm_modes is not None:
        raise InputError("a gradient needs the stack's own filter mode")
    modes = [backbone.tfm_enabled] if tfm_modes is None else list(tfm_modes)
    t_len = tokens.shape[-2]
    mask = np.triu(np.full((t_len, t_len), CAUSAL_MASK_VALUE), k=1)
    ops = [_filter_operator(backbone.tfm_spec, t_len, backbone.tfm_causal_safe)
           if on else None for on in modes]
    states = [tokens] * len(modes)
    snapshots = [[tokens.copy()] * len(modes)] if capture else None
    caches = []
    for layer in backbone.layers:
        last, outs = None, []
        for h, op in zip(states, ops):
            if h is not last:
                (blocks, cache), last = _blocks(h, layer, backbone.n_heads, mask, grad), h
                caches.append(cache)
            outs.append(_filtered(blocks, op, backbone.tfm_residual))
        states = outs
        if capture:
            snapshots.append(states)
    traces = [list(s) for s in zip(*snapshots)] if capture else [None] * len(modes)
    if tfm_modes is not None:
        return list(zip(states, traces))
    h, trace, op = states[0], traces[0], ops[0]
    if not grad:
        return h, trace

    def vjp(g):
        for layer, cache in zip(reversed(backbone.layers), reversed(caches)):
            g = _layer_adjoint(g, layer, cache, op, backbone.tfm_residual)
        return g

    return h, trace, vjp


@dataclass
class RecModel:
    id_table: "EmbeddingTable"
    text_table: "EmbeddingTable"
    mlp: FusionMLP
    backbone: Backbone
    # optional graph filter over the item axis, applied to the full fused
    # token table (filtering at the token stage instead of offline on the ID
    # table) on `graph`; forces full-catalog token computation
    token_filter: PolyFilterSpec = None
    graph: "CooccurrenceGraph" = None

    def __post_init__(self):
        if self.id_table.n_items != self.text_table.n_items:
            raise InputError("ID and text tables cover different item vocabularies")
        if self.mlp.d_in != self.id_table.dim + self.text_table.dim:
            raise InputError(
                f"fusion MLP expects input width {self.mlp.d_in}, tables give "
                f"{self.id_table.dim + self.text_table.dim}")
        if self.mlp.d_model != self.backbone.d_model:
            raise InputError("fusion MLP output width must equal backbone width")
        if self.token_filter is not None and (self.graph is None
                                              or self.graph.n_items != self.n_items):
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
                             tfm_enabled=t["enabled"], tfm_spec=ButterworthSpec.from_config(t),
                             tfm_residual=t["residual"], tfm_causal_safe=t["causal_safe"])
    token_filter = None
    if filters_tokens(cfg["glpf"]) and cfg["glpf"]["enabled"]:
        if graph is None:
            raise InputError("glpf.apply_to=fused needs --graph at model build time")
        token_filter = PolyFilterSpec.from_config(cfg["glpf"])
    return RecModel(id_table=id_table, text_table=text_table, mlp=mlp,
                    backbone=backbone, token_filter=token_filter, graph=graph)


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

    def token_filter(e):
        return polynomial_filter(model.graph, model.token_filter, e)

    rows = slice(None) if item_ids is None else np.asarray(item_ids, dtype=np.intp)
    if not grad:
        return token_filter(fuse(model.id_table, model.text_table, model.mlp))[rows]
    full, mlp_vjp = fuse(model.id_table, model.text_table, model.mlp, grad=True)
    filtered = token_filter(full)

    def vjp(g):
        g_full = np.zeros_like(filtered)
        g_full[rows] = g
        # the filter is linear and self-adjoint: its VJP is the filter
        return mlp_vjp(token_filter(g_full))

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
