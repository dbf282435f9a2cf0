"""Item embedding tables: skip-gram pretraining, text surrogates, file IO.

The ID pretrainer is skip-gram with negative sampling over within-window
pairs of each training sequence, so two items that are consumed together
end up with a high inner product.  The text surrogate hashes metadata
tokens into buckets, projects the count vector through a fixed seeded
random matrix and length-normalizes; items without metadata get the zero
vector.  Externally trained vectors load through the same table format.

Table file format: one JSON header line (n_items, dim, provenance,
fingerprint), then n_items * dim little-endian float64 values.
"""

import hashlib
import json
import logging
import re
from dataclasses import dataclass

import numpy as np

from freqrec.errors import InputError, NumericError
from freqrec.numcore.linalg import add_rows_at

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


@dataclass
class EmbeddingTable:
    n_items: int
    dim: int
    rows: np.ndarray
    provenance: str = "external"
    fingerprint: str = ""

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.shape != (self.n_items, self.dim):
            raise InputError(
                f"rows shape {self.rows.shape} does not match ({self.n_items}, {self.dim})")
        if not np.all(np.isfinite(self.rows)):
            raise InputError("embedding table contains non-finite values")

    def norm_stats(self):
        norms = np.linalg.norm(self.rows, axis=1)
        return {"mean_norm": float(norms.mean()), "max_norm": float(norms.max()),
                "zero_rows": int(np.sum(norms == 0.0))}


def save_table(table, path):
    header = {"n_items": table.n_items, "dim": table.dim,
              "provenance": table.provenance, "fingerprint": table.fingerprint}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(table.rows, dtype="<f8").tobytes())


def load_external(path, expect_dim=None):
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read embedding table {path}: {exc}") from exc
    with handle as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            n_items, dim = int(header["n_items"]), int(header["dim"])
        except (ValueError, KeyError) as exc:
            raise InputError(f"malformed embedding header in {path}: {exc}") from exc
        blob = fh.read()
    expected_bytes = n_items * dim * 8
    if len(blob) != expected_bytes:
        raise InputError(
            f"{path}: expected {expected_bytes} bytes of float64 rows, got {len(blob)}")
    if expect_dim is not None and dim != expect_dim:
        raise InputError(f"{path}: table dimension {dim} does not match required {expect_dim}")
    rows = np.frombuffer(blob, dtype="<f8").reshape(n_items, dim).copy()
    return EmbeddingTable(n_items=n_items, dim=dim, rows=rows,
                          provenance=str(header.get("provenance", "external")),
                          fingerprint=str(header.get("fingerprint", "")))


@dataclass(frozen=True)
class PretrainConfig:
    dim: int = 50
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.05
    seed: int = 0
    chunk: int = 128   # smaller chunks = more mean-gradient steps per epoch


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _scatter_mean_update(target, idx, grads, lr):
    """SGD step that averages gradients landing on the same row within a
    chunk, so duplicated rows cannot multiply the effective step size."""
    counts = np.bincount(idx, minlength=target.shape[0])[idx].astype(float)
    add_rows_at(target, idx, (-lr / counts)[:, None] * grads)


def _window_pairs(sequences, window):
    centers, contexts = [], []
    for seq in sequences:
        n = len(seq)
        for i in range(n):
            lo = max(0, i - window)
            hi = min(n, i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    centers.append(seq[i])
                    contexts.append(seq[j])
    return np.asarray(centers, dtype=np.intp), np.asarray(contexts, dtype=np.intp)


def pretrain_id_embeddings(split, config=PretrainConfig()):
    """Train co-occurrence ID embeddings on the split's training views.

    Returns (EmbeddingTable, per-epoch mean losses).  Deterministic under
    the config seed.
    """
    views = split.train_views()
    sequences = [v for v in views.values() if len(v) > 0]
    if not sequences:
        raise InputError("split has no training interactions to pretrain on")
    n_items = split.n_items
    rng = np.random.default_rng(config.seed)
    w_in = (rng.random((n_items, config.dim)) - 0.5) / config.dim
    w_out = np.zeros((n_items, config.dim))
    centers, contexts = _window_pairs(sequences, config.window)
    if centers.size == 0:
        raise InputError("training sequences are too short to form skip-gram pairs")

    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(centers.size)
        negs = rng.integers(0, n_items, size=(centers.size, config.negatives))
        epoch_loss = 0.0
        for start in range(0, centers.size, config.chunk):
            sel = order[start:start + config.chunk]
            c_idx, o_idx, n_idx = centers[sel], contexts[sel], negs[sel]
            c = w_in[c_idx]
            o = w_out[o_idx]
            nv = w_out[n_idx]
            pos = _sigmoid(np.sum(c * o, axis=1))
            neg = _sigmoid(np.einsum("bd,bkd->bk", c, nv))
            epoch_loss += float(-np.sum(np.log(np.maximum(pos, 1e-12)))
                                - np.sum(np.log(np.maximum(1.0 - neg, 1e-12))))
            g_pos = (pos - 1.0)[:, None]
            g_neg = neg[:, :, None]
            grad_c = g_pos * o + np.einsum("bk,bkd->bd", neg, nv)
            _scatter_mean_update(w_in, c_idx, grad_c, config.lr)
            _scatter_mean_update(w_out, o_idx, g_pos * c, config.lr)
            _scatter_mean_update(w_out, n_idx.reshape(-1),
                                 (g_neg * c[:, None, :]).reshape(-1, config.dim),
                                 config.lr)
        mean_loss = epoch_loss / centers.size
        if not np.isfinite(mean_loss):
            raise NumericError(f"skip-gram loss diverged at epoch {epoch}")
        losses.append(mean_loss)
        log.info("pretrain epoch %d: loss %.5f", epoch, mean_loss)
    table = EmbeddingTable(n_items=n_items, dim=config.dim, rows=w_in, provenance="id")
    return table, losses


def _bucket(token, buckets):
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % buckets


def text_surrogate_embeddings(split, d_text=50, seed=0, buckets=512):
    """Feature-hashed metadata embeddings; identical metadata gives identical
    vectors and missing metadata gives the zero vector."""
    if d_text < 1:
        raise InputError(f"d_text must be positive, got {d_text}")
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((buckets, d_text)) / np.sqrt(buckets)
    rows = np.zeros((split.n_items, d_text))
    cache = {}
    for idx, text in enumerate(split.item_text):
        if not text:
            continue
        if text in cache:
            rows[idx] = cache[text]
            continue
        counts = np.zeros(buckets)
        for token in _TOKEN_RE.findall(text.lower()):
            counts[_bucket(token, buckets)] += 1.0
        vec = counts @ projection
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        cache[text] = vec
        rows[idx] = vec
    return EmbeddingTable(n_items=split.n_items, dim=d_text, rows=rows, provenance="text")
