"""Item embedding tables: skip-gram pretraining, text surrogates, file IO.

The ID pretrainer is skip-gram with negative sampling over within-window
pairs of each training sequence, so two items that are consumed together
end up with a high inner product.  Input and output vectors live in one
stacked (2 * n_items, d) table [w_in; w_out].  Each epoch draws one pair
order and one (n_pairs, k) negative block, then turns them into index
rows one reused block of about PAIR_BLOCK pairs (whole chunks) at a
time, so no epoch-wide index table is held.  Each step takes a chunk of
pairs and gathers, per pair, one center row and k + 1 output rows (the
context, labelled 1, then k negatives, labelled 0) in one indexing
operation.  It scores them with one einsum into the block's score buffer
and writes every gradient back with one scatter.  A row hit several
times in one chunk gets the mean of its gradients, not their sum.
Centers, contexts and negatives are counted apart: a row that is a
context and also a negative in one chunk gets the mean of its context
gradients plus the mean of its negative gradients.  The losses are taken
per block, in one pass once its chunks have run, and added to the epoch
loss one chunk's sum at a time, in chunk order.  The text surrogate
hashes metadata tokens into buckets, projects the count vector through a
fixed seeded random matrix and length-normalizes; items without metadata
get the zero vector.  Externally trained vectors load through the same
table format.

Table file format: `freqrec.artifact` with a header of n_items, dim,
provenance and fingerprint, and one (n_items, dim) float64 array.
"""

import hashlib
import logging
import re
import time
from dataclasses import dataclass

import numpy as np

from freqrec import artifact
from freqrec.errors import InputError, NumericError
from freqrec.numcore.linalg import add_rows_at

log = logging.getLogger(__name__)

# skip-gram pairs whose index rows are filled at once, rounded down to
# whole chunks (at least one)
PAIR_BLOCK = 4096

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
    artifact.write(path, header, [table.rows])


def load_external(path, expect_dim=None):
    header, blob = artifact.read(path, "embedding", counts=("n_items", "dim"))
    if not isinstance(header.setdefault("provenance", "external"), str):
        raise InputError(f"malformed embedding header in {path}: provenance "
                         f"{header['provenance']!r} is not a string")
    n_items, dim = header["n_items"], header["dim"]
    rows, = artifact.arrays(blob, [("rows", (n_items, dim), float)], path, "table")
    if expect_dim is not None and dim != expect_dim:
        raise InputError(f"{path}: table dimension {dim} does not match required {expect_dim}")
    return EmbeddingTable(n_items, dim, rows, header["provenance"], header["fingerprint"])


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
    """The logistic function of x, computed in place."""
    np.clip(x, -60.0, 60.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _window_pairs(sequences, window):
    """(centers, contexts) of every ordered pair of distinct positions at
    most `window` apart within one sequence: sequence by sequence, center
    position by position, context positions ascending."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.intp)
    flat = np.concatenate([np.asarray(seq, dtype=np.intp) for seq in sequences]
                          + [np.empty(0, dtype=np.intp)])
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    pos = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    local = pos[:, None] + offsets
    keep = (local >= 0) & (local < np.repeat(lengths, lengths)[:, None])
    centers = np.broadcast_to(flat[:, None], keep.shape)[keep]
    return centers, flat[(np.arange(flat.size)[:, None] + offsets)[keep]]


def pretrain_id_embeddings(split, config=PretrainConfig()):
    """Train co-occurrence ID embeddings on the split's training views.

    Returns (EmbeddingTable, per-epoch mean losses).  Deterministic under
    the config seed.
    """
    sequences = [v for v in split.train_views() if len(v) > 0]
    if not sequences:
        raise InputError("split has no training interactions to pretrain on")
    n_items, k = split.n_items, config.negatives
    rng = np.random.default_rng(config.seed)
    stacked = np.zeros((2 * n_items, config.dim))     # [w_in; w_out]
    stacked[:n_items] = (rng.random((n_items, config.dim)) - 0.5) / config.dim
    centers, contexts = _window_pairs(sequences, config.window)
    n_pairs = centers.size
    if n_pairs == 0:
        raise InputError("training sequences are too short to form skip-gram pairs")
    # per pair: its center row, then its context and k negative rows in the
    # w_out half, filled for one block of whole chunks at a time.  A chunk
    # averages the steps that land on one row, counting centers, contexts
    # and negatives apart: negatives count under row + n.
    span = max(1, PAIR_BLOCK // config.chunk) * config.chunk
    rows = np.empty((min(span, n_pairs), k + 2), dtype=np.intp)
    scores = np.empty((rows.shape[0], k + 1))
    group = np.r_[0, 0, np.full(k, n_items)]
    labels = np.r_[1.0, np.zeros(k)]

    losses = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(n_pairs)
        negs = rng.integers(0, n_items, size=(n_pairs, k))
        epoch_loss = 0.0
        for first in range(0, n_pairs, span):
            # order is a permutation, so "clip" clips nothing; it lets take
            # write the strided columns without a buffer
            picked = order[first:first + span]
            block = rows[:picked.size]
            np.take(centers, picked, out=block[:, 0], mode="clip")
            np.take(contexts, picked, out=block[:, 1], mode="clip")
            np.take(negs, picked, axis=0, out=block[:, 2:], mode="clip")
            block[:, 1:] += n_items
            block_scores = scores[:picked.size]
            chunks = range(0, picked.size, config.chunk)
            for start in chunks:
                idx = block[start:start + config.chunk]
                gathered = stacked[idx]                 # (b, k + 2, d)
                c, x = gathered[:, 0], gathered[:, 1:]
                score = _sigmoid(np.einsum("bd,bkd->bk", c, x,
                                           out=block_scores[start:start + config.chunk]))
                keys = idx + group
                step = -config.lr / np.bincount(keys.ravel())[keys]
                g = score - labels                      # d loss / d score
                grads = np.empty_like(gathered)
                np.multiply(np.einsum("bk,bkd->bd", g, x), step[:, :1], out=grads[:, 0])
                np.einsum("bk,bd->bkd", g * step[:, 1:], c, out=grads[:, 1:])
                add_rows_at(stacked, idx, grads)
            # the probability given to each pair's label (1 for the context,
            # 0 for the negatives), then its log, overwrite the scores.  Each
            # chunk's slice is summed alone, so the sums are those of one
            # chunk at a time bit for bit.
            fit = np.subtract(1.0 - labels, block_scores, out=block_scores)
            np.abs(fit, out=fit)
            np.log(np.maximum(fit, 1e-12, out=fit), out=fit)
            for start in chunks:
                epoch_loss -= float(np.sum(fit[start:start + config.chunk]))
        mean_loss = epoch_loss / n_pairs
        if not np.isfinite(mean_loss):
            raise NumericError(f"skip-gram loss diverged at epoch {epoch}")
        losses.append(mean_loss)
        log.info("pretrain epoch %d: loss %.5f, %d pairs in %d chunks, %.2f s", epoch, mean_loss,
                 n_pairs, -(-n_pairs // config.chunk), time.perf_counter() - started)
    table = EmbeddingTable(n_items=n_items, dim=config.dim, rows=stacked[:n_items],
                           provenance="id")
    return table, losses


# the least d_text text_surrogate_embeddings accepts, checked at config load too
D_TEXT_FLOOR = 1
# the hashed-token buckets of a text surrogate
TEXT_BUCKETS = 512


def _bucket(token):
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % TEXT_BUCKETS


def text_surrogate_embeddings(split, d_text=50, seed=0):
    """Feature-hashed metadata embeddings; identical metadata gives identical
    vectors and missing metadata gives the zero vector."""
    if d_text < D_TEXT_FLOOR:
        raise InputError(f"d_text must be at least {D_TEXT_FLOOR}, got {d_text}")
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((TEXT_BUCKETS, d_text)) / np.sqrt(TEXT_BUCKETS)
    rows = np.zeros((split.n_items, d_text))
    for idx, text in enumerate(split.item_text):
        if not text:
            continue
        counts = np.zeros(TEXT_BUCKETS)
        for token in _TOKEN_RE.findall(text.lower()):
            counts[_bucket(token)] += 1.0
        vec = counts @ projection
        norm = np.linalg.norm(vec)
        rows[idx] = vec / norm if norm > 0 else vec
    return EmbeddingTable(n_items=split.n_items, dim=d_text, rows=rows, provenance="text")
