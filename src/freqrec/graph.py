"""Item co-occurrence graph and per-sequence local subgraphs.

The global graph counts, for every item pair (i, j), how many users'
training histories contain both items (set membership, not interaction
counts).  The diagonal is zeroed before degrees are computed: self-pairs
carry no neighbor-difference information and would only inflate degrees.
Storage is a symmetric coordinate list sorted by a single int64 key, so
local T x T blocks come out of one vectorized searchsorted pass.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from freqrec.errors import InputError
from freqrec.numcore.linalg import add_rows_at


@dataclass
class CooccurrenceGraph:
    n_items: int
    rows: np.ndarray      # both (i, j) and (j, i) present, sorted by i * n + j
    cols: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray
    fingerprint: str = ""

    @property
    def nnz(self):
        # symmetric entries stored once per direction
        return int(self.rows.shape[0])

    def digest(self):
        """12-hex-digit hash of the item count and weighted edge list: what
        a filter on this graph computes depends on nothing else, and a
        saved and reloaded graph keeps it."""
        h = hashlib.sha256(str(self.n_items).encode("utf-8"))
        for a, dtype in ((self.rows, "<i8"), (self.cols, "<i8"), (self.weights, "<f8")):
            h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
        return h.hexdigest()[:12]

    def _keys(self):
        return self.rows.astype(np.int64) * self.n_items + self.cols.astype(np.int64)

    def lookup(self, i, j):
        """Vectorized weight lookup for index arrays i, j, broadcast
        together (0 where absent)."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        keys = self._keys()
        want = i * self.n_items + j
        pos = np.searchsorted(keys, want)
        pos = np.clip(pos, 0, len(keys) - 1) if len(keys) else np.zeros_like(want)
        out = np.zeros(want.shape, dtype=float)
        if len(keys):
            hit = keys[pos] == want
            out[hit] = self.weights[pos[hit]]
        return out

    def adjacency_matvec(self, x):
        """W @ x for a vector or matrix signal."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        if x.shape[0] != self.n_items:
            raise InputError(f"signal has {x.shape[0]} rows, graph has {self.n_items} items")
        out = np.zeros(x.shape)
        add_rows_at(out, self.rows, self.weights[:, None] * x[self.cols])
        return out[:, 0] if squeeze else out

    def _dinv_sqrt(self):
        d = self.degrees
        return np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)

    def laplacian_matvec(self, x):
        """(I - D^{-1/2} W D^{-1/2}) @ x with the zero-degree convention
        D^{-1/2}_ii = 0 for isolated items."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        dh = self._dinv_sqrt()[:, None]
        out = x - dh * self.adjacency_matvec(dh * x)
        return out[:, 0] if squeeze else out

    def dense_adjacency(self):
        w = np.zeros((self.n_items, self.n_items))
        w[self.rows, self.cols] = self.weights
        return w

    def dense_laplacian(self):
        return normalized_laplacian(self.dense_adjacency())


def normalized_laplacian(adjacency):
    """I - D^{-1/2} A D^{-1/2} for a dense symmetric nonnegative adjacency,
    or for each of a (..., n, n) stack of them; isolated nodes keep an
    identity row."""
    a = np.asarray(adjacency, dtype=float)
    d = a.sum(axis=-1)
    dh = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return np.eye(a.shape[-1]) - dh[..., :, None] * a * dh[..., None, :]


def build_cooccurrence(split):
    """Global item graph from the training views of a SplitDataset: W_ij
    counts the users whose training history contains both i and j."""
    train_views = split.train_views()
    if not any(len(v) for v in train_views.values()):
        raise InputError("split has no training interactions")
    n = split.n_items
    key_chunks = [np.zeros(0, dtype=np.int64)]
    for items in train_views.values():
        uniq = np.unique(np.asarray(items, dtype=np.int64))
        ii, jj = np.meshgrid(uniq, uniq, indexing="ij")
        mask = ii < jj
        key_chunks.append(ii[mask] * n + jj[mask])
    keys, counts = np.unique(np.concatenate(key_chunks), return_counts=True)
    return _from_upper_triangle(n, (keys // n).astype(np.intp), (keys % n).astype(np.intp),
                                counts.astype(float))


def _from_upper_triangle(n, up_r, up_c, up_w, fingerprint=""):
    """The graph whose (i < j) edges are given: mirrored, sorted by
    i * n + j, with weighted degrees."""
    rows = np.concatenate([up_r, up_c])
    cols = np.concatenate([up_c, up_r])
    weights = np.concatenate([up_w, up_w])
    order = np.argsort(rows.astype(np.int64) * n + cols.astype(np.int64), kind="stable")
    rows, cols, weights = rows[order], cols[order], weights[order]
    degrees = np.bincount(rows, weights=weights, minlength=n).astype(float)
    return CooccurrenceGraph(n_items=n, rows=rows, cols=cols, weights=weights,
                             degrees=degrees, fingerprint=fingerprint)


def local_subgraph(graph, target_items):
    """Dense local adjacency (n, n) over an ordered target subsequence (n,),
    or a (B, n, n) stack of them over the rows of a (B, n) block of
    equal-length targets: symmetric, with a zero diagonal.

    Repeated items occupy distinct nodes; because the global diagonal is
    zero, the weight between two occurrences of the same item is zero.
    """
    items = np.asarray(target_items, dtype=np.int64)
    if items.ndim not in (1, 2):
        raise InputError(f"expected (n,) targets or a (B, n) block, got shape {items.shape}")
    t_len = items.shape[-1]
    if t_len < 2:
        raise InputError(f"local graph needs at least 2 target items, got {t_len}")
    if np.any(items < 0) or np.any(items >= graph.n_items):
        raise InputError("target item index out of range")
    a = graph.lookup(items[..., :, None], items[..., None, :])
    diag = np.arange(t_len)
    a[..., diag, diag] = 0.0
    return a


def save_graph(graph, path):
    """One JSON header line, then one 'i<TAB>j<TAB>weight' line per stored
    upper-triangle entry."""
    mask = graph.rows < graph.cols
    with open(path, "w", encoding="utf-8") as fh:
        header = {"n_items": graph.n_items, "nnz": int(mask.sum()),
                  "fingerprint": graph.fingerprint}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i, j, w in zip(graph.rows[mask], graph.cols[mask], graph.weights[mask]):
            fh.write(f"{int(i)}\t{int(j)}\t{float(w)!r}\n")


def load_graph(path):
    """The graph save_graph wrote.  Every line must hold an i < j pair of
    items in [0, n_items), not seen before, with a finite weight > 0."""
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read graph {path}: {exc}") from exc
    with handle as fh:
        try:
            header = json.loads(fh.readline())
            n = int(header["n_items"])
            nnz = int(header["nnz"])
            if min(n, nnz) < 0:
                raise ValueError(f"negative n_items {n} or nnz {nnz}")
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"malformed graph header in {path}: {exc}") from exc
        up_r, up_c, up_w, seen = [], [], [], set()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"{path}:{lineno}: item index outside [0, {n})")
            if i >= j:
                raise InputError(f"{path}:{lineno}: pair ({i}, {j}) is not i < j")
            if not (w > 0.0 and math.isfinite(w)):
                raise InputError(f"{path}:{lineno}: weight {w!r} is not finite and > 0")
            if (i, j) in seen:
                raise InputError(f"{path}:{lineno}: pair ({i}, {j}) repeated")
            seen.add((i, j))
            up_r.append(i)
            up_c.append(j)
            up_w.append(w)
    if len(up_r) != nnz:
        raise InputError(f"{path}: header says nnz={nnz} but found {len(up_r)} triples")
    return _from_upper_triangle(n, np.asarray(up_r, dtype=np.intp),
                                np.asarray(up_c, dtype=np.intp), np.asarray(up_w, dtype=float),
                                fingerprint=header.get("fingerprint", ""))
