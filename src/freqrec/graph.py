"""Item co-occurrence graph and per-sequence local subgraphs.

The global graph counts, for every item pair (i, j), how many users'
training histories contain both items (set membership, not interaction
counts).  The diagonal is zeroed before degrees are computed: self-pairs
carry no neighbor-difference information and would only inflate degrees.
Storage is a symmetric coordinate list sorted by a single int64 key, so
local T x T blocks come out of one vectorized searchsorted pass.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from freqrec import artifact
from freqrec.errors import InputError
from freqrec.numcore.linalg import add_rows_at

# directed edges per scatter step of `laplacian_matvec`
EDGE_BLOCK = 1024


def _inv_sqrt_degree(d):
    """D^{-1/2} of degrees d, with the zero-degree rule: 0 for an isolated item."""
    return np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)


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

    def laplacian_matvec(self, x):
        """(I - D^{-1/2} W D^{-1/2}) @ x for an (n_items, d) signal, with the
        zero-degree convention D^{-1/2}_ii = 0 for isolated items.  The
        edges are scattered EDGE_BLOCK at a time, in edge order, so one
        (EDGE_BLOCK, d) block of weighted rows and its flat index are alive
        at a time; `np.add.at` adds in sequence either way, so the sums are
        those of one whole-edge-list scatter bit for bit."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.n_items:
            raise InputError(f"signal of shape {x.shape} does not have the graph's "
                             f"{self.n_items} items as rows")
        dh = _inv_sqrt_degree(self.degrees)[:, None]
        scaled = dh * x
        wx = np.zeros(x.shape)
        for start in range(0, self.nnz, EDGE_BLOCK):
            edges = slice(start, start + EDGE_BLOCK)
            add_rows_at(wx, self.rows[edges], self.weights[edges, None] * scaled[self.cols[edges]])
        return x - dh * wx

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
    dh = _inv_sqrt_degree(a.sum(axis=-1))
    return np.eye(a.shape[-1]) - dh[..., :, None] * a * dh[..., None, :]


def build_cooccurrence(split):
    """Global item graph from the training views of a SplitDataset: W_ij
    counts the users whose training history contains both i and j."""
    train_views = split.train_views()
    if not any(len(v) for v in train_views):
        raise InputError("split has no training interactions")
    n = split.n_items
    key_chunks = [np.zeros(0, dtype=np.int64)]
    for items in train_views:
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
    keys = graph.rows.astype(np.int64) * graph.n_items + graph.cols.astype(np.int64)
    want = items[..., :, None] * graph.n_items + items[..., None, :]
    a = np.zeros(want.shape)
    if len(keys):
        pos = np.clip(np.searchsorted(keys, want), 0, len(keys) - 1)
        hit = keys[pos] == want
        a[hit] = graph.weights[pos[hit]]
    diag = np.arange(t_len)
    a[..., diag, diag] = 0.0
    return a


def save_graph(graph, path):
    """`freqrec.artifact` with a header of n_items, nnz and fingerprint, and
    three arrays over the nnz stored upper-triangle entries, in edge order:
    i and j (int64) and the weights (float64)."""
    mask = graph.rows < graph.cols
    header = {"n_items": graph.n_items, "nnz": int(mask.sum()),
              "fingerprint": graph.fingerprint}
    artifact.write(path, header, [graph.rows[mask], graph.cols[mask], graph.weights[mask]])


def load_graph(path):
    """The graph save_graph wrote.  Every entry must be an i < j pair of
    items in [0, n_items), not stored before, with a finite weight > 0; a
    broken rule is refused naming its first bad entry."""
    header, payload = artifact.read(path, "graph", counts=("n_items", "nnz"))
    n, nnz = header["n_items"], header["nnz"]
    i, j, w = artifact.arrays(payload, [("i", (nnz,), np.intp), ("j", (nnz,), np.intp),
                                        ("weight", (nnz,), float)], path, "graph")
    first = np.isin(np.arange(nnz), np.unique(i * n + j, return_index=True)[1])
    for bad, reason in ((i >= j, "pair is not i < j"),
                        ((i < 0) | (j >= n), f"item index outside [0, {n})"),
                        (w <= 0.0, "weight is not > 0"),
                        (~first, "pair repeated")):
        if bad.any():
            k = int(np.argmax(bad))
            raise InputError(f"{path}: graph entry {k} ({i[k]}, {j[k]}, {float(w[k])!r}): "
                             f"{reason}")
    return _from_upper_triangle(n, i, j, w, fingerprint=header["fingerprint"])
