"""Leave-one-out ranking evaluation with sampled negatives.

The protocol's settings live here, and the config's `eval` section reads
its defaults from them: `draw_candidates` holds the draw's (n = 100
candidates, seed 0) and `evaluate` holds k (10).  Each user is scored on n
sampled non-interacted candidates plus the phase's ground-truth item
(`SplitDataset.eval_case`).  `draw_candidates` draws every user's row once
into one (U, n + 1) item matrix, negatives first and the truth at the LAST
index, and a caller hands that one draw to every ranking of its phase;
the model and both floors each fill a score matrix of that shape and rank
it in one count: the truth's rank is 1 + #(scores above it) + #(scores
tied with it at a lower index), the rank a stable descending sort gives.
A degenerate all-equal scorer therefore ranks the truth last and floors
both metrics at zero.  Candidate sampling for user u uses generator seed
(global_seed XOR u): reproducible, and the same in any reduction order,
but not independent across seeds: (seed 0, user 1) and (seed 1, user 0)
share a stream.

With a single relevant item, NDCG@k is 1/log2(rank+1) when rank <= k and
0 otherwise, and Recall@k is the indicator of rank <= k; NDCG@k > 0 if
and only if Recall@k = 1.
"""

import logging
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from freqrec.errors import InputError, PoolTooSmallError
from freqrec.model.network import all_item_tokens, forward, length_chunks

log = logging.getLogger(__name__)
Candidates = namedtuple("Candidates", "phase seed users items")     # see draw_candidates


def sample_candidates(user, split, phase, n, seed):
    """The user's (n + 1,) candidate row: n non-interacted negatives, then
    the phase target."""
    _, truth = split.eval_case(user, phase)
    keep = np.ones(split.n_items, dtype=bool)
    keep[split.sequences[user]] = False
    pool = np.flatnonzero(keep)
    if pool.size < n:
        raise PoolTooSmallError(
            f"user {user} has only {pool.size} non-interacted items, needs {n}")
    negatives = np.random.default_rng(seed ^ user).choice(pool, size=n, replace=False)
    return np.append(negatives, truth)


def rank_metrics(scores, truth_index, k):
    """(NDCG@k, Recall@k, rank) for a single relevant item at truth_index of
    one score vector, or three (B,) arrays for a (B, n) block whose rows
    all hold their relevant item at truth_index."""
    scores = np.asarray(scores, dtype=float)
    if np.any(np.isnan(scores)):
        bad = np.argwhere(np.isnan(scores))[0]
        raise InputError(f"NaN score for candidate {bad[-1]}"
                         + (f" in row {bad[0]}" if scores.ndim == 2 else ""))
    block = np.atleast_2d(scores)
    truth = block[:, truth_index, None]
    rank = (1 + np.count_nonzero(block > truth, axis=1)
            + np.count_nonzero(block[:, :truth_index] == truth, axis=1))
    hit = rank <= k
    ndcg = np.where(hit, 1.0 / np.log2(rank + 1.0), 0.0)
    recall = hit.astype(float)
    if scores.ndim == 1:
        return float(ndcg[0]), float(recall[0]), int(rank[0])
    return ndcg, recall, rank


@dataclass
class MetricsReport:
    ndcg: float
    recall: float
    k: int
    phase: str
    n_users: int
    n_excluded: int
    per_user: list          # (user, rank, ndcg, recall)


def _aggregate(split, candidates, metrics, k):
    ndcg, recall, rank = metrics
    return MetricsReport(ndcg=float(np.mean(ndcg)), recall=float(np.mean(recall)), k=k,
                         phase=candidates.phase, n_users=len(candidates.users),
                         n_excluded=split.n_users - len(candidates.users),
                         per_user=list(zip(candidates.users.tolist(), rank.tolist(),
                                           ndcg.tolist(), recall.tolist())))


def draw_candidates(split, phase, n_candidates=100, seed=0):
    """The phase's candidates, drawn once: the users whose rows can be
    drawn (those with at least n_candidates non-interacted items),
    ascending, and their (U, n_candidates + 1) item matrix, truth last."""
    users, rows = [], []
    for user in range(split.n_users):
        try:
            rows.append(sample_candidates(user, split, phase, n_candidates, seed))
        except PoolTooSmallError:
            continue
        users.append(user)
    if not users:
        raise InputError("no users could be evaluated")
    return Candidates(phase, seed, np.asarray(users), np.stack(rows))


def evaluate(model, split, candidates, k=10):
    """Rank each candidate user's phase target against its drawn negatives
    using the model's inner-product scores.  The users are forwarded one
    chunk of equal-length inputs at a time, each chunk filling its rows of
    the score matrix, which is then ranked at once."""
    phase, _, users, cands = candidates
    tokens = all_item_tokens(model)
    inputs = [split.eval_case(user, phase)[0] for user in users]
    chunks = length_chunks([len(x) for x in inputs])
    log.info("evaluate (%s): %d users in %d length buckets, %d chunks", phase, len(users),
             len({len(x) for x in inputs}), len(chunks))
    scores = np.empty(cands.shape)
    for chunk in chunks:
        hidden, _ = forward(model, np.stack([inputs[i] for i in chunk]), table=tokens)
        # a stacked matmul, not einsum: each row then matches tokens[row] @ rep
        scores[chunk] = (tokens[cands[chunk]] @ hidden[:, -1, :, None])[..., 0]
    return _aggregate(split, candidates, rank_metrics(scores, cands.shape[1] - 1, k), k)


def baselines(split, candidates, k):
    """Floor scorers on the drawn candidate matrix: uniform-random scores
    seeded per user from the draw's seed, and training-frequency popularity
    (no randomness beyond the draw)."""
    _, seed, users, cands = candidates
    counts = np.bincount(np.concatenate(split.train_views()), minlength=split.n_items)
    rngs = [np.random.default_rng((seed ^ user) + 0x9E3779B9) for user in users.tolist()]
    random = np.stack([rng.random(cands.shape[1]) for rng in rngs])
    return {name: _aggregate(split, candidates, rank_metrics(scores, cands.shape[1] - 1, k), k)
            for name, scores in (("random", random), ("popularity", counts[cands]))}
