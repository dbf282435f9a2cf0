"""Leave-one-out ranking evaluation with sampled negatives.

Each user is scored on 100 sampled non-interacted candidates plus the
ground-truth item.  A pass draws every user's candidate row into one
(U, n + 1) item matrix, negatives first and the truth at the LAST index,
fills a score matrix of the same shape and ranks it in one count: the
truth's rank is 1 + #(scores above it) + #(scores tied with it at a lower
index), the rank a stable descending sort gives.  A degenerate all-equal
scorer therefore ranks the truth last and floors both metrics at zero.
Candidate sampling for user u uses generator seed (global_seed XOR u):
reproducible, and the same in any reduction order, but not independent
across seeds, since (seed 0, user 1) and (seed 1, user 0) share a stream.

With a single relevant item, NDCG@k is 1/log2(rank+1) when rank <= k and
0 otherwise, and Recall@k is the indicator of rank <= k; NDCG@k > 0 if
and only if Recall@k = 1.
"""

import logging
from dataclasses import dataclass

import numpy as np

from freqrec.errors import InputError
from freqrec.model.network import all_item_tokens, forward, length_chunks

log = logging.getLogger(__name__)


def sample_candidates(user, split, phase="test", n=100, seed=0):
    """The user's (n + 1,) candidate row: n non-interacted negatives, then
    the phase target."""
    keep = np.ones(split.n_items, dtype=bool)
    keep[split.sequences[user]] = False
    pool = np.flatnonzero(keep)
    if pool.size < n:
        raise InputError(
            f"user {user} has only {pool.size} non-interacted items, needs {n}")
    truth = split.valid_target(user) if phase == "valid" else split.test_target(user)
    negatives = np.random.default_rng(seed ^ user).choice(pool, size=n, replace=False)
    return np.append(negatives, truth)


def rank_metrics(scores, truth_index, k=10):
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


def _aggregate(split, users, metrics, k, phase):
    ndcg, recall, rank = metrics
    return MetricsReport(ndcg=float(np.mean(ndcg)), recall=float(np.mean(recall)), k=k,
                         phase=phase, n_users=len(users),
                         n_excluded=split.n_users - len(users),
                         per_user=list(zip(users.tolist(), rank.tolist(), ndcg.tolist(),
                                           recall.tolist())))


def _candidate_sets(split, phase, n_candidates, seed):
    """The users whose candidates can be drawn (those with at least
    n_candidates non-interacted items), ascending, and their (U,
    n_candidates + 1) candidate matrix."""
    users, rows = [], []
    for user in range(split.n_users):
        try:
            rows.append(sample_candidates(user, split, phase=phase, n=n_candidates,
                                          seed=seed))
        except InputError:
            continue
        users.append(user)
    if not users:
        raise InputError("no users could be evaluated")
    return np.asarray(users), np.stack(rows)


def evaluate(model, split, phase="test", seed=0, k=10, n_candidates=100):
    """Rank the phase target of every user against sampled negatives using
    the model's inner-product scores.  Users whose candidates can be drawn
    are forwarded one chunk of equal-length inputs at a time, each chunk
    filling its rows of the score matrix, which is then ranked at once."""
    users, cands = _candidate_sets(split, phase, n_candidates, seed)
    tokens = all_item_tokens(model)
    inputs = [split.eval_input(user, phase) for user in users]
    chunks = length_chunks([len(x) for x in inputs])
    log.info("evaluate (%s): %d users in %d length buckets, %d chunks", phase, len(users),
             len({len(x) for x in inputs}), len(chunks))
    scores = np.empty(cands.shape)
    for chunk in chunks:
        user_rep, _, _ = forward(model, np.stack([inputs[i] for i in chunk]), table=tokens)
        # a stacked matmul, not einsum: each row then matches tokens[row] @ rep
        scores[chunk] = (tokens[cands[chunk]] @ user_rep[:, -1, :, None])[..., 0]
    return _aggregate(split, users, rank_metrics(scores, n_candidates, k), k, phase)


def baselines(split, phase="test", seed=0, k=10, n_candidates=100):
    """Floor scorers: seeded uniform-random scores, and training-frequency
    popularity (no randomness beyond candidate sampling).  Both rank the
    same candidate matrix."""
    users, cands = _candidate_sets(split, phase, n_candidates, seed)
    counts = np.bincount(np.concatenate(list(split.train_views().values())),
                         minlength=split.n_items)
    rngs = [np.random.default_rng((seed ^ user) + 0x9E3779B9) for user in users.tolist()]
    random = np.stack([rng.random(n_candidates + 1) for rng in rngs])
    return {name: _aggregate(split, users, rank_metrics(scores, n_candidates, k), k, phase)
            for name, scores in (("random", random), ("popularity", counts[cands]))}
