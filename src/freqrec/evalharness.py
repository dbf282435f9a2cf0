"""Leave-one-out ranking evaluation with sampled negatives.

Each user is scored on 100 sampled non-interacted candidates plus the
ground-truth item.  The truth sits at the LAST candidate index and ties
break by ascending candidate index, so a degenerate all-equal scorer ranks
the truth last and floors both metrics at zero.  Candidate sampling for
user u uses generator seed (global_seed XOR u): per-user sets are
independent but reproducible, and any reduction order gives the same
report.

With a single relevant item, NDCG@k is 1/log2(rank+1) when rank <= k and
0 otherwise, and Recall@k is the indicator of rank <= k; NDCG@k > 0 if
and only if Recall@k = 1.
"""

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from freqrec.errors import InputError
from freqrec.model.network import all_item_tokens, forward, length_chunks
from freqrec.parallel import parallel_map

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CandidateSet:
    user: int
    items: np.ndarray       # negatives first, ground truth last
    truth_index: int
    seed: int

    @property
    def truth(self):
        return int(self.items[self.truth_index])


def sample_candidates(user, split, phase="test", n=100, seed=0):
    """n non-interacted negatives plus the phase target, truth last."""
    keep = np.ones(split.n_items, dtype=bool)
    keep[split.sequences[user]] = False
    pool = np.flatnonzero(keep)
    if pool.size < n:
        raise InputError(
            f"user {user} has only {pool.size} non-interacted items, needs {n}")
    truth = split.valid_target(user) if phase == "valid" else split.test_target(user)
    rng = np.random.default_rng(seed ^ user)
    negatives = rng.choice(pool, size=n, replace=False)
    items = np.concatenate([negatives, [truth]]).astype(np.int64)
    return CandidateSet(user=user, items=items, truth_index=n, seed=seed)


def rank_metrics(scores, truth_index, k=10):
    """(NDCG@k, Recall@k) for a single relevant item at truth_index."""
    scores = np.asarray(scores, dtype=float)
    if np.any(np.isnan(scores)):
        bad = int(np.argmax(np.isnan(scores)))
        raise InputError(f"NaN score for candidate {bad}")
    order = np.argsort(-scores, kind="stable")
    rank = int(np.nonzero(order == truth_index)[0][0]) + 1
    if rank <= k:
        return 1.0 / np.log2(rank + 1.0), 1.0, rank
    return 0.0, 0.0, rank


@dataclass
class MetricsReport:
    ndcg: float
    recall: float
    k: int
    phase: str
    n_users: int
    n_excluded: int
    per_user: list = field(default_factory=list)   # (user, rank, ndcg, recall)
    fingerprint: str = ""

    def to_json(self):
        return json.dumps({
            "ndcg@k": self.ndcg, "recall@k": self.recall, "k": self.k,
            "phase": self.phase, "n_users": self.n_users,
            "n_excluded": self.n_excluded, "fingerprint": self.fingerprint,
        }, sort_keys=True)

    def per_user_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("user,rank,ndcg,recall\n")
            for user, rank, ndcg, recall in self.per_user:
                fh.write(f"{user},{rank},{ndcg!r},{recall!r}\n")


def _aggregate(rows, k, phase, n_excluded, fingerprint=""):
    if not rows:
        raise InputError("no users could be evaluated")
    ndcg = float(np.mean([r[2] for r in rows]))
    recall = float(np.mean([r[3] for r in rows]))
    return MetricsReport(ndcg=ndcg, recall=recall, k=k, phase=phase,
                         n_users=len(rows), n_excluded=n_excluded,
                         per_user=rows, fingerprint=fingerprint)


def _candidate_scores_of(scorer, split, phase, n_candidates, seed, k):
    def one_user(user):
        try:
            cand = sample_candidates(user, split, phase=phase, n=n_candidates, seed=seed)
        except InputError:
            return None
        scores = scorer(user, cand.items)
        ndcg, recall, rank = rank_metrics(scores, cand.truth_index, k=k)
        return (user, rank, ndcg, recall)
    return one_user


def evaluate(model, split, phase="test", seed=0, k=10, n_candidates=100, workers=1,
             fingerprint=""):
    """Rank the phase target of every user against sampled negatives using
    the model's inner-product scores.  Users whose candidates can be drawn
    are forwarded one chunk of equal-length inputs at a time (`workers`
    processes share the chunks); rows come back in user order."""
    tokens = all_item_tokens(model)
    cands = {}
    for user in range(split.n_users):
        try:
            cands[user] = sample_candidates(user, split, phase=phase, n=n_candidates,
                                            seed=seed)
        except InputError:
            continue
    users = list(cands)
    inputs = [split.eval_input(u, phase) for u in users]
    chunks = length_chunks([len(x) for x in inputs])
    log.info("evaluate (%s): %d users in %d length buckets, %d chunks", phase, len(users),
             len({len(x) for x in inputs}), len(chunks))

    def one_chunk(chunk):
        user_rep, _, _ = forward(model, np.stack([inputs[i] for i in chunk]), table=tokens)
        rows = []
        for i, rep in zip(chunk, user_rep.value[:, -1]):
            cand = cands[users[i]]
            ndcg, recall, rank = rank_metrics(tokens[cand.items] @ rep, cand.truth_index, k=k)
            rows.append((users[i], rank, ndcg, recall))
        return rows

    per_chunk = parallel_map(one_chunk, chunks, workers=workers)
    rows = sorted((row for chunk_rows in per_chunk for row in chunk_rows), key=lambda r: r[0])
    return _aggregate(rows, k, phase, n_excluded=split.n_users - len(rows),
                      fingerprint=fingerprint)


def baselines(split, phase="test", seed=0, k=10, n_candidates=100):
    """Floor scorers: seeded uniform-random scores, and training-frequency
    popularity (no randomness beyond candidate sampling)."""
    counts = np.zeros(split.n_items)
    for items in split.train_views().values():
        np.add.at(counts, items, 1.0)

    def popularity(user, items):
        return counts[items]

    def random_scores(user, items):
        rng = np.random.default_rng((seed ^ user) + 0x9E3779B9)
        return rng.random(items.shape[0])

    out = {}
    for name, scorer in (("random", random_scores), ("popularity", popularity)):
        rows = [r for r in map(_candidate_scores_of(scorer, split, phase, n_candidates,
                                                    seed, k), range(split.n_users))
                if r is not None]
        out[name] = _aggregate(rows, k, phase,
                               n_excluded=split.n_users - len(rows))
    return out
