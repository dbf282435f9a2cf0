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


def _candidate_sets(split, phase, n_candidates, seed):
    """Every user's candidate set in user order, leaving out the users
    whose candidates cannot be drawn (too few non-interacted items)."""
    cands = []
    for user in range(split.n_users):
        try:
            cands.append(sample_candidates(user, split, phase=phase, n=n_candidates,
                                           seed=seed))
        except InputError:
            continue
    return cands


def _row(cand, scores, k):
    ndcg, recall, rank = rank_metrics(scores, cand.truth_index, k=k)
    return (cand.user, rank, ndcg, recall)


def evaluate(model, split, phase="test", seed=0, k=10, n_candidates=100, fingerprint=""):
    """Rank the phase target of every user against sampled negatives using
    the model's inner-product scores.  Users whose candidates can be drawn
    are forwarded one chunk of equal-length inputs at a time; rows come
    back in user order."""
    tokens = all_item_tokens(model)
    cands = _candidate_sets(split, phase, n_candidates, seed)
    inputs = [split.eval_input(cand.user, phase) for cand in cands]
    chunks = length_chunks([len(x) for x in inputs])
    log.info("evaluate (%s): %d users in %d length buckets, %d chunks", phase, len(cands),
             len({len(x) for x in inputs}), len(chunks))
    rows = []
    for chunk in chunks:
        user_rep, _, _ = forward(model, np.stack([inputs[i] for i in chunk]), table=tokens)
        rows += [_row(cands[i], tokens[cands[i].items] @ rep, k)
                 for i, rep in zip(chunk, user_rep[:, -1])]
    rows.sort(key=lambda r: r[0])
    return _aggregate(rows, k, phase, n_excluded=split.n_users - len(rows),
                      fingerprint=fingerprint)


def baselines(split, phase="test", seed=0, k=10, n_candidates=100):
    """Floor scorers: seeded uniform-random scores, and training-frequency
    popularity (no randomness beyond candidate sampling).  Both rank the
    same candidate sets."""
    counts = np.zeros(split.n_items)
    for items in split.train_views().values():
        np.add.at(counts, items, 1.0)

    def popularity(cand):
        return counts[cand.items]

    def random_scores(cand):
        rng = np.random.default_rng((seed ^ cand.user) + 0x9E3779B9)
        return rng.random(cand.items.shape[0])

    cands = _candidate_sets(split, phase, n_candidates, seed)
    out = {}
    for name, scorer in (("random", random_scores), ("popularity", popularity)):
        rows = [_row(cand, scorer(cand), k) for cand in cands]
        out[name] = _aggregate(rows, k, phase, n_excluded=split.n_users - len(rows))
    return out
