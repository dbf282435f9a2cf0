"""Candidate sampling and ranking metric tests."""

import numpy as np
import pytest

from freqrec import evalharness
from freqrec.dataset import SynthConfig, build_split, synthesize
from freqrec.errors import InputError
from freqrec.evalharness import baselines, evaluate, rank_metrics, sample_candidates
from freqrec.graph import build_cooccurrence
from freqrec.model import network
from freqrec.model.network import all_item_tokens, forward
from tests.test_model import config_model, small_model


@pytest.fixture(scope="module")
def split():
    log, _ = synthesize(SynthConfig(users=60, items=130, mean_length=12, rho=0.5, seed=0))
    return build_split(log, min_interactions=5)


class TestSampleCandidates:
    def test_forced_set_when_pool_is_exact(self):
        # user 0 interacted with all but 20 items: the negatives must be
        # exactly those 20
        from freqrec.dataset import SplitDataset
        vocab = [f"i{k:02d}" for k in range(40)]
        seqs = [np.arange(0, 20, dtype=np.int64), np.arange(15, 40, dtype=np.int64)]
        split = SplitDataset(user_tokens=["a", "b"], item_tokens=vocab,
                             sequences=seqs, item_text=[""] * 40,
                             max_seq_len=100, min_interactions=1)
        pool = list(range(20, 40))
        cand = sample_candidates(0, split, n=20, seed=0)
        assert sorted(int(i) for i in cand[:-1]) == pool

    def test_deterministic(self, split):
        a = sample_candidates(3, split, n=50, seed=9)
        b = sample_candidates(3, split, n=50, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_no_leakage_all_users(self, split):
        for u in range(split.n_users):
            cand = sample_candidates(u, split, n=50, seed=1)
            interacted = split.interacted(u)
            for item in cand[:-1]:
                assert int(item) not in interacted
            assert cand[-1] == split.test_target(u)
            assert cand.shape == (51,)

    def test_valid_phase_truth(self, split):
        cand = sample_candidates(0, split, phase="valid", n=50, seed=1)
        assert cand[-1] == split.valid_target(0)

    def test_insufficient_pool_rejected(self, split):
        with pytest.raises(InputError):
            sample_candidates(0, split, n=split.n_items, seed=0)

    def test_draws_from_the_set_based_pool(self, split):
        # the pool is the sorted non-interacted items, as the set difference
        # gives it, so every user's seeded draws are the same
        for u in range(split.n_users):
            pool = np.setdiff1d(np.arange(split.n_items),
                                np.fromiter(split.interacted(u), dtype=np.int64))
            for phase, seed in (("test", 0), ("valid", 5)):
                cand = sample_candidates(u, split, phase=phase, n=50, seed=seed)
                expected = np.random.default_rng(seed ^ u).choice(pool, size=50,
                                                                  replace=False)
                np.testing.assert_array_equal(cand[:-1], expected)


class TestRankMetrics:
    def test_rank_one(self):
        scores = np.array([0.1, 0.2, 0.9])
        ndcg, recall, rank = rank_metrics(scores, truth_index=2, k=10)
        assert (ndcg, recall, rank) == (1.0, 1.0, 1)

    def test_rank_three_closed_form(self):
        scores = np.zeros(101)
        scores[[7, 9]] = [5.0, 4.0]
        scores[100] = 3.0
        ndcg, recall, rank = rank_metrics(scores, truth_index=100, k=10)
        assert rank == 3
        assert ndcg == pytest.approx(0.5)   # 1 / log2(4)
        assert recall == 1.0

    def test_rank_eleven_zero(self):
        scores = np.zeros(101)
        scores[:10] = np.arange(10, 0, -1)
        scores[100] = 0.5
        ndcg, recall, rank = rank_metrics(scores, truth_index=100, k=10)
        assert rank == 11
        assert ndcg == 0.0 and recall == 0.0

    def test_tie_break_ascending_index(self):
        scores = np.ones(5)
        _, _, rank = rank_metrics(scores, truth_index=4, k=10)
        assert rank == 5   # all tied, truth at last index loses every tie
        _, _, rank = rank_metrics(scores, truth_index=0, k=10)
        assert rank == 1

    def test_nan_rejected(self):
        scores = np.zeros(4)
        scores[2] = np.nan
        with pytest.raises(InputError, match="candidate 2"):
            rank_metrics(scores, truth_index=0)

    def test_ndcg_positive_iff_recall_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            scores = rng.standard_normal(30)
            ndcg, recall, _ = rank_metrics(scores, truth_index=29, k=5)
            assert (ndcg > 0) == (recall == 1.0)

    def test_rank_improvement_monotone(self):
        base = np.linspace(1.0, 0.0, 21)
        last_ndcg, last_recall = -1.0, -1.0
        for pos in range(20, -1, -1):
            scores = base.copy()
            truth_score = base[pos]
            scores = np.delete(scores, pos)
            scores = np.append(scores, truth_score + 1e-9)
            ndcg, recall, _ = rank_metrics(scores, truth_index=20, k=10)
            assert ndcg >= last_ndcg - 1e-12
            assert recall >= last_recall - 1e-12
            last_ndcg, last_recall = ndcg, recall

    @pytest.mark.parametrize("truth_index", [0, 3, 7])
    def test_block_matches_row_by_row(self, truth_index):
        rng = np.random.default_rng(2)
        rows = [np.ones(8), np.zeros(8), np.full(8, -0.0),
                np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0]),
                np.array([np.inf, -np.inf, np.inf, 1.0, -np.inf, np.inf, 0.0, -np.inf]),
                np.array([-np.inf] * 8), np.array([np.inf] * 8)]
        rows += list(rng.integers(-2, 3, size=(20, 8)).astype(float))
        rows += list(rng.standard_normal((20, 8)))
        block = np.stack(rows)
        for k in (1, 3, 10):
            ndcg, recall, rank = rank_metrics(block, truth_index, k=k)
            singles = [rank_metrics(row, truth_index, k=k) for row in block]
            assert ndcg.tolist() == [s[0] for s in singles]
            assert recall.tolist() == [s[1] for s in singles]
            assert rank.tolist() == [s[2] for s in singles]
            # the rank a stable descending sort gives
            assert rank.tolist() == [
                int(np.flatnonzero(np.argsort(-row, kind="stable") == truth_index)[0]) + 1
                for row in block]

    def test_block_nan_names_the_candidate(self):
        block = np.zeros((3, 5))
        block[1, 2] = np.nan
        with pytest.raises(InputError, match="candidate 2 in row 1"):
            rank_metrics(block, truth_index=4)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(50)
        a = rank_metrics(scores, truth_index=49, k=10)
        b = rank_metrics(scores * 7.3, truth_index=49, k=10)
        assert a == b


class TestEvaluateAndBaselines:
    def test_random_floor_near_hypergeometric(self):
        log, _ = synthesize(SynthConfig(users=1100, items=160, mean_length=10,
                                        rho=0.5, seed=3))
        split = build_split(log, min_interactions=5)
        assert split.n_users >= 1000
        floors = baselines(split, phase="test", seed=0)
        assert abs(floors["random"].recall - 10.0 / 101.0) <= 0.02

    def test_popularity_deterministic_across_scorer_runs(self, split):
        a = baselines(split, phase="test", seed=5, n_candidates=30)["popularity"]
        b = baselines(split, phase="test", seed=5, n_candidates=30)["popularity"]
        assert a.ndcg == b.ndcg and a.per_user == b.per_user

    def test_floors_share_one_sampling_per_user(self, split, monkeypatch):
        # a candidate count the unseen pools of some users cannot fill
        pools = sorted(split.n_items - len(split.interacted(u)) for u in range(split.n_users))
        n = pools[len(pools) // 4]
        counts = np.zeros(split.n_items)
        for items in split.train_views().values():
            np.add.at(counts, items, 1.0)
        reference = {"random": [], "popularity": []}
        for user in range(split.n_users):
            try:
                cand = sample_candidates(user, split, phase="test", n=n, seed=4)
            except InputError:
                continue
            rng = np.random.default_rng((4 ^ user) + 0x9E3779B9)
            for name, scores in (("random", rng.random(n + 1)),
                                 ("popularity", counts[cand])):
                ndcg, recall, rank = rank_metrics(scores, n)
                reference[name].append((user, rank, ndcg, recall))
        calls, sample_fn = [], evalharness.sample_candidates

        def counting(*args, **kwargs):
            calls.append(1)
            return sample_fn(*args, **kwargs)

        monkeypatch.setattr(evalharness, "sample_candidates", counting)
        floors = baselines(split, phase="test", seed=4, n_candidates=n)
        assert len(calls) == split.n_users
        for name, rows in reference.items():
            assert 0 < floors[name].n_excluded < split.n_users
            assert floors[name].per_user == rows

    def test_model_evaluate_deterministic(self, split):
        model = small_model(split)
        r1 = evaluate(model, split, phase="valid", seed=2, n_candidates=30)
        r2 = evaluate(model, split, phase="valid", seed=2, n_candidates=30)
        assert r1 == r2


def per_sequence_rows(model, split, phase, seed, n_candidates, k=10):
    """The reference: one forward per user, in user order."""
    tokens = all_item_tokens(model)
    rows = []
    for user in range(split.n_users):
        try:
            cand = sample_candidates(user, split, phase=phase, n=n_candidates, seed=seed)
        except InputError:
            continue
        hidden, _ = forward(model, split.eval_input(user, phase))
        ndcg, recall, rank = rank_metrics(tokens[cand] @ hidden[-1], n_candidates, k=k)
        rows.append((user, rank, ndcg, recall))
    return rows


class TestBatchedEvaluate:
    @pytest.mark.parametrize("overrides", [
        {}, {"tfm.enabled": False}, {"tfm.causal_safe": True}, {"tfm.residual": True},
        {"glpf.apply_to": "fused"},
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default")
    def test_rows_match_per_sequence_reference(self, split, overrides):
        model = config_model(split, build_cooccurrence(split), overrides)
        # a candidate count the unseen pools of some users cannot fill
        pools = sorted(split.n_items - len(split.interacted(u)) for u in range(split.n_users))
        n = pools[len(pools) // 4]
        for phase in ("valid", "test"):
            report = evaluate(model, split, phase=phase, seed=3, n_candidates=n)
            assert 0 < report.n_excluded < split.n_users
            assert report.n_users + report.n_excluded == split.n_users
            assert report.per_user == per_sequence_rows(model, split, phase, 3, n)

    def test_fused_table_filtered_once(self, split, monkeypatch):
        model = config_model(split, build_cooccurrence(split), {"glpf.apply_to": "fused"})
        calls, filter_fn = [], network.polynomial_filter

        def counting(*args, **kwargs):
            calls.append(1)
            return filter_fn(*args, **kwargs)

        monkeypatch.setattr(network, "polynomial_filter", counting)
        report = evaluate(model, split, phase="valid", seed=3, n_candidates=30)
        assert len({len(split.eval_input(u, "valid")) for u, *_ in report.per_user}) > 1
        assert len(calls) == 1

    def test_unfiltered_catalog_fused_once(self, split, monkeypatch):
        model = config_model(split, build_cooccurrence(split), {})
        calls, fuse_fn = [], network.fuse

        def counting(*args, **kwargs):
            calls.append(1)
            return fuse_fn(*args, **kwargs)

        monkeypatch.setattr(network, "fuse", counting)
        report = evaluate(model, split, phase="valid", seed=3, n_candidates=30)
        assert len({len(split.eval_input(u, "valid")) for u, *_ in report.per_user}) > 1
        assert len(calls) == 1
