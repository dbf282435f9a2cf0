"""Ingestion, filtering and synthesizer tests."""

import json

import numpy as np
import pytest

from freqrec.dataset import (
    InteractionLog,
    SynthConfig,
    build_split,
    ingest,
    synthesize,
    write_tsv,
)
from freqrec.errors import DatasetTooSparseError, InputError
from freqrec.model.embeddings import text_surrogate_embeddings


def make_log(rows):
    return InteractionLog([(u, i, t, "") for u, i, t in rows])


class TestIngest:
    def test_tsv_dedup(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("a\tx\t1\na\tx\t1\na\ty\t2\n")
        log = ingest(p)
        assert log.n_events == 2

    def test_jsonlines(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text('{"user": "a", "item": "x", "ts": 5, "text": "hello"}\n'
                     '{"user": "a", "item": "y", "ts": 6}\n'
                     '{"user": "a", "item": "z", "ts": 7, "text": null}\n')
        log = ingest(p, format="jsonlines")
        assert log.n_events == 3
        assert [event[3] for event in log.events] == ["hello", "", ""]

    def test_jsonlines_integer_tokens(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text('{"user": 7, "item": 30, "ts": 0}\n')
        assert ingest(p, format="jsonlines").events == [("7", "30", 0, "")]

    @pytest.mark.parametrize("record", [
        '{"user": null, "item": "x", "ts": 1}',
        '{"user": true, "item": "x", "ts": 1}',
        '{"user": "a", "item": 1.0, "ts": 1}',
        '{"user": "a", "item": ["x"], "ts": 1}',
        '{"user": "a", "item": "x", "ts": -0.5}',
        '{"user": "a", "item": "x", "ts": 1.7}',
        '{"user": "a", "item": "x", "ts": 1.0}',
        '{"user": "a", "item": "x", "ts": true}',
        '{"user": "a", "item": "x", "ts": "1"}',
        '{"user": "a", "item": "x"}',
        '["a", "x", 1]',
        '{"user": "a\\tb", "item": "x", "ts": 1}',
        '{"user": "a", "item": "x\\ny", "ts": 1}',
        '{"user": "a", "item": "x\\ry", "ts": 1}',
        '{"user": "a", "item": "x", "ts": 1, "text": 12}',
        '{"user": "a", "item": "x", "ts": 1, "text": false}',
        '{"user": "a", "item": "x", "ts": 1, "text": ["t"]}',
    ])
    def test_jsonlines_field_is_not_coerced(self, tmp_path, record):
        p = tmp_path / "log.jsonl"
        p.write_text('{"user": "a", "item": "x", "ts": 0}\n' + record + "\n")
        with pytest.raises(InputError, match=r"log\.jsonl:2: "):
            ingest(p, format="jsonlines")

    def test_jsonlines_round_trips_through_tsv(self, tmp_path):
        def records(text):
            return "".join(json.dumps({"user": u, "item": f"i{k}", "ts": k, "text": text(u, k)})
                           + "\n" for u in "abc" for k in range(5))

        src, out, spaced = tmp_path / "log.jsonl", tmp_path / "log.tsv", tmp_path / "sp.jsonl"
        src.write_text(records(lambda u, k: f"item{k}\tline\nbreak\r\n{u}"))
        spaced.write_text(records(lambda u, k: f"item{k} line break  {u}"))
        log = ingest(src, format="jsonlines")
        write_tsv(log, out)
        assert ingest(out).events == log.events
        tables = [text_surrogate_embeddings(build_split(lg, min_interactions=3), d_text=8)
                  for lg in (ingest(out), ingest(spaced, format="jsonlines"))]
        assert tables[0].rows.any()
        np.testing.assert_array_equal(tables[0].rows, tables[1].rows)

    def test_missing_timestamp_names_line(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("a\tx\t1\nb\ty\n")
        with pytest.raises(InputError, match="2"):
            ingest(p)

    def test_bad_timestamp_names_line(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("a\tx\tnotanumber\n")
        with pytest.raises(InputError, match="1"):
            ingest(p)

    def test_empty_log_rejected(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("\n")
        with pytest.raises(InputError):
            ingest(p)

    def test_order_independent(self, tmp_path):
        rows = [("a", "x", 3), ("a", "y", 1), ("b", "x", 2), ("b", "z", 9)]
        p1, p2 = tmp_path / "f1.tsv", tmp_path / "f2.tsv"
        p1.write_text("".join(f"{u}\t{i}\t{t}\n" for u, i, t in rows))
        p2.write_text("".join(f"{u}\t{i}\t{t}\n" for u, i, t in reversed(rows)))
        assert ingest(p1).events == ingest(p2).events


class TestBuildSplit:
    def test_user_below_threshold_removed(self):
        rows = [("a", f"i{k}", k) for k in range(4)]  # 4 interactions -> removed
        rows += [(u, f"i{k}", 10 + k) for u in ("b", "c", "d", "e", "f") for k in range(5)]
        split = build_split(make_log(rows), min_interactions=5)
        assert "a" not in split.user_tokens
        assert split.n_users == 5

    def test_exactly_five_leave_one_out(self):
        rows = [(u, f"i{k}", k) for u in "abcde" for k in range(5)]
        split = build_split(make_log(rows), min_interactions=5)
        u = split.user_tokens.index("a")
        assert len(split.train_items(u)) == 3
        assert split.valid_target(u) == split.sequences[u][-2]
        assert split.test_target(u) == split.sequences[u][-1]

    def test_cascade_matches_bruteforce_fixed_point(self):
        # six-user toy log engineered so removing one item drops a user below
        # threshold on the next round; oracle iterates removals naively
        rows = []
        for u in ("u1", "u2", "u3", "u4"):
            rows += [(u, it, k) for k, it in enumerate(["a", "b", "c"])]
        rows += [("u5", "a", 0), ("u5", "b", 1), ("u5", "d", 2)]
        rows += [("u6", "d", 0), ("u6", "d", 1)]  # dedup keeps distinct ts
        log = make_log(rows)

        def oracle(events, k):
            events = list(events)
            while True:
                uc, ic = {}, {}
                for u, i, _, _ in events:
                    uc[u] = uc.get(u, 0) + 1
                    ic[i] = ic.get(i, 0) + 1
                keep = [e for e in events
                        if uc[e[0]] >= k and ic[e[1]] >= k]
                if len(keep) == len(events):
                    return events
                events = keep

        expected = oracle(log.events, 3)
        split = build_split(log, min_interactions=3)
        got_pairs = {(split.user_tokens[u], split.item_tokens[i])
                     for u in range(split.n_users) for i in split.sequences[u]}
        assert got_pairs == {(u, i) for u, i, _, _ in expected}

    def test_fixed_point_invariant(self):
        log, _ = synthesize(SynthConfig(users=40, items=30, mean_length=8, rho=0.4, seed=3))
        split = build_split(log, min_interactions=5)
        item_counts = np.zeros(split.n_items, dtype=int)
        for u in range(split.n_users):
            assert len(split.sequences[u]) >= 5
            np.add.at(item_counts, split.sequences[u], 1)
        assert np.all(item_counts >= 5)

    def test_everything_filtered_raises_with_trace(self):
        rows = [("a", "x", 0), ("b", "y", 1)]
        with pytest.raises(DatasetTooSparseError) as err:
            build_split(make_log(rows), min_interactions=5)
        assert err.value.trace

    def test_shuffled_reingest_identical(self, tmp_path):
        log, _ = synthesize(SynthConfig(users=30, items=25, mean_length=8, rho=0.5, seed=1))
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_tsv(log, p1)
        lines = p1.read_text().splitlines(keepends=True)
        rng = np.random.default_rng(0)
        p2.write_text("".join(lines[k] for k in rng.permutation(len(lines))))
        s1 = build_split(ingest(p1), min_interactions=5)
        s2 = build_split(ingest(p2), min_interactions=5)
        assert s1.user_tokens == s2.user_tokens
        assert s1.item_tokens == s2.item_tokens
        assert all(np.array_equal(a, b) for a, b in zip(s1.sequences, s2.sequences))

    def test_truncation_window(self):
        rows = [("a", f"i{k:02d}", k) for k in range(12)]
        rows += [(u, f"i{k:02d}", 100 + k) for u in "bcdef" for k in range(12)]
        split = build_split(make_log(rows), min_interactions=5, max_seq_len=6)
        u = split.user_tokens.index("a")
        assert len(split.train_items(u)) == 4
        assert len(split.eval_input(u, "test")) == 5
        # stats are pre-truncation
        assert split.summary()["average_length"] == 12.0


class TestSynthesize:
    def test_deterministic(self):
        log1, aff1 = synthesize(SynthConfig(seed=9))
        log2, aff2 = synthesize(SynthConfig(seed=9))
        assert log1.events == log2.events
        np.testing.assert_array_equal(aff1, aff2)

    def test_high_rho_two_items_nearly_constant(self):
        log, _ = synthesize(SynthConfig(users=20, items=2, mean_length=50,
                                        rho=0.99, seed=4, with_text=False))
        switches = total = 0
        per_user = {}
        for user, item, ts, _ in log.events:
            per_user.setdefault(user, []).append((ts, item))
        for seq in per_user.values():
            items = [i for _, i in sorted(seq)]
            switches += sum(1 for a, b in zip(items, items[1:]) if a != b)
            total += len(items) - 1
        assert switches / total < 0.05

    def test_adjacent_affinity_beats_distance_five(self):
        log, aff = synthesize(SynthConfig(users=100, items=60, mean_length=25,
                                          rho=0.5, seed=7, with_text=False))
        per_user = {}
        for user, item, ts, _ in log.events:
            per_user.setdefault(user, []).append((ts, int(item[1:])))
        adj, far = [], []
        for seq in per_user.values():
            items = [i for _, i in sorted(seq)]
            for a, b in zip(items, items[1:]):
                if a != b:
                    adj.append(aff[a, b])
            for a, b in zip(items, items[5:]):
                if a != b:
                    far.append(aff[a, b])
        assert np.mean(adj) > np.mean(far)

    def test_rho_bounds(self):
        with pytest.raises(InputError):
            synthesize(SynthConfig(rho=1.0))
        with pytest.raises(InputError):
            synthesize(SynthConfig(rho=0.0))
