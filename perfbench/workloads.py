"""Workload definitions and the benchmark's own input generator.

The generator is a seeded locality walk in the shape of `freqrec synth`
(rho = 0.5, with a metadata column), written here so that a change to
`freqrec.dataset.synthesize` cannot change what the benchmark measures:
the program only ever receives the TSV file.

A workload is a shape for that generator, a list of `--set` overrides
shared by every command, the commands that build its artifacts (set-up)
and the commands whose wall time is measured (one pass), plus the output
checks that decide whether a pass was correct.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

WORKERS = 1      # the fork pool is slower than serial on small boxes; see README


def write_log(path, users, items, mean_length, rho, seed, min_length=6):
    """Write `user \\t item \\t ts \\t text` lines of a locality walk.

    Each user starts on a uniform item; after every event the walk stays on
    the current item with probability rho, otherwise it jumps to another
    item j with probability proportional to rho^|i-j|."""
    rng = np.random.default_rng(seed)
    idx = np.arange(items)
    lines = []
    for user in range(users):
        length = max(min_length, int(rng.poisson(mean_length)))
        stays = rng.random(length) < rho
        draws = rng.random(length)
        cur = int(rng.integers(items))
        for t in range(length):
            lines.append(f"u{user:05d}\ti{cur:05d}\t{t}\tband{cur // 8} item{cur}\n")
            if not stays[t]:
                # one row of the jump distribution at a time: the full
                # items x items table would dominate the run's peak memory
                weight = rho ** np.abs(idx - cur).astype(float)
                weight[cur] = 0.0
                cdf = np.cumsum(weight)
                cdf /= cdf[-1]
                cur = int(np.searchsorted(cdf, draws[t]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: int
    items: int
    mean_length: int
    rho: float
    overrides: tuple          # --set KEY=VALUE pairs passed to every command

    def global_args(self):
        args = ["--workers", str(WORKERS)]
        for item in self.overrides:
            args += ["--set", item]
        return args


ANALYZE = Workload(
    name="analyze",
    why=("Acceptance-7 shape (120 items, mean length 12): eigensolver, local graphs "
         "and capture-mode forwards at short T; no backward pass, optimizer or "
         "candidate sampling in the timed section."),
    users=160, items=120, mean_length=12, rho=0.5,
    overrides=(),
)

PIPELINE = Workload(
    name="pipeline",
    why=("Acceptance-8b shape (1200 items, mean length 45, max_seq_len 200): the "
         "O(T^2) DFT, tape backward, AdamW, skip-gram scatter and candidate "
         "sampling do the work, with zero eigendecompositions."),
    users=160, items=1200, mean_length=45, rho=0.5,
    overrides=("dataset.max_seq_len=200", "pretrain.epochs=3", "training.lr=5e-4",
               "training.epochs=1", "training.patience=1"),
)

WORKLOADS = {w.name: w for w in (ANALYZE, PIPELINE)}


def files(work):
    """Paths of every input and artifact inside one work directory."""
    names = ("raw.tsv", "canonical.tsv", "graph.tsv", "id.emb", "text.emb",
             "id_f.emb", "model.ckpt", "metrics.json", "analysis.json")
    out = {n.split(".")[0]: os.path.join(work, n) for n in names}
    out["prefix"] = os.path.join(work, "profiles", "run")
    os.makedirs(os.path.dirname(out["prefix"]), exist_ok=True)
    return out


def setup_commands(workload, f):
    """Commands whose artifacts the timed section consumes.

    `ingest` is here for its summary: the split's user count, which the
    output checks compare against."""
    if workload.name != "analyze":
        return []
    return [
        ["ingest", "--input", f["raw"]],
        ["build-graph", "--data", f["raw"], "--out", f["graph"]],
        ["pretrain", "--data", f["raw"], "--out-id", f["id"], "--out-text", f["text"]],
        ["glpf", "--graph", f["graph"], "--embeddings", f["id"], "--out", f["id_f"]],
    ]


def pass_commands(workload, f):
    """The timed section: one pass of CLI commands, run in order."""
    if workload.name == "analyze":
        return [["analyze", "--data", f["raw"], "--id", f["id_f"], "--text", f["text"],
                 "--graph", f["graph"], "--tfm", "both", "--out-prefix", f["prefix"],
                 "--out", f["analysis"]]]
    return [
        ["ingest", "--input", f["raw"], "--out", f["canonical"]],
        ["build-graph", "--data", f["canonical"], "--out", f["graph"]],
        ["pretrain", "--data", f["canonical"], "--out-id", f["id"], "--out-text", f["text"]],
        ["glpf", "--graph", f["graph"], "--embeddings", f["id"], "--out", f["id_f"]],
        ["train", "--data", f["canonical"], "--id", f["id_f"], "--text", f["text"],
         "--out", f["model"]],
        ["evaluate", "--data", f["canonical"], "--id", f["id_f"], "--text", f["text"],
         "--checkpoint", f["model"], "--with-baselines", "--out", f["metrics"]],
    ]


def check_analyze(out, split_users):
    """(check name, passed) pairs for one `analyze --tfm both` output."""
    results = []
    for mode in ("on", "off"):
        m = out["modes"][mode]
        counted = m["users"] + m["skipped_short"] + m["skipped_degenerate"]
        results.append((f"analyze.{mode}.users_accounted", counted == split_users))
        with open(m["profile_csv"][:-len(".csv")] + ".json", encoding="utf-8") as fh:
            shares = json.load(fh)["share"]
        results.append((f"analyze.{mode}.shares_sum_to_one",
                        all(abs(sum(row) - 1.0) <= 1e-9 for row in shares)))
    return results


def check_pipeline(outs, split_users):
    """(check name, passed) pairs for one pipeline pass (outputs by command)."""
    train, ev = outs["train"], outs["evaluate"]
    m = ev["metrics"]
    floors = ev["baselines"].values()
    return [
        ("train.not_aborted", train["aborted"] is False),
        ("evaluate.users_accounted", m["n_users"] + m["n_excluded"] == split_users),
        ("evaluate.beats_floors", all(m["ndcg"] > f["ndcg"] and m["recall"] > f["recall"]
                                      for f in floors)),
    ]
