"""CLI pipeline tests: each stage end to end on a small synthetic log."""

import dataclasses
import inspect
import json
import logging
import re

import numpy as np
import pytest

from freqrec import analysis, cli, evalharness
from freqrec import dataset as ds
from freqrec.analysis import THEOREM1_PILOT_THRESHOLD, trace_spectral_profile
from freqrec.cli import main
from freqrec.config import BOUNDS, DEFAULTS, fingerprint, load_config
from freqrec.errors import InputError
from freqrec.evalharness import draw_candidates, evaluate
from freqrec.graph import load_graph, save_graph
from freqrec.model.embeddings import (
    PretrainConfig,
    load_external,
    save_table,
    text_surrogate_embeddings,
)
from freqrec.model.network import build_model, init_backbone, init_fusion_mlp, length_chunks
from freqrec.checkpoint import CHECKPOINT_MAGIC, load_checkpoint
from freqrec.model.training import TrainConfig, train
from freqrec.tfm import TemporalFilter
from tests.test_model import count_calls


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Full pipeline artifacts shared by the stage tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = {
        "synth": {"users": 60, "items": 40, "mean_length": 12, "rho": 0.5, "seed": 1},
        "model": {"d_id": 16, "d_text": 8, "d_model": 32},
        "backbone": {"layers": 2},
        "pretrain": {"epochs": 2},
        "training": {"epochs": 2, "n_negatives": 16},
        "eval": {"n_candidates": 20},
        "analysis": {"theorem_trials": 50},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    paths = {
        "root": root, "config": str(cfg_path),
        "data": str(root / "log.tsv"),
        "graph": str(root / "graph.bin"),
        "id": str(root / "id.emb"), "text": str(root / "text.emb"),
        "id_filtered": str(root / "id_filtered.emb"),
        "ckpt": str(root / "model.ckpt"),
    }
    base = ["--config", paths["config"]]
    assert run(base + ["synth", "--out", paths["data"]]) == 0
    assert run(base + ["build-graph", "--data", paths["data"],
                       "--out", paths["graph"]]) == 0
    assert run(base + ["pretrain", "--data", paths["data"],
                       "--out-id", paths["id"], "--out-text", paths["text"]]) == 0
    assert run(base + ["glpf", "--graph", paths["graph"],
                       "--embeddings", paths["id"], "--out", paths["id_filtered"]]) == 0
    assert run(base + ["train", "--data", paths["data"], "--id", paths["id_filtered"],
                       "--text", paths["text"], "--out", paths["ckpt"]]) == 0
    return paths


class TestStages:
    def test_synth_deterministic(self, tmp_path, workdir):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        flags = ["--set", "synth.users=200", "--set", "synth.rho=0.5", "--set", "synth.seed=1",
                 "synth"]
        assert run(flags + ["--out", str(a)]) == 0
        assert run(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_glpf_alpha_zero_identity(self, tmp_path, workdir):
        out = tmp_path / "id0.emb"
        base = ["--config", workdir["config"]]
        assert run(base + ["--set", "glpf.alpha=0", "glpf", "--graph", workdir["graph"],
                           "--embeddings", workdir["id"], "--out", str(out)]) == 0
        original = load_external(workdir["id"])
        filtered = load_external(str(out))
        np.testing.assert_array_equal(filtered.rows, original.rows)

    def test_evaluate_and_baselines(self, tmp_path, workdir, capsys):
        out = tmp_path / "metrics.json"
        per_user = tmp_path / "per_user.csv"
        code = run(["--config", workdir["config"],
                    "evaluate", "--data", workdir["data"], "--id", workdir["id_filtered"],
                    "--text", workdir["text"], "--checkpoint", workdir["ckpt"],
                    "--graph", workdir["graph"],
                    "--out", str(out), "--per-user", str(per_user),
                    "--with-baselines"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["metrics"]["ndcg"] <= 1.0
        assert "random" in payload["baselines"]
        assert payload["config"]["model"]["d_id"] == 16
        assert per_user.read_text().startswith("user,rank,ndcg,recall")

    def test_evaluate_rejects_fingerprint_mismatch(self, tmp_path, workdir):
        out = tmp_path / "m.json"
        args = ["--config", workdir["config"], "--set", "eval.seed=99",
                "evaluate", "--data", workdir["data"], "--id", workdir["id_filtered"],
                "--text", workdir["text"], "--checkpoint", workdir["ckpt"],
                "--out", str(out)]
        assert run(args) == 1          # fingerprint changed by the override
        assert not out.exists()        # no partial output
        assert run(args + ["--force"]) == 0

    def test_analyze_both_modes(self, tmp_path, workdir):
        out = tmp_path / "analysis.json"
        prefix = str(tmp_path / "profile")
        code = run(["--config", workdir["config"],
                    "analyze", "--data", workdir["data"], "--id", workdir["id_filtered"],
                    "--text", workdir["text"], "--graph", workdir["graph"],
                    "--tfm", "both", "--out-prefix", prefix, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["modes"]) == {"on", "off"}
        for mode in ("on", "off"):
            csv_path = payload["modes"][mode]["profile_csv"]
            assert payload["fingerprint"] in csv_path
            with open(csv_path) as fh:
                assert fh.readline().strip() == "layer,band,energy,share"

    def test_theorem_probe(self, tmp_path, workdir, capsys):
        out = tmp_path / "thm.json"
        code = run(["--config", workdir["config"],
                    "theorem-probe", "--family", "ring", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["violations_rayleigh"] == 0
        assert payload["trials"] == 50
        assert payload["threshold"] == THEOREM1_PILOT_THRESHOLD
        assert capsys.readouterr().out == out.read_text() + "\n"

    def test_theorem_probe_identity(self, tmp_path, workdir, capsys):
        out = tmp_path / "thm.json"
        assert run(["--config", workdir["config"], "theorem-probe", "--family", "locality",
                    "--identity", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["cutoff"], payload["order"]) == (1.0, 0)
        assert payload["violations_rayleigh"] == payload["violations_quadratic"] == 0
        assert payload["mean_smoothness_after"] == payload["mean_smoothness_before"]
        assert payload["mean_rayleigh_after"] == payload["mean_rayleigh_before"]
        assert capsys.readouterr().out == out.read_text() + "\n"

    @pytest.mark.parametrize("family", ["ring", "locality"])
    def test_theorem_probe_writes_strict_json(self, tmp_path, workdir, capsys, family):
        out = tmp_path / "thm.json"
        assert run(["--config", workdir["config"],
                    "theorem-probe", "--family", family, "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        for text in (out.read_text(), capsys.readouterr().out):
            payload = json.loads(text, parse_constant=refuse)
            assert payload["family"] == family
            assert payload["rho"] == (None if family == "ring" else 0.5)

    def test_non_finite_output_is_a_numeric_error(self, tmp_path, workdir, capsys,
                                                  monkeypatch):
        probe = cli.theorem1_probe
        monkeypatch.setattr(cli, "theorem1_probe", lambda *a, **kw: dataclasses.replace(
            probe(*a, **kw), mean_rayleigh_after=float("inf")))
        assert run(["--config", workdir["config"], "theorem-probe", "--family", "locality",
                    "--out", str(tmp_path / "thm.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numeric error: ") and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_train_exits_2_on_a_non_finite_loss(self, tmp_path, workdir, capsys,
                                                monkeypatch):
        build = cli.build_model

        def overflowing(*args, **kwargs):
            model = build(*args, **kwargs)
            model.mlp.w2 *= 1e300         # every token overflows, so every loss is NaN
            return model

        monkeypatch.setattr(cli, "build_model", overflowing)
        with np.errstate(all="ignore"):
            code = run(["--config", workdir["config"], "train", "--data", workdir["data"],
                        "--id", workdir["id_filtered"], "--text", workdir["text"],
                        "--out", str(tmp_path / "model.ckpt"),
                        "--log", str(tmp_path / "train.jsonl")])
        assert code == 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["aborted"] is True and summary["epochs_run"] == 0
        # a failing command leaves none of its files
        assert not (tmp_path / "model.ckpt").exists()
        assert not (tmp_path / "train.jsonl").exists()
        assert list(tmp_path.iterdir()) == []

    def test_sweep_cutoff(self, tmp_path, workdir):
        out = tmp_path / "sweep.csv"
        code = run(["--config", workdir["config"], "--set", "training.epochs=1",
                    "sweep", "--param", "cutoff", "--values", "0.3,1.0",
                    "--data", workdir["data"], "--id", workdir["id_filtered"],
                    "--text", workdir["text"], "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "cutoff,ndcg,recall"
        assert len(lines) == 3

    def test_evaluate_draws_once_for_the_model_and_both_floors(self, tmp_path, workdir,
                                                               monkeypatch):
        calls = count_calls(monkeypatch, evalharness, "sample_candidates")
        assert run(["--config", workdir["config"],
                    "evaluate", "--data", workdir["data"], "--id", workdir["id_filtered"],
                    "--text", workdir["text"], "--checkpoint", workdir["ckpt"],
                    "--with-baselines", "--out", str(tmp_path / "m.json")]) == 0
        assert len(calls) == ds.build_split(ds.ingest(workdir["data"])).n_users

    def test_sweep_draws_the_test_matrix_once(self, tmp_path, workdir, monkeypatch):
        calls = count_calls(monkeypatch, evalharness, "sample_candidates")
        assert run(["--config", workdir["config"], "--set", "training.epochs=2",
                    "sweep", "--param", "cutoff", "--values", "0.3,0.6",
                    "--data", workdir["data"], "--id", workdir["id_filtered"],
                    "--text", workdir["text"], "--out", str(tmp_path / "sweep.csv")]) == 0
        # one validation draw and one test draw for the whole grid
        assert len(calls) == 2 * ds.build_split(ds.ingest(workdir["data"])).n_users

    def test_non_finite_checkpoint_is_refused(self, tmp_path, workdir, capsys):
        header, _, weights = open(workdir["ckpt"], "rb").read().partition(b"\n")
        patched = np.frombuffer(weights, dtype="<f8").copy()
        patched[0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        ckpt.write_bytes(header + b"\n" + patched.tobytes())
        out = tmp_path / "out"
        out.mkdir()
        inputs = ["--data", workdir["data"], "--id", workdir["id_filtered"],
                  "--text", workdir["text"], "--checkpoint", str(ckpt)]
        for argv in (["evaluate", *inputs, "--with-baselines", "--out", str(out / "m.json"),
                      "--per-user", str(out / "u.csv")],
                     ["analyze", *inputs, "--graph", workdir["graph"],
                      "--out-prefix", str(out / "p"), "--out", str(out / "a.json")]):
            assert run(["--config", workdir["config"], *argv]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and str(ckpt) in captured.err
            assert "non-finite" in captured.err and captured.out == ""
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, value, restamp", [
        # a head count of the wrong type, under its own fingerprint
        ("heads", 2.0, True),
        # a valid value under the fingerprint of the trained config
        ("seed", 9, False),
    ], ids=["float-heads", "stale-fingerprint"])
    def test_checkpoint_of_a_refused_config_is_an_input_error(self, tmp_path, workdir,
                                                               capsys, key, value, restamp):
        head, _, weights = open(workdir["ckpt"], "rb").read()[len(CHECKPOINT_MAGIC):] \
            .partition(b"\n")
        header = json.loads(head)
        header["config"]["backbone"][key] = value
        if restamp:
            header["fingerprint"] = fingerprint(header["config"])
        ckpt = tmp_path / "edited.ckpt"
        ckpt.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + weights)
        out = tmp_path / "m.json"
        assert run(["--config", workdir["config"], "evaluate", "--data", workdir["data"],
                    "--id", workdir["id_filtered"], "--text", workdir["text"],
                    "--checkpoint", str(ckpt), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: malformed checkpoint header in {ckpt}: ")
        assert "Traceback" not in captured.err and captured.out == "" and not out.exists()

    def test_format_3_checkpoint_asks_for_retraining(self, tmp_path, workdir, capsys):
        # format 3 ran its stack in float64, so its weights fit another model
        head, _, weights = open(workdir["ckpt"], "rb").read()[len(CHECKPOINT_MAGIC):] \
            .partition(b"\n")
        header = json.loads(head)
        header["format"] = 3
        ckpt = tmp_path / "format3.ckpt"
        ckpt.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + weights)
        out = tmp_path / "m.json"
        assert run(["--config", workdir["config"], "evaluate", "--data", workdir["data"],
                    "--id", workdir["id_filtered"], "--text", workdir["text"],
                    "--checkpoint", str(ckpt), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {ckpt}: unsupported checkpoint format 3")
        assert "re-train" in captured.err and "malformed" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_csv_cells_are_plain_numbers(self, tmp_path, workdir):
        base = ["--config", workdir["config"]]
        per_user, metrics = tmp_path / "per_user.csv", tmp_path / "metrics.json"
        assert run(base + ["analyze", "--data", workdir["data"], "--id", workdir["id_filtered"],
                           "--text", workdir["text"], "--graph", workdir["graph"],
                           "--tfm", "on", "--out-prefix", str(tmp_path / "profile")]) == 0
        assert run(base + ["evaluate", "--data", workdir["data"], "--id", workdir["id_filtered"],
                           "--text", workdir["text"], "--checkpoint", workdir["ckpt"],
                           "--per-user", str(per_user), "--out", str(metrics)]) == 0
        lines = per_user.read_text().splitlines()
        assert lines[0] == "user,rank,ndcg,recall"
        assert len(lines) == json.loads(metrics.read_text())["metrics"]["n_users"] + 1
        profile, = tmp_path.glob("profile_tfm-on_*.csv")
        for path in (profile, per_user):
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            assert rows and all(len(row) == 4 for row in rows)
            for row in rows:
                int(row[0]), int(row[1]), float(row[2]), float(row[3])

    def test_pretrain_rerun_byte_identical(self, tmp_path, workdir):
        base = ["--config", workdir["config"]]
        outs = []
        for tag in ("x", "y"):
            id_out = tmp_path / f"id_{tag}.emb"
            text_out = tmp_path / f"text_{tag}.emb"
            assert run(base + ["pretrain", "--data", workdir["data"],
                               "--out-id", str(id_out),
                               "--out-text", str(text_out)]) == 0
            outs.append((id_out.read_bytes(), text_out.read_bytes()))
        assert outs[0] == outs[1]

    def test_ingest_roundtrip(self, tmp_path, workdir):
        out = tmp_path / "canonical.tsv"
        summary = tmp_path / "summary.json"
        code = run(["--config", workdir["config"],
                    "ingest", "--input", workdir["data"], "--out", str(out),
                    "--summary", str(summary)])
        assert code == 0
        payload = json.loads(summary.read_text())
        assert payload["n_users"] > 0
        assert payload["config"]["dataset"]["min_interactions"] == 5
        # canonical rerun is byte-stable
        out2 = tmp_path / "canonical2.tsv"
        run(["--config", workdir["config"],
             "ingest", "--input", str(out), "--out", str(out2)])
        assert out.read_bytes() == out2.read_bytes()

    def test_ingest_format_flag_is_the_config_format(self, tmp_path, workdir, capsys):
        data = tmp_path / "log.jsonl"
        rows = [line.split("\t") for line in open(workdir["data"]).read().splitlines()]
        data.write_text("".join(json.dumps({"user": r[0], "item": r[1], "ts": int(r[2])}) + "\n"
                                for r in rows))
        assert run(["--set", "dataset.format=jsonlines", "ingest", "--input", str(data)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["dataset"]["format"] == "jsonlines"
        assert payload["fingerprint"] == fingerprint(
            load_config(overrides={"dataset.format": "jsonlines"})) != fingerprint(DEFAULTS)

    def test_synth_affinity_is_the_locality_kernel(self, tmp_path):
        out = tmp_path / "affinity.csv"
        assert run(["--set", "synth.items=12", "--set", "synth.rho=0.3", "synth",
                    "--out", str(tmp_path / "log.tsv"), "--affinity-out", str(out)]) == 0
        idx = np.arange(12)
        expected = 0.3 ** np.abs(idx[:, None] - idx[None, :])
        np.fill_diagonal(expected, 0.0)
        got = [[float(cell) for cell in line.split(",")] for line in out.read_text().splitlines()]
        assert np.array_equal(got, expected)

    def test_sweep_alpha_row_is_glpf_train_evaluate(self, tmp_path, workdir):
        # under the default glpf.apply_to=id the sweep filters the raw ID
        # table at each value, as `glpf` does before `train`
        base = ["--config", workdir["config"], "--set", "training.epochs=1"]
        inputs = ["--data", workdir["data"], "--text", workdir["text"]]
        out = tmp_path / "sweep.csv"
        assert run(base + ["sweep", "--param", "alpha", "--values", "0.9,0.6", *inputs,
                           "--id", workdir["id"], "--graph", workdir["graph"],
                           "--out", str(out)]) == 0
        rows = {float(v): (float(n), float(r))
                for v, n, r in (line.split(",") for line in out.read_text().splitlines()[1:])}
        at = base + ["--set", "glpf.alpha=0.6"]
        id_f, ckpt, metrics = (str(tmp_path / name) for name in ("id_f.emb", "m.ckpt", "m.json"))
        assert run(at + ["glpf", "--graph", workdir["graph"], "--embeddings", workdir["id"],
                         "--out", id_f]) == 0
        assert run(at + ["train", *inputs, "--id", id_f, "--out", ckpt]) == 0
        # the text table carries the fixture config's fingerprint, not this alpha's
        assert run(at + ["evaluate", *inputs, "--id", id_f, "--checkpoint", ckpt,
                         "--phase", "test", "--force", "--out", metrics]) == 0
        m = json.loads(open(metrics).read())["metrics"]
        assert sorted(rows) == [0.6, 0.9] and rows[0.6] == (m["ndcg"], m["recall"])

    def test_validation_ranks_at_10_whatever_eval_k(self, tmp_path, workdir):
        # eval.k sets the ranking of evaluate and sweep; early stopping
        # watches validation NDCG@10, the k its log keys name
        logs = []
        for k in ("1", "10"):
            log = tmp_path / f"k{k}.jsonl"
            assert run(["--config", workdir["config"], "--set", f"eval.k={k}",
                        "train", "--data", workdir["data"], "--id", workdir["id_filtered"],
                        "--text", workdir["text"], "--out", str(tmp_path / f"k{k}.ckpt"),
                        "--log", str(log)]) == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        assert all("valid_ndcg10" in json.loads(line) for line in logs[0].splitlines())


# each command's arguments and the number of JSON files it writes
STAMPED = {
    "synth": (["--out", "{t}/log.tsv", "--summary", "{t}/s.json"], 1),
    "ingest": (["--input", "{data}", "--summary", "{t}/s.json"], 1),
    "build-graph": (["--data", "{data}", "--out", "{t}/g.bin"], 0),
    "pretrain": (["--data", "{data}", "--out-id", "{t}/id.emb", "--out-text", "{t}/t.emb"], 0),
    "glpf": (["--graph", "{graph}", "--embeddings", "{id}", "--out", "{t}/id_f.emb"], 0),
    "train": (["{inputs}", "--out", "{t}/m.ckpt"], 0),
    "evaluate": (["{inputs}", "--checkpoint", "{ckpt}", "--out", "{t}/m.json"], 1),
    "analyze": (["{inputs}", "--graph", "{graph}", "--out-prefix", "{t}/p",
                 "--out", "{t}/a.json"], 3),
    "theorem-probe": (["--family", "ring", "--out", "{t}/thm.json"], 1),
    "sweep": (["--param", "cutoff", "--values", "0.3", "{inputs}", "--out", "{t}/s.csv"], 0),
}


@pytest.mark.parametrize("command", STAMPED)
def test_every_json_output_carries_fingerprint_and_config(tmp_path, workdir, capsys, command):
    argv, n_files = STAMPED[command]
    names = dict(workdir, t=str(tmp_path))
    inputs = ["--data", workdir["data"], "--id", workdir["id_filtered"], "--text", workdir["text"]]
    argv = [a for arg in argv for a in (inputs if arg == "{inputs}" else [arg.format(**names)])]
    assert run(["--config", workdir["config"], command, *argv]) == 0
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == n_files
    cfg = load_config(workdir["config"])
    for text in [capsys.readouterr().out] + [p.read_text() for p in files]:
        payload = json.loads(text)
        assert (payload["fingerprint"], payload["config"]) == (fingerprint(cfg), cfg)


class TestAnalyze:
    @staticmethod
    def analyze(workdir, out_dir, *flags, setting=None, checkpoint=True):
        return run(["--config", workdir["config"], *(["--set", setting] if setting else []),
                    "analyze", "--data", workdir["data"], "--id", workdir["id_filtered"],
                    "--text", workdir["text"], "--graph", workdir["graph"],
                    *(["--checkpoint", workdir["ckpt"]] if checkpoint else []),
                    "--out-prefix", str(out_dir / "p"), "--out", str(out_dir / "a.json"),
                    *flags])

    def test_refuses_a_checkpoint_of_another_config(self, tmp_path, workdir, capsys):
        assert self.analyze(workdir, tmp_path, setting="backbone.layers=3") == 1
        err = capsys.readouterr().err
        ours = fingerprint(load_config(workdir["config"], {"backbone.layers": "3"}))
        theirs = fingerprint(load_config(workdir["config"]))
        assert "config fingerprints disagree" in err
        assert f"run-config={ours}" in err and f"checkpoint={theirs}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_force_uses_them_anyway(self, tmp_path, workdir):
        assert self.analyze(workdir, tmp_path, "--force", setting="backbone.layers=3") == 0
        assert json.loads((tmp_path / "a.json").read_text())["modes"]

    def test_refuses_tables_of_another_width(self, tmp_path, workdir, capsys):
        assert self.analyze(workdir, tmp_path, "--force", setting="model.d_id=8",
                            checkpoint=False) == 1
        err = capsys.readouterr().err
        assert "dimension 16" in err and "required 8" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_profiles(self, tmp_path, workdir):
        runs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in runs:
            out_dir.mkdir()
            assert self.analyze(workdir, out_dir, checkpoint=False) == 0
        cfg = load_config(workdir["config"])
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir())
        for name in names:
            if name != "a.json":        # the summary names its own paths
                assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        graph = load_graph(workdir["graph"])
        model = build_model(cfg, load_external(workdir["id_filtered"]),
                            load_external(workdir["text"]), graph=graph)
        split = ds.build_split(ds.ingest(workdir["data"]))
        n_bands = cfg["analysis"]["n_bands"]
        for mode, enabled in (("on", True), ("off", False)):
            model.backbone.tfm_enabled = enabled
            raw = trace_spectral_profile(model, split.windows(), graph, n_bands=n_bands).raw
            base = runs[0] / f"p_tfm-{mode}_{fingerprint(cfg)}"
            lines = base.with_suffix(".csv").read_text().splitlines()
            assert lines[0] == "layer,band,energy,share"
            assert len(lines) == 1 + (cfg["backbone"]["layers"] + 1) * n_bands
            assert np.array_equal(json.loads(base.with_suffix(".json").read_text())["raw"], raw)

    def test_both_writes_the_bytes_of_on_and_off(self, tmp_path, workdir):
        runs = {}
        for tfm in ("both", "on", "off"):
            (tmp_path / tfm).mkdir()
            assert self.analyze(workdir, tmp_path / tfm, "--tfm", tfm) == 0
            runs[tfm] = {p.name: p.read_bytes() for p in (tmp_path / tfm).iterdir()}
        summaries = {tfm: json.loads(files.pop("a.json")) for tfm, files in runs.items()}
        assert runs["both"] == {**runs["on"], **runs["off"]} and len(runs["both"]) == 4
        for mode in ("on", "off"):
            both, single = summaries["both"]["modes"][mode], summaries[mode]["modes"][mode]
            assert both.pop("profile_csv") != single.pop("profile_csv")
            assert both == single

    def test_chunk_size_changes_no_output(self, tmp_path, workdir, monkeypatch):
        outputs, calls = [], []
        for max_rows in (16, 1024):
            def chunks(lengths, max_rows=max_rows):
                calls.append(max_rows)
                return length_chunks(lengths, max_rows=max_rows)

            monkeypatch.setattr(analysis, "length_chunks", chunks)
            monkeypatch.setattr(evalharness, "length_chunks", chunks)
            assert self.analyze(workdir, tmp_path, "--tfm", "both") == 0
            assert run(["--config", workdir["config"], "evaluate", "--data", workdir["data"],
                        "--id", workdir["id_filtered"], "--text", workdir["text"],
                        "--checkpoint", workdir["ckpt"], "--out", str(tmp_path / "m.json"),
                        "--per-user", str(tmp_path / "u.csv")]) == 0
            outputs.append({p.name: p.read_bytes() for p in tmp_path.iterdir()})
        assert calls == [16, 16, 1024, 1024] and len(outputs[0]) == 7
        assert outputs[0] == outputs[1]

    def test_windows_too_short_for_the_bands(self, tmp_path, workdir, capsys):
        # the fixture's shortest window holds 6 items, 5 target nodes: too
        # few for 8 bands, so those users are skipped as short
        paths = {name: str(tmp_path / name) for name in ("graph.bin", "id.emb", "text.emb",
                                                         "id_f.emb", "a.json")}
        base = ["--config", workdir["config"], "--set", "analysis.n_bands=8"]
        assert run(base + ["build-graph", "--data", workdir["data"],
                           "--out", paths["graph.bin"]]) == 0
        assert run(base + ["pretrain", "--data", workdir["data"], "--out-id", paths["id.emb"],
                           "--out-text", paths["text.emb"]]) == 0
        assert run(base + ["glpf", "--graph", paths["graph.bin"],
                           "--embeddings", paths["id.emb"], "--out", paths["id_f.emb"]]) == 0
        capsys.readouterr()
        assert run(base + ["analyze", "--data", workdir["data"], "--id", paths["id_f.emb"],
                           "--text", paths["text.emb"], "--graph", paths["graph.bin"],
                           "--tfm", "both", "--out-prefix", str(tmp_path / "p"),
                           "--out", paths["a.json"]]) == 0
        assert capsys.readouterr().err == ""
        windows = ds.build_split(ds.ingest(workdir["data"])).windows()
        assert min(w.size for w in windows) == 6
        for m in json.loads((tmp_path / "a.json").read_text())["modes"].values():
            assert 0 < m["skipped_short"] <= sum(w.size < 9 for w in windows)
            assert m["users"] + m["skipped_short"] + m["skipped_degenerate"] == len(windows)


@pytest.mark.parametrize("command", ["synth", "ingest", "build-graph", "pretrain", "glpf",
                                     "train", "evaluate", "analyze", "theorem-probe",
                                     "sweep"])
def test_help(command, capsys):
    assert run([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: freqrec {command}")


FUSED = ["--set", "glpf.apply_to=fused", "--set", "glpf.alpha=0.8",
         "--set", "training.epochs=1"]


@pytest.fixture(scope="module")
def fused(workdir):
    """Artifacts of a run with G-LPF on the fused tokens: the ID table goes
    into training unfiltered and the graph filters at the token stage."""
    root = workdir["root"]
    paths = dict(workdir, graph=str(root / "fused_graph.bin"), id=str(root / "fused_id.emb"),
                 text=str(root / "fused_text.emb"), ckpt=str(root / "fused.ckpt"))
    base = ["--config", workdir["config"], *FUSED]
    assert run(base + ["build-graph", "--data", paths["data"], "--out", paths["graph"]]) == 0
    assert run(base + ["pretrain", "--data", paths["data"],
                       "--out-id", paths["id"], "--out-text", paths["text"]]) == 0
    assert run(base + ["train", "--data", paths["data"], "--id", paths["id"],
                       "--text", paths["text"], "--graph", paths["graph"],
                       "--out", paths["ckpt"]]) == 0
    return paths


class TestFused:
    @staticmethod
    def evaluate(fused, out, *graph):
        return run(["--config", fused["config"], *FUSED,
                    "evaluate", "--data", fused["data"], "--id", fused["id"],
                    "--text", fused["text"], "--checkpoint", fused["ckpt"],
                    *graph, "--out", str(out)])

    def test_glpf_passes_table_through(self, tmp_path, fused):
        out = tmp_path / "id_f.emb"
        assert run(["--config", fused["config"], *FUSED,
                    "glpf", "--graph", fused["graph"], "--embeddings", fused["id"],
                    "--out", str(out)]) == 0
        np.testing.assert_array_equal(load_external(str(out)).rows,
                                      load_external(fused["id"]).rows)

    def test_sweep_alpha(self, tmp_path, fused):
        out = tmp_path / "sweep.csv"
        assert run(["--config", fused["config"], *FUSED,
                    "sweep", "--param", "alpha", "--values", "0.2,0.8",
                    "--data", fused["data"], "--id", fused["id"],
                    "--text", fused["text"], "--graph", fused["graph"],
                    "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "alpha,ndcg,recall" and len(rows) == 3

    def test_evaluate_without_graph_fails(self, tmp_path, fused, capsys):
        out = tmp_path / "m.json"
        assert self.evaluate(fused, out) == 1
        assert "--graph" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_with_another_graph_fails(self, tmp_path, fused, capsys):
        # same config fingerprint, one edge fewer: save_graph stores the
        # i < j entries, so dropping the last of them drops that edge
        graph = load_graph(fused["graph"])
        keep = np.arange(graph.nnz) != np.flatnonzero(graph.rows < graph.cols)[-1]
        other = tmp_path / "other.bin"
        save_graph(dataclasses.replace(graph, rows=graph.rows[keep], cols=graph.cols[keep],
                                       weights=graph.weights[keep]), other)
        assert load_graph(other).nnz == graph.nnz - 2
        out = tmp_path / "m.json"
        assert self.evaluate(fused, out, "--graph", str(other)) == 1
        assert "not the graph" in capsys.readouterr().err
        assert not out.exists()

    def test_reload_scores_as_trained(self, tmp_path, fused):
        out = tmp_path / "m.json"
        assert self.evaluate(fused, out, "--graph", fused["graph"]) == 0
        summary = tmp_path / "analysis.json"
        assert run(["--config", fused["config"], *FUSED,
                    "analyze", "--data", fused["data"], "--id", fused["id"],
                    "--text", fused["text"], "--graph", fused["graph"],
                    "--checkpoint", fused["ckpt"], "--tfm", "both",
                    "--out-prefix", str(tmp_path / "p"), "--out", str(summary)]) == 0
        # the same model, trained in memory
        cfg = load_config(fused["config"], {"glpf.apply_to": "fused", "glpf.alpha": "0.8",
                                            "training.epochs": "1"})
        split = ds.build_split(ds.ingest(fused["data"]))
        graph = load_graph(fused["graph"])
        model = build_model(cfg, load_external(fused["id"]), load_external(fused["text"]),
                            graph=graph)
        train(model, split, draw_candidates(split, "valid", 20, 0), TrainConfig(**cfg["training"]))
        report = evaluate(model, split, draw_candidates(split, "test", 20, 0))
        metrics = json.loads(out.read_text())["metrics"]
        assert (metrics["ndcg"], metrics["recall"]) == (report.ndcg, report.recall)
        modes = json.loads(summary.read_text())["modes"]
        for mode, enabled in (("on", True), ("off", False)):
            model.backbone.tfm_enabled = enabled
            shares = trace_spectral_profile(model, split.windows(), graph).shares()
            assert modes[mode]["band1_final_share"] == float(shares[-1, 0])


# pretrain tables of one width, so that only their provenance tells the
# ID table from the text table
SQUARE = ["--set", "model.d_text=16"]


@pytest.fixture(scope="module")
def square(workdir):
    root = workdir["root"]
    paths = dict(workdir, id=str(root / "square_id.emb"), text=str(root / "square_text.emb"))
    assert run(["--config", workdir["config"], *SQUARE, "pretrain", "--data", paths["data"],
                "--out-id", paths["id"], "--out-text", paths["text"]]) == 0
    return paths


class TestTableSlots:
    @pytest.mark.parametrize("command", ["train", "evaluate", "analyze", "sweep"])
    @pytest.mark.parametrize("slot", ["--id", "--text"])
    def test_table_made_for_the_other_slot_is_refused(self, tmp_path, capsys, square,
                                                      command, slot):
        # both slots get the text table, or both the ID table; the slot
        # named is the one whose table belongs in the other
        table = square["text"] if slot == "--id" else square["id"]
        inputs = ["--data", square["data"], "--id", table, "--text", table]
        argv = {"train": ["--out", str(tmp_path / "m.ckpt")],
                "evaluate": ["--checkpoint", square["ckpt"], "--out", str(tmp_path / "m.json")],
                "analyze": ["--graph", square["graph"], "--out-prefix", str(tmp_path / "p")],
                "sweep": ["--param", "cutoff", "--values", "0.3",
                          "--out", str(tmp_path / "s.csv")]}[command]
        assert run(["--config", square["config"], *SQUARE, command, *inputs, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {slot} {table}: ") and "provenance" in err
        assert list(tmp_path.iterdir()) == []

    def test_glpf_refuses_a_text_table(self, tmp_path, capsys, square):
        # glpf filters the ID table: --embeddings is the ID slot
        out = tmp_path / "id_f.emb"
        assert run(["--config", square["config"], *SQUARE, "glpf", "--graph", square["graph"],
                    "--embeddings", square["text"], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --embeddings {square['text']}: ") and "provenance" in err
        assert not out.exists()

    def test_glpf_refuses_a_table_of_another_width(self, tmp_path, capsys, workdir):
        # a table glpf stamps with a run's fingerprint must have that run's d_id
        out = tmp_path / "id_f.emb"
        assert run(["--config", workdir["config"], "--set", "model.d_id=15",
                    "glpf", "--graph", workdir["graph"], "--embeddings", workdir["id"],
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dimension 16" in err and "required 15" in err
        assert not out.exists()

    def test_external_tables_go_in_either_slot(self, tmp_path, square):
        swapped = {}
        for slot, path in (("--id", square["text"]), ("--text", square["id"])):
            swapped[slot] = str(tmp_path / f"{slot[2:]}.emb")
            save_table(dataclasses.replace(load_external(path), provenance="external"),
                       swapped[slot])
        assert run(["--config", square["config"], *SQUARE, "--set", "training.epochs=1",
                    "train", "--data", square["data"], "--id", swapped["--id"],
                    "--text", swapped["--text"], "--out", str(tmp_path / "m.ckpt")]) == 0


class TestErrors:
    def test_unknown_flag_exits_1(self, workdir):
        assert run(["synth", "--nope", "x"]) == 1

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tfm": {"cutof": 0.2}}')
        assert run(["--config", str(bad), "synth", "--out", str(tmp_path / "x.tsv")]) == 1

    def test_missing_input_file(self, tmp_path):
        assert run(["ingest", "--input", str(tmp_path / "absent.tsv")]) == 1

    def test_unknown_apply_to(self, tmp_path, workdir):
        assert run(["--config", workdir["config"], "--set", "glpf.apply_to=fuse",
                    "glpf", "--graph", workdir["graph"], "--embeddings", workdir["id"],
                    "--out", str(tmp_path / "x.emb")]) == 1

    @pytest.mark.parametrize("document, key", [
        ({"training": {"lr": "fast"}}, "training.lr"),
        ({"backbone": {"layers": "4"}}, "backbone.layers"),
        ({"backbone": {"layers": 4.0}}, "backbone.layers"),
        ({"tfm": {"enabled": 1}}, "tfm.enabled"),
        ({"glpf": {"alpha": True}}, "glpf.alpha"),
        ({"model": {"activation": 3}}, "model.activation"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
    def test_wrongly_typed_config_value(self, tmp_path, capsys, document, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert run(["--config", str(bad), "synth", "--out", str(tmp_path / "x.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    @pytest.mark.parametrize("override, key", [
        ("model.activation=relu", "model.activation"),
        ("dataset.format=csv", "dataset.format"),
        ("glpf.apply_to=tokens", "glpf.apply_to"),
        ("glpf.coefficients=[]", "glpf.coefficients"),
        ("glpf.coefficients=[1, NaN]", "glpf.coefficients"),
        ('glpf.coefficients=[1, "x"]', "glpf.coefficients"),
        # values that pass their type check but that the stage consuming
        # their section refuses (the config's model.d_model is 32)
        ("tfm.cutoff=2", "tfm"), ("tfm.cutoff=0", "tfm"), ("tfm.order=0", "tfm"),
        ("glpf.alpha=1.5", "glpf"), ("glpf.alpha=-0.1", "glpf"),
        ("backbone.heads=3", "backbone"), ("backbone.heads=0", "backbone"),
        ("synth.rho=2", "synth"), ("synth.users=0", "synth"), ("synth.seed=-1", "synth.seed"),
        ("analysis.theorem_rho=1.5", "analysis"), ("analysis.theorem_t_max=7", "analysis"),
        # an override without "=" never reaches the config
        ("synth.rho", "synth.rho"),
    ])
    def test_value_a_later_stage_rejects(self, tmp_path, capsys, workdir, override, key):
        # rejected at load, before pretrain writes a table stamped with it
        id_out, text_out = tmp_path / "id.emb", tmp_path / "text.emb"
        assert run(["--config", workdir["config"], "--set", override,
                    "pretrain", "--data", workdir["data"],
                    "--out-id", str(id_out), "--out-text", str(text_out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not id_out.exists() and not text_out.exists()

    @pytest.mark.parametrize("override, command", [
        ("dataset.min_interactions=2", "glpf"), ("dataset.max_seq_len=1", "glpf"),
        ("model.d_text=0", "build-graph"),
    ])
    def test_floor_refused_by_a_command_that_skips_its_section(
            self, tmp_path, capsys, workdir, override, command):
        # build_split and text_surrogate_embeddings refuse these values;
        # a command that never calls them must not stamp artifacts with them
        out = tmp_path / "out"
        inputs = (["--graph", workdir["graph"], "--embeddings", workdir["id"]]
                  if command == "glpf" else ["--data", workdir["data"]])
        assert run(["--config", workdir["config"], "--set", override, command,
                    *inputs, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(override.split("=")[0]) in err
        assert not out.exists()

    @pytest.mark.parametrize("override, key", [
        ("pretrain.chunk=0", "pretrain.chunk"),
        ("pretrain.chunk=-5", "pretrain.chunk"),
        ("pretrain.negatives=-1", "pretrain.negatives"),
        ("pretrain.epochs=0", "pretrain.epochs"),
        ("pretrain.window=0", "pretrain.window"),
        ("pretrain.lr=0", "pretrain.lr"),
        ("pretrain.lr=nan", "pretrain.lr"),
        ("pretrain.lr=inf", "pretrain.lr"),
        ("model.d_id=0", "model.d_id"),
        ("model.d_model=0", "model.d_model"),
        ("backbone.layers=0", "backbone.layers"),
        ("pretrain.seed=-1", "pretrain.seed"),
    ])
    def test_out_of_range_pretrain_setting(self, tmp_path, capsys, workdir, override, key):
        id_out, text_out = tmp_path / "id.emb", tmp_path / "text.emb"
        assert run(["--config", workdir["config"], "--set", override,
                    "pretrain", "--data", workdir["data"],
                    "--out-id", str(id_out), "--out-text", str(text_out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err and "Traceback" not in err
        assert not id_out.exists() and not text_out.exists()

    @pytest.mark.parametrize("override, key", [
        ("training.batch_size=0", "training.batch_size"),
        ("training.batch_size=-4", "training.batch_size"),
        ("training.epochs=0", "training.epochs"),
        ("training.n_negatives=0", "training.n_negatives"),
        ("training.patience=-1", "training.patience"),
        ("training.lr=-1e-4", "training.lr"),
        ("training.lr=nan", "training.lr"),
        ("model.d_model=0", "model.d_model"),
        ("model.d_model=-8", "model.d_model"),
        ("backbone.layers=0", "backbone.layers"),
        ("training.seed=-1", "training.seed"),
        ("backbone.seed=-1", "backbone.seed"),
        ("model.mlp_seed=-1", "model.mlp_seed"),
        ("backbone.ffn_mult=-1", "backbone.ffn_mult"),
        ("backbone.ffn_mult=0", "backbone.ffn_mult"),
        ("training.weight_decay=nan", "training.weight_decay"),
        ("training.weight_decay=-1", "training.weight_decay"),
        ("training.weight_decay=inf", "training.weight_decay"),
    ])
    def test_out_of_range_training_setting(self, tmp_path, capsys, workdir, override, key):
        ckpt = tmp_path / "model.ckpt"
        assert run(["--config", workdir["config"], "--set", override,
                    "train", "--data", workdir["data"], "--id", workdir["id_filtered"],
                    "--text", workdir["text"], "--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err and "Traceback" not in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("override, key", [
        ("eval.n_candidates=0", "eval.n_candidates"),
        ("eval.n_candidates=-1", "eval.n_candidates"),
        ("eval.k=0", "eval.k"),
        ("analysis.n_bands=0", "analysis.n_bands"),
        ("analysis.theorem_trials=0", "analysis.theorem_trials"),
        ("analysis.theorem_trials=-2", "analysis.theorem_trials"),
        ("eval.seed=-1", "eval.seed"),
        ("analysis.theorem_seed=-1", "analysis.theorem_seed"),
        ("analysis.theorem_t_min=2", "analysis.theorem_t_min"),
    ])
    def test_out_of_range_eval_or_analysis_setting(self, tmp_path, capsys, workdir,
                                                   override, key):
        out = str(tmp_path / "out.json")
        inputs = ["--data", workdir["data"], "--id", workdir["id_filtered"],
                  "--text", workdir["text"]]
        command = {
            "eval.n_candidates": ["evaluate", *inputs, "--checkpoint", workdir["ckpt"],
                                  "--out", out, "--per-user", str(tmp_path / "u.csv")],
            "analysis.n_bands": ["analyze", *inputs, "--graph", workdir["graph"],
                                 "--out-prefix", str(tmp_path / "p"), "--out", out],
            "analysis.theorem_trials": ["theorem-probe", "--family", "ring", "--out", out],
        }
        command["eval.k"] = command["eval.seed"] = command["eval.n_candidates"]
        command["analysis.theorem_seed"] = command["analysis.theorem_t_min"] = \
            command["analysis.theorem_trials"]
        assert run(["--config", workdir["config"], "--set", override, *command[key]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_value_not_a_number(self, tmp_path, capsys, workdir, monkeypatch):
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(1))
        out = tmp_path / "sweep.csv"
        assert run(["--config", workdir["config"],
                    "sweep", "--param", "cutoff", "--values", "0.3,abc",
                    "--data", workdir["data"], "--id", workdir["id_filtered"],
                    "--text", workdir["text"], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'abc'" in err and "Traceback" not in err
        assert not trained and not out.exists()

    @pytest.mark.parametrize("param, values, setting, message", [
        # every grid point is checked as a config before the first one trains
        ("cutoff", "0.3,0", [], "'tfm'"),
        ("alpha", "0.3,1.5", [], "'glpf'"),
        # explicit coefficients override alpha: every row would be one model
        ("alpha", "0.1,0.9", ["--set", "glpf.coefficients=[1.0,-0.2]"], "glpf.coefficients"),
        # the ID-stage filter needs the graph it filters on
        ("alpha", "0.1,0.9", [], "glpf.apply_to=id needs --graph"),
    ], ids=["cutoff-out-of-range", "alpha-out-of-range", "explicit-coefficients",
            "no-graph"])
    def test_sweep_refused_before_training(self, tmp_path, capsys, workdir, monkeypatch,
                                           param, values, setting, message):
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(1))
        out = tmp_path / "sweep.csv"
        assert run(["--config", workdir["config"], *setting,
                    "sweep", "--param", param, "--values", values,
                    "--data", workdir["data"], "--id", workdir["id"],
                    "--text", workdir["text"], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not trained and not out.exists()

    def test_coefficients_not_a_list(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"glpf": {"coefficients": "abc"}}')
        assert run(["--config", str(bad), "synth", "--out", str(tmp_path / "x.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'glpf.coefficients'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("header", ["[1, 2]", "5", "null"])
    @pytest.mark.parametrize("kind", ["embeddings", "graph"])
    def test_malformed_input_header(self, tmp_path, capsys, workdir, kind, header):
        bad = tmp_path / "bad"
        bad.write_text(header + "\n")
        files = {"graph": workdir["graph"], "embeddings": workdir["id"], kind: str(bad)}
        out = tmp_path / "out.emb"
        assert run(["glpf", "--graph", files["graph"], "--embeddings", files["embeddings"],
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed" in err and "Traceback" not in err
        assert not out.exists()

    def test_inputs_over_another_item_count(self, tmp_path, capsys, workdir):
        # the workdir's tables, graph and checkpoint cover its split of a 40-item log
        other = tmp_path / "b.tsv"
        assert run(["--config", workdir["config"], "--set", "synth.items=30", "synth",
                    "--out", str(other)]) == 0
        capsys.readouterr()
        n_items = load_external(workdir["id"]).n_items
        out = tmp_path / "m.json"
        for force in ([], ["--force"]):
            assert run(["--config", workdir["config"],
                        "evaluate", "--data", str(other), "--id", workdir["id_filtered"],
                        "--text", workdir["text"], "--checkpoint", workdir["ckpt"],
                        "--graph", workdir["graph"], "--out", str(out), *force]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "item counts" in err
            assert f"--id {n_items}" in err and f"--graph {n_items}" in err
            assert "Traceback" not in err and not out.exists()

    def test_glpf_on_a_graph_over_another_item_count(self, tmp_path, capsys, workdir):
        other, graph, out = tmp_path / "b.tsv", tmp_path / "b.bin", tmp_path / "id_f.emb"
        base = ["--config", workdir["config"]]
        assert run(base + ["--set", "synth.items=30", "synth", "--out", str(other)]) == 0
        assert run(base + ["build-graph", "--data", str(other), "--out", str(graph)]) == 0
        capsys.readouterr()
        assert run(base + ["glpf", "--graph", str(graph), "--embeddings", workdir["id"],
                           "--out", str(out)]) == 1
        err = capsys.readouterr().err
        n_items, n_other = load_external(workdir["id"]).n_items, load_graph(graph).n_items
        assert err.startswith(f"error: embedding table covers {n_items} items, graph {n_other}")
        assert n_items != n_other and not out.exists()

    def test_unstamped_table_needs_force(self, tmp_path, capsys, workdir):
        table = tmp_path / "external.emb"
        save_table(dataclasses.replace(load_external(workdir["id_filtered"]),
                                       provenance="external", fingerprint=""), table)
        out = tmp_path / "m.json"
        argv = ["--config", workdir["config"], "evaluate", "--data", workdir["data"],
                "--id", str(table), "--text", workdir["text"], "--checkpoint", workdir["ckpt"],
                "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: artifacts without a config fingerprint: id-embeddings")
        assert "--force" in err and not out.exists()
        assert run(argv + ["--force"]) == 0

    def test_bad_rho_override(self, tmp_path):
        assert run(["--set", "synth.rho=1.0",
                    "synth", "--out", str(tmp_path / "x.tsv")]) == 1


class TestAllOrNothing:
    """A command that fails while writing one of its files leaves none."""

    def test_evaluate(self, tmp_path, workdir, capsys):
        argv = ["--config", workdir["config"],
                "evaluate", "--data", workdir["data"], "--id", workdir["id_filtered"],
                "--text", workdir["text"], "--checkpoint", workdir["ckpt"],
                "--out", str(tmp_path / "m.json")]
        assert run(argv + ["--per-user", str(tmp_path / "missing" / "u.csv")]) == 1
        assert "i/o error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run(argv + ["--per-user", str(tmp_path / "u.csv")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "u.csv"]

    def test_train(self, tmp_path, workdir, capsys):
        argv = ["--config", workdir["config"], "--set", "training.epochs=1",
                "train", "--data", workdir["data"], "--id", workdir["id_filtered"],
                "--text", workdir["text"], "--out", str(tmp_path / "model.ckpt")]
        assert run(argv + ["--log", str(tmp_path / "missing" / "log.jsonl")]) == 1
        assert "i/o error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run(argv + ["--log", str(tmp_path / "log.jsonl")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl", "model.ckpt"]


class TestOneProcess:
    """Every command runs in one process; `--workers` accepts only 1."""

    @staticmethod
    def probe(flags, out):
        return run(flags + ["theorem-probe", "--family", "ring", "--out", str(out)])

    def test_workers_one_changes_nothing(self, tmp_path, workdir, capsys):
        stdout = []
        for flags in ([], ["--workers", "1"]):
            assert self.probe(["--config", workdir["config"]] + flags,
                              tmp_path / "thm.json") == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1]

    @pytest.mark.parametrize("value", ["0", "2"])
    def test_other_worker_counts_are_usage_errors(self, tmp_path, capsys, value):
        out = tmp_path / "thm.json"
        assert self.probe(["--workers", value], out) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "argument --workers" in err
        assert not out.exists()

    def test_workers_config_key_is_unknown(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"workers": 2}')
        assert self.probe(["--config", str(bad)], tmp_path / "thm.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'workers'" in err


# the stack's one info line: its shape under the fixture's config and its dtype
STACK_LINE = "frozen stack: 2 layers, d_model 32, float32"


def stack_lines(err):
    return [line[line.index("frozen stack"):] for line in err.splitlines()
            if "frozen stack" in line]


class TestLogging:
    def test_main_leaves_the_loggers_as_it_found_them(self, tmp_path, workdir, capsys):
        loggers = (logging.getLogger(), logging.getLogger("freqrec"))
        before = [(lg.level, list(lg.handlers), lg.propagate) for lg in loggers]
        assert run(["--config", workdir["config"], "--log-level", "info",
                    "evaluate", "--data", workdir["data"], "--id", workdir["id_filtered"],
                    "--text", workdir["text"], "--checkpoint", workdir["ckpt"],
                    "--out", str(tmp_path / "m.json")]) == 0
        assert "length buckets" in capsys.readouterr().err
        assert [(lg.level, list(lg.handlers), lg.propagate) for lg in loggers] == before
        # a later library call logs nothing into the stream main wrote to
        model, _ = load_checkpoint(workdir["ckpt"], load_external(workdir["id_filtered"]),
                                   load_external(workdir["text"]))
        split = ds.build_split(ds.ingest(workdir["data"]))
        evaluate(model, split, draw_candidates(split, "test", 20, 0))
        assert capsys.readouterr().err == ""

    def test_info_reports_without_changing_outputs(self, tmp_path, workdir, capsys):
        base = ["--config", workdir["config"]]
        outs = {}
        for level in ("warning", "info"):
            out = tmp_path / f"metrics_{level}.json"
            per_user = tmp_path / f"per_user_{level}.csv"
            assert run(base + ["--log-level", level,
                               "evaluate", "--data", workdir["data"],
                               "--id", workdir["id_filtered"], "--text", workdir["text"],
                               "--checkpoint", workdir["ckpt"], "--out", str(out),
                               "--per-user", str(per_user)]) == 0
            outs[level] = (capsys.readouterr(), out.read_bytes(), per_user.read_bytes())
        quiet, loud = outs["warning"], outs["info"]
        assert quiet[0].err == ""
        assert "length buckets" in loud[0].err
        assert stack_lines(loud[0].err) == [STACK_LINE]
        assert loud[0].out == quiet[0].out and loud[1:] == quiet[1:]

        assert run(base + ["--log-level", "info", "pretrain", "--data", workdir["data"],
                           "--out-id", str(tmp_path / "id.emb"),
                           "--out-text", str(tmp_path / "text.emb")]) == 0
        err = capsys.readouterr().err
        epochs = [line for line in err.splitlines() if "pretrain epoch" in line]
        assert len(epochs) == 2                      # the fixture's pretrain.epochs
        for line in epochs:
            pairs, chunks = map(int, re.search(r"loss [\d.]+, (\d+) pairs in (\d+) chunks, "
                                               r"[\d.]+ s$", line).groups())
            assert chunks == -(-pairs // 128)        # the default pretrain.chunk
        assert (tmp_path / "id.emb").read_bytes() == open(workdir["id"], "rb").read()

        assert run(base + ["--log-level", "info", "analyze", "--data", workdir["data"],
                           "--id", workdir["id_filtered"], "--text", workdir["text"],
                           "--graph", workdir["graph"], "--tfm", "on",
                           "--out-prefix", str(tmp_path / "p")]) == 0
        err = capsys.readouterr().err
        assert "analyze (tfm on)" in err and stack_lines(err) == [STACK_LINE]

        trained = {}
        for level in ("warning", "info"):
            ckpt, train_log = tmp_path / f"{level}.ckpt", tmp_path / f"{level}.jsonl"
            assert run(base + ["--log-level", level, "train", "--data", workdir["data"],
                               "--id", workdir["id_filtered"], "--text", workdir["text"],
                               "--out", str(ckpt), "--log", str(train_log)]) == 0
            trained[level] = (capsys.readouterr(), ckpt.read_bytes(), train_log.read_bytes())
        quiet, loud = trained["warning"], trained["info"]
        epochs = [line for line in loud[0].err.splitlines() if "train epoch" in line]
        assert len(epochs) == 2                      # the fixture's training.epochs
        assert stack_lines(loud[0].err) == [STACK_LINE]
        for name in ("loss", "valid NDCG@10", "sequences used", "length groups", "skipped",
                     " s"):
            assert all(name in line for line in epochs)
        for line in epochs:
            used, groups = map(int, re.search(r"(\d+) sequences used in (\d+) length groups",
                                              line).groups())
            assert 1 <= groups <= used
        assert "train epoch" not in quiet[0].err
        assert loud[0].out == quiet[0].out and loud[1:] == quiet[1:]
        assert json.loads(loud[0].out)["fingerprint"] == fingerprint(load_config(workdir["config"]))
        assert loud[1] == open(workdir["ckpt"], "rb").read()


class TestConfig:
    def test_defaults_complete_and_fingerprint_stable(self):
        cfg = load_config()
        assert cfg == DEFAULTS
        assert fingerprint(cfg) == fingerprint(load_config())

    def test_dataclass_defaults_are_the_config_defaults(self):
        cfg = load_config()
        # (class, section, fields that another section supplies)
        for cls, section, outside in (
                (ds.SynthConfig, "synth", {}),
                (PretrainConfig, "pretrain", {"dim": ("model", "d_id")}),
                (TrainConfig, "training", {})):
            names = {f.name for f in dataclasses.fields(cls)}
            assert set(cfg[section]) == names - set(outside)
            for name, value in dataclasses.asdict(cls()).items():
                where, key = outside.get(name, (section, name))
                assert cfg[where][key] == value, f"{cls.__name__}.{name}"
        assert TrainConfig().epochs == cfg["training"]["epochs"] == 10
        # the tfm section is TemporalFilter's fields and the enabled switch
        assert set(cfg["tfm"]) == {"enabled", "cutoff", "order", "causal_safe", "residual"}
        assert TemporalFilter.from_config(cfg["tfm"]) == TemporalFilter()
        # (function, the config value of each keyword argument's default);
        # init_backbone's tfm_enabled differs on purpose (see its docstring)
        a = cfg["analysis"]
        for fn, expected in (
                (init_backbone, {"n_layers": cfg["backbone"]["layers"],
                                 "n_heads": cfg["backbone"]["heads"],
                                 "seed": cfg["backbone"]["seed"],
                                 "ffn_mult": cfg["backbone"]["ffn_mult"],
                                 "d_model": cfg["model"]["d_model"]}),
                (init_fusion_mlp, {"seed": cfg["model"]["mlp_seed"],
                                   "activation": cfg["model"]["activation"]}),
                (ds.ingest, {"format": cfg["dataset"]["format"]}),
                (ds.build_split, {"min_interactions": cfg["dataset"]["min_interactions"],
                                  "max_seq_len": cfg["dataset"]["max_seq_len"]}),
                (text_surrogate_embeddings, {"d_text": cfg["model"]["d_text"]}),
                (evaluate, {"k": cfg["eval"]["k"]}),
                (draw_candidates, {"n_candidates": cfg["eval"]["n_candidates"],
                                   "seed": cfg["eval"]["seed"]}),
                (trace_spectral_profile, {"n_bands": a["n_bands"]}),
                (analysis.theorem1_probe, {"rho": a["theorem_rho"],
                                           "t_range": (a["theorem_t_min"], a["theorem_t_max"]),
                                           "trials": a["theorem_trials"],
                                           "seed": a["theorem_seed"]})):
            defaults = inspect.signature(fn).parameters
            for name, value in expected.items():
                default = defaults[name].default
                assert (type(default), default) == (type(value), value), \
                    f"{fn.__name__}.{name}"
        assert set(cfg["backbone"]) == {"layers", "heads", "seed", "ffn_mult"}
        assert "mlp_hidden" not in cfg["model"]

    def test_default_fingerprint_pinned(self):
        # a changed default changes every artifact's stamp; update this only
        # together with a default that is meant to change
        assert fingerprint(load_config()) == "22e246fff4b1"

    def test_semantic_override_changes_fingerprint(self):
        a = load_config()
        b = load_config(overrides={"glpf.alpha": "0.7"})
        assert fingerprint(a) != fingerprint(b)

    def test_type_coercion(self):
        cfg = load_config(overrides={"tfm.enabled": "off", "training.lr": "5e-4",
                                     "backbone.layers": "2"})
        assert cfg["tfm"]["enabled"] is False
        assert cfg["training"]["lr"] == 5e-4
        assert cfg["backbone"]["layers"] == 2

    def test_file_types(self, tmp_path):
        # ints stand for floats; a null default takes any value
        path = tmp_path / "config.json"
        path.write_text('{"training": {"lr": 1}, "glpf": {"coefficients": [1, -0.5]}}')
        cfg = load_config(path)
        assert cfg["training"]["lr"] == 1 and cfg["glpf"]["coefficients"] == [1, -0.5]

    def test_set_parses_to_the_default_type_over_a_file_value(self, tmp_path):
        # glpf.coefficients defaults to null, so its --set text is JSON even
        # when the file has already set a list
        path = tmp_path / "config.json"
        path.write_text('{"glpf": {"coefficients": [1.0, -0.2]}, "training": {"lr": 1}}')
        cfg = load_config(path, {"glpf.coefficients": "[1.0, -0.5]", "training.lr": "0.5"})
        assert cfg["glpf"]["coefficients"] == [1.0, -0.5] and cfg["training"]["lr"] == 0.5
        assert load_config(path, {"glpf.coefficients": "null"})["glpf"]["coefficients"] is None

    def test_range_bounds_are_inclusive(self):
        cfg = load_config(overrides={"pretrain.negatives": "0", "pretrain.chunk": "1",
                                     "training.patience": "0", "training.batch_size": "1"})
        assert cfg["pretrain"]["negatives"] == 0 and cfg["training"]["patience"] == 0

    def test_ranges_name_fields(self):
        for key in BOUNDS:
            section, leaf = key.split(".")
            assert leaf in DEFAULTS[section], key

    @pytest.mark.parametrize("key", [
        f"{section}.{leaf}" for section, fields in DEFAULTS.items()
        for leaf, value in fields.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)])
    def test_every_numeric_key_is_bounded(self, key):
        # a float key refuses NaN and an int key -1, naming the key or its section
        section, leaf = key.split(".")
        bad = "nan" if isinstance(DEFAULTS[section][leaf], float) else "-1"
        with pytest.raises(InputError) as info:
            load_config(overrides={key: bad})
        assert repr(key) in str(info.value) or repr(section) in str(info.value)

    def test_unknown_override_rejected(self):
        # an unknown key or section, a section as a leaf, a leaf as a section
        for dotted in ("tfm.cutof", "nosuch.key", "glpf", "glpf.alpha.x"):
            with pytest.raises(InputError):
                load_config(overrides={dotted: "0.2"})
