"""CLI pipeline tests: each stage end to end on a small synthetic log."""

import dataclasses
import inspect
import json
import logging
import re

import numpy as np
import pytest

from freqrec import cli
from freqrec import dataset as ds
from freqrec.analysis import THEOREM1_PILOT_THRESHOLD, trace_spectral_profile
from freqrec.cli import main
from freqrec.config import DEFAULTS, fingerprint, load_config
from freqrec.errors import InputError
from freqrec.evalharness import evaluate
from freqrec.graph import load_graph
from freqrec.model.embeddings import PretrainConfig, load_external
from freqrec.model.network import build_model, init_backbone, init_fusion_mlp
from freqrec.model.training import TrainConfig, load_checkpoint, train


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
        "graph": str(root / "graph.tsv"),
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
        flags = ["synth", "--users", "200", "--rho", "0.5", "--seed", "1"]
        assert run(flags + ["--out", str(a)]) == 0
        assert run(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_glpf_alpha_zero_identity(self, tmp_path, workdir):
        out = tmp_path / "id0.emb"
        base = ["--config", workdir["config"]]
        assert run(base + ["glpf", "--alpha", "0", "--graph", workdir["graph"],
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
        printed = []
        for argv in (["--set", "dataset.format=jsonlines", "ingest", "--input", str(data)],
                     ["ingest", "--input", str(data), "--format", "jsonlines"]):
            assert run(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        payload = json.loads(printed[1])
        assert payload["config"]["dataset"]["format"] == "jsonlines"
        assert payload["fingerprint"] == fingerprint(
            load_config(overrides={"dataset.format": "jsonlines"})) != fingerprint(DEFAULTS)


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

    def test_windows_too_short_for_the_bands(self, tmp_path, workdir, capsys):
        # the fixture's shortest window holds 6 items, 5 target nodes: too
        # few for 8 bands, so those users are skipped as short
        paths = {name: str(tmp_path / name) for name in ("graph.tsv", "id.emb", "text.emb",
                                                         "id_f.emb", "a.json")}
        base = ["--config", workdir["config"], "--set", "analysis.n_bands=8"]
        assert run(base + ["build-graph", "--data", workdir["data"],
                           "--out", paths["graph.tsv"]]) == 0
        assert run(base + ["pretrain", "--data", workdir["data"], "--out-id", paths["id.emb"],
                           "--out-text", paths["text.emb"]]) == 0
        assert run(base + ["glpf", "--graph", paths["graph.tsv"],
                           "--embeddings", paths["id.emb"], "--out", paths["id_f.emb"]]) == 0
        capsys.readouterr()
        assert run(base + ["analyze", "--data", workdir["data"], "--id", paths["id_f.emb"],
                           "--text", paths["text.emb"], "--graph", paths["graph.tsv"],
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
    paths = dict(workdir, graph=str(root / "fused_graph.tsv"), id=str(root / "fused_id.emb"),
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
        # same header and config fingerprint, one edge fewer
        lines = open(fused["graph"]).read().splitlines()
        header = json.loads(lines[0])
        header["nnz"] -= 1
        other = tmp_path / "other.tsv"
        other.write_text("\n".join([json.dumps(header)] + lines[1:-1]) + "\n")
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
        train(model, split, TrainConfig(**cfg["training"], eval_candidates=20))
        report = evaluate(model, split, phase="test", n_candidates=20)
        metrics = json.loads(out.read_text())["metrics"]
        assert (metrics["ndcg"], metrics["recall"]) == (report.ndcg, report.recall)
        modes = json.loads(summary.read_text())["modes"]
        for mode, enabled in (("on", True), ("off", False)):
            model.backbone.tfm_enabled = enabled
            shares = trace_spectral_profile(model, split.windows(), graph).shares()
            assert modes[mode]["band1_final_share"] == float(shares[-1, 0])


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
        command["eval.k"] = command["eval.n_candidates"]
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
        assert run(["--config", workdir["config"], "synth", "--items", "30",
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
        evaluate(model, ds.build_split(ds.ingest(workdir["data"])), n_candidates=20)
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
        assert loud[0].out == quiet[0].out and loud[1:] == quiet[1:]

        assert run(base + ["--log-level", "info", "pretrain", "--data", workdir["data"],
                           "--out-id", str(tmp_path / "id.emb"),
                           "--out-text", str(tmp_path / "text.emb")]) == 0
        err = capsys.readouterr().err
        assert err.count("pretrain epoch") == 2      # the fixture's pretrain.epochs
        assert (tmp_path / "id.emb").read_bytes() == open(workdir["id"], "rb").read()

        assert run(base + ["--log-level", "info", "analyze", "--data", workdir["data"],
                           "--id", workdir["id_filtered"], "--text", workdir["text"],
                           "--graph", workdir["graph"], "--tfm", "on",
                           "--out-prefix", str(tmp_path / "p")]) == 0
        assert "analyze (tfm on)" in capsys.readouterr().err

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
                (TrainConfig, "training", {"eval_seed": ("eval", "seed"),
                                           "eval_candidates": ("eval", "n_candidates")})):
            names = {f.name for f in dataclasses.fields(cls)}
            assert set(cfg[section]) == names - set(outside)
            for name, value in dataclasses.asdict(cls()).items():
                where, key = outside.get(name, (section, name))
                assert cfg[where][key] == value, f"{cls.__name__}.{name}"
        assert TrainConfig().epochs == cfg["training"]["epochs"] == 10
        # (function, config key per keyword argument)
        for fn, keys in (
                (init_backbone, {"n_layers": ("backbone", "layers"),
                                 "n_heads": ("backbone", "heads"),
                                 "seed": ("backbone", "seed"),
                                 "ffn_mult": ("backbone", "ffn_mult"),
                                 "d_model": ("model", "d_model")}),
                (init_fusion_mlp, {"seed": ("model", "mlp_seed"),
                                   "activation": ("model", "activation")})):
            defaults = inspect.signature(fn).parameters
            for name, (section, key) in keys.items():
                assert cfg[section][key] == defaults[name].default, f"{fn.__name__}.{name}"
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

    def test_range_bounds_are_inclusive(self):
        cfg = load_config(overrides={"pretrain.negatives": "0", "pretrain.chunk": "1",
                                     "training.patience": "0", "training.batch_size": "1"})
        assert cfg["pretrain"]["negatives"] == 0 and cfg["training"]["patience"] == 0

    def test_ranges_name_fields(self):
        for cls in (PretrainConfig, TrainConfig):
            assert set(cls.RANGES) <= {f.name for f in dataclasses.fields(cls)}

    def test_unknown_override_rejected(self):
        with pytest.raises(InputError):
            load_config(overrides={"tfm.cutof": "0.2"})
