"""Self-test of the benchmark at tiny shapes.

    python3 -m pytest -q perfbench/test_bench.py

Runs perfbench/run.py in subprocesses, untraced and traced, on both
workloads, and checks the result format against BENCHMARK.json, the span
accounting of the traced run and the layer-bypass predictions.  Also checks
that the benchmark refuses to report when the program's sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = {"analyze": ["--users", "40", "--items", "40"],
        "pipeline": ["--users", "40", "--items", "150"]}
PASS_SPANS = {"analyze": {"cli.analyze"},
              "pipeline": {"cli.ingest", "cli.build-graph", "cli.pretrain", "cli.glpf",
                           "cli.train", "cli.evaluate"}}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace)] + TINY[workload]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=[(w, t) for w in ("analyze", "pipeline") for t in (0, 1)],
                ids=lambda p: f"{p[0]}-trace{p[1]}")
def outcome(request):
    workload, trace = request.param
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    return workload, trace, json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_result_line_format(outcome):
    _, trace, _, result = outcome
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _spans(info):
    with open(os.path.join(ROOT, info["trace"]["spans_file"]), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_spans_nest_and_self_times_add_up(outcome):
    workload, trace, info, result = outcome
    if not trace:
        pytest.skip("untraced run")
    spans = _spans(info)
    child = [0.0] * len(spans)
    root = []
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert s["parent"] < s["id"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            child[s["parent"]] += s["end"] - s["start"]
            root.append(root[s["parent"]])
        else:
            root.append(s["name"])
    own = [s["end"] - s["start"] - c for s, c in zip(spans, child)]
    assert min(own) >= -1e-9
    # the timed passes' spans cover their wall time, up to the tracer's own
    # cost and the harness's work between commands
    covered = sum(t for t, r in zip(own, root) if r in PASS_SPANS[workload])
    wall = sum(info["trace"]["traced_pass_wall_s"])
    overhead = max(result["metrics"]["trace.overhead_s"]["value"], 0.0)
    assert covered <= wall
    assert wall - covered <= overhead * info["trace"]["rounds"] + 0.05 * wall


def test_bypass_predictions(outcome):
    workload, trace, _, result = outcome
    if not trace:
        pytest.skip("untraced run")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "pipeline":
        assert m["numcore.linalg.sym_eigendecompose.calls"] == 0
        assert m["model.training.sequence_loss.calls"] > 0
    else:
        assert m["numcore.linalg.sym_eigendecompose.calls"] > 0
        for name, value in m.items():
            if name.endswith(".calls") and name.startswith(("model.training.", "evalharness.")):
                assert value == 0, name


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("analyze", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
