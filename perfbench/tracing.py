"""Outside-in span tracing of freqrec's public functions.

Nothing inside `src/` is instrumented.  `Recorder.install` replaces each
listed function with a timing wrapper at every place it can be looked up:
the attribute of its defining module and every `from ... import name`
copy in other freqrec modules (methods are patched on their class).
`Recorder.remove` puts the originals back.

A span is (name, start, end, parent index, command, extra); spans stay in
memory and are written as JSON lines when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

import contextlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(args, kwargs):
    return int(np.shape(args[0])[0])


def _reachable_nodes(args, kwargs):
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    return len(seen)


# (defining module, attribute, span name, probe).  A probe computes the
# span's `extra` field from the call's arguments.
TARGETS = (
    ("freqrec.dataset", "ingest", "dataset.ingest", None),
    ("freqrec.dataset", "build_split", "dataset.build_split", None),
    ("freqrec.graph", "local_subgraph", "graph.local_subgraph", None),
    ("freqrec.graph", "build_cooccurrence", "graph.build_cooccurrence", None),
    ("freqrec.graph", "load_graph", "graph.load_graph", None),
    ("freqrec.graph", "CooccurrenceGraph.laplacian_matvec", "graph.laplacian_matvec", None),
    ("freqrec.numcore.linalg", "sym_eigendecompose",
     "numcore.linalg.sym_eigendecompose", _rows),
    ("freqrec.spectral", "basis_from_matrix", "spectral.basis_from_matrix", None),
    ("freqrec.analysis", "trace_spectral_profile", "analysis.trace_spectral_profile", None),
    ("freqrec.analysis", "profile_from_trace", "analysis.profile_from_trace", None),
    ("freqrec.numcore.fourier", "dft", "numcore.fourier.dft", _rows),
    ("freqrec.tfm", "make_filter", "tfm.make_filter", None),
    ("freqrec.numcore.autodiff", "gelu", "numcore.autodiff.gelu", None),
    ("freqrec.numcore.autodiff", "tape_gradient", "numcore.autodiff.tape_gradient",
     _reachable_nodes),
    ("freqrec.model.network", "forward", "model.network.forward", None),
    ("freqrec.model.network", "backbone_forward", "model.network.backbone_forward", None),
    ("freqrec.model.network", "fuse", "model.network.fuse", None),
    ("freqrec.model.network", "all_item_tokens", "model.network.all_item_tokens", None),
    ("freqrec.model.training", "sequence_loss", "model.training.sequence_loss", None),
    ("freqrec.model.training", "AdamW.step", "model.training.AdamW.step", None),
    ("freqrec.model.embeddings", "pretrain_id_embeddings",
     "model.embeddings.pretrain_id_embeddings", None),
    ("freqrec.model.embeddings", "text_surrogate_embeddings",
     "model.embeddings.text_surrogate_embeddings", None),
    ("freqrec.model.embeddings", "load_external", "model.embeddings.load_external", None),
    ("freqrec.glpf", "polynomial_filter", "glpf.polynomial_filter", None),
    ("freqrec.evalharness", "evaluate", "evalharness.evaluate", None),
    ("freqrec.evalharness", "sample_candidates", "evalharness.sample_candidates", None),
    ("freqrec.evalharness", "rank_metrics", "evalharness.rank_metrics", None),
    ("freqrec.evalharness", "baselines", "evalharness.baselines", None),
)

BOOKKEEPING = "trace.bookkeeping"   # time the tracer spends on probes
# functions that return functions: their results are wrapped under this name
FACTORIES = {"tfm.make_filter": "tfm.filter"}


class Recorder:
    def __init__(self):
        self.spans = []       # [name, start, end, parent, command, extra]
        self.command = ""
        self._stack = []
        self._undo = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.command, None])
        self._stack.append(index)
        return self.spans[index]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, probe=None):
        recorder = self

        def wrapper(*args, **kwargs):
            extra = None
            if probe is not None:
                with recorder.span(BOOKKEEPING):
                    extra = probe(args, kwargs)
            span = recorder._open(name)
            span[5] = extra
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if name in FACTORIES:
                result = recorder.wrap(FACTORIES[name], result)
            return result

        return wrapper

    def install(self):
        for module_name, attr, name, probe in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original, probe))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, probe)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "freqrec" or mod_name.startswith("freqrec.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def remove(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, command, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "command": command,
                                     "extra": extra}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, command, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def aggregate(spans):
    """name -> {"self_s", "calls", "durations", "extras", "commands"}."""
    out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "durations": [],
                               "extras": [], "commands": []})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[0]]
        entry["self_s"] += own
        entry["calls"] += 1
        entry["durations"].append(span[2] - span[1])
        entry["extras"].append(span[5])
        entry["commands"].append(span[4])
    return out


COMMANDS = ("ingest", "build-graph", "pretrain", "glpf", "train", "evaluate", "analyze")


def traced(runner, measure):
    """Run `measure()` with every target wrapped; (recorder, its result)."""
    recorder = Recorder()
    runner.recorder = recorder
    recorder.install()
    try:
        return recorder, measure()
    finally:
        recorder.remove()
        runner.recorder = None


def metrics(recorder, traced_passes, untraced_passes, rates):
    """Per-layer metrics (name -> (value, unit)) and the trace record.

    Values are per traced round (set-up and pass): totals divided by the
    number of rounds."""
    n = len(traced_passes)
    spans = recorder.spans
    agg = aggregate(spans)

    def get(name):
        return agg.get(name, {"self_s": 0.0, "calls": 0, "durations": [], "extras": [],
                              "commands": []})

    def self_s(name):
        return (get(name)["self_s"] / n, "s")

    def calls(name):
        return (get(name)["calls"] / n, "count")

    def mean_extra(name, unit):
        extras = get(name)["extras"]
        return (float(np.mean(extras)) if extras else 0.0, unit)

    out = {f"cli.{c}.self_s": self_s(f"cli.{c}") for c in COMMANDS}
    for name in ("dataset.ingest", "graph.local_subgraph",
                 "numcore.linalg.sym_eigendecompose", "numcore.fourier.dft",
                 "numcore.autodiff.gelu", "numcore.autodiff.tape_gradient",
                 "model.network.forward", "model.network.backbone_forward",
                 "model.training.sequence_loss", "model.training.AdamW.step",
                 "evalharness.evaluate", "evalharness.sample_candidates"):
        out[name + ".self_s"] = self_s(name)
        out[name + ".calls"] = calls(name)
    for name in ("dataset.build_split", "graph.build_cooccurrence", "graph.load_graph",
                 "graph.laplacian_matvec", "spectral.basis_from_matrix",
                 "analysis.trace_spectral_profile", "analysis.profile_from_trace",
                 "tfm.filter", "model.network.fuse", "model.network.all_item_tokens",
                 "model.embeddings.pretrain_id_embeddings",
                 "model.embeddings.text_surrogate_embeddings",
                 "model.embeddings.load_external", "glpf.polynomial_filter",
                 "evalharness.rank_metrics", "evalharness.baselines"):
        out[name + ".self_s"] = self_s(name)
    out["tfm.make_filter.calls"] = calls("tfm.make_filter")
    out["numcore.linalg.sym_eigendecompose.n_mean"] = mean_extra(
        "numcore.linalg.sym_eigendecompose", "rows")
    out["numcore.autodiff.tape_nodes_per_seq"] = mean_extra(
        "numcore.autodiff.tape_gradient", "count")
    lengths = get("numcore.fourier.dft")["extras"]
    out["numcore.fourier.dft.nonpow2_share"] = (
        sum(1 for t in lengths if t & (t - 1)) / len(lengths) if lengths else 0.0, "ratio")
    forward_ms = np.asarray(get("model.network.forward")["durations"]) * 1e3
    out["model.network.forward.p50_ms"] = (
        float(np.percentile(forward_ms, 50)) if forward_ms.size else 0.0, "ms")
    out["model.network.forward.p99_ms"] = (
        float(np.percentile(forward_ms, 99)) if forward_ms.size else 0.0, "ms")
    ev = get("evalharness.evaluate")
    out["model.training.validation_s"] = (
        sum(d for d, c in zip(ev["durations"], ev["commands"]) if c == "train") / n, "s")

    profiled = attempted = ranked = offered = used = 0
    for p in traced_passes:
        outs = p["outs"]
        if "analyze" in outs:
            for m in outs["analyze"]["modes"].values():
                profiled += m["users"]
                attempted += m["users"] + m["skipped_short"] + m["skipped_degenerate"]
        if "evaluate" in outs:
            m = outs["evaluate"]["metrics"]
            ranked += m["n_users"]
            offered += m["n_users"] + m["n_excluded"]
        if "train" in outs:
            used += p["split_users"] * outs["train"]["epochs_run"]
    out["analysis.users_profiled_ratio"] = (profiled / attempted if attempted else 0.0,
                                            "ratio")
    out["evalharness.users_kept_ratio"] = (ranked / offered if offered else 0.0, "ratio")
    out["model.training.sequences_used_ratio"] = (
        get("model.training.sequence_loss")["calls"] / used if used else 0.0, "ratio")

    traced_wall = float(np.median([p["wall_s"] for p in traced_passes]))
    untraced_wall = float(np.median([p["wall_s"] for p in untraced_passes]))
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    units_of = {"analyze_users_per_s": "users/s", "train_seqs_per_s": "seqs/s",
                "eval_users_per_s": "users/s"}
    out.update({k: (v, units_of[k]) for k, v in rates.items()})

    own = self_times(spans)
    by_command = {}
    for span, t in zip(spans, own):
        by_command.setdefault(span[4], {}).setdefault(span[0], 0.0)
        by_command[span[4]][span[0]] += t / n
    record = {
        "rounds": n,
        "traced_pass_wall_s": [p["wall_s"] for p in traced_passes],
        "untraced_pass_wall_s": [p["wall_s"] for p in untraced_passes],
        "forward_samples": int(forward_ms.size),
        "self_s_by_command": by_command,
    }
    return out, record
