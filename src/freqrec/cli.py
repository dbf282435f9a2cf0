"""Config-driven command-line pipeline.

Subcommands: synth, ingest, build-graph, pretrain, glpf, train, evaluate,
analyze, theorem-probe, sweep.  Every command reads a JSON config
(defaults apply when none is given), accepts dotted overrides via
--set section.key=value and stamps the config fingerprint into each
artifact it writes; `_Outputs` adds that `fingerprint` and the fully
explicit effective `config` to every JSON object a command writes or
prints.  Outputs are all-or-nothing: a command writes each file as
`<path>.part` and renames them only when all were written, so a failing
command leaves none of its files, whole or partial.  Exit codes: 0
success, 1 input/capability error, 2 numeric or training error.  Log
records (`--log-level`) go to stderr only, never into an artifact or the
fingerprint.

Every embedding table loads for one slot (`_table`; glpf's --embeddings
is the ID slot): of that slot's width (model.d_id, model.d_text) and not
made for the other one, even under --force.  The model commands (train,
evaluate, analyze, sweep) load their inputs through one helper, which
also needs them over one item count; evaluate and analyze get their model
through one more, which refuses artifacts whose fingerprints disagree
with the run config unless --force is given.  G-LPF runs as
`glpf.stage_filter` returns it, and a sweep checks every grid point's
config before anything trains.
Every number file is written here, by one CSV writer (cells are the repr
of Python ints and floats) and one sorted-key strict JSON writer
(`_Outputs`), which refuses NaN and infinities.
"""

import argparse
import dataclasses
import json
import logging
import os
import pathlib
import sys

import numpy as np

from freqrec import dataset as ds
from freqrec.analysis import attenuation_metric, theorem1_probe, trace_spectral_profile
from freqrec.checkpoint import load_checkpoint, save_checkpoint
from freqrec.config import checked_config, fingerprint, load_config
from freqrec.errors import FreqRecError, InputError, NumericError
from freqrec.evalharness import baselines, draw_candidates, evaluate
from freqrec.glpf import PolyFilterSpec, stage_filter
from freqrec.graph import build_cooccurrence, load_graph, save_graph
from freqrec.model.embeddings import (
    PretrainConfig,
    load_external,
    pretrain_id_embeddings,
    save_table,
    text_surrogate_embeddings,
)
from freqrec.model.network import build_model
from freqrec.model.training import TrainConfig, train
from freqrec.tfm import TemporalFilter


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _dumps(payload):
    """Sorted-key strict JSON; a NaN or an infinity is a numeric error."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"cannot write strict JSON: {exc}") from None


class _Outputs:
    """The files one command writes, all-or-nothing.  Each goes to
    `<path>.part`; `commit` renames them all once the command has returned
    0, and `discard` removes whatever is left.  Every JSON object written
    or printed carries the `stamp`: the run's fingerprint and config."""

    def __init__(self):
        self.parts = {}         # final path -> its .part file
        self.stamp = {}

    def write(self, path, writer):
        tmp = f"{path}.part"
        self.parts[path] = tmp
        writer(tmp)

    def text(self, path, text):
        self.write(path, lambda tmp: pathlib.Path(tmp).write_text(text, encoding="utf-8"))

    def csv(self, path, header, rows):
        """One line per row, each cell its repr, under a header line when
        one is given."""
        lines = ([",".join(header)] if header else []) + [",".join(map(repr, r)) for r in rows]
        self.text(path, "".join(line + "\n" for line in lines))

    def json(self, path, payload):
        self.text(path, _dumps({**payload, **self.stamp}))

    def emit(self, path, payload):
        """The payload to `path` when one is given, and to stdout."""
        if path:
            self.json(path, payload)
        print(_dumps({**payload, **self.stamp}))

    def commit(self):
        for path, tmp in self.parts.items():
            os.replace(tmp, path)

    def discard(self):
        for tmp in self.parts.values():
            if os.path.exists(tmp):
                os.remove(tmp)


def _load_split(cfg, data_path):
    """(log, split) of one data file under the config's dataset section."""
    log = ds.ingest(data_path, format=cfg["dataset"]["format"])
    return log, ds.build_split(log, min_interactions=cfg["dataset"]["min_interactions"],
                               max_seq_len=cfg["dataset"]["max_seq_len"])


def _draw(cfg, split, phase):
    """The phase's one candidate draw under the config's eval section."""
    return draw_candidates(split, phase, cfg["eval"]["n_candidates"], cfg["eval"]["seed"])


def _check_fingerprints(named, force):
    if force:
        return
    missing = [name for name, fp in named.items() if not fp]
    if missing:
        raise InputError(
            f"artifacts without a config fingerprint: {', '.join(missing)} "
            "(pass --force to use them anyway)")
    if len(set(named.values())) > 1:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(named.items()))
        raise InputError(f"config fingerprints disagree: {detail} "
                         "(pass --force to use them anyway)")


def _table(cfg, slot, flag, path):
    """The embedding table for `slot` ("id" or "text") that `flag` names:
    refused unless of width model.d_<slot>, and when made for the other slot."""
    table = load_external(path, expect_dim=cfg["model"][f"d_{slot}"])
    other = "text" if slot == "id" else "id"
    if table.provenance == other:
        raise InputError(f"{flag} {path}: a table of provenance {other!r} belongs in --{other}")
    return table


def _inputs(args, cfg):
    """The split, both embedding tables (`_table`) and the graph, None
    without --graph; all must cover the split's item count."""
    _, split = _load_split(cfg, args.data)
    id_table = _table(cfg, "id", "--id", args.id)
    text_table = _table(cfg, "text", "--text", args.text)
    graph = load_graph(args.graph) if args.graph else None
    counts = {"--data": split.n_items, "--id": id_table.n_items, "--text": text_table.n_items,
              **({"--graph": graph.n_items} if graph is not None else {})}
    if len(set(counts.values())) > 1:
        raise InputError("inputs cover different item counts: "
                         + ", ".join(f"{k} {n}" for k, n in counts.items()))
    return split, id_table, text_table, graph


def _checked_model(args, cfg):
    """The split, the graph and the model: the checkpoint when one is
    given, else the configured model over the tables.  Refused when the
    run config, the tables, the graph and the checkpoint do not all carry
    one fingerprint, unless --force."""
    split, id_table, text_table, graph = _inputs(args, cfg)
    named = {"run-config": fingerprint(cfg), "id-embeddings": id_table.fingerprint,
             "text-embeddings": text_table.fingerprint}
    if graph is not None:
        named["graph"] = graph.fingerprint
    if args.checkpoint:
        model, header = load_checkpoint(args.checkpoint, id_table, text_table, graph=graph)
        named["checkpoint"] = header["fingerprint"]
    else:
        model = build_model(cfg, id_table, text_table, graph=graph)
    _check_fingerprints(named, args.force)
    return split, graph, model


def cmd_synth(args, cfg, files):
    log, affinity = ds.synthesize(ds.SynthConfig(**cfg["synth"]))
    files.write(args.out, lambda tmp: ds.write_tsv(log, tmp))
    if args.affinity_out:
        files.csv(args.affinity_out, None, affinity.tolist())
    files.emit(args.summary, {"events": log.n_events})
    return 0


def cmd_ingest(args, cfg, files):
    log, split = _load_split(cfg, args.input)
    if args.out:
        files.write(args.out, lambda tmp: ds.write_tsv(log, tmp))
    files.emit(args.summary, {**split.summary(), "filter_trace": split.filter_trace})
    return 0


def cmd_build_graph(args, cfg, files):
    _, split = _load_split(cfg, args.data)
    graph = build_cooccurrence(split)
    graph.fingerprint = fingerprint(cfg)
    files.write(args.out, lambda tmp: save_graph(graph, tmp))
    files.emit(None, {"n_items": graph.n_items, "nnz": graph.nnz // 2})
    return 0


def cmd_pretrain(args, cfg, files):
    _, split = _load_split(cfg, args.data)
    id_table, losses = pretrain_id_embeddings(
        split, PretrainConfig(**cfg["pretrain"], dim=cfg["model"]["d_id"]))
    text_table = text_surrogate_embeddings(split, d_text=cfg["model"]["d_text"],
                                           seed=cfg["pretrain"]["seed"])
    id_table.fingerprint = fingerprint(cfg)
    text_table.fingerprint = fingerprint(cfg)
    files.write(args.out_id, lambda tmp: save_table(id_table, tmp))
    files.write(args.out_text, lambda tmp: save_table(text_table, tmp))
    files.emit(None, {"losses": losses, "id_stats": id_table.norm_stats(),
                      "text_stats": text_table.norm_stats()})
    return 0


def cmd_glpf(args, cfg, files):
    graph = load_graph(args.graph)
    table = _table(cfg, "id", "--embeddings", args.embeddings)
    if table.n_items != graph.n_items:
        raise InputError(f"embedding table covers {table.n_items} items, graph "
                         f"{graph.n_items}")
    # under apply_to=fused the filter runs on the fused tokens, so the ID
    # table passes through unfiltered
    id_filter = stage_filter(cfg["glpf"], "id", graph)
    if id_filter is not None:
        table.rows = id_filter.apply(table.rows)
    table.fingerprint = fingerprint(cfg)
    files.write(args.out, lambda tmp: save_table(table, tmp))
    files.emit(None, {"enabled": cfg["glpf"]["enabled"],
                      "coefficients": list(PolyFilterSpec.from_config(cfg["glpf"]).coefficients)})
    return 0


def cmd_train(args, cfg, files):
    split, id_table, text_table, graph = _inputs(args, cfg)
    model = build_model(cfg, id_table, text_table, graph=graph)
    result = train(model, split, _draw(cfg, split, "valid"), TrainConfig(**cfg["training"]))
    files.write(args.out, lambda tmp: save_checkpoint(model, tmp, cfg))
    if args.log:
        files.text(args.log, "".join(_dumps(entry) + "\n" for entry in result.entries))
    files.emit(None, {"best_epoch": result.best_epoch,
                      "best_valid_ndcg": result.best_valid_ndcg,
                      "epochs_run": len(result.entries),
                      "aborted": result.aborted})
    return 2 if result.aborted else 0


def cmd_evaluate(args, cfg, files):
    split, _, model = _checked_model(args, cfg)
    candidates = _draw(cfg, split, args.phase)
    report = evaluate(model, split, candidates, k=cfg["eval"]["k"])
    payload = {"metrics": {"ndcg": report.ndcg, "recall": report.recall,
                           "k": report.k, "phase": report.phase,
                           "n_users": report.n_users,
                           "n_excluded": report.n_excluded}}
    if args.with_baselines:
        floors = baselines(split, candidates, k=cfg["eval"]["k"])
        payload["baselines"] = {name: {"ndcg": rep.ndcg, "recall": rep.recall}
                                for name, rep in floors.items()}
    files.emit(args.out, payload)
    if args.per_user:
        files.csv(args.per_user, ("user", "rank", "ndcg", "recall"), report.per_user)
    return 0


def cmd_analyze(args, cfg, files):
    split, graph, model = _checked_model(args, cfg)
    modes = {"on": ["on"], "off": ["off"], "both": ["on", "off"]}[args.tfm]
    profiles = trace_spectral_profile(model, split.windows(), graph,
                                      n_bands=cfg["analysis"]["n_bands"],
                                      tfm_modes=[mode == "on" for mode in modes])
    summary = {"modes": {}}
    for mode, profile in zip(modes, profiles):
        base = f"{args.out_prefix}_tfm-{mode}_{fingerprint(cfg)}"
        raw, shares = profile.raw.tolist(), profile.shares().tolist()
        files.csv(base + ".csv", ("layer", "band", "energy", "share"),
                  [(l, b, raw[l][b], shares[l][b]) for l, b in np.ndindex(profile.raw.shape)])
        files.json(base + ".json", {"n_bands": profile.n_bands,
                                    "user_count": profile.user_count,
                                    "skipped_short": profile.skipped_short,
                                    "skipped_degenerate": profile.skipped_degenerate,
                                    "raw": raw, "share": shares})
        summary["modes"][mode] = {
            "profile_csv": base + ".csv",
            "users": profile.user_count,
            "skipped_short": profile.skipped_short,
            "skipped_degenerate": profile.skipped_degenerate,
            "band1_input_share": shares[0][0],
            "band1_final_share": shares[-1][0],
            "attenuation": attenuation_metric(profile),
        }
    files.emit(args.out, summary)
    return 0


def cmd_theorem_probe(args, cfg, files):
    """Probes the circular response of `tfm.cutoff` and `tfm.order`, whatever
    `tfm.enabled`, `causal_safe` and `residual` say, under a whole-config stamp."""
    a = cfg["analysis"]
    spec = None if args.identity else TemporalFilter.from_config(cfg["tfm"]).spec
    report = theorem1_probe(spec, args.family, rho=a["theorem_rho"],
                            t_range=(a["theorem_t_min"], a["theorem_t_max"]),
                            trials=a["theorem_trials"], seed=a["theorem_seed"])
    files.emit(args.out, report.to_dict())
    return 0


def cmd_sweep(args, cfg, files):
    section, key = {"alpha": ("glpf", "alpha"), "cutoff": ("tfm", "cutoff")}[args.param]
    if args.param == "alpha" and cfg["glpf"]["coefficients"] is not None:
        raise InputError("an alpha sweep needs glpf.coefficients=null: explicit "
                         "coefficients override alpha, so every grid point is one model")
    grid = []
    for token in args.values.split(","):
        try:
            value = float(token)
        except ValueError:
            raise InputError(f"--values: {token!r} is not a number") from None
        grid.append((value, checked_config(
            {**cfg, section: {**cfg[section], key: value, "enabled": True}})))
    split, id_table, text_table, graph = _inputs(args, cfg)
    # the grid changes only glpf and tfm keys, so one draw per phase serves it
    valid, test = _draw(cfg, split, "valid"), _draw(cfg, split, "test")
    rows = []
    for value, run_cfg in grid:
        table = id_table                 # a cutoff sweep takes it as glpf left it
        id_filter = stage_filter(run_cfg["glpf"], "id", graph) if section == "glpf" else None
        if id_filter is not None:
            table = dataclasses.replace(id_table, rows=id_filter.apply(id_table.rows))
        model = build_model(run_cfg, table, text_table, graph=graph)
        train(model, split, valid, TrainConfig(**cfg["training"]))
        report = evaluate(model, split, test, k=cfg["eval"]["k"])
        rows.append((value, report.ndcg, report.recall))
    files.csv(args.out, (args.param, "ndcg", "recall"), rows)
    files.emit(None, {"param": args.param,
                      "rows": [{args.param: v, "ndcg": n, "recall": r}
                               for v, n, r in rows]})
    return 0


def build_parser():
    parser = _Parser(prog="freqrec",
                     description="Frequency-aware sequential recommendation lab")
    parser.add_argument("--config", help="JSON config path (defaults apply when omitted)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config field, e.g. --set glpf.alpha=0.5")
    # Every command runs in one process.  The benchmark harness in perfbench/
    # still passes this flag with the value 1, so it accepts that value only.
    parser.add_argument("--workers", type=int, choices=[1], help=argparse.SUPPRESS)
    parser.add_argument("--log-level", choices=["warning", "info", "debug"],
                        default="warning",
                        help="stderr log verbosity: info adds pretrain and train epochs, "
                             "the frozen stack's shape and dtype, and the length buckets "
                             "of evaluate and analyze")
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = _Parser(add_help=False)
    inputs.add_argument("--data", required=True)
    inputs.add_argument("--id", required=True)
    inputs.add_argument("--text", required=True)
    force = _Parser(add_help=False)
    force.add_argument("--force", action="store_true",
                       help="skip the config-fingerprint consistency check")

    p = sub.add_parser("synth", help="generate a locality-controlled interaction log")
    p.add_argument("--out", required=True)
    p.add_argument("--affinity-out")
    p.add_argument("--summary")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="parse, dedup and summarize an interaction log")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="write the canonical deduplicated TSV here")
    p.add_argument("--summary")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("build-graph", help="item co-occurrence graph from training views")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_graph)

    p = sub.add_parser("pretrain", help="train ID embeddings and text surrogates")
    p.add_argument("--data", required=True)
    p.add_argument("--out-id", required=True)
    p.add_argument("--out-text", required=True)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("glpf", help="low-pass filter an embedding table on the graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_glpf)

    p = sub.add_parser("train", parents=[inputs],
                       help="train the fusion MLP against a frozen backbone")
    p.add_argument("--graph", help="needed when glpf.apply_to=fused")
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", parents=[inputs, force],
                       help="leave-one-out ranking metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph")
    p.add_argument("--phase", choices=ds.PHASES, default="test")
    p.add_argument("--out")
    p.add_argument("--per-user")
    p.add_argument("--with-baselines", action="store_true")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("analyze", parents=[inputs, force],
                       help="layer-wise band-energy profiles")
    p.add_argument("--graph", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--tfm", choices=["on", "off", "both"], default="both")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("theorem-probe", help="filtering theorem statistics on a graph family")
    p.add_argument("--family", choices=["ring", "locality"], required=True)
    p.add_argument("--identity", action="store_true",
                   help="probe the identity filter instead of the configured one")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_theorem_probe)

    p = sub.add_parser("sweep", parents=[inputs],
                       help="grid over alpha or cutoff: filter+train+evaluate")
    p.add_argument("--param", choices=["alpha", "cutoff"], required=True)
    p.add_argument("--values", required=True, help="comma-separated grid values")
    p.add_argument("--graph")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    # log records go to this call's stderr through the package logger only,
    # and the logger is left as it was found when the call returns
    package_log = logging.getLogger("freqrec")
    level, propagate = package_log.level, package_log.propagate
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    package_log.addHandler(handler)
    package_log.propagate = False
    files = _Outputs()
    try:
        args = parser.parse_args(argv)
        package_log.setLevel(args.log_level.upper())
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise InputError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key] = value
        cfg = load_config(args.config, overrides)
        files.stamp = {"fingerprint": fingerprint(cfg), "config": cfg}
        code = args.fn(args, cfg, files)
        if code == 0:
            files.commit()
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except FreqRecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    finally:
        files.discard()
        package_log.removeHandler(handler)
        package_log.setLevel(level)
        package_log.propagate = propagate


if __name__ == "__main__":
    sys.exit(main())
