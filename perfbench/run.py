"""freqrec benchmark: seeded workloads run through the CLI in-process.

    python3 perfbench/run.py --workload {analyze,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The
line before it is an information record (environment, per-pass times,
ranking metrics, band shares) that is not gated.  Spans of a traced run
go to `.bench_out/` as JSON lines.  See perfbench/README.md.
"""

import argparse
import contextlib
import dataclasses
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import tracing
from workloads import (WORKERS, WORKLOADS, check_analyze, check_pipeline, files,
                       pass_commands, setup_commands, write_log)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
IMPORT_CODE = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
               "import freqrec.cli; print(time.perf_counter() - start)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["analyze", "pipeline"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--users", type=int, help="override the workload's user count")
    p.add_argument("--items", type=int, help="override the workload's item count")
    return p.parse_args(argv)


def load_cli():
    """Import freqrec from this checkout's src/, or None when it is absent."""
    sys.path.insert(0, SRC)
    try:
        import freqrec.cli
    except ImportError as exc:
        print(f"cannot import freqrec from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(freqrec.cli.__file__).startswith(SRC + os.sep):
        print(f"freqrec was imported from {freqrec.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return freqrec.cli


class Runner:
    """Runs CLI commands in-process and counts operations and failures."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.global_args = workload.global_args()
        self.recorder = None        # a tracing.Recorder while tracing
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"FAILED {what} {detail}".rstrip(), file=sys.stderr)

    def run(self, argv):
        """(payload or None, wall seconds) of one command."""
        out, err = io.StringIO(), io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.recorder is None:
                    code = self.cli.main(self.global_args + argv)
                else:
                    self.recorder.command = argv[0]
                    with self.recorder.span("cli." + argv[0]):
                        code = self.cli.main(self.global_args + argv)
        except Exception:  # a crash is a failed operation; keep measuring the rest
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        payload = None
        lines = out.getvalue().strip().splitlines()
        if code == 0 and lines:
            try:
                payload = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        self.record(f"command {argv[0]}", payload is not None,
                    f"exit={code} {err.getvalue().strip()[-400:]}")
        return payload, elapsed


def fresh_import_s():
    """Time to import the CLI in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def run_setup(runner, workload, f, seed):
    """Generate the inputs and build the artifacts the timed section reads."""
    start = time.perf_counter()
    write_log(f["raw"], workload.users, workload.items, workload.mean_length,
              workload.rho, seed)
    outs, secs = {}, {}
    for argv in setup_commands(workload, f):
        outs[argv[0]], secs[argv[0]] = runner.run(argv)
    return {"wall_s": time.perf_counter() - start, "outs": outs, "secs": secs}


def run_pass(runner, workload, f, setup):
    """One timed pass; None when a command failed.  Checks run after the
    clock stops."""
    outs, secs = {}, {}
    start = time.perf_counter()
    for argv in pass_commands(workload, f):
        outs[argv[0]], secs[argv[0]] = runner.run(argv)
        if outs[argv[0]] is None:
            return None
    wall = time.perf_counter() - start
    if workload.name == "analyze":
        split_users = setup["outs"]["ingest"]["n_users"]
        checks = check_analyze(outs["analyze"], split_users)
    else:
        split_users = outs["ingest"]["n_users"]
        checks = check_pipeline(outs, split_users)
    for name, ok in checks:
        runner.record(f"check {name}", ok)
    return {"wall_s": wall, "secs": secs, "outs": outs, "split_users": split_users}


def measure(runner, workload, f, seed, budget):
    """Rounds of (fresh import, set-up, timed pass) until `budget` seconds
    have gone by, at least one.  Set-up is repeated in every round so that
    its median, like the passes', spans the whole run and not only its
    first seconds: the speed of a shared machine drifts within a run."""
    rounds = []
    deadline = time.perf_counter() + budget
    while not rounds or time.perf_counter() < deadline:
        import_s = fresh_import_s()
        setup = run_setup(runner, workload, f, seed)
        if None in setup["outs"].values():
            break
        p = run_pass(runner, workload, f, setup)
        if p is None:
            break
        rounds.append({"import_s": import_s, "setup": setup, "pass": p})
    return rounds


def round_summary(r):
    """The ungated information kept from one round."""
    p = r["pass"]
    out = {"import_s": r["import_s"], "setup_s": r["setup"]["wall_s"],
           "setup_command_s": r["setup"]["secs"], "wall_s": p["wall_s"],
           "command_s": p["secs"], "split_users": p["split_users"]}
    if "evaluate" in p["outs"]:
        ev = p["outs"]["evaluate"]
        out["ndcg10"] = ev["metrics"]["ndcg"]
        out["recall10"] = ev["metrics"]["recall"]
        out["floors"] = ev["baselines"]
        out["epochs_run"] = p["outs"]["train"]["epochs_run"]
    if "analyze" in p["outs"]:
        out["band1"] = {mode: {"input": m["band1_input_share"],
                               "final": m["band1_final_share"]}
                        for mode, m in p["outs"]["analyze"]["modes"].items()}
    return out


def throughputs(passes):
    """Median per-command throughputs over untraced passes."""
    def med(fn):
        values = [fn(p) for p in passes if fn(p) is not None]
        return statistics.median(values) if values else 0.0

    def analyze_rate(p):
        a = p["outs"].get("analyze")
        if a is None:
            return None
        return sum(m["users"] for m in a["modes"].values()) / p["secs"]["analyze"]

    def train_rate(p):
        if "train" not in p["outs"]:
            return None
        return p["split_users"] * p["outs"]["train"]["epochs_run"] / p["secs"]["train"]

    def eval_rate(p):
        if "evaluate" not in p["outs"]:
            return None
        return p["outs"]["evaluate"]["metrics"]["n_users"] / p["secs"]["evaluate"]

    return {"analyze_users_per_s": med(analyze_rate),
            "train_seqs_per_s": med(train_rate),
            "eval_users_per_s": med(eval_rate)}


def environment():
    """Where and on what the numbers were measured (information only)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    lines = 0
    for path in glob.glob(os.path.join(SRC, "freqrec", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {"git_revision": _git_revision(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas, "blas_threads": _blas_threads(),
            "nproc": os.cpu_count(), "workers": WORKERS, "src_freqrec_lines": lines}


def _git_revision():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """OpenBLAS's own thread count when its library can be asked, else the
    environment setting, else None."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(value) if value and value.isdigit() else None


def main(argv=None):
    args = parse_args(argv)
    cli = load_cli()
    if cli is None:
        return 2
    workload = WORKLOADS[args.workload]
    if args.users is not None:
        workload = dataclasses.replace(workload, users=args.users)
    if args.items is not None:
        workload = dataclasses.replace(workload, items=args.items)

    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    runner = Runner(cli, workload)
    rounds = traced_rounds = []
    try:
        f = files(work)
        budget = args.seconds / 2 if args.trace else args.seconds
        rounds = measure(runner, workload, f, args.seed, budget)
        if args.trace and rounds:
            recorder, traced_rounds = tracing.traced(
                runner, lambda: measure(runner, workload, f, args.seed, budget))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not rounds or (args.trace and not traced_rounds):
        print("no round completed; no metrics to report", file=sys.stderr)
        return 1
    passes = [r["pass"] for r in rounds]
    info = {"workload": dataclasses.asdict(workload), "seed": args.seed,
            "environment": environment(),
            "rounds": [round_summary(r) for r in rounds],
            "failed_share": runner.failed / runner.attempted,
            "failures": runner.failures}
    if args.trace:
        spans_path = os.path.join(out_dir, tag + ".spans.jsonl")
        metrics, info["trace"] = tracing.metrics(recorder, [r["pass"] for r in traced_rounds],
                                                 passes, throughputs(passes))
        recorder.write_jsonl(spans_path)
        info["trace"]["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        timed = "setup" if workload.name == "analyze" else "pass"
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(r["import_s"] for r in rounds)
                        + statistics.median(r["setup"]["wall_s"] for r in rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MiB"),
            "pretrain_s": (statistics.median(r[timed]["secs"]["pretrain"] for r in rounds),
                           "s"),
        }
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    info["result"] = result
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
