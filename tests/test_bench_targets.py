"""The benchmark's traced runs wrap freqrec functions by name
(`perfbench/tracing.py`, `TARGETS`); every name must resolve once the CLI
is imported, so a rename fails here before it breaks a traced run."""

import importlib.util
import os
import pathlib
import subprocess
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    assert targets
    # a fresh interpreter, as in a benchmark round: only what `import
    # freqrec.cli` loads is in sys.modules, which is where the tracer looks
    script = (
        "import functools, sys\n"
        "import freqrec.cli\n"
        f"for module, attr in {targets!r}:\n"
        "    target = functools.reduce(getattr, attr.split('.'), sys.modules[module])\n"
        "    assert callable(target), (module, attr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(TRACING.parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
