"""Every freqrec module imports when it is the first one loaded, so no
import cycle hides behind the order in which the CLI happens to load
them."""

import os
import pathlib
import pkgutil
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_every_module_imports_first():
    names = ["freqrec"] + [info.name for info in pkgutil.walk_packages(
        [str(SRC / "freqrec")], prefix="freqrec.")]
    assert "freqrec.model.training" in names and "freqrec.evalharness" in names
    # one fresh interpreter; each module is imported with no freqrec module loaded
    script = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'freqrec']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except ImportError as exc:\n"
        "        sys.exit(f'importing {name} first fails: {exc}')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
