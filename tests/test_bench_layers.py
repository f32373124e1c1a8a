"""The benchmark's tracer wraps loralink functions by name; each must still exist."""

import functools
import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# run_path compiles the source in memory: nothing is written under bench/
LAYERS = runpy.run_path(str(TRACING))["LAYERS"]


@pytest.mark.parametrize("module_name, path", [(module, path) for module, path, _ in LAYERS])
def test_traced_layer_resolves(module_name, path):
    module = importlib.import_module(module_name)
    assert callable(functools.reduce(getattr, path.split("."), module))


# bench/run.py's order, in a fresh interpreter: import only loralink.cli, then
# wrap the layers, which Tracer looks up in sys.modules by name
TRACED_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from loralink import cli
with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
    replaced = list(tracer._undo)
    codes = [cli.main(["recommend"]), cli.main(["simulate", "--duration-s", "5"])]
restored = all(getattr(holder, attr) is original for holder, attr, original in replaced)
print(json.dumps({"codes": codes, "calls": tracer.calls, "replaced": len(replaced),
                  "restored": restored}))
"""


def test_traced_run_after_importing_only_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    # -B: no bytecode cache is written under bench/
    done = subprocess.run([sys.executable, "-B", "-c", TRACED_RUN, str(TRACING.parent)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0]
    assert result["calls"]["cli.build_parser"] == 2
    assert result["calls"]["recommender.recommend_sf_bw"] == 1
    assert result["replaced"] >= len(LAYERS) and result["restored"]
