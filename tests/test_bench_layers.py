"""The benchmark's tracer wraps loralink functions by name; each must still exist."""

import functools
import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# run_path compiles the source in memory: nothing is written under bench/
LAYERS = runpy.run_path(str(TRACING))["LAYERS"]


@pytest.mark.parametrize("module_name, path", [(module, path) for module, path, _ in LAYERS])
def test_traced_layer_resolves(module_name, path):
    module = importlib.import_module(module_name)
    assert callable(functools.reduce(getattr, path.split("."), module))
