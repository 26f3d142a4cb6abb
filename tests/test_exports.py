"""Every exported name resolves, in the package and in each submodule, and
every library function the benchmark's tracer hooks by name exists."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import invar

MODULES = ["invar"] + [
    f"invar.{info.name}" for info in pkgutil.iter_modules(invar.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_bench_layer_hooks_resolve():
    """bench/layers.py wraps library functions by name; instrumenting a
    fresh process fails on a renamed or removed one."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(str(root / d) for d in ("bench", "src"))
    code = "import layers; layers.instrument(layers.Tracer())"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
