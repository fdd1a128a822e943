"""The library surface that callers outside the package rely on: the
functions the benchmark's tracer wraps by name, and the demo scripts."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ocrate

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load_tracing():
    # importing the module only defines its wrappers; it installs none
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    missing = [f"{module}.{attr}"
               for module, attr, *_ in _load_tracing()._TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    src = str(Path(ocrate.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
