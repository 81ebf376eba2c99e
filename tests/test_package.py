"""The package namespace and what a run imports."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import ellrmx

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_exported_name_resolves():
    assert [name for name in ellrmx.__all__ if not hasattr(ellrmx, name)] == []


def test_a_run_does_not_import_numpy_random():
    # The sampler computes NumPy's stream itself; one stray np.random call
    # would bring back the import (about 13 ms and 2 MB per process).
    code = (
        "import sys\n"
        "from ellrmx.checks import CheckConfig, run_check\n"
        "run_check(CheckConfig('all', trials=1))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    # The benchmark's tracer wraps functions by name in the module that
    # defines them, and a name it cannot find fails the benchmark.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    wrapped = [(g.module, f) for g in tracer.GROUPS for f in g.functions]
    assert len(wrapped) > 40
    missing = [
        f"{module}.{name}"
        for module, name in wrapped
        if not callable(getattr(importlib.import_module(f"ellrmx.{module}"), name, None))
    ]
    assert missing == []
