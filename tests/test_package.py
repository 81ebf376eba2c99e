"""The package namespace and what a run imports."""

import subprocess
import sys

import ellrmx


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
