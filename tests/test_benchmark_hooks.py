"""The benchmark in perfbench/ wraps capsim's layer entry points by name.

Renaming or deleting one of them breaks the benchmark's traced runs; this
test makes that show up in the test suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs():
    # A fresh interpreter, because install() monkeypatches capsim classes.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'perfbench'); import tracer; tracer.install()"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
