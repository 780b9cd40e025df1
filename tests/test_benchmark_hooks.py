"""The benchmark in perfbench/ wraps capsim's layer entry points by name.

Renaming or deleting one of them breaks the benchmark's traced runs; these
tests make that show up in the test suite. So does a select path that goes
round a wrapped entry point: its layer would read 0 in a traced run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs a shipped scenario with the tracer installed and prints the number of
# spans per name and the tracer's counts.
TRACED_RUN = """
import json, sys
sys.path.insert(0, 'perfbench')
import tracer
t = tracer.install()
from capsim.engine import Simulation
from capsim.scenario import Scenario
Simulation(Scenario.load('scenarios/session_heavy.json')).run()
spans = {}
for name_id, *_ in t.spans:
    spans[t.names[name_id]] = spans.get(t.names[name_id], 0) + 1
print(json.dumps({'spans': spans, 'counts': t.counts}))
"""


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    # A fresh interpreter, because install() monkeypatches capsim classes.
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_benchmark_tracer_installs():
    proc = _fresh_interpreter("import sys; sys.path.insert(0, 'perfbench'); import tracer; tracer.install()")
    assert proc.returncode == 0, proc.stderr


def test_traced_run_records_the_select_path():
    proc = _fresh_interpreter(TRACED_RUN)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    for name in ("routing.select", "registry.lookup", "caching.holders"):
        assert doc["spans"].get(name, 0) > 0, name
    assert doc["counts"]["registry.candidates"] > 0
