"""Check the golden output digests under other Python interpreters.

    python tests/golden_interpreters.py PYTHON...

Each PYTHON (3.10 or later) runs ``capsim run SCENARIO --out DIR --trace``,
with ``PYTHONPATH=src`` from the repository root, on every shipped scenario.
The sha256 of ``metrics.json``, ``receipts.jsonl`` and ``trace.csv`` are
compared with ``test_golden.GOLDEN``. One line is printed per (interpreter,
scenario): ``ok``, the files whose digest differs, or the last line of the
run's error. The exit status is 1 on any mismatch or failed run. The script
runs under the interpreter that starts it, which needs what the tests import;
the interpreters it checks need only the standard library.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
from test_golden import GOLDEN, SCENARIOS, output_digests  # noqa: E402

FILES = ("metrics.json", "receipts.jsonl", "trace.csv")


def check(python: str, name: str) -> str:
    """``ok``, or what went wrong running scenario ``name`` under ``python``."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [python, "-m", "capsim.cli", "run", str(SCENARIOS / f"{name}.json"), "--out", out, "--trace"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:]
            return f"FAILED exit {proc.returncode}: {' '.join(last)}"
        differ = [f for f, got, want in zip(FILES, output_digests(Path(out), FILES), GOLDEN[name]) if got != want]
    return "MISMATCH " + " ".join(differ) if differ else "ok"


def main(interpreters: list[str]) -> int:
    if not interpreters:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for python in interpreters:
        for name in sorted(GOLDEN):
            status = check(python, name)
            failed |= status != "ok"
            print(f"{python} {name} {status}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
