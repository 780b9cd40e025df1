"""Print each line of ``src/capsim`` that the tier-1 tests never execute.

    python tests/linecov.py [PYTEST_ARGS...]

Runs pytest in-process from the repository root, with ``src`` on the path,
under ``sys.settrace`` (and ``threading.settrace``), and records every line
of a ``src/capsim`` module that a test executes. A line counts as
executable when the module's compiled code starts one there. Code run in a
subprocess (the CLI's ``python -m capsim.cli`` tests, perfbench's children)
is not seen. Each executable line that never ran is printed as
``file:line: source``, followed by the reason when ``ALLOWED`` lists it.

The exit status is 1 when any such line is missing from ``ALLOWED``, or when
``ALLOWED`` names a line that no longer exists or now runs, and pytest's own
status when the tests fail. Standard library only (beyond what the tests
import); not collected by pytest. A full run takes several times as long as
tier-1 itself.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "capsim"

# Lines no tier-1 input reaches, by (module file, stripped source text), each
# with the reason it stays. A text stands for every line of the module that
# reads exactly so.
ALLOWED: dict[tuple[str, str], str] = {
    ("cli.py", "return EXIT_VALIDATION"): "oracle-place on a scenario that fails validation: no test drives it",
    ("cli.py", "except Exception as exc:"): "oracle-place's catch-all exit: no test makes the exact solve fail",
    ("cli.py", 'print(f"error: {exc}", file=sys.stderr)'): "oracle-place's catch-all exit, as above",
    ("cli.py", "return EXIT_RUNTIME"): "oracle-place's catch-all exit, as above",
    ("cli.py", "sys.exit(main())"): "runs only as a script, in a subprocess",
    ("deployment.py", 'raise InfeasiblePlacement(f"assignment {key} is not a candidate pair")'):
        "a placement is built from the problem's own pairs, so every key is one",
    ("deployment.py", 'raise InfeasiblePlacement("memory budget exceeded")'):
        "local search starts from the greedy placement, which is feasible",
    ("deployment.py", "continue  # never placeable on this node"):
        "a realization whose artifact has no route to a node: no test input has one",
    ("descriptors.py", "return value"): "parse_fraction of a Fraction: JSON never yields one, and no test passes one",
    ("registry.py", 'raise CatalogIntegrityError(f"duplicate class {desc.name}")'): "validate rejects duplicates first",
    ("registry.py", 'raise CatalogIntegrityError(f"duplicate variant {variant.variant_id}")'):
        "validate rejects duplicates first",
    ("registry.py", 'raise CatalogIntegrityError(f"duplicate realization {realization.realization_id}")'):
        "validate rejects duplicates first",
    ("registry.py", "return False"): "_in_scope after every LocalityScope member is tested",
    ("scenario.py", 'raise ScenarioParseError("scenario: expected a JSON object")'):
        "no test loads a document whose top level is not an object",
    ("topology.py", 'raise ValueError(f"duplicate node_id {node_id}")'): "validate rejects duplicates first",
    ("topology.py", 'raise ValueError(f"duplicate link_id {link.link_id}")'): "validate rejects duplicates first",
    ("topology.py", 'raise ValueError(f"link {link.link_id}: negative delay")'): "validate checks the bound first",
    ("topology.py", 'raise ValueError(f"link {link.link_id}: bandwidth must be > 0")'):
        "validate checks the bound first",
    ("trust.py", "return False"): "valid_at before the issue time: effective_trust skips such records first",
    ("workload.py", "return len(cdf) - 1"):
        "a draw at or above the float CDF's last value, which rounding may leave below 1",
}


def executable_lines(path: Path) -> set[int]:
    """The lines at which ``path``'s compiled code, nested code included, starts one."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer: (its exit status, lines run per module file)."""
    prefix = str(SRC) + os.sep
    seen: dict[str, set[int]] = {}
    left: dict[object, set[int]] = {}  # per code object, its lines not yet run
    done: set[object] = set()  # code objects all of whose lines have run

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            seen[code.co_filename].add(frame.f_lineno)
            rest = left[code]
            rest.discard(frame.f_lineno)
            if not rest:
                done.add(code)
                return None
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in done or not code.co_filename.startswith(prefix):
            return None
        if code not in left:
            left[code] = {line for _, _, line in code.co_lines() if line}
            seen.setdefault(code.co_filename, set())
        return local

    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), seen


def main(argv: list[str]) -> int:
    status, seen = run_traced(argv)
    if status != 0:
        print(f"linecov: the tests failed (pytest status {status}); no line report", file=sys.stderr)
        return status
    missing: set[tuple[str, str]] = set()
    uncovered = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - seen.get(str(path), set())):
            text = source[line - 1].strip()
            reason = ALLOWED.get((path.name, text))
            uncovered += 1
            print(f"src/capsim/{path.name}:{line}: {text}" + (f"  # allowed: {reason}" if reason else ""))
            missing.add((path.name, text))
    stale = sorted(set(ALLOWED) - missing)
    for name, text in stale:
        print(f"linecov: allowed but run or gone: {name}: {text}")
    unallowed = len(missing - set(ALLOWED))
    print(f"linecov: {uncovered} lines never run, {unallowed} distinct lines not allowed, {len(stale)} stale entries")
    return 1 if unallowed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
