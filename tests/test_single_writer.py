"""One writer for the state that kept lookups read.

``Broker.lookup_candidates`` keeps its hits until the broker's stamp moves,
and ``CacheSystem.holders`` reads an index the stores keep as they write.
Only the writer moves a stamp or updates the index, so no other module may
change that state behind it: ``registry.py`` alone assigns a node's
liveness, residency, draining flags and used memory, and ``caching.py``
alone inserts into or pops from a store's ``entries``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "capsim"

NODE_FIELDS = {"online", "pending_eviction", "residency", "used_memory_bytes"}
MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__"}


def writes(tree: ast.AST) -> set[str]:
    """The node fields and store containers a module writes: ``x.f = ...``,
    ``x.f += ...``, ``x.f[k] = ...``, ``del x.f[k]`` and ``x.f.pop(...)``
    and the like, for ``f`` a node field or ``entries``."""
    watched = NODE_FIELDS | {"entries"}
    out = set()

    def target(node: ast.AST) -> None:
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                target(element)
        elif isinstance(node, ast.Attribute) and node.attr in watched:
            out.add(node.attr)
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) and node.value.attr in watched:
            out.add(node.value.attr)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                target(t)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target(node.target)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                target(t)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in watched
        ):
            out.add(node.func.value.attr)
    return out


def test_only_the_registry_writes_node_state_and_only_caching_writes_entries():
    found = {path.name: writes(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    # The scan sees the writers' own writes, so it is not vacuous.
    assert found["registry.py"] == NODE_FIELDS
    assert found["caching.py"] == {"entries"}
    others = {name: w for name, w in found.items() if w and name not in ("registry.py", "caching.py")}
    assert others == {}


def test_the_scan_catches_each_form_of_write():
    for source in (
        "state.online = False",
        "broker.node(n).online = True",
        "res.pending_eviction = True",
        "state.residency[rid].pending_eviction = True",
        "state.residency[rid] = res",
        "del state.residency[rid]",
        "state.residency.pop(rid)",
        "state.used_memory_bytes -= 1",
        "store.entries.pop(key, None)",
        "store.entries[key] = entry",
        "del store.entries[key]",
        "a, store.entries[key] = 1, entry",
    ):
        assert writes(ast.parse(source)), source
    for source in ("store.entries.get(key)", "set(state.residency)", "x = state.online", "entry.pins -= 1"):
        assert not writes(ast.parse(source)), source
