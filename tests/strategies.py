"""A Hypothesis strategy for whole scenario documents, derived from the
declarations on the record fields.

    from strategies import scenario_documents

``scenario_documents()`` draws a JSON document that ``Scenario.from_dict``
reads. Each field is drawn from what its record declares:

- a bounded field (``descriptors.bounded``) inside its bound, its edges
  included;
- a unique id (``descriptors.ident(unique=...)``) distinct from the ids of
  its kind already drawn;
- a reference (``ident(ref=...)``) from the ids of its kind already drawn,
  and always, so that no default refers to nothing;
- any other field by its annotated type, and a field with a default only
  sometimes.

Each value goes under the field's first document key (``scenario._fields``),
so a document holds only keys the reader reads. The document is drawn in
reference order: domains and nodes, then the links and the artifact
repository, the catalog tree (walked by hand, as the reader walks it), the
initial placement, and the sections that refer to all of these.

``CHOICES`` draws the few values that a hand-written rule of
``Scenario.validate`` reads and no declaration states. Every other such rule
compares two fields and may fail on a drawn document; ``CROSS_FIELD`` names
each one, as the error ``validate`` reports.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from enum import Enum
from functools import cache
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

from hypothesis import settings
from hypothesis import strategies as st

from capsim.descriptors import CapabilityDescriptor, CapabilityRealization, CapabilityVariant
from capsim.scenario import Scenario, _fields
from capsim.topology import Link, region_vertex
from capsim.workload import TokenDist

# Ids hold neither "," nor a line break, nor the "-" and digits of a
# generated request id. No kind has more than 8 records (the realizations).
IDS = tuple(a + b for a in "abc" for b in ("", "a", "b", "c"))
WORD = st.sampled_from(("a", "b"))  # any other string, from few values so that some match
CAP = 10**6  # how far above its low end a bound without a high end is drawn
ITEMS = st.integers(1, 3)  # the number of items of a drawn list
BOOL = st.booleans()
LEAVES = {bool: BOOL, int: st.integers(0, CAP), float: st.floats(-10, 10), str: WORD}

# The values that a hand-written rule reads and no declaration states, each
# drawn so that the rule holds: a link ends at a node or a region's gateway,
# a token distribution is one of two, and a class's lineage (drawn always)
# is not empty.
CHOICES = {
    (Link, "src"): lambda pools: st.sampled_from(sorted(pools["vertex"])),
    (Link, "dst"): lambda pools: st.sampled_from(sorted(pools["vertex"])),
    (TokenDist, "dist"): lambda pools: st.sampled_from(("fixed", "lognormal")),
    (CapabilityDescriptor, "lineage"): None,
}

# The errors a drawn document may have, as full matches of ``validate``'s
# messages: the rules that compare two fields.
CROSS_FIELD = (
    r"topology\.nodes\[\d+\]\.trust: below domain \w+ min_trust \d",
    r"catalog\.classes\[\d+\](\.variants\[\d+\])?\.security\.preferred_trust: must be >= min_trust",
    r"initial_placement\[\d+\]: accelerator mismatch \w+ on \w+",
    r"initial_placement\[\d+\]: trust \d of \w+ is below the floor \d of \w+",
    r"initial_placement\[\d+\]: memory budget exceeded on \w+",
    r"(workload\.regions\[\d+\]\.policy_mix\[\d+\]|requests\[\d+\]\.policy)\.allowed_domains: "
    r"required by locality_scope domain",
    r"requests\[\d+\]\.session\.turn_index: exceeds total_turns",
    r"requests\[\d+\]\.session\.prefix_tokens: exceeds input_tokens",
    r"requests\[\d+\]\.affinity_token: session part differs from session id \w+",
    r"trust_script\.attestations\[\d+\]\.level: exceeds node claimed trust \d",
)

# The draws of a tier-1 test: the same documents on every run, and few
# enough to take about a second.
TIER1 = settings(max_examples=50, derandomize=True, database=None, deadline=None)

# Scenario fields that ``Scenario.from_dict`` gives rather than reads.
GIVEN = {"classes", "variants", "realizations", "variant_paths", "realization_paths", "digest"}


@st.composite
def scenario_documents(draw) -> dict:
    """A whole scenario document, drawn in reference order. ``pools`` holds
    the ids of each kind drawn so far, and ``"vertex"`` the ends a link may
    have."""
    pools: dict[str, set[str]] = {}
    doc = _fields_of(draw, Scenario, pools, {"domains", "nodes"}, always=True)
    nodes = doc["topology"]["nodes"]
    pools["vertex"] = pools["node"] | {region_vertex(node.get("region", "")) for node in nodes}
    _fields_of(draw, Scenario, pools, {"artifact_repository", "links"}, doc)
    doc["catalog"] = {"classes": [_catalog_class(draw, pools) for _ in range(draw(st.integers(1, 2)))]}
    if pools.get("realization") and draw(BOOL):
        pairs = st.tuples(st.sampled_from(sorted(pools["realization"])), st.sampled_from(sorted(pools["node"])))
        doc["initial_placement"] = draw(st.lists(pairs.map(list), min_size=1, max_size=3))
    first = {"domains", "nodes", "artifact_repository", "links", "initial_placement"}
    return _fields_of(draw, Scenario, pools, _names(Scenario) - GIVEN - first, doc)


def _names(cls: type) -> set[str]:
    return {f.name for f in fields(cls)}


def _catalog_class(draw, pools: dict[str, set[str]]) -> dict:
    """A class with 0-2 variants of 0-2 realizations each, each child under its parent."""
    doc = _fields_of(draw, CapabilityDescriptor, pools)
    variants = []
    for _ in range(draw(st.integers(0, 2))):
        variants.append(_fields_of(draw, CapabilityVariant, pools, _names(CapabilityVariant) - {"parent_class"}))
        realizations = [
            _fields_of(draw, CapabilityRealization, pools, _names(CapabilityRealization) - {"variant_id"})
            for _ in range(draw(st.integers(0, 2)))
        ]
        if realizations or draw(BOOL):
            variants[-1]["realizations"] = realizations
    if variants or draw(BOOL):
        doc["variants"] = variants
    return doc


def _fields_of(draw, cls: type, pools: dict[str, set[str]], names: set[str] | None = None, doc: dict | None = None,
               always: bool = False) -> dict:
    """``doc`` with the fields ``names`` of record ``cls`` (all of them by
    default) drawn in field order under their document keys. A field with
    a default is drawn only sometimes, unless ``always`` or it refers to
    ids; a reference whose kind has no ids yet is left out."""
    doc = {} if doc is None else doc
    hints = _hints(cls)
    for f, (name, keys, _, required, bound) in zip(fields(cls), _fields(cls)):
        rule = f.metadata.get("id")
        ref = rule[1] if rule else ""
        if names is not None and name not in names or ref and not pools.get(ref):
            continue
        if not (required or always or ref or (cls, name) in CHOICES) and not draw(BOOL):
            continue
        choice = CHOICES.get((cls, name))
        value = draw(choice(pools)) if choice else _value(draw, hints[name], rule, bound, pools)
        _put(doc, keys[0], value)
    return doc


def _value(draw, tp: Any, rule: tuple | None, bound: tuple | None, pools: dict[str, set[str]]) -> Any:
    """A document value of the annotation ``tp`` under a field's id rule or bound."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None
        return None if draw(BOOL) else _value(draw, args[0], rule, bound, pools)
    if rule is not None:
        unique, ref, _ = rule
        if ref:
            refs = st.sampled_from(sorted(pools[ref]))
            return draw(st.lists(refs, min_size=1, max_size=3)) if origin is tuple else draw(refs)
        taken = pools.setdefault(unique, set()) if unique else set()
        new = draw(st.sampled_from([i for i in IDS if i not in taken]))
        taken.add(new)
        return new
    if bound is not None:
        return draw(_bounded(tp, bound))
    if origin is list or origin is tuple and args[-1] is Ellipsis:
        if is_dataclass(args[0]):
            return [] if _blocked(args[0], pools) else [_fields_of(draw, args[0], pools) for _ in range(draw(ITEMS))]
        return [_value(draw, args[0], None, None, pools) for _ in range(draw(ITEMS))]
    if origin is tuple:
        return [_value(draw, arg, None, None, pools) for arg in args]
    if is_dataclass(tp):
        return _fields_of(draw, tp, pools)
    if issubclass(tp, Enum):
        return draw(st.sampled_from([member.value for member in tp]))
    return draw(LEAVES[tp])


@cache
def _hints(cls: type) -> dict[str, Any]:
    return get_type_hints(cls)


@cache
def _bounded(tp: type, bound: tuple) -> st.SearchStrategy:
    """A value of ``tp`` inside ``bound``, ``(low, high, above)``, its edges
    included; a fraction as its ``"p/q"`` string."""
    low, high, above = bound
    top = low + CAP if high is None else high
    if tp is int:
        return st.sampled_from((low + above, top)) | st.integers(low + above, top)
    if tp is float:
        return st.floats(low, top, exclude_min=above)
    fractions = st.fractions(low, top, max_denominator=1000).filter(lambda f: f > low or not above)
    return fractions.map(lambda f: f"{f.numerator}/{f.denominator}")


def _blocked(cls: type, pools: dict[str, set[str]]) -> bool:
    """Whether a required field of ``cls``, or of a required record in it,
    refers to a kind that has no ids yet."""
    hints = _hints(cls)
    for f, (name, _, _, required, _) in zip(fields(cls), _fields(cls)):
        rule = f.metadata.get("id")
        if required and (rule and rule[1] and not pools.get(rule[1]) or is_dataclass(hints[name]) and _blocked(hints[name], pools)):
            return True
    return False


def _put(doc: dict, key: str, value: Any) -> None:
    """Set the dotted ``key`` of ``doc``; the key "" merges ``value`` into
    ``doc``, as two records read from one object (``weights``) merge."""
    *outer, last = key.split(".") if key else ("",)
    for part in outer:
        doc = doc.setdefault(part, {})
    if not last:
        doc.update(value)
    elif isinstance(value, dict) and isinstance(doc.get(last), dict):
        doc[last].update(value)
    else:
        doc[last] = value
