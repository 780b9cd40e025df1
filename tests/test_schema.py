"""The schema, the reader and the shipped scenarios name the same record keys,
and the schema states the bounds the record fields declare.

A key listed by only one of ``docs/scenario.schema.json``, the reader
(``scenario._record`` and its ``_KEYS``) and the scenario files is either
documented and never read, or read and never documented. A bound stated by
only one of the schema and a field (``descriptors.bounded``) is either
documented and never checked, or checked and never documented.
"""

import json
import re
from fractions import Fraction
from pathlib import Path
from dataclasses import is_dataclass
from typing import get_args, get_type_hints

import pytest
from hypothesis import given

from capsim.descriptors import CapabilityDescriptor, CapabilityRealization, CapabilityVariant, ResourceProfile
from capsim.scenario import Scenario, _fields, _join
from capsim.topology import Domain
from capsim.workload import Arrival
from strategies import TIER1, scenario_documents
from test_scenario_cli import BOUND_EDGES

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "scenario.schema.json").read_text())
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


def reader_keys(cls: type) -> set[str]:
    """The keys of a record's own object that the reader reads; a field read
    from that object itself (key "") adds its own record's keys."""
    hints = get_type_hints(cls)
    keys: set[str] = set()
    for name, names, _, _, _ in _fields(cls):
        for key in names:
            keys |= reader_keys(hints[name]) if key == "" else {key.split(".")[0]}
    return keys


# Record -> (its path of keys in the document, the keys it is read from). The
# catalog tree is walked by hand: a class's "variants" and a variant's
# "realizations" are read there, and each child is given its parent's id. A
# scripted request's "session" object holds the keys of its turn.
RECORDS = {
    "domain": (("topology", "domains"), reader_keys(Domain)),
    "node": (("topology", "nodes"), reader_keys(ResourceProfile)),
    "class": (("catalog", "classes"), reader_keys(CapabilityDescriptor) | {"variants"}),
    "variant": (
        ("catalog", "classes", "variants"),
        reader_keys(CapabilityVariant) - {"parent_class"} | {"realizations"},
    ),
    "realization": (
        ("catalog", "classes", "variants", "realizations"),
        reader_keys(CapabilityRealization) - {"variant_id"},
    ),
    "request": (("requests",), reader_keys(Arrival)),
    "session": (
        ("requests", "session"),
        {key.split(".")[1] for _, names, _, _, _ in _fields(Arrival) for key in names if key.startswith("session.")},
    ),
}
# No shipped scenario scripts a request.
SCRIPTED = {"request", "session"}


def schema_keys(path: tuple[str, ...]) -> set[str]:
    node = SCHEMA
    for key in path:
        node = node["properties"][key]
        node = node.get("items", node)
    return set(node["properties"])


def document_records(doc: dict, path: tuple[str, ...]) -> list[dict]:
    found = [doc]
    for key in path:
        values = [obj[key] for obj in found if key in obj]
        found = [item for value in values for item in (value if isinstance(value, list) else [value])]
    return found


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_schema_lists_the_keys_the_reader_reads(record):
    path, keys = RECORDS[record]
    assert schema_keys(path) == keys


@pytest.mark.parametrize("record", sorted(set(RECORDS) - SCRIPTED))
def test_shipped_scenarios_carry_only_schema_keys(record):
    path, keys = RECORDS[record]
    for scenario in SCENARIOS:
        records = document_records(json.loads(scenario.read_text()), path)
        assert records, (scenario.name, record)
        for i, obj in enumerate(records):
            assert set(obj) <= keys, (scenario.name, record, i, set(obj) - keys)


# The catalog lists, which ``Scenario.from_dict`` reads by hand, and their
# paths in the document.
CATALOG = {
    "classes": "catalog.classes",
    "variants": "catalog.classes.variants",
    "realizations": "catalog.classes.variants.realizations",
}
BOUND_KEYWORDS = ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum")


def field_bounds(cls: type = Scenario, path: str = "") -> set[tuple[str, str, object]]:
    """(document path, schema keyword, value) of each bound that ``cls``'s
    fields and the records nested in them declare; a list's items share its
    path."""
    hints = get_type_hints(cls)
    out = set()
    for name, keys, _, _, bound in _fields(cls):
        at = CATALOG[name] if cls is Scenario and name in CATALOG else _join(path, keys[0])
        if bound is not None:
            low, high, above = bound
            out.add((at, "exclusiveMinimum" if above else "minimum", low))
            if high is not None:
                out.add((at, "maximum", high))
        for tp in (hints[name], *get_args(hints[name])):
            if is_dataclass(tp):
                out |= field_bounds(tp, at)
    return out


def schema_bounds(node: dict = SCHEMA, path: str = "") -> set[tuple[str, str, object]]:
    """The same, as the schema states them."""
    if "$ref" in node:
        node = SCHEMA["definitions"][node["$ref"].rsplit("/", 1)[1]]
    out = {(path, keyword, node[keyword]) for keyword in BOUND_KEYWORDS if keyword in node}
    for key, child in node.get("properties", {}).items():
        out |= schema_bounds(child, _join(path, key))
    if "items" in node:
        out |= schema_bounds(node["items"], path)
    return out


def test_the_schema_states_exactly_the_field_bounds():
    fields, schema = field_bounds(), schema_bounds()
    assert len(fields) > 60
    assert fields - schema == set()
    assert schema - fields == set()


def test_the_bound_edges_cover_every_side_of_every_bound():
    """``test_scenario_cli.BOUND_EDGES`` steps over each field bound, on each
    side that it has."""
    sides = {(path, "high" if keyword == "maximum" else "low") for path, keyword, _ in field_bounds()}
    covered = [
        (re.sub(r"\[\d+\]", "", path), "high" if outside > inside else "low")
        for _, path, outside, inside in ((*row[:2], *map(Fraction, row[2:])) for row in BOUND_EDGES)
    ]
    assert len(covered) == len(set(covered))
    assert set(covered) == sides


def stray_keys(value: object, node: dict = SCHEMA, path: str = "") -> list[str]:
    """The path of each key of the document ``value`` that the schema
    ``node`` does not list."""
    if "$ref" in node:
        node = SCHEMA["definitions"][node["$ref"].rsplit("/", 1)[1]]
    if isinstance(value, dict):
        known = node.get("properties", {})
        return [
            stray
            for key, item in value.items()
            for stray in (stray_keys(item, known[key], _join(path, key)) if key in known else [_join(path, key)])
        ]
    if isinstance(value, list):
        return [stray for i, item in enumerate(value) for stray in stray_keys(item, node["items"], f"{path}[{i}]")]
    return []


def test_stray_keys_names_a_key_the_schema_lacks():
    doc = json.loads(SCENARIOS[0].read_text())
    assert stray_keys(doc) == []
    doc["topology"]["nodes"][0]["colour"] = "red"
    assert stray_keys(doc) == ["topology.nodes[0].colour"]


@TIER1
@given(scenario_documents())
def test_drawn_documents_carry_only_schema_keys(doc):
    assert stray_keys(doc) == []
