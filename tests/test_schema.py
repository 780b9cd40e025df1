"""The schema, the reader and the shipped scenarios name the same record keys.

A key listed by only one of ``docs/scenario.schema.json``, the reader
(``scenario._record`` and its ``_KEYS``) and the scenario files is either
documented and never read, or read and never documented.
"""

import json
from pathlib import Path
from typing import get_type_hints

import pytest

from capsim.descriptors import CapabilityDescriptor, CapabilityRealization, CapabilityVariant, ResourceProfile
from capsim.scenario import _fields
from capsim.topology import Domain

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "scenario.schema.json").read_text())
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


def reader_keys(cls: type) -> set[str]:
    """The keys of a record's own object that the reader reads; a field read
    from that object itself (key "") adds its own record's keys."""
    hints = get_type_hints(cls)
    keys: set[str] = set()
    for name, names, _, _ in _fields(cls):
        for key in names:
            keys |= reader_keys(hints[name]) if key == "" else {key.split(".")[0]}
    return keys


# Record -> (its path of keys in the document, the keys it is read from). The
# catalog tree is walked by hand: a class's "variants" and a variant's
# "realizations" are read there, and each child is given its parent's id.
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
}


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


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_shipped_scenarios_carry_only_schema_keys(record):
    path, keys = RECORDS[record]
    for scenario in SCENARIOS:
        records = document_records(json.loads(scenario.read_text()), path)
        assert records, (scenario.name, record)
        for i, obj in enumerate(records):
            assert set(obj) <= keys, (scenario.name, record, i, set(obj) - keys)
