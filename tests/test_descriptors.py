from dataclasses import fields, replace
from fractions import Fraction

import pytest

from capsim.descriptors import (
    CapabilityDescriptor,
    LocalityScope,
    PolicyConstraint,
    RequestDescriptor,
    ResourceProfile,
    parse_fraction,
)
from capsim.scenario import Scenario
from capsim.workload import Arrival
from conftest import make_class


def make_request(**overrides) -> RequestDescriptor:
    base = dict(
        request_id="r1",
        capability_class="chat",
        quality_target=1,
        policy=PolicyConstraint(),
        input_tokens=128,
        output_tokens=32,
        arrival_time=0,
    )
    base.update(overrides)
    return RequestDescriptor(**base)


def test_wellformed_capability_descriptor_validates():
    scenario = replace(Scenario.from_dict({}), classes=[make_class()])
    assert scenario.validate() == []


# -- parsing -------------------------------------------------------------------


def test_request_from_dict():
    doc = {
        "request_id": "r1",
        "capability_class": "chat",
        "quality_target": 2,
        "policy": {
            "min_trust": 1,
            "locality_scope": "domain",
            "allowed_domains": ["d2", "d1"],
            "preferred_domains": ["d1"],
        },
        "affinity_token": "s1:abcd",
        "budget": 500,
        "origin_region": "metro",
        "input_tokens": 128,
        "output_tokens": 32,
        "arrival_time": 7,
        "degradable": True,
        "session": {"session_id": "s1", "turn_index": 2, "total_turns": 3, "prefix_tokens": 64},
    }
    policy = PolicyConstraint(
        min_trust=1,
        locality_scope=LocalityScope.DOMAIN,
        allowed_domains=("d2", "d1"),
        preferred_domains=("d1",),
    )
    request = make_request(
        quality_target=2, policy=policy, affinity_token="s1:abcd", budget=500, origin_region="metro",
        arrival_time=7, degradable=True,
    )
    (scripted,) = Scenario.from_dict({"requests": [doc]}).scripted_requests
    assert scripted == Arrival(request, "s1", turn_index=2, total_turns=3, prefix_tokens=64)
    # Absent keys take the documented defaults; the session id is the request id.
    minimal = {"request_id": "r2", "capability_class": "chat", "quality_target": 1}
    (scripted,) = Scenario.from_dict({"requests": [minimal]}).scripted_requests
    assert scripted == Arrival(RequestDescriptor("r2", "chat", 1, PolicyConstraint()), "r2")


def test_parse_fraction_decimal_semantics():
    assert parse_fraction("0.1") == Fraction(1, 10)
    assert parse_fraction(1.5) == Fraction(3, 2)
    assert parse_fraction("3/2") == Fraction(3, 2)
    assert parse_fraction(7) == Fraction(7)


def test_every_cost_symbol_maps_to_exactly_one_type():
    # A class is named by requests and its lineage goes into receipts.
    # Admission and placement read a variant's quality and label; a class's
    # label is only its variants' default, kept so that it is validated once.
    cap_fields = {f.name for f in fields(CapabilityDescriptor)}
    assert cap_fields == {"name", "lineage", "security"}
    # A node profile carries only what routing, placement, caching or trust reads.
    prof_fields = {f.name for f in fields(ResourceProfile)}
    assert prof_fields == {
        "node_id", "domain_id", "accelerator", "speed_factor", "max_concurrent", "memory_budget_bytes",
        "admission_cap", "cache_capacity_bytes", "region", "tier", "trust",
    }
    # Request carries class, quality, policy, affinity, budget.
    req_fields = {f.name for f in fields(RequestDescriptor)}
    assert {"capability_class", "quality_target", "policy", "affinity_token", "budget"} <= req_fields
    # No field name appears in more than one of the three core types.
    overlap = (cap_fields & prof_fields) | (cap_fields & req_fields) | (prof_fields & req_fields)
    assert not overlap


@pytest.mark.parametrize("value", ["any", "region", "domain", "node-local"])
def test_locality_scope_wire_values(value):
    assert LocalityScope(value).value == value
