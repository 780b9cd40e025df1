from dataclasses import fields
from fractions import Fraction

import pytest

from capsim.descriptors import (
    CapabilityDescriptor,
    CapabilityRealization,
    LocalityScope,
    PolicyConstraint,
    RequestDescriptor,
    ResourceProfile,
    parse_fraction,
    validate_descriptor,
)
from capsim.scenario import Scenario
from capsim.workload import Arrival
from conftest import make_class, make_realization


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


def test_wellformed_request_validates():
    assert validate_descriptor(make_request()) == []


def test_zero_output_tokens_is_a_violation():
    violations = validate_descriptor(make_request(output_tokens=0))
    assert any(v.startswith("output_tokens") for v in violations)


def test_negative_budget_is_a_violation():
    violations = validate_descriptor(make_request(budget=-5))
    assert any(v.startswith("budget") for v in violations)


def test_wellformed_capability_descriptor_validates():
    assert validate_descriptor(make_class()) == []


def test_empty_lineage_is_a_violation():
    bad = CapabilityDescriptor(name="x", lineage=())
    assert any(v.startswith("lineage") for v in validate_descriptor(bad))


def test_per_token_times_must_be_positive():
    bad = make_realization("r", "v")
    bad = CapabilityRealization(**{**{f.name: getattr(bad, f.name) for f in fields(bad)}, "decode_time_per_token_us": 0})
    assert any("per-token" in v for v in validate_descriptor(bad))


def test_domain_scope_requires_allowed_domains():
    policy = PolicyConstraint(locality_scope=LocalityScope.DOMAIN)
    assert any("allowed_domains" in v for v in validate_descriptor(policy))


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
