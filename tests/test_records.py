"""Which methods the dataclass decorator generates for each capsim record.

The decorator ``exec``s each method it generates when its module is
imported, so start-up pays for every one of them. A record is
``@dataclass(slots=True, eq=False, repr=False)``: ``__init__`` only. The
records in ``KEEPS`` also keep ``__eq__``, and three of them stay frozen
because something hashes them by value; each names the code that needs it.
Records that are not frozen are still never written once built:
tests/test_golden.py checks that over whole runs.

A record the run path builds per request or per candidate is built with
positional arguments, in its field order, since CPython matches each keyword
of a generated ``__init__`` by name. ``POSITIONAL`` pins that order, so a
field added or moved fails here by name instead of shifting every argument
after it at those call sites.
"""

from dataclasses import fields

import pytest
from conftest import capsim_records

# Record: (keeps __eq__, frozen, the code that needs it).
KEEPS = {
    "PlanStage": (True, True, "Router.plan memoizes plans by their stage tuple, a dict key"),
    "Route": (True, True, "Router._specialise keys pricing classes by a row's routes"),
    "PolicyConstraint": (
        True,
        True,
        "the default of RequestDescriptor.policy and PolicyTemplate.policy, which must hash;"
        " compared inside RequestDescriptor",
    ),
    "ScoredPlan": (
        True,
        False,
        "reference_router.checked_select: select's plan == score's; test_routing's quiet == audited selects",
    ),
    "ExecutionPlan": (True, False, "ScoredPlan equality; test_routers_share_no_plan_state"),
    "StageProjection": (True, False, "ScoredPlan equality"),
    "StateUse": (True, False, "ScoredPlan equality"),
    "CacheEntry": (True, False, "StateUse equality (test_select_resolves_state_only_inside_the_bound)"),
    "RequestDescriptor": (True, False, "test_generation_is_deterministic; Arrival equality"),
    "Arrival": (True, False, "test_request_from_dict: a scripted request parses to its Arrival"),
    "DemandCell": (
        True,
        False,
        "DemandWindow.cells == cells_from_requests (test_demand_window_equals_regrouping_every_arrival)",
    ),
    "Rejection": (True, False, "test_routing's quiet == audited == Rejection(reason)"),
}

# Record: its init fields in order, as its positional call sites pass them.
POSITIONAL = {
    "RequestDescriptor": (
        "request_id",
        "capability_class",
        "quality_target",
        "policy",
        "affinity_token",
        "budget",
        "origin_region",
        "input_tokens",
        "output_tokens",
        "arrival_time",
        "degradable",
    ),
    "Arrival": ("request", "session_id", "turn_index", "total_turns", "prefix_tokens"),
    "PlanStage": ("node_id", "realization_id", "phase"),
    "_Half": (
        "row",
        "warm",
        "free_us",
        "kv_bytes",
        "c_load",
        "p_policy",
        "activation",
        "t_in",
        "pre_lb",
        "t_out",
        "decode_us",
        "decode_exec",
        "dec_num",
        "use",
        "wait",
        "prefill_exec",
        "t_state",
        "prefill_done_us",
        "pre_num",
    ),
    "StateUse": ("entry_node", "entry", "covered_tokens", "transfer_us", "core_bytes"),
    "StageProjection": (
        "node_id",
        "realization_id",
        "phase",
        "ready_us",
        "start_us",
        "complete_us",
        "duration_us",
        "cold",
        "warm_available_at_us",
    ),
    "ScoredPlan": (
        "plan",
        "t_net_us",
        "t_queue_us",
        "t_exec_us",
        "t_state_us",
        "c_load",
        "p_policy",
        "stages",
        "inbound_net_us",
        "interstage_net_us",
        "finish_us",
        "first_token_us",
        "decode_total_us",
        "state_use",
        "core_bytes",
        "served_quality",
        "alternatives",
    ),
    "ExecutionReceipt": (
        "request_id",
        "verdict",
        "reason",
        "plan",
        "capability_versions",
        "node_attestations",
        "cache_states_reused",
        "cache_tokens_covered",
        "t_net_us",
        "t_queue_us",
        "t_exec_us",
        "t_state_us",
        "c_load",
        "p_policy",
        "arrival_time",
        "finish_time",
        "ttft_us",
        "tpot_us",
        "core_bytes",
        "cache_lookup",
        "occupancy_us",
    ),
    "CacheEntry": (
        "state_id",
        "state_key",
        "size",
        "session_id",
        "latency_gain_us",
        "storage_cost_us",
        "token_count",
        "source_realization",
        "window",
        "pins",
    ),
    "CacheDecision": ("outcome", "value", "evicted"),
}

# Records in src/capsim, and the methods the decorator generates for them;
# 190 when every record had the decorator's defaults (frozen or not).
RECORDS = 41
GENERATED_METHODS = 62


def generated_methods(cls: type) -> int:
    """The methods the decorator ``exec``s for ``cls``, from its parameters:
    ``__init__``, ``__repr__``, ``__eq__``, four ordering methods,
    ``__setattr__`` and ``__delattr__`` when frozen, and ``__hash__`` when
    it both compares and is frozen, or is asked to."""
    p = cls.__dataclass_params__
    return p.init + p.repr + p.eq + 4 * p.order + 2 * p.frozen + ((p.eq and p.frozen) or p.unsafe_hash)


def test_only_the_records_that_need_it_compare_or_are_frozen():
    records = capsim_records()
    assert set(KEEPS) <= set(records)
    for name, cls in records.items():
        p = cls.__dataclass_params__
        eq, frozen, _ = KEEPS.get(name, (False, False, ""))
        assert (p.init, p.repr, p.eq, p.order, p.unsafe_hash, p.frozen) == (True, False, eq, False, False, frozen), name


def test_every_record_has_its_own_docstring():
    # Without one, the decorator builds one from inspect.signature(cls).
    for name, cls in capsim_records().items():
        assert cls.__doc__ and not cls.__doc__.startswith(f"{name}("), name


def test_generated_methods_are_pinned():
    records = capsim_records()
    assert len(records) == RECORDS
    assert sum(generated_methods(cls) for cls in records.values()) == GENERATED_METHODS


@pytest.mark.parametrize("name", POSITIONAL)
def test_positional_records_keep_their_field_order(name):
    assert tuple(f.name for f in fields(capsim_records()[name]) if f.init) == POSITIONAL[name]
