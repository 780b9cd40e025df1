import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from capsim.caching import CacheEntry, CacheSystem, state_key
from capsim.descriptors import (
    REASON_BUDGET_EXCEEDED,
    REASON_NO_FEASIBLE_PLAN,
    PlanPhase,
    PlanStage,
    PolicyConstraint,
    RequestDescriptor,
    Tier,
)
from capsim.engine import Simulation
from capsim.registry import Broker, CapabilityCatalog
from capsim.routing import (
    ExecutionPlan,
    Rejection,
    Router,
    RoutingWeights,
    ScoredPlan,
    StateUse,
)
from capsim.scenario import Scenario
from capsim.topology import Domain, Link, Topology, Unreachable
from capsim.trust import AttestationRecord, TrustManager
from conftest import (
    GIB,
    make_class,
    make_profile,
    make_realization,
    make_topology,
    make_variant,
    star_links,
)
from reference_router import (
    admitted_candidates,
    argmin,
    checked_select,
    combine_terms,
    feasible_plans,
    lookup,
    plan_j,
    plans_from_candidates,
    scaled_weights,
    score,
    score_enumerated,
    static_bounds,
    terms_of,
    within_tie,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's scenario generators, imported only)


def make_router(broker, weights=None, bytes_per_token=4, enable_split=True, repo=None, audit=False):
    caches = CacheSystem()
    for node_id in broker.nodes:
        caches.add_store(node_id, 64 * 1024 * 1024)
    return Router(
        broker=broker,
        topology=broker.topology,
        caches=caches,
        weights=weights or RoutingWeights(),
        bytes_per_token=bytes_per_token,
        enable_split=enable_split,
        artifact_repository=repo,
        audit=audit,
    )


def chat_request(**overrides):
    base = dict(
        request_id="q1",
        capability_class="chat",
        quality_target=1,
        policy=PolicyConstraint(),
        origin_region="metro",
        input_tokens=100,
        output_tokens=10,
        arrival_time=0,
    )
    base.update(overrides)
    return RequestDescriptor(**base)


def test_cost_combination_is_weighted_sum():
    weights = RoutingWeights()  # alpha..delta 1, epsilon/zeta 0
    assert combine_terms(weights, (5, 10, 20, 0, 3, 0)) == 35
    all_one = RoutingWeights(epsilon=Fraction(1), zeta=Fraction(1))
    assert combine_terms(all_one, (5, 10, 20, 0, 3, 0)) == 38


def test_fractional_weights_stay_exact():
    weights = RoutingWeights(alpha=Fraction(1, 3), beta=Fraction(1, 7))
    total = combine_terms(weights, (3, 7, 0, 0, 0, 0))
    assert total == Fraction(1, 1) + Fraction(1, 1)


def test_minimal_request_cost_is_setup_plus_one_decode(simple_broker):
    # Zero-delay access link, zero payload bytes: the only surviving term is
    # execution (setup + one decode step at node speed).
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    router = make_router(broker, bytes_per_token=0, enable_split=False)
    request = chat_request(input_tokens=0, output_tokens=1)
    # Replace access link delay by rebuilding a zero-delay topology.
    zero = make_topology(
        [broker.nodes["edge-1"].profile],
        [Link("l0", "region:metro", "edge-1", 0, Fraction(1000))],
        domains=[Domain("d1")],
    )
    router.topology = zero
    plan = ExecutionPlan.of((PlanStage("edge-1", "chat-v1-gpu", PlanPhase.FULL),))
    scored = router.score(plan, request, now=0, warm_flags=(True,))
    assert scored.t_net_us == 0
    assert scored.t_queue_us == 0
    assert scored.t_exec_us == 1000 + 200
    assert plan_j(router.weights, scored) == 1200


def test_warm_single_stage_cost_closed_form(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    scored_all = feasible_plans(router, chat_request(), now=0)
    mine = [s for s in scored_all if s.stages[0].node_id == "edge-1" and not s.stages[0].cold]
    assert len(mine) == 1
    scored = mine[0]
    # Inbound 500 + ceil(400/1000); outbound 500 + ceil(40/1000).
    assert scored.t_net_us == 501 + 501
    # setup + 100 prefill tokens * 50 + 10 decode tokens * 200.
    assert scored.t_exec_us == 1000 + 5000 + 2000
    assert plan_j(router.weights, scored) == 1002 + 8000


def test_speed_factor_divides_per_token_times(simple_broker):
    broker = simple_broker
    broker.install("cloud-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    plan = ExecutionPlan.of((PlanStage("cloud-1", "chat-v1-gpu", PlanPhase.FULL),))
    scored = router.score(plan, chat_request(), now=0, warm_flags=(True,))
    # cloud speed 2: prefill 100*50/2, decode 10*200/2.
    assert scored.t_exec_us == 1000 + 2500 + 1000


def test_cold_plan_pays_activation_in_exec(simple_broker):
    broker = simple_broker
    router = make_router(broker, enable_split=False, repo="cloud-1")
    plan = ExecutionPlan.of((PlanStage("edge-1", "chat-v1-gpu", PlanPhase.FULL),))
    warm = router.score(plan, chat_request(), now=0, warm_flags=(True,))
    cold = router.score(plan, chat_request(), now=0, warm_flags=(False,))
    transfer, _ = broker.topology.transfer_between("cloud-1", "edge-1", GIB)
    assert cold.t_exec_us == warm.t_exec_us + transfer + 1_000_000


def test_plan_set_matches_brute_force_enumeration(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    broker.install("cloud-1", "chat-v2-gpu", 0)
    router = make_router(broker, enable_split=True)
    request = chat_request(quality_target=1)
    plans = {tuple((s.node_id, s.realization_id, s.phase.value) for s in p.plan.stages) for p in feasible_plans(router, request, 0)}

    candidates = lookup(router, request, 1, 0)
    expected = set()
    for node_id, realization_id, _ in candidates:
        expected.add(((node_id, realization_id, "full"),))
    for pre_node, pre_rid, _ in candidates:
        for dec_node, dec_rid, _ in candidates:
            if pre_node == dec_node:
                continue
            if broker.catalog.realizations[pre_rid].variant_id != broker.catalog.realizations[dec_rid].variant_id:
                continue
            expected.add(((pre_node, pre_rid, "prefill"), (dec_node, dec_rid, "decode")))
    assert plans == expected


def test_select_picks_smaller_cost(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("cloud-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    outcome = router.select(chat_request(), now=0)
    assert isinstance(outcome, ScoredPlan)
    # Edge is closer and the exec gap does not cover two core-link crossings.
    assert outcome.stages[0].node_id == "edge-1"
    rescored = {s.plan.plan_id: plan_j(router.weights, s) for s in feasible_plans(router, chat_request(), 0)}
    assert all(within_tie(total, plan_j(router.weights, outcome)) for total in rescored.values())


def test_equal_costs_tie_to_smaller_plan_id(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    outcomes = [router.select(chat_request(), now=0) for _ in range(3)]
    plan_ids = {o.plan.plan_id for o in outcomes}
    assert len(plan_ids) == 1
    scored = feasible_plans(router, chat_request(), 0)
    tied = [s for s in scored if plan_j(router.weights, s) == plan_j(router.weights, outcomes[0])]
    assert outcomes[0].plan.plan_id == min(s.plan.plan_id for s in tied)


# Ids with the characters JSON escapes or writes as \u escapes: quotes,
# backslashes, control characters, non-ASCII and astral characters.
PLAN_ID_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()), max_size=6)


@given(st.lists(st.builds(PlanStage, PLAN_ID_TEXT, PLAN_ID_TEXT, st.sampled_from(PlanPhase)), min_size=1, max_size=2))
@example([PlanStage("edge-1", "chat-v1-gpu", PlanPhase.PREFILL), PlanStage('a"\\', "\u00e9\x01", PlanPhase.DECODE)])
def test_plan_id_hashes_the_json_of_its_stages(stages):
    """A plan id is pinned to its JSON definition, on which the plan-id
    tie-break depends: the first 32 hex digits of the SHA-256 of the stages'
    JSON list."""
    doc = [{"node_id": s.node_id, "phase": s.phase.value, "realization_id": s.realization_id} for s in stages]
    want = hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:32]
    assert ExecutionPlan.of(tuple(stages)).plan_id == want


def test_empty_plan_set_rejects_no_feasible_plan(simple_broker):
    router = make_router(simple_broker, enable_split=False)
    request = chat_request(policy=PolicyConstraint(min_trust=3, allowed_domains=("d1",)))
    outcome = router.select(request, now=0)
    assert isinstance(outcome, Rejection)
    assert outcome.reason == REASON_NO_FEASIBLE_PLAN


def test_over_budget_rejects_budget_exceeded(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    outcome = router.select(chat_request(budget=10), now=0)
    assert isinstance(outcome, Rejection)
    assert outcome.reason == REASON_BUDGET_EXCEEDED


def test_budget_filter_in_feasible_plans(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    affordable = feasible_plans(router, chat_request(budget=9010), now=0)
    assert {s.stages[0].node_id for s in affordable} == {"edge-1"}
    assert feasible_plans(router, chat_request(budget=10), now=0) == []


def degradable_broker():
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat", quality=1))
    catalog.add_variant(make_variant("chat-v2", "chat", quality=2))
    catalog.add_realization(make_realization("chat-v1-gpu", "chat-v1"))
    # The stronger variant only runs on an accelerator nobody has.
    catalog.add_realization(make_realization("chat-v2-tpu", "chat-v2", accelerator="tpu"))
    profiles = [make_profile("edge-1"), make_profile("edge-2")]
    trust = TrustManager()
    for p in profiles:
        trust.attest(AttestationRecord(p.node_id, p.trust, 0, None))
    broker = Broker(catalog, make_topology(profiles, star_links("metro", ["edge-1", "edge-2"])), trust=trust)
    for p in profiles:
        broker.register_node(p)
    broker.install("edge-1", "chat-v1-gpu", 0)
    return broker


def test_degradation_ladder_steps_down_one_quality_tier():
    router = make_router(degradable_broker(), enable_split=False)
    offered = chat_request(quality_target=2, degradable=True)
    outcome = router.select(offered, now=0)
    assert isinstance(outcome, ScoredPlan)
    assert outcome.served_quality == 1 < offered.quality_target


def test_non_degradable_request_rejected_instead():
    router = make_router(degradable_broker(), enable_split=False)
    outcome = router.select(chat_request(quality_target=2, degradable=False), now=0)
    assert isinstance(outcome, Rejection)
    assert outcome.reason == REASON_NO_FEASIBLE_PLAN


def test_admission_capped_node_excluded(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    edge1 = broker.node("edge-1")
    cap = edge1.profile.admission_cap
    for _ in range(cap):
        edge1.reserve("chat-v1-gpu", ready_us=10_000, duration_us=1000)
    assert edge1.queue_length(0) >= cap
    outcome = router.select(chat_request(), now=0)
    assert isinstance(outcome, ScoredPlan)
    assert outcome.stages[0].node_id == "edge-2"


def _plant_affinity_state(router, broker, node_id, request, tokens=64):
    rid = "chat-v1-gpu"
    key = router.state_key_for(rid, request)
    session = request.affinity_token.split(":")[0]
    store = router.caches.store(node_id)
    entry = CacheEntry("st-planted", key, tokens * 256, session, 10_000, token_count=tokens, source_realization=rid)
    decision = store.admit(entry, (1, 2), now=0, node_trust=3, requester_min_trust=request.policy.min_trust)
    assert decision.admitted


def test_state_local_to_plan_node_costs_nothing(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    request = chat_request(affinity_token="sess-1:deadbeef")
    _plant_affinity_state(router, broker, "edge-1", request, tokens=64)
    scored = feasible_plans(router, request, 0)
    at_holder = [s for s in scored if s.stages[0].node_id == "edge-1" and not s.stages[0].cold][0]
    assert at_holder.t_state_us == 0
    assert at_holder.state_use.covered_tokens == 64
    # Covered prefill tokens are skipped in the execution term.
    assert at_holder.t_exec_us == 1000 + (100 - 64) * 50 + 2000


@pytest.mark.parametrize(
    "tokens, migrates",
    [
        (64, True),  # 1,000 µs of delay plus 17 µs of bytes beat 64 x 50 µs of prefill
        (16, False),  # 16 x 50 µs of prefill beat 1,000 µs of delay
    ],
    ids=["cheaper-migration", "cheaper-recompute"],
)
def test_remote_state_is_reused_only_when_it_migrates(simple_broker, tokens, migrates):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    request = chat_request(affinity_token="sess-1:deadbeef")
    _plant_affinity_state(router, broker, "edge-2", request, tokens=tokens)
    scored = feasible_plans(router, request, 0)
    remote = [s for s in scored if s.stages[0].node_id == "edge-1" and not s.stages[0].cold][0]
    migrate_us, core = broker.topology.transfer_between("edge-2", "edge-1", tokens * 256)
    assert (migrate_us < tokens * 50) == migrates
    if migrates:
        assert remote.state_use == StateUse("edge-2", remote.state_use.entry, tokens, migrate_us, core)
        assert (remote.t_state_us, remote.t_exec_us) == (migrate_us, 1000 + (100 - tokens) * 50 + 2000)
        assert remote.stages[0].ready_us == remote.inbound_net_us + migrate_us
    else:
        assert (remote.state_use, remote.t_state_us, remote.t_exec_us) == (None, 0, 1000 + 100 * 50 + 2000)


@pytest.mark.parametrize("min_trust, lapsed", [(0, True), (3, False)], ids=["lapsed", "below-min-trust"])
def test_a_holder_below_the_trust_floor_hands_over_no_state(simple_broker, min_trust, lapsed):
    # cloud-1 prefills 1,000 tokens in 25,000 µs; edge-2's state migrates
    # there in 21,280 µs, unless edge-2's attestation has lapsed or its trust
    # of 2 is below the request's floor.
    broker = simple_broker
    router = make_router(broker, enable_split=False)
    request = chat_request(affinity_token="sess-1:deadbeef", input_tokens=1000)
    _plant_affinity_state(router, broker, "edge-2", request, tokens=1000)
    cloud, realization = broker.node("cloud-1"), broker.catalog.realizations["chat-v1-gpu"]
    assert router._resolve_state(request, cloud, realization, 100).transfer_us == 21_280
    if lapsed:
        broker.trust.attest(AttestationRecord("edge-2", 2, 50, 10))
    request = replace(request, policy=PolicyConstraint(min_trust=min_trust))
    assert router._resolve_state(request, cloud, realization, 100) is None


def test_affinity_prefers_the_holder_node(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    request = chat_request(affinity_token="sess-1:deadbeef")
    _plant_affinity_state(router, broker, "edge-2", request, tokens=64)
    outcome = router.select(request, now=0)
    assert outcome.stages[0].node_id == "edge-2"


def test_weight_rescaling_leaves_selection_unchanged(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("cloud-1", "chat-v1-gpu", 0)
    broker.install("cloud-1", "chat-v2-gpu", 0)
    base = RoutingWeights(epsilon=Fraction(1), zeta=Fraction(1), kappa=Fraction(500), pi_soft=100)
    router = make_router(broker, weights=base)
    router10 = make_router(broker, weights=scaled_weights(base, 10))
    for tokens in (10, 100, 400, 1000):
        request = chat_request(request_id=f"q-{tokens}", input_tokens=tokens)
        a = router.select(request, now=0)
        b = router10.select(request, now=0)
        assert isinstance(a, ScoredPlan) and isinstance(b, ScoredPlan)
        assert a.plan.plan_id == b.plan.plan_id
        assert plan_j(router10.weights, b) == plan_j(router.weights, a) * 10


def test_unreachable_node_is_not_a_plan():
    # A registered, qualifying node with no route from the origin must be
    # skipped, not crash the selection.
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat"))
    catalog.add_realization(make_realization("chat-v1-gpu", "chat-v1"))
    profiles = [make_profile("edge-1"), make_profile("island-1")]
    broker = Broker(catalog, make_topology(profiles, star_links("metro", ["edge-1"])))
    for p in profiles:
        broker.register_node(p)
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("island-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    outcome = router.select(chat_request(), now=0)
    assert isinstance(outcome, ScoredPlan)
    assert outcome.stages[0].node_id == "edge-1"
    assert {s.stages[0].node_id for s in feasible_plans(router, chat_request(), 0)} == {"edge-1"}


def test_budget_blocked_quality_degrades_to_affordable_tier(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-1", "chat-v2-gpu", 0)
    router = make_router(broker, enable_split=False)
    # Tier-2 service costs ~26k (setup 2000 + 100*120 + 10*500 + net); tier 1
    # fits inside the budget.
    request = chat_request(quality_target=2, budget=15_000, degradable=True)
    outcome = router.select(request, now=0)
    assert isinstance(outcome, ScoredPlan)
    assert outcome.served_quality == 1 < request.quality_target
    strict = router.select(chat_request(quality_target=2, budget=15_000, degradable=False), now=0)
    assert isinstance(strict, Rejection) and strict.reason == REASON_BUDGET_EXCEEDED


def test_capped_decode_node_removes_split_plans(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=True)
    edge2 = broker.node("edge-2")
    for _ in range(edge2.profile.admission_cap):
        edge2.reserve("chat-v1-gpu", ready_us=10_000, duration_us=1000)
    outcome = router.select(chat_request(), now=0)
    assert isinstance(outcome, ScoredPlan)
    assert all(s.node_id != "edge-2" for s in outcome.stages)


def test_soft_preference_misses_priced_not_enforced(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    weights = RoutingWeights(zeta=Fraction(1), pi_soft=7000)
    router = make_router(broker, weights=weights, enable_split=False)
    preferring = chat_request(policy=PolicyConstraint(preferred_domains=("d-core",)))
    scored = [s for s in feasible_plans(router, preferring, 0) if s.stages[0].node_id == "edge-1"][0]
    # edge-1 is outside the preferred domain: one soft miss, plan still feasible.
    assert scored.p_policy == 7000
    indifferent = chat_request()
    neutral = [s for s in feasible_plans(router, indifferent, 0) if s.stages[0].node_id == "edge-1"][0]
    assert neutral.p_policy == 0


def test_quadratic_load_penalty_grows_with_outstanding_work(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    weights = RoutingWeights(epsilon=Fraction(1), kappa=Fraction(1000))
    router = make_router(broker, weights=weights, enable_split=False)
    plan = ExecutionPlan.of((PlanStage("edge-1", "chat-v1-gpu", PlanPhase.FULL),))
    idle = router.score(plan, chat_request(), now=0, warm_flags=(True,))
    node = broker.node("edge-1")
    node.reserve("chat-v1-gpu", ready_us=0, duration_us=50_000)
    busy = router.score(plan, chat_request(), now=0, warm_flags=(True,))
    # One outstanding stage over max_concurrent 2: 1000 * 1/4 = 250.
    assert idle.c_load == 0
    assert busy.c_load == 250


# -- differential check: half scoring against exhaustive enumeration ----------

WEIGHT_VALUES = st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3), Fraction(2, 7)])
EDGES = ("edge-1", "edge-2", "edge-3")
NODES = EDGES + ("cloud-1", "island-1")  # island-1 has no links at all
REALIZATIONS = (("chat-v1-gpu", "chat-v1"), ("chat-v1-alt", "chat-v1"), ("chat-v2-gpu", "chat-v2"))


@st.composite
def router_states(draw):
    """A router over random reservations, residency, session state, weights and a request."""
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat", quality=1, preferred_trust=draw(st.integers(0, 3))))
    catalog.add_variant(make_variant("chat-v2", "chat", quality=2))
    for rid, vid in REALIZATIONS:
        catalog.add_realization(
            make_realization(
                rid,
                vid,
                prefill=draw(st.integers(1, 120)),
                decode=draw(st.integers(1, 500)),
                setup=draw(st.integers(0, 1000)),
                kv_bytes=draw(st.sampled_from([0, 64, 256])),
                load_time=draw(st.integers(0, 50_000)),
            )
        )
    # A node that would often win, as a single-node plan or a decode half, but
    # is at its admission cap: the fastest speed, chat-v1-gpu warm, and a
    # queue of tiny stages that barely delay a new one.
    capped = draw(st.sampled_from([None, None, *NODES]))
    profiles = [
        make_profile(
            node_id,
            domain_id="d-core" if node_id == "cloud-1" else "d1",
            region="core" if node_id == "cloud-1" else "metro",
            tier=Tier.CLOUD if node_id == "cloud-1" else Tier.EDGE,
            speed="4" if node_id == capped else draw(st.sampled_from(["1", "3/2", "4"])),
            memory=8 * GIB if node_id == capped else draw(st.sampled_from([GIB, 8 * GIB, 8 * GIB])),
            max_concurrent=draw(st.integers(1, 3)),
            admission_cap=draw(st.integers(1, 6)),
            trust=draw(st.integers(1, 3)),
        )
        for node_id in NODES
    ]
    links = star_links("metro", list(EDGES), delay=draw(st.integers(0, 2000))) + [
        Link(f"l-{e}-c", e, "cloud-1", draw(st.integers(0, 30_000)), Fraction(draw(st.integers(50, 500))), is_core=True)
        for e in EDGES
    ]
    links.append(Link("l-e1-e2", "edge-1", "edge-2", draw(st.integers(0, 3000)), Fraction(1000)))
    trust = TrustManager()
    for p in profiles:
        trust.attest(AttestationRecord(p.node_id, p.trust - draw(st.integers(0, 1)), 0, None))
    broker = Broker(catalog, make_topology(profiles, links, domains=[Domain("d1"), Domain("d-core")]), trust=trust)
    for p in profiles:
        broker.register_node(p)

    now = draw(st.integers(0, 20_000))
    for node_id in NODES:
        for rid, _ in REALIZATIONS:
            residency = draw(st.sampled_from(["cold", "warm", "warm", "loading", "draining"]))
            if node_id == capped and rid == "chat-v1-gpu":
                residency = "warm"
            if residency == "cold" or broker.free_memory(node_id) < broker.footprint(rid):
                continue
            broker.install(node_id, rid, now + 1 if residency == "loading" else 0)
            broker.mark_eviction(node_id, rid, residency == "draining")
        for _ in range(draw(st.integers(0, 4))):
            broker.node(node_id).reserve(
                "chat-v1-gpu", ready_us=draw(st.integers(0, 40_000)), duration_us=draw(st.integers(1, 30_000))
            )
    if capped is not None:
        fill_admission_queue(broker.node(capped), now)

    weights = RoutingWeights(
        alpha=draw(WEIGHT_VALUES),
        beta=draw(WEIGHT_VALUES),
        gamma=draw(WEIGHT_VALUES),
        delta=draw(WEIGHT_VALUES),
        epsilon=draw(st.sampled_from([Fraction(0), Fraction(1)])),
        zeta=draw(st.sampled_from([Fraction(0), Fraction(1)])),
        kappa=draw(st.sampled_from([Fraction(0), Fraction(1000)])),
        pi_soft=draw(st.sampled_from([0, 500])),
        tie_eps=draw(st.sampled_from([Fraction(1, 10**9), Fraction(1, 50)])),
    )
    router = make_router(
        broker,
        weights=weights,
        enable_split=draw(st.booleans()),
        repo=draw(st.sampled_from([None, "cloud-1", "island-1"])),
        audit=draw(st.booleans()),  # an auditing router prices every split, a quiet one skips some
    )

    affinity = draw(st.sampled_from([None, "sess-1:abc", "sess-2:def"]))
    request = chat_request(
        quality_target=draw(st.integers(1, 2)),
        degradable=draw(st.booleans()),
        budget=draw(st.sampled_from([None, None, 0, 20_000, 100_000, 2_000_000])),
        input_tokens=draw(st.integers(0, 300)),
        output_tokens=draw(st.integers(1, 400)),
        affinity_token=affinity,
        policy=PolicyConstraint(
            min_trust=draw(st.integers(0, 1)),
            preferred_domains=draw(st.sampled_from([None, ("d-core",), ("d1",)])),
        ),
        arrival_time=now,
    )
    if affinity is not None:
        session, _, _ = affinity.partition(":")
        holders = draw(st.lists(st.sampled_from(NODES), unique=True, max_size=4))
        for node_id in holders:
            rid = draw(st.sampled_from([r for r, _ in REALIZATIONS]))
            # Fewer, as many or more tokens than the prompt: reuse covers at most the prompt.
            tokens = max(1, request.input_tokens + draw(st.integers(-300, 100)))
            entry = CacheEntry(
                f"st-{node_id}",
                router.state_key_for(rid, request),
                tokens * 256,
                session,
                10_000_000,
                token_count=tokens,
                source_realization=rid,
            )
            router.caches.store(node_id).admit(
                entry, (1, 2), now=0, node_trust=3, requester_min_trust=request.policy.min_trust
            )
        if holders and draw(st.booleans()):
            # An offline holder's state is not reused, though its tokens count in the prefill bound.
            broker.set_online(draw(st.sampled_from(holders)), False)
    return router, request, now


def fill_admission_queue(node, now):
    """Reserve stages of 1 µs, each starting after ``now``, until ``node`` is
    at its admission cap."""
    while node.queue_length(now) < node.profile.admission_cap:
        node.reserve("chat-v1-gpu", ready_us=now + 1, duration_us=1)


def scored_or_unreachable(score_plan, *args):
    try:
        return score_plan(*args)
    except Unreachable:
        return "unreachable"


def exhaustive_select(router, request, now):
    """The ladder over full enumeration: every plan scored, Fraction argmin."""
    quality = request.quality_target
    saw_budget_only = False
    while quality >= 1:
        candidates = admitted_candidates(router, request, quality, now)
        scored = score_enumerated(router, request, candidates, now)
        within = [s for s in scored if request.budget is None or plan_j(router.weights, s) <= request.budget]
        if within:
            alternatives = sorted((s.plan.plan_id, terms_of(s)) for s in scored)
            return argmin(within, router.weights), quality, tuple(alternatives)
        saw_budget_only = saw_budget_only or bool(scored)
        if not (request.degradable and quality > 1):
            break
        quality -= 1
    return REASON_BUDGET_EXCEEDED if saw_budget_only else REASON_NO_FEASIBLE_PLAN


def edge_router(edges, audit=False, tie_eps=Fraction(1, 10**9), setup=1000, kv_bytes=256, weights=None):
    """A split-enabled router over warm edges, given as (speed, gateway delay)
    pairs, behind one metro gateway and all serving one realization."""
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat"))
    catalog.add_realization(make_realization("chat-v1-gpu", "chat-v1", setup=setup, kv_bytes=kv_bytes))
    profiles = [make_profile(f"edge-{i}", speed=speed) for i, (speed, _) in enumerate(edges, 1)]
    links = [
        Link(f"l-gw-{p.node_id}", "region:metro", p.node_id, delay, Fraction(1000)) for p, (_, delay) in zip(profiles, edges)
    ]
    broker = Broker(catalog, make_topology(profiles, links))
    for p in profiles:
        broker.register_node(p)
        broker.install(p.node_id, "chat-v1-gpu", 0)
    return make_router(broker, weights=weights or RoutingWeights(tie_eps=tie_eps), audit=audit)


def held_prefix_state():
    """edge-1 is slow but holds the session's whole prompt in a 48 MiB state
    that costs more to migrate than to recompute, so prefilling there and
    decoding on a fast edge beats every single-node plan. The fast edges sit
    40 µs apart, so five splits fall inside a 1/50 window of the best one,
    and the tie-break picks the second."""
    edges = [("1/4", 0)] + [("4", delay) for delay in (0, 40, 80, 120, 160)]
    router = edge_router(edges, tie_eps=Fraction(1, 50), setup=0, kv_bytes=0)
    request = chat_request(affinity_token="sess-1:abc", output_tokens=400)
    entry = CacheEntry(
        "st-edge-1",
        router.state_key_for("chat-v1-gpu", request),
        48 << 20,
        "sess-1",
        10_000_000,
        token_count=request.input_tokens,
        source_realization="chat-v1-gpu",
    )
    assert router.caches.store("edge-1").admit(entry, (1, 2), now=0, node_trust=3).admitted
    return router, request, 0


def loaded_tie_state():
    """Three equal edges 0, 10 and 20 µs from the gateway. edge-2 runs a long
    stage on one of its two servers: it waits for nothing, but its load
    penalty puts it outside the 1/50 tie window that edge-3 is still inside,
    and the tie-break picks edge-3. By static bounds, edge-2 comes first."""
    weights = RoutingWeights(epsilon=Fraction(1), kappa=Fraction(100_000), tie_eps=Fraction(1, 50))
    router = edge_router([("1", delay) for delay in (0, 10, 20)], weights=weights)
    router.broker.node("edge-2").reserve("chat-v1-gpu", ready_us=0, duration_us=10**9)
    return router, chat_request(), 0


# Six identical edges with free set-up and no KV bytes: every split costs
# exactly its single-node plan, so all 36 plans tie and the plan_id tie-break
# decides among them; the slow seventh edge's pairs are skipped.
@example((edge_router([("1", 0)] * 6 + [("1/4", 0)], setup=0, kv_bytes=0), chat_request(), 0))
@example(held_prefix_state())
@example(loaded_tie_state())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(router_states())
def test_half_scoring_select_matches_exhaustive_enumeration(state):
    router, request, now = state
    candidates = admitted_candidates(router, request, request.quality_target, now)
    stateless = replace(request, affinity_token=None)
    for plan, warm_flags in plans_from_candidates(router, candidates):
        args = (plan, request, now, warm_flags)
        assert scored_or_unreachable(router.score, *args) == scored_or_unreachable(score, router, *args)
        if warm_flags == (True,):
            # Placement's view of the plan: an idle, penalty-free node.
            idle = scored_or_unreachable(score, router, plan, stateless, now, warm_flags, True)
            stage = plan.stages[0]
            cost = router.idle_cost(stateless, router.broker.node(stage.node_id), stage.realization_id)
            expected = None if idle == "unreachable" else plan_j(router.weights, idle)
            assert (None if cost is None else Fraction(cost, router._scale)) == expected
    expected = exhaustive_select(router, request, now)
    outcome = router.select(request, now)
    if isinstance(expected, str):
        assert isinstance(outcome, Rejection) and outcome.reason == expected
        return
    best, quality, alternatives = expected
    assert isinstance(outcome, ScoredPlan)
    assert outcome.plan.plan_id == best.plan.plan_id
    assert outcome == best
    assert outcome.served_quality == quality
    assert outcome.alternatives == (alternatives if router.audit else ())


@pytest.mark.parametrize("phase", [PlanPhase.FULL, PlanPhase.DECODE])
def test_a_node_at_its_admission_cap_is_dropped_where_it_would_win(phase):
    if phase is PlanPhase.FULL:
        router, request, now = edge_router([("4", 0), ("1", 0), ("1", 40)]), chat_request(), 0
    else:
        router, request, now = held_prefix_state()
    node_id = next(s.node_id for s in router.select(request, now).plan.stages if s.phase is phase)
    fill_admission_queue(router.broker.node(node_id), now)
    # Without the cap it would still win: the queued stages delay it by a few µs.
    uncapped = argmin(score_enumerated(router, request, lookup(router, request, 1, now), now), router.weights)
    assert node_id in {s.node_id for s in uncapped.plan.stages}
    outcome = router.select(request, now)
    assert node_id not in {s.node_id for s in outcome.plan.stages}
    best, _, _ = exhaustive_select(router, request, now)
    assert outcome == best


TIE_EPS_VALUES = (Fraction(1, 10**9), Fraction(1, 50))


def single_plan_id(node_id):
    return ExecutionPlan.of((PlanStage(node_id, "chat-v1-gpu", PlanPhase.FULL),)).plan_id


def lowest_single_plan_edge(router):
    """The edge whose single-node plan has the smallest plan id: it wins every exact tie of singles."""
    return min(router.broker.nodes, key=single_plan_id)


def by_single_plan_id(k):
    """The indexes of ``edge_router``'s k edges, by their single-node plan ids."""
    return sorted(range(k), key=lambda i: single_plan_id(f"edge-{i + 1}"))


@st.composite
def tied_edge_states(draw):
    """2-8 identical edges under random reservations and session state, the
    edge that wins exact single-node ties perhaps at its admission cap, splits
    on or off, and a budget share: None, or where in the tie window of the
    unbudgeted best J the budget falls (-1 below it, 0 at the best J itself).
    The edge with the largest plan id may sit ``spread`` µs nearer the
    gateway, so that the search prices it first and then refines the others
    only while their bounds stay inside its tie window."""
    k = draw(st.integers(2, 8))
    speed, delay = draw(st.sampled_from(["1", "3/2", "4"])), draw(st.one_of(st.just(0), st.integers(0, 2000)))
    spread = draw(st.sampled_from([0, 0, 10, 60]))
    nearest = by_single_plan_id(k)[-1]
    router = edge_router(
        [(speed, delay if i == nearest else delay + spread) for i in range(k)],
        tie_eps=draw(st.sampled_from(TIE_EPS_VALUES)),
        setup=draw(st.sampled_from([0, 1000])),
        kv_bytes=draw(st.sampled_from([0, 256])),
    )
    router.enable_split = draw(st.booleans())
    now = draw(st.integers(0, 20_000))
    for node_id in router.broker.nodes:
        for _ in range(draw(st.integers(0, 2))):
            router.broker.node(node_id).reserve(
                "chat-v1-gpu", ready_us=draw(st.integers(0, 40_000)), duration_us=draw(st.integers(1, 30_000))
            )
    if draw(st.booleans()):
        fill_admission_queue(router.broker.node(lowest_single_plan_edge(router)), now)
    request = chat_request(
        input_tokens=draw(st.integers(0, 300)),
        output_tokens=draw(st.integers(1, 400)),
        affinity_token=draw(st.sampled_from([None, "sess-1:abc"])),
        arrival_time=now,
    )
    if request.affinity_token is not None and draw(st.booleans()):
        holder = draw(st.sampled_from(sorted(router.broker.nodes)))
        _plant_affinity_state(router, router.broker, holder, request, tokens=max(1, request.input_tokens))
    return router, request, now, draw(st.sampled_from([None, Fraction(-1), Fraction(0), Fraction(1, 2)]))


def spread_tie_state(delays, busy=None, budget_share=None):
    """Idle edges ranked by their single-node plan ids, with ``delays[r]`` the
    gateway delay of the edge of rank r; the one of rank ``busy`` runs a long
    stage on both its servers. The 1/50 tie window of the nearest edge then
    holds the edges up to 80 µs farther."""
    order = by_single_plan_id(len(delays))
    rank = {i: r for r, i in enumerate(order)}
    router = edge_router([("1", delays[rank[i]]) for i in range(len(delays))], tie_eps=Fraction(1, 50))
    router.enable_split = False
    if busy is not None:
        for _ in range(2):
            router.broker.node(f"edge-{order[busy] + 1}").reserve("chat-v1-gpu", ready_us=0, duration_us=10**6)
    return router, chat_request(), 0, budget_share


# With free set-up and no KV bytes every split ties its single-node plan, so
# once the first single is priced the search goes on to price the splits
# whose plan ids are below its own.
@example((edge_router([("1", 0)] * 4, setup=0, kv_bytes=0), chat_request(), 0, None))
# The nearest edge has the largest plan id, so the search prices it first and
# the other two after it, their bounds inside its window and their plan ids
# below its own. Halfway into the window the budget admits the edge 10 µs
# farther, but not the one 60 µs farther, whose plan id is smaller still.
@example(spread_tie_state([60, 10, 0], budget_share=Fraction(1, 2)))
# The edge with the smallest plan id has a static bound inside the window, but
# its busy servers' wait puts its priced J outside it, so the tie-break goes
# on to the next one.
@example(spread_tie_state([10, 10, 0], busy=0))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tied_edge_states())
def test_tied_edges_select_as_the_auditing_router_and_full_enumeration(state):
    assert_quiet_select_as_auditing_and_exhaustive(*state)


def assert_quiet_select_as_auditing_and_exhaustive(router, request, now, budget_share):
    """The router's select, an auditing router's over the same state and
    ``exhaustive_select`` agree, with the request's budget, if
    ``budget_share`` is not None, that far into the tie window of the
    unbudgeted best J."""
    unbudgeted = exhaustive_select(router, request, now)
    if budget_share is not None and not isinstance(unbudgeted, str):
        least = min(combine_terms(router.weights, terms) for _, terms in unbudgeted[2])
        request = replace(request, budget=math.floor(least * (1 + router.weights.tie_eps * budget_share)))
    auditor = Router(
        broker=router.broker,
        topology=router.topology,
        caches=router.caches,
        weights=router.weights,
        enable_split=router.enable_split,
        audit=True,
    )
    expected = exhaustive_select(router, request, now)
    quiet, audited = router.select(request, now), auditor.select(request, now)
    if isinstance(expected, str):
        assert quiet == audited == Rejection(expected)
        return
    best, quality, _ = expected
    assert quiet == audited == best
    assert quiet.served_quality == audited.served_quality == quality == request.quality_target


CLONE_STATES = ("warm", "warm", "busy", "offline", "cold", "capped", "holder")


@st.composite
def clone_states(draw):
    """2-8 identical edges, one pricing class, each member in a drawn state:
    warm and idle, warm behind a reservation, offline, not installed (so
    cold), at its admission cap, or holding the session's state; splits on
    or off, perhaps a load penalty, and a budget share as in
    ``tied_edge_states``."""
    k = draw(st.integers(2, 8))
    weights = draw(
        st.sampled_from(
            [
                RoutingWeights(tie_eps=Fraction(1, 10**9)),
                RoutingWeights(tie_eps=Fraction(1, 50)),
                RoutingWeights(epsilon=Fraction(1), kappa=Fraction(100_000), tie_eps=Fraction(1, 50)),
            ]
        )
    )
    router = edge_router(
        [(draw(st.sampled_from(["1", "4"])), draw(st.sampled_from([0, 500])))] * k,
        setup=draw(st.sampled_from([0, 1000])),
        kv_bytes=draw(st.sampled_from([0, 256])),
        weights=weights,
    )
    router.enable_split = draw(st.booleans())
    now = draw(st.integers(0, 20_000))
    request = chat_request(
        input_tokens=draw(st.integers(0, 300)),
        output_tokens=draw(st.integers(1, 400)),
        affinity_token=draw(st.sampled_from([None, "sess-1:abc"])),
        arrival_time=now,
    )
    broker = router.broker
    for node_id in sorted(broker.nodes):
        state = draw(st.sampled_from(CLONE_STATES))
        node = broker.node(node_id)
        if state == "busy":
            node.reserve("chat-v1-gpu", ready_us=draw(st.integers(0, 40_000)), duration_us=draw(st.integers(1, 30_000)))
        elif state == "offline":
            broker.set_online(node_id, False)
        elif state == "cold":
            broker.evict(node_id, "chat-v1-gpu")
        elif state == "capped":
            fill_admission_queue(node, now)
        elif state == "holder" and request.affinity_token is not None:
            tokens = max(1, request.input_tokens + draw(st.integers(-300, 100)))
            _plant_affinity_state(router, broker, node_id, request, tokens=tokens)
    return router, request, now, draw(st.sampled_from([None, Fraction(-1), Fraction(0), Fraction(1, 2)]))


def cold_clone_state(k, cold):
    """k idle clones, the one of rank ``cold`` by single-node plan id not installed."""
    router = edge_router([("1", 0)] * k)
    router.broker.evict(f"edge-{by_single_plan_id(k)[cold] + 1}", "chat-v1-gpu")
    return router, chat_request(), 0, None


# The clone with the least plan id is cold: the warm group starts at the next.
@example(cold_clone_state(5, 0))
@example(cold_clone_state(5, 2))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(clone_states())
def test_identical_clones_select_as_the_auditing_router_and_full_enumeration(state):
    assert_quiet_select_as_auditing_and_exhaustive(*state)


def test_one_router_follows_its_hits_from_select_to_select():
    """A router keeps each group's lead between selects while the hits
    repeat; once a node goes offline, is evicted or comes back, the next
    select sees the new hits."""
    router = edge_router([("1", 0)] * 4)
    broker = router.broker
    ranked = [f"edge-{i + 1}" for i in by_single_plan_id(4)]

    def chosen():
        outcome = router.select(chat_request(), now=0)
        assert outcome == exhaustive_select(router, chat_request(), 0)[0]
        return [s.node_id for s in outcome.plan.stages]

    assert chosen() == chosen() == ranked[:1]
    broker.set_online(ranked[0], False)
    assert chosen() == ranked[1:2]
    broker.evict(ranked[1], "chat-v1-gpu")
    assert chosen() == ranked[2:3]
    broker.set_online(ranked[0], True)
    assert chosen() == ranked[:1]


HOLDER_NODES = ["edge-1", "edge-2", "edge-3"]
HOLDER_TRUST = {"edge-1": 3, "edge-2": 1}  # edge-3 is never attested: trust 0
HOLDER_SESSIONS = ["sess-1", "sess-2"]
HOLDER_REALIZATIONS = ["chat-v1-gpu", "chat-v2-gpu"]

HOLDER_OPS = st.lists(
    st.tuples(
        st.sampled_from(["admit", "admit", "drop_session", "drop_here", "revoke", "remove", "pin", "toggle"]),
        st.sampled_from(HOLDER_NODES),
        st.sampled_from(HOLDER_SESSIONS),
        st.sampled_from(HOLDER_REALIZATIONS),
        st.integers(1, 4),  # entry size; it holds ten tokens per unit
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(HOLDER_OPS)
# The holder covering the most tokens goes, and the most falls to the other's.
@example(
    [
        ("admit", "edge-1", "sess-1", "chat-v1-gpu", 3),
        ("admit", "edge-2", "sess-1", "chat-v1-gpu", 1),
        ("remove", "edge-1", "sess-1", "chat-v1-gpu", 1),
    ]
)
def test_kept_holders_match_a_fresh_read_of_the_caches(ops):
    """The cache system's holder index stays exact. After any sequence of
    admissions (some displacing another session's entry), session drops
    system-wide or on one store alone, revocations, removals, pins and
    liveness flips, ``CacheSystem.holders`` equals a scan of every store in
    node-id order with the most tokens one of them covers, and the router
    reads just that. State resolved for an online prefill node is never an
    offline holder's, nor a remote holder's below the request's trust floor."""
    router = edge_router([("1", 0)] * len(HOLDER_NODES))
    broker = router.broker
    broker.trust = TrustManager()
    for node_id, level in HOLDER_TRUST.items():
        broker.trust.attest(AttestationRecord(node_id, level, 0, None))
    caches = router.caches = CacheSystem()
    for node_id in HOLDER_NODES:
        caches.add_store(node_id, 6)  # a few entries each, so admissions displace
    realizations = {rid: make_realization(rid, "chat-v1") for rid in HOLDER_REALIZATIONS}

    def scan(key, session):
        holders = tuple((n, e) for n in sorted(HOLDER_NODES) if (e := caches.store(n).peek(key, session)) is not None)
        return holders, max((e.token_count for _, e in holders), default=0)

    def check_all(now):
        for session in HOLDER_SESSIONS:
            for rid in HOLDER_REALIZATIONS:
                holders, top = caches.holders(state_key(rid, "abc"), session)
                assert (holders, top) == scan(state_key(rid, "abc"), session)
                for input_tokens, min_trust in ((15, 0), (100, 2)):
                    request = chat_request(
                        affinity_token=f"{session}:abc",
                        input_tokens=input_tokens,
                        policy=PolicyConstraint(min_trust=min_trust),
                    )
                    assert router._holders(request, rid, {}) == (holders, min(input_tokens, top))
                    for prefill in HOLDER_NODES:
                        if not broker.node(prefill).online:
                            continue  # a candidate is online
                        use = router._resolve_state(request, broker.node(prefill), realizations[rid], now)
                        if use is None:
                            continue
                        assert (use.entry_node, use.entry) in holders
                        holder = broker.node(use.entry_node)
                        assert holder.online
                        assert use.entry_node == prefill or broker.effective_trust(holder, now) >= max(1, min_trust)

    for now, (op, node_id, session, rid, size) in enumerate(ops):
        store = caches.store(node_id)
        key = state_key(rid, "abc")
        if op == "admit":
            entry = CacheEntry(
                f"st-{now}", key, size, session, 100 * (now % 5 + 1), token_count=10 * size, source_realization=rid
            )
            store.admit(entry, (1, 2), now)
        elif op == "drop_session":  # as the engine ends a session
            caches.drop_session(session)
            assert session not in caches._index
        elif op == "drop_here":
            store.drop_session(session)
        elif op == "revoke":
            caches.drop_by_realization(rid)
        elif op == "remove":
            store.remove(store.entry_key(key, session))
        elif op == "pin":  # a pinned entry outlives a revocation
            entry = store.peek(key, session)
            if entry is not None:
                entry.pins = 1 - entry.pins
        else:
            broker.set_online(node_id, not broker.node(node_id).online)
        check_all(now)
    # The index holds only sessions and keys with a holder.
    assert all(by_key and all(holders for holders, _ in by_key.values()) for by_key in caches._index.values())


def test_tied_idle_edges_build_at_most_two_halves():
    for k in range(2, 9):
        for tie_eps in TIE_EPS_VALUES:
            for split in (False, True):
                router = edge_router([("1", 100)] * k, tie_eps=tie_eps)
                router.enable_split = split
                outcome = router.select(chat_request(), now=0)
                assert [s.node_id for s in outcome.plan.stages] == [lowest_single_plan_edge(router)]
                assert outcome == exhaustive_select(router, chat_request(), 0)[0]
                assert router.halves_priced <= 2


def test_a_select_over_budget_builds_one_half():
    """The plan with the least J is the nearest edge's single-node plan;
    once it is priced over budget, so is every plan left."""
    for split in (False, True):
        router = edge_router([("1", delay) for delay in (0, 300, 600, 900, 1200)])
        router.enable_split = split
        request = chat_request(degradable=False)
        least = plan_j(router.weights, exhaustive_select(router, request, 0)[0])
        request = replace(request, budget=int(least) - 1)
        assert exhaustive_select(router, request, 0) == REASON_BUDGET_EXCEEDED
        before = router.halves_priced
        assert router.select(request, now=0) == Rejection(REASON_BUDGET_EXCEEDED)
        assert router.halves_priced - before == 1


@example(best=0, eps=Fraction(1, 10**9))
@example(best=-(10**30) - 7, eps=Fraction(1, 50))
@example(best=2**80 + 1, eps=Fraction(3, 7))
@example(best=-1, eps=Fraction(0))
@settings(max_examples=200, deadline=None)
@given(
    best=st.integers(-(2**90), 2**90),
    eps=st.fractions(min_value=0, max_value=2, max_denominator=10**12),
)
def test_tie_cut_is_the_floor_of_the_fraction_window(best, eps):
    """The integer cut equals the largest integer J with
    J <= best + |best| * eps, computed in rationals."""
    router = edge_router([("1", 0)], tie_eps=eps)
    assert router._tie_cut(best) == math.floor(best + abs(best) * eps)


def test_split_pricing_skips_pairs_above_the_tie_cut(monkeypatch):
    request = chat_request()
    transfer_between = Topology.transfer_between
    outcomes, pair_transfers = [], []
    for audit in (False, True):
        router = edge_router([(speed, 500) for speed in ("1", "3/2", "2", "1/2", "1/4", "3")], audit=audit)
        calls = []

        def counted(topology, src, dst, size):
            calls.append((src, dst))
            return transfer_between(topology, src, dst, size)

        monkeypatch.setattr(Topology, "transfer_between", counted)
        outcomes.append(router.select(request, now=0))
        pair_transfers.append(sum(src in router.broker.nodes and dst in router.broker.nodes for src, dst in calls))
    quiet, audited = outcomes
    assert quiet == audited
    assert len(audited.alternatives) == 6 * 6  # six single-node plans and every ordered pair
    assert pair_transfers[0] < pair_transfers[1]


def test_select_resolves_state_only_inside_the_bound(monkeypatch):
    resolve_state = Router._resolve_state
    resolved = []

    def counted(router, *args):
        resolved.append(router.audit)
        return resolve_state(router, *args)

    monkeypatch.setattr(Router, "_resolve_state", counted)
    outcomes = []
    for audit in (False, True):
        # edge-1 holds the whole prompt and is the closest to the origin.
        router = edge_router([("1", delay) for delay in (0, 300, 600, 900)], audit=audit)
        request = chat_request(affinity_token="sess-1:abc")
        _plant_affinity_state(router, router.broker, "edge-1", request, tokens=request.input_tokens)
        outcomes.append(router.select(request, now=0))
    quiet, audited = outcomes
    assert quiet == audited
    assert quiet.state_use.entry_node == "edge-1"
    # The quiet router stops after the holder's plan; the auditing one resolves every edge.
    assert (resolved.count(False), resolved.count(True)) == (1, 4)


def test_session_heavy_resolves_state_at_most_twice_per_select(monkeypatch):
    calls = {"select": 0, "resolve": 0}
    select, resolve_state = Router.select, Router._resolve_state

    def counted_select(router, *args):
        calls["select"] += 1
        return select(router, *args)

    def counted_resolve(router, *args):
        calls["resolve"] += 1
        return resolve_state(router, *args)

    monkeypatch.setattr(Router, "select", counted_select)
    monkeypatch.setattr(Router, "_resolve_state", counted_resolve)
    Simulation(Scenario.load(SCENARIOS / "session_heavy.json")).run()
    # Each select here has four candidates with a route from the origin.
    assert calls["select"] > 0
    assert calls["resolve"] <= 2 * calls["select"]


def scenario_named(name):
    """A shipped scenario, or one of the benchmark's workloads at seed 1."""
    if name in workloads.WORKLOADS:
        return Scenario.from_dict(workloads.WORKLOADS[name][0](ROOT, 1))
    return Scenario.load(SCENARIOS / f"{name}.json")


# Exact counts of a quiet router's work; pricing every candidate eagerly
# built 496 and 1,453 halves on the two shipped scenarios, 2,624 on fanout17
# and 20,470 on sessions. session_heavy's edges tie, so the plan-id tie-break
# settles most selects after one priced plan.
@pytest.mark.parametrize(
    "name, halves, states",
    [
        ("session_heavy", 124, 124),
        ("small_place", 311, 311),
        ("fanout17", 259, 207),
        ("sessions", 2156, 2156),
        ("replan_churn", 4622, 4622),
    ],
)
def test_work_counters_pin_the_pruning_on_shipped_scenarios(name, halves, states):
    sim = Simulation(scenario_named(name))
    sim.run()
    assert (sim.router.halves_priced, sim.router.states_resolved) == (halves, states)


# Selects whose split sentinel popped: a split plan is entered only when the
# least bound left could be one. fanout17's 17 candidates give 272 splits per
# select, and none is ever entered.
@pytest.mark.parametrize("name, entered", [("fanout17", 0), ("session_heavy", 0), ("audit", 44)])
def test_split_entries_pin_the_selects_that_enter_splits(name, entered):
    sim = Simulation(scenario_named(name))
    sim.run()
    assert sim.router.split_entries == entered


# Heap pops of the search. Entering every single-node plan up front popped
# 3,323 times on fanout17, whose 17 candidates form two pricing classes (16
# identical edges and the cloud); the other three have few identical nodes.
@pytest.mark.parametrize(
    "name, pops", [("fanout17", 1120), ("sessions", 10511), ("replan_churn", 22224), ("audit", 68108)]
)
def test_search_pops_pin_the_lazy_entry_of_identical_candidates(name, pops):
    sim = Simulation(scenario_named(name))
    sim.run()
    assert sim.router.search_pops == pops


# Hit lists read afresh on the benchmark's workloads at seed 1: table walks
# in ``Broker.lookup_candidates``. Before they were kept, every lookup walked
# its table (164, 2,047 and 5,180 lookups).
@pytest.mark.parametrize("name, hit_rebuilds", [("fanout17", 1), ("sessions", 1), ("replan_churn", 322)])
def test_rebuild_counters_pin_the_kept_hits_and_holders(name, hit_rebuilds, monkeypatch):
    """Every walk has a cause: the first lookup of its (table, trust floor),
    a change of node state or attestations since its last walk, or ``now``
    reaching the instant its hits stopped holding. So per (table, floor) the
    walks are at most one, plus the changes during the run, plus its expiries."""
    causes: dict[tuple, Counter] = {}
    lookup_candidates = Broker.lookup_candidates

    def classified(broker, table, now=0, min_trust=0):
        kept = table.kept.get(min_trust)
        walks = broker.hit_rebuilds
        hits = lookup_candidates(broker, table, now, min_trust)
        if broker.hit_rebuilds > walks:
            attested = broker.trust.attestations if min_trust > 0 else 0
            if kept is None:
                cause = "first"
            elif kept[1] != broker.stamp or kept[2] != attested:
                cause = "changed"
            else:
                cause = "expired" if now >= kept[4] else "none"
            causes.setdefault((id(table), min_trust), Counter())[cause] += 1
        return hits

    monkeypatch.setattr(Broker, "lookup_candidates", classified)
    sim = Simulation(scenario_named(name))
    before = sim.broker.stamp + sim.trust.attestations
    sim.run()
    assert sim.broker.hit_rebuilds == hit_rebuilds
    changes = sim.broker.stamp + sim.trust.attestations - before
    assert sum(sum(c.values()) for c in causes.values()) == hit_rebuilds
    for c in causes.values():
        assert c["none"] == 0 and c["first"] == 1 and c["changed"] <= changes
    # The holder index keeps only sessions with turns still to come.
    assert set(sim.caches._index) <= set(sim._session_remaining)


def test_search_pops_per_select_barely_grow_with_identical_nodes(monkeypatch):
    """Over the benchmark's fanout sweep, the pops of a select grow with the
    pricing classes, which stay two, not with the nodes."""
    select = Router.select
    selects = []

    def counted(router, *args):
        selects.append(router)
        return select(router, *args)

    monkeypatch.setattr(Router, "select", counted)
    per_select = {}
    for n in (3, 9, 17):
        selects.clear()
        sim = Simulation(Scenario.from_dict(workloads.fanout(ROOT, 1, n, duration_us=1_000_000)))
        sim.run()
        per_select[n] = sim.router.search_pops / len(selects)
    assert per_select[3] <= per_select[9] <= per_select[17] <= per_select[3] + 1


def test_a_fanout17_select_bounds_each_group_once(monkeypatch):
    """A select computes one static bound per (pricing class, warm) group it
    has: two on fanout17, whose splits are never entered, not 17."""
    bounds = Router._bounds
    sizes = []

    def counted(router, *args):
        found = bounds(router, *args)
        sizes.append(len(found))
        return found

    monkeypatch.setattr(Router, "_bounds", counted)
    sim = Simulation(scenario_named("fanout17"))
    sim.run()
    assert sim.router.split_entries == 0
    assert len(sizes) == 164 and max(sizes) == 2


def test_rows_are_built_once_per_table_and_origin(monkeypatch):
    """Over a sessions run, each (candidate table, origin) pair a select
    meets builds its static rows once."""
    pairs, builds = [], []
    table, specialise = Broker.table, Router._specialise

    def recorded_table(broker, capability_class, quality, policy, origin_region="", tiers=None):
        found = table(broker, capability_class, quality, policy, origin_region, tiers)
        pairs.append((found, origin_region))  # keeps each table alive, so ids stay unique
        return found

    def counted_specialise(router, *args):
        builds.append(args)
        return specialise(router, *args)

    monkeypatch.setattr(Broker, "table", recorded_table)
    monkeypatch.setattr(Router, "_specialise", counted_specialise)
    Simulation(scenario_named("sessions")).run()
    distinct = {(id(t), origin) for t, origin in pairs}
    assert len(builds) == len(distinct) == 8  # one table, eight origin regions
    assert len(pairs) > 200 * len(builds)


def cache_lifetime_router():
    """edge-1 runs a fast and a slow realization of one variant; edge-2, much
    nearer the gateway, is in the topology but not yet registered."""
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat"))
    catalog.add_realization(make_realization("chat-v1-fast", "chat-v1", prefill=10))
    catalog.add_realization(make_realization("chat-v1-slow", "chat-v1", prefill=50))
    profiles = [make_profile("edge-1"), make_profile("edge-2")]
    links = [
        Link("l-gw-edge-1", "region:metro", "edge-1", 50_000, Fraction(1000)),
        Link("l-gw-edge-2", "region:metro", "edge-2", 100, Fraction(1000)),
    ]
    trust = TrustManager()
    for rid in catalog.realizations:
        trust.register_lineage(rid, (("base-7b", "distill"),))
    broker = Broker(catalog, make_topology(profiles, links), trust=trust)
    broker.register_node(profiles[0])
    for rid in catalog.realizations:
        broker.install("edge-1", rid, 0)
    return make_router(broker, enable_split=False), profiles[1]


def test_selects_see_the_table_after_a_registration_or_a_revocation():
    """The rows the router derived from a candidate table go when the broker
    drops the table: a select sees the table's new rows, and the router keeps
    rows of current tables only."""
    router, late = cache_lifetime_router()
    broker = router.broker

    def chosen():
        outcome = router.select(chat_request(), now=0)
        current = list(broker._tables.values())
        assert [any(t is c for c in current) for t, _ in router._specialised] == [True]
        return tuple((s.node_id, s.realization_id) for s in outcome.stages)

    assert chosen() == (("edge-1", "chat-v1-fast"),)
    broker.register_node(late)
    broker.install("edge-2", "chat-v1-slow", 0)
    assert chosen() == (("edge-2", "chat-v1-slow"),)
    broker.trust.revoke("chat-v1-slow")
    assert chosen() == (("edge-1", "chat-v1-fast"),)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 100_000),  # gateway delay
    st.fractions(Fraction(1, 1000), 10_000),  # gateway bandwidth, bytes per µs
    st.sampled_from(["one hop", "no route", Fraction(1, 3), Fraction(7, 2)]),  # or a second hop's bandwidth
    st.fractions(Fraction(1, 8), 8),  # speed factor
    st.integers(0, 16),  # bytes per token
    st.integers(0, 4096),  # input tokens
    st.integers(0, 1024),  # output tokens
    st.integers(0, 4096),  # covered tokens, capped at the input
    st.booleans(),  # warm
    st.booleans(),  # the artifact repository reaches the node
    st.tuples(st.integers(1, 500), st.integers(1, 2000), st.integers(0, 5000), st.integers(0, 10**6)),
    st.tuples(st.fractions(0, 5), st.fractions(0, 5)),  # alpha, gamma
)
def test_row_coefficients_reproduce_the_per_candidate_bounds(
    delay, bandwidth, second_hop, speed, bytes_per_token, tokens_in, tokens_out, covered, warm, repo_linked, times, weights
):
    prefill, decode, setup, load = times
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat"))
    catalog.add_realization(make_realization("chat-v1-gpu", "chat-v1", prefill=prefill, decode=decode, setup=setup, load_time=load))
    profiles = [make_profile("edge-1", speed=str(speed)), make_profile("repo")]
    if second_hop == "one hop":
        links = [Link("l-gw", "region:metro", "edge-1", delay, bandwidth)]
    elif second_hop == "no route":
        links = [Link("l-gw", "region:metro", "hub", delay, bandwidth)]
    else:
        links = [Link("l-gw", "region:metro", "hub", delay, bandwidth), Link("l-hub", "hub", "edge-1", 7, second_hop, is_core=True)]
    if repo_linked:
        links.append(Link("l-repo", "repo", "edge-1", 3_000, Fraction(500)))
    broker = Broker(catalog, make_topology(profiles, links))
    node = broker.register_node(profiles[0])
    router = make_router(broker, RoutingWeights(alpha=weights[0], gamma=weights[1]), bytes_per_token, repo="repo")
    request = chat_request(input_tokens=tokens_in, output_tokens=tokens_out)
    covered = min(covered, tokens_in)
    want = static_bounds(router, request, node, "chat-v1-gpu", warm, covered)
    row = router._row("region:metro", node, "chat-v1-gpu")
    got = router._bounds(request, (row,), ((0, warm),), {"chat-v1-gpu": ([], covered)})
    if want is None:
        assert got == []
    else:
        assert [b[2:8] for b in got] == [want]
        _, _, _, base, _, dec = want
        assert got[0][8] == dec - router._mult[2] * base  # the decode side without set-up and activation


def test_router_rejects_a_negative_weight(simple_broker):
    with pytest.raises(ValueError, match="kappa"):
        make_router(simple_broker, weights=RoutingWeights(kappa=Fraction(-1)))


def test_alternatives_are_built_only_when_auditing(simple_broker):
    simple_broker.install("edge-1", "chat-v1-gpu", 0)
    quiet = make_router(simple_broker).select(chat_request(), now=0)
    audited = make_router(simple_broker, audit=True).select(chat_request(), now=0)
    assert quiet.alternatives == ()
    assert quiet == audited
    assert audited.plan.plan_id in {plan_id for plan_id, _ in audited.alternatives}


def test_select_looks_up_state_holders_once_per_realization(simple_broker):
    broker = simple_broker
    for node_id in ("edge-1", "edge-2", "cloud-1"):
        broker.install(node_id, "chat-v1-gpu", 0)
    router = make_router(broker)
    request = chat_request(affinity_token="sess-1:deadbeef")
    _plant_affinity_state(router, broker, "edge-2", request, tokens=64)
    candidates = admitted_candidates(router, request, request.quality_target, 0)
    holders = router.caches.holders
    calls = []

    def counted(*args):
        calls.append(args)
        return holders(*args)

    router.caches.holders = counted
    outcome = router.select(request, now=0)
    assert outcome.state_use is not None
    # One lookup per realization while pricing; the winner is not rescored.
    assert len(calls) == len({realization_id for _, realization_id, _ in candidates}) < len(candidates)


def test_routers_share_no_plan_state(simple_broker):
    stages = (PlanStage("edge-1", "chat-v1-gpu", PlanPhase.FULL),)
    first, second = make_router(simple_broker), make_router(simple_broker)
    plan = first.plan(stages)
    assert first.plan(stages) is plan  # hashed once per router
    assert second._plans == {}
    other = second.plan(stages)
    assert other is not plan and other == plan == ExecutionPlan.of(stages)
    # Selecting memoizes into its own router only.
    assert isinstance(second.select(chat_request(), now=0), ScoredPlan)
    assert set(first._plans) == {stages}


# audit's selections are checked inside acceptance criterion 2, which runs it anyway.
@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json") if p.stem != "audit"))
def test_every_shipped_selection_equals_the_reference_score(name, monkeypatch):
    checked = checked_select(Router.select)
    monkeypatch.setattr(Router, "select", checked)
    Simulation(Scenario.load(SCENARIOS / f"{name}.json")).run()
    assert checked.checks > 0
