from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from capsim.caching import BenefitInputs, CacheSystem
from capsim.descriptors import (
    REASON_BUDGET_EXCEEDED,
    REASON_NO_FEASIBLE_PLAN,
    PlanPhase,
    PlanStage,
    PolicyConstraint,
    RequestDescriptor,
    SharingScope,
    StateDescriptor,
    StateType,
    Tier,
)
from capsim.engine import Simulation
from capsim.registry import Broker, CapabilityCatalog
from capsim.routing import (
    ExecutionPlan,
    Rejection,
    Router,
    RoutingWeights,
    Selection,
)
from capsim.scenario import Scenario
from capsim.topology import Domain, Link, Unreachable
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
    argmin,
    checked_select,
    combine_terms,
    feasible_plans,
    plans_from_candidates,
    scaled_weights,
    score,
    score_enumerated,
    within_tie,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_router(broker, weights=None, bytes_per_token=4, enable_split=True, repo=None, audit=False):
    caches = CacheSystem()
    for node_id in broker.nodes:
        caches.add_store(node_id, 64 * 1024 * 1024)
    return Router(
        broker=broker,
        topology=broker.topology,
        caches=caches,
        trust=broker.trust,
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
    assert scored.cost.t_net_us == 0
    assert scored.cost.t_queue_us == 0
    assert scored.cost.t_exec_us == 1000 + 200
    assert scored.cost.total == 1200


def test_warm_single_stage_cost_closed_form(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    scored_all = feasible_plans(router, chat_request(), now=0)
    mine = [s for s in scored_all if s.stages[0].node_id == "edge-1" and not s.stages[0].cold]
    assert len(mine) == 1
    scored = mine[0]
    # Inbound 500 + ceil(400/1000); outbound 500 + ceil(40/1000).
    assert scored.cost.t_net_us == 501 + 501
    # setup + 100 prefill tokens * 50 + 10 decode tokens * 200.
    assert scored.cost.t_exec_us == 1000 + 5000 + 2000
    assert scored.cost.total == 1002 + 8000


def test_speed_factor_divides_per_token_times(simple_broker):
    broker = simple_broker
    broker.install("cloud-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    plan = ExecutionPlan.of((PlanStage("cloud-1", "chat-v1-gpu", PlanPhase.FULL),))
    scored = router.score(plan, chat_request(), now=0, warm_flags=(True,))
    # cloud speed 2: prefill 100*50/2, decode 10*200/2.
    assert scored.cost.t_exec_us == 1000 + 2500 + 1000


def test_cold_plan_pays_activation_in_exec(simple_broker):
    broker = simple_broker
    router = make_router(broker, enable_split=False, repo="cloud-1")
    plan = ExecutionPlan.of((PlanStage("edge-1", "chat-v1-gpu", PlanPhase.FULL),))
    warm = router.score(plan, chat_request(), now=0, warm_flags=(True,))
    cold = router.score(plan, chat_request(), now=0, warm_flags=(False,))
    transfer, _ = broker.topology.transfer_between("cloud-1", "edge-1", GIB)
    assert cold.cost.t_exec_us == warm.cost.t_exec_us + transfer + 1_000_000


def test_plan_set_matches_brute_force_enumeration(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    broker.install("cloud-1", "chat-v2-gpu", 0)
    router = make_router(broker, enable_split=True)
    request = chat_request(quality_target=1)
    plans = {tuple((s.node_id, s.realization_id, s.phase.value) for s in p.plan.stages) for p in feasible_plans(router, request, 0)}

    candidates = broker.lookup_candidates("chat", 1, request.policy, "metro")
    expected = set()
    for c in candidates:
        expected.add(((c.node_id, c.realization_id, "full"),))
    for pre in candidates:
        for dec in candidates:
            if pre.node_id == dec.node_id:
                continue
            if broker.catalog.realizations[pre.realization_id].variant_id != broker.catalog.realizations[dec.realization_id].variant_id:
                continue
            expected.add(
                ((pre.node_id, pre.realization_id, "prefill"), (dec.node_id, dec.realization_id, "decode"))
            )
    assert plans == expected


def test_select_picks_smaller_cost(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("cloud-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    outcome = router.select(chat_request(), now=0)
    assert isinstance(outcome, Selection)
    # Edge is closer and the exec gap does not cover two core-link crossings.
    assert outcome.scored.stages[0].node_id == "edge-1"
    rescored = {s.plan.plan_id: s.cost.total for s in feasible_plans(router, chat_request(), 0)}
    assert all(within_tie(total, outcome.scored.cost.total) for total in rescored.values())


def test_equal_costs_tie_to_smaller_plan_id(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    outcomes = [router.select(chat_request(), now=0) for _ in range(3)]
    plan_ids = {o.scored.plan.plan_id for o in outcomes}
    assert len(plan_ids) == 1
    scored = feasible_plans(router, chat_request(), 0)
    tied = [s for s in scored if s.cost.total == outcomes[0].scored.cost.total]
    assert outcomes[0].scored.plan.plan_id == min(s.plan.plan_id for s in tied)


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
    assert isinstance(outcome, Selection)
    assert outcome.degraded and outcome.served_quality == 1


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
    cap = edge1.profile.capacity.admission_cap
    for _ in range(cap):
        edge1.reserve("chat-v1-gpu", ready_us=10_000, duration_us=1000)
    assert edge1.queue_length(0) >= cap
    outcome = router.select(chat_request(), now=0)
    assert isinstance(outcome, Selection)
    assert outcome.scored.stages[0].node_id == "edge-2"


def _plant_affinity_state(router, broker, node_id, request, tokens=64):
    rid = "chat-v1-gpu"
    compat = router.state_hash_for(rid, request)
    session = request.affinity_token.split(":")[0]
    store = router.caches.store(node_id)
    descriptor = StateDescriptor(
        state_id="st-planted",
        state_type=StateType.TENSOR_STATE,
        compatibility_hash=compat,
        sharing_scope=SharingScope.SESSION_PRIVATE,
        size=tokens * 256,
        migration_cost=tokens * 256,
    )
    decision = store.admit(
        descriptor,
        BenefitInputs(Fraction(1, 2), 10_000),
        scope_key=session,
        now=0,
        node_trust=3,
        requester_min_trust=request.policy.min_trust,
        token_count=tokens,
        source_realization=rid,
    )
    assert decision.admitted


def test_state_local_to_plan_node_costs_nothing(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    request = chat_request(affinity_token="sess-1:deadbeef")
    _plant_affinity_state(router, broker, "edge-1", request, tokens=64)
    scored = feasible_plans(router, request, 0)
    at_holder = [s for s in scored if s.stages[0].node_id == "edge-1" and not s.stages[0].cold][0]
    assert at_holder.cost.t_state_us == 0
    assert at_holder.uncovered_prefill_tokens == 100 - 64
    # Covered prefill tokens are skipped in the execution term.
    assert at_holder.cost.t_exec_us == 1000 + (100 - 64) * 50 + 2000


def test_remote_state_costs_min_of_migrate_and_recompute(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    request = chat_request(affinity_token="sess-1:deadbeef")
    _plant_affinity_state(router, broker, "edge-2", request, tokens=64)
    scored = feasible_plans(router, request, 0)
    remote = [s for s in scored if s.stages[0].node_id == "edge-1" and not s.stages[0].cold][0]
    migrate_us, _ = broker.topology.transfer_between("edge-2", "edge-1", 64 * 256)
    recompute_us = 64 * 50
    assert remote.cost.t_state_us == min(migrate_us, recompute_us)


def test_affinity_prefers_the_holder_node(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=False)
    request = chat_request(affinity_token="sess-1:deadbeef")
    _plant_affinity_state(router, broker, "edge-2", request, tokens=64)
    outcome = router.select(request, now=0)
    assert outcome.scored.stages[0].node_id == "edge-2"


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
        assert isinstance(a, Selection) and isinstance(b, Selection)
        assert a.scored.plan.plan_id == b.scored.plan.plan_id
        assert b.scored.cost.total == a.scored.cost.total * 10


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
    assert isinstance(outcome, Selection)
    assert outcome.scored.stages[0].node_id == "edge-1"
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
    assert isinstance(outcome, Selection)
    assert outcome.degraded and outcome.served_quality == 1
    strict = router.select(chat_request(quality_target=2, budget=15_000, degradable=False), now=0)
    assert isinstance(strict, Rejection) and strict.reason == REASON_BUDGET_EXCEEDED


def test_capped_decode_node_removes_split_plans(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    broker.install("edge-2", "chat-v1-gpu", 0)
    router = make_router(broker, enable_split=True)
    edge2 = broker.node("edge-2")
    for _ in range(edge2.profile.capacity.admission_cap):
        edge2.reserve("chat-v1-gpu", ready_us=10_000, duration_us=1000)
    outcome = router.select(chat_request(), now=0)
    assert isinstance(outcome, Selection)
    assert all(s.node_id != "edge-2" for s in outcome.scored.stages)


def test_soft_preference_misses_priced_not_enforced(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    weights = RoutingWeights(zeta=Fraction(1), pi_soft=7000)
    router = make_router(broker, weights=weights, enable_split=False)
    preferring = chat_request(policy=PolicyConstraint(preferred_domains=("d-core",)))
    scored = [s for s in feasible_plans(router, preferring, 0) if s.stages[0].node_id == "edge-1"][0]
    # edge-1 is outside the preferred domain: one soft miss, plan still feasible.
    assert scored.cost.p_policy == 7000
    indifferent = chat_request()
    neutral = [s for s in feasible_plans(router, indifferent, 0) if s.stages[0].node_id == "edge-1"][0]
    assert neutral.cost.p_policy == 0


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
    assert idle.cost.c_load == 0
    assert busy.cost.c_load == 250


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
    profiles = [
        make_profile(
            node_id,
            domain_id="d-core" if node_id == "cloud-1" else "d1",
            region="core" if node_id == "cloud-1" else "metro",
            tier=Tier.CLOUD if node_id == "cloud-1" else Tier.EDGE,
            speed=draw(st.sampled_from(["1", "3/2", "4"])),
            memory=draw(st.sampled_from([GIB, 8 * GIB, 8 * GIB])),
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
            if residency == "cold" or broker.free_memory(node_id) < broker.footprint(rid):
                continue
            broker.install(node_id, rid, now + 1 if residency == "loading" else 0)
            broker.node(node_id).residency[rid].pending_eviction = residency == "draining"
        for _ in range(draw(st.integers(0, 4))):
            broker.node(node_id).reserve(
                "chat-v1-gpu", ready_us=draw(st.integers(0, 40_000)), duration_us=draw(st.integers(1, 30_000))
            )

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
        audit=True,
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
        for node_id in draw(st.lists(st.sampled_from(NODES), unique=True, max_size=4)):
            rid = draw(st.sampled_from([r for r, _ in REALIZATIONS]))
            tokens = draw(st.integers(1, 400))
            bound = draw(st.booleans())
            router.caches.store(node_id).admit(
                StateDescriptor(
                    state_id=f"st-{node_id}",
                    state_type=StateType.TENSOR_STATE,
                    compatibility_hash=router.state_hash_for(rid, request),
                    sharing_scope=SharingScope.HARDWARE_BOUND if bound else SharingScope.SESSION_PRIVATE,
                    size=tokens * 256,
                    migration_cost=None if bound else tokens * 256,
                ),
                BenefitInputs(Fraction(1, 2), 10_000_000),
                scope_key=session,
                now=0,
                node_trust=3,
                requester_min_trust=request.policy.min_trust,
                token_count=tokens,
                source_realization=rid,
            )
    return router, request, now


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
        candidates = router._candidates(request, quality, now)
        scored = score_enumerated(router, request, candidates, now)
        within = [s for s in scored if request.budget is None or s.cost.total <= request.budget]
        if within:
            alternatives = sorted((s.plan.plan_id, s.cost.terms()) for s in scored)
            return argmin(within, router.weights.tie_eps), quality, tuple(alternatives)
        saw_budget_only = saw_budget_only or bool(scored)
        if not (request.degradable and quality > 1):
            break
        quality -= 1
    return REASON_BUDGET_EXCEEDED if saw_budget_only else REASON_NO_FEASIBLE_PLAN


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(router_states())
def test_half_scoring_select_matches_exhaustive_enumeration(state):
    router, request, now = state
    candidates = router._candidates(request, request.quality_target, now)
    for plan, warm_flags in plans_from_candidates(router, candidates):
        for zero_queue in (False, True):
            args = (plan, request, now, warm_flags, zero_queue)
            assert scored_or_unreachable(router.score, *args) == scored_or_unreachable(score, router, *args)
    expected = exhaustive_select(router, request, now)
    outcome = router.select(request, now)
    if isinstance(expected, str):
        assert isinstance(outcome, Rejection) and outcome.reason == expected
        return
    best, quality, alternatives = expected
    assert isinstance(outcome, Selection)
    assert outcome.scored.plan.plan_id == best.plan.plan_id
    assert outcome.scored == best
    assert (outcome.served_quality, outcome.degraded) == (quality, quality < request.quality_target)
    assert outcome.alternatives == alternatives


def test_alternatives_are_built_only_when_auditing(simple_broker):
    simple_broker.install("edge-1", "chat-v1-gpu", 0)
    quiet = make_router(simple_broker).select(chat_request(), now=0)
    audited = make_router(simple_broker, audit=True).select(chat_request(), now=0)
    assert quiet.alternatives == ()
    assert quiet.scored == audited.scored
    assert audited.scored.plan.plan_id in {plan_id for plan_id, _ in audited.alternatives}


def test_select_looks_up_state_holders_once_per_realization(simple_broker):
    broker = simple_broker
    for node_id in ("edge-1", "edge-2", "cloud-1"):
        broker.install(node_id, "chat-v1-gpu", 0)
    router = make_router(broker)
    request = chat_request(affinity_token="sess-1:deadbeef")
    _plant_affinity_state(router, broker, "edge-2", request, tokens=64)
    candidates = router._candidates(request, request.quality_target, 0)
    holders = router.caches.holders
    calls = []

    def counted(*args):
        calls.append(args)
        return holders(*args)

    router.caches.holders = counted
    outcome = router.select(request, now=0)
    assert outcome.scored.state_use is not None
    # One lookup per realization while pricing; the winner is not rescored.
    assert len(calls) == len({c.realization_id for c in candidates}) < len(candidates)


def test_routers_share_no_plan_state(simple_broker):
    stages = (PlanStage("edge-1", "chat-v1-gpu", PlanPhase.FULL),)
    first, second = make_router(simple_broker), make_router(simple_broker)
    plan = first.plan(stages)
    assert first.plan(stages) is plan  # hashed once per router
    assert second._plans == {}
    other = second.plan(stages)
    assert other is not plan and other == plan == ExecutionPlan.of(stages)
    # Selection memoizes into its own router only.
    assert isinstance(second.select(chat_request(), now=0), Selection)
    assert set(first._plans) == {stages}


# audit's selections are checked inside acceptance criterion 2, which runs it anyway.
@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json") if p.stem != "audit"))
def test_every_shipped_selection_equals_the_reference_score(name, monkeypatch):
    checked = checked_select(Router.select)
    monkeypatch.setattr(Router, "select", checked)
    Simulation(Scenario.load(SCENARIOS / f"{name}.json")).run()
    assert checked.checks > 0
