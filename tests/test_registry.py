import random

import pytest
from hypothesis import given, settings, strategies as st

from capsim.descriptors import LocalityScope, PolicyConstraint, Tier
from capsim.registry import (
    Broker,
    CatalogIntegrityError,
    DuplicateNode,
    NodeState,
    TrustBelowDomainFloor,
    UnknownCapabilityClass,
    UnknownDomain,
    UnknownNode,
)
from capsim.topology import Domain
from capsim.trust import AttestationRecord, TrustManager
from conftest import GIB, make_class, make_profile, make_realization, make_topology, make_variant, star_links
from capsim.registry import CapabilityCatalog
from reference_router import named_hits


def lookup(broker, capability_class, quality_target, policy, origin_region, now=0, tiers=None):
    """A lookup's candidates, named (node id, realization id, warm), in table order."""
    table = broker.table(capability_class, quality_target, policy, origin_region, tiers)
    return named_hits(table, broker.lookup_candidates(table, now, policy.min_trust))


def fresh_broker(domains=None):
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat", quality=1))
    catalog.add_variant(make_variant("chat-v2", "chat", quality=2))
    catalog.add_realization(make_realization("chat-v1-gpu", "chat-v1"))
    catalog.add_realization(make_realization("chat-v2-gpu", "chat-v2"))
    topology = make_topology([], [], domains=domains or [Domain("d1"), Domain("d-strict", min_trust=2)])
    return Broker(catalog, topology)


def test_register_fresh_node_admitted():
    broker = fresh_broker()
    state = broker.register_node(make_profile("n1", trust=2))
    assert state.node_id == "n1"
    assert "n1" in broker.nodes


def test_register_below_domain_floor_rejected():
    broker = fresh_broker()
    with pytest.raises(TrustBelowDomainFloor):
        broker.register_node(make_profile("n1", domain_id="d-strict", trust=0))


def test_register_duplicate_rejected():
    broker = fresh_broker()
    broker.register_node(make_profile("n1"))
    with pytest.raises(DuplicateNode):
        broker.register_node(make_profile("n1"))


def test_register_unknown_domain_rejected():
    broker = fresh_broker()
    with pytest.raises(UnknownDomain):
        broker.register_node(make_profile("n1", domain_id="nope"))


def test_telemetry_unknown_node():
    broker = fresh_broker()
    with pytest.raises(UnknownNode):
        broker.refresh_queue_telemetry("ghost", 0)


def test_queue_telemetry_is_wait_of_a_stage_ready_now():
    broker = fresh_broker()
    state = broker.register_node(make_profile("n1", max_concurrent=2))
    state.reserve("chat-v1-gpu", ready_us=0, duration_us=3000)
    assert broker.refresh_queue_telemetry("n1", 1000) == 0  # one server still idle
    state.reserve("chat-v1-gpu", ready_us=0, duration_us=5000)
    assert broker.refresh_queue_telemetry("n1", 1000) == 2000
    assert broker.refresh_queue_telemetry("n1", 4000) == 0


RESERVATION_OPS = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "advance", "queue_length", "outstanding", "for_realization"]),
        st.integers(0, 60),
        st.integers(0, 60),
        st.sampled_from(["r1", "r2"]),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(RESERVATION_OPS, st.integers(1, 3))
def test_reservation_counts_match_a_scan(ops, servers):
    """Each count against a scan of every reservation made, over reserve and
    query sequences with a non-decreasing ``now``; stages may be ready before
    ``now`` and take no time. The node keeps only its unfinished work."""
    state = NodeState(make_profile("n1", max_concurrent=servers))
    booked = []  # (realization id, start, completion)
    now = 0
    for op, a, b, rid in ops:
        if op == "reserve":
            booked.append((rid, *state.reserve(rid, ready_us=max(0, now + a - 20), duration_us=b)))
        elif op == "advance":
            now += a
        elif op == "queue_length":
            assert state.queue_length(now) == sum(1 for _, start, _ in booked if start > now)
        elif op == "outstanding":
            assert state.outstanding(now) == sum(1 for _, _, complete in booked if complete > now)
        else:
            want = sum(1 for r, _, complete in booked if r == rid and complete > now)
            assert state.outstanding_for_realization(rid, now) == want
        if op not in ("reserve", "advance"):  # any count keeps both heaps to the unfinished work
            assert len(state.starts) == sum(1 for _, start, _ in booked if start > now)
            assert len(state.completions) == sum(1 for _, _, complete in booked if complete > now)


# -- candidate lookup ----------------------------------------------------------


def candidate_broker():
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat", quality=1))
    catalog.add_variant(make_variant("chat-v2", "chat", quality=2))
    catalog.add_realization(make_realization("chat-v1-gpu", "chat-v1", artifact_size=GIB))
    catalog.add_realization(make_realization("chat-v2-gpu", "chat-v2", artifact_size=2 * GIB))
    profiles = [
        make_profile("edge-1", trust=2, memory=4 * GIB),
        make_profile("edge-2", trust=1, memory=GIB),
        make_profile("cloud-1", domain_id="d2", region="core", tier=Tier.CLOUD, trust=3, memory=8 * GIB),
    ]
    topology = make_topology(profiles, star_links("metro", ["edge-1", "edge-2"]), domains=[Domain("d1"), Domain("d2")])
    trust = TrustManager()
    for p in profiles:
        trust.attest(AttestationRecord(p.node_id, p.trust, 0, None))
    broker = Broker(catalog, topology, trust=trust)
    for p in profiles:
        broker.register_node(p)
    broker.install("edge-1", "chat-v1-gpu", 0)
    return broker


def recomputed_free_memory(broker, node_id):
    """The node's memory budget less every resident footprint, summed afresh."""
    state = broker.node(node_id)
    resident = sum(broker.catalog.realizations[rid].artifact_size_bytes for rid in state.residency)
    return state.profile.memory_budget_bytes - resident


def brute_force_candidates(broker, capability_class, quality_target, policy, origin_region, now=0, tiers=None):
    out = set()
    for node_id, state in broker.nodes.items():
        if not state.online:
            continue
        profile = state.profile
        if broker.trust.effective_trust(node_id, now) < policy.min_trust:
            continue
        if policy.allowed_domains is not None and profile.domain_id not in policy.allowed_domains:
            continue
        if policy.locality_scope is LocalityScope.REGION and profile.region != origin_region:
            continue
        if policy.locality_scope is LocalityScope.NODE_LOCAL and (
            profile.tier is not Tier.LOCAL or profile.region != origin_region
        ):
            continue
        for rid, realization in broker.catalog.realizations.items():
            variant = broker.catalog.variant_of(rid)
            if variant.parent_class != capability_class or variant.quality < quality_target:
                continue
            if broker.trust.is_revoked(rid) or realization.accelerator != profile.accelerator:
                continue
            if profile.trust < variant.security.min_trust:
                continue
            res = state.residency.get(rid)
            if res is not None:
                if not res.pending_eviction and res.available_at_us <= now:
                    out.add((node_id, rid, True))
            elif (tiers is None or profile.tier in tiers) and (
                recomputed_free_memory(broker, node_id) >= realization.artifact_size_bytes
            ):
                out.add((node_id, rid, False))
    return out


def test_no_node_meets_min_trust_gives_empty_set():
    broker = candidate_broker()
    policy = PolicyConstraint(min_trust=3)
    # Only cloud-1 has trust 3; restrict domains to exclude it too.
    policy = PolicyConstraint(min_trust=3, allowed_domains=("d1",))
    assert lookup(broker, "chat", 1, policy, "metro") == []


def test_single_warm_candidate_flagged():
    broker = candidate_broker()
    policy = PolicyConstraint(min_trust=2, allowed_domains=("d1",))
    candidates = lookup(broker, "chat", 1, policy, "metro")
    warm = [(node_id, rid) for node_id, rid, is_warm in candidates if is_warm]
    assert warm == [("edge-1", "chat-v1-gpu")]


def test_variant_trust_floor_excludes_nodes_below_it():
    """A variant's ``min_trust`` is a hard floor on a hosting node's claimed
    trust: a node below it is no candidate, warm or cold, whatever floor the
    request sets."""
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat", min_trust=2, preferred_trust=2))
    catalog.add_realization(make_realization("chat-v1-gpu", "chat-v1", artifact_size=GIB))
    profiles = [make_profile(n, trust=t, memory=4 * GIB) for n, t in (("edge-1", 2), ("edge-2", 1), ("edge-3", 1))]
    broker = Broker(catalog, make_topology(profiles, star_links("metro", [p.node_id for p in profiles])))
    for p in profiles:
        broker.register_node(p)
    broker.install("edge-2", "chat-v1-gpu", 0)
    assert lookup(broker, "chat", 1, PolicyConstraint(), "metro") == [("edge-1", "chat-v1-gpu", False)]


def test_unknown_class_raises():
    broker = candidate_broker()
    with pytest.raises(UnknownCapabilityClass):
        lookup(broker, "nope", 1, PolicyConstraint(), "metro")


@pytest.mark.parametrize("quality_target", [1, 2])
@pytest.mark.parametrize("min_trust", [0, 1, 2, 3])
def test_candidates_match_brute_force(quality_target, min_trust):
    broker = candidate_broker()
    policy = PolicyConstraint(min_trust=min_trust)
    got = set(lookup(broker, "chat", quality_target, policy, "metro"))
    want = brute_force_candidates(broker, "chat", quality_target, policy, "metro")
    assert got == want


def test_offline_node_excluded_from_candidates():
    broker = candidate_broker()
    broker.set_online("edge-1", False)
    offline = {c[0] for c in lookup(broker, "chat", 1, PolicyConstraint(), "metro")}
    broker.set_online("edge-1", True)
    online = {c[0] for c in lookup(broker, "chat", 1, PolicyConstraint(), "metro")}
    assert offline == {"edge-2", "cloud-1"}
    assert online == {"edge-1", "edge-2", "cloud-1"}


def test_candidates_match_brute_force_under_random_churn():
    """Lookups at non-decreasing times against a full scan, interleaved with
    liveness flips, attestations (some starting later, some lapsing), loads
    that finish later, and evictions. Several lookups fall between two
    changes, so the kept hits are returned as well as rebuilt."""
    rng = random.Random(7)
    broker = candidate_broker()
    realizations = sorted(broker.catalog.realizations)
    now = lookups = 0
    for _ in range(200):
        node_id = rng.choice(sorted(broker.nodes))
        state = broker.node(node_id)
        change = rng.random()
        if change < 0.2:
            broker.set_online(node_id, not state.online)
        elif change < 0.5:
            # Validation caps an attested level at the node's claimed trust.
            level = rng.randint(0, state.profile.trust)
            start = now + rng.choice([0, 0, 2, 7])
            broker.trust.attest(AttestationRecord(node_id, level, start, rng.choice([None, 1, 4, 15])))
        elif change < 0.75:
            rid = rng.choice(realizations)
            if rid in state.residency:
                broker.evict(node_id, rid)
            elif broker.free_memory(node_id) >= broker.footprint(rid):
                broker.install(node_id, rid, now + rng.randint(0, 8))  # a load finishing later
        for _ in range(rng.randint(1, 4)):
            now += rng.choice([0, 0, 1, 3])
            policy = PolicyConstraint(min_trust=rng.randint(0, 3))
            quality_target = rng.randint(1, 2)
            got = set(lookup(broker, "chat", quality_target, policy, "metro", now=now))
            assert got == brute_force_candidates(broker, "chat", quality_target, policy, "metro", now=now)
            lookups += 1
    assert broker.hit_rebuilds < lookups


def test_relaxing_policy_never_shrinks_candidates():
    broker = candidate_broker()
    strict = {
        c[:2]
        for c in lookup(broker, "chat", 1, PolicyConstraint(min_trust=2, locality_scope=LocalityScope.REGION), "metro")
    }
    relaxed = {
        c[:2]
        for c in lookup(broker, "chat", 1, PolicyConstraint(min_trust=0), "metro")
    }
    assert strict <= relaxed


def test_node_local_scope_requires_local_tier_in_region():
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat"))
    catalog.add_realization(make_realization("chat-v1-gpu", "chat-v1"))
    profiles = [
        make_profile("box-1", tier=Tier.LOCAL, region="metro"),
        make_profile("edge-1", tier=Tier.EDGE, region="metro"),
        make_profile("box-far", tier=Tier.LOCAL, region="elsewhere"),
    ]
    broker = Broker(catalog, make_topology(profiles, []))
    for p in profiles:
        broker.register_node(p)
    for p in profiles:
        broker.install(p.node_id, "chat-v1-gpu", 0)
    policy = PolicyConstraint(locality_scope=LocalityScope.NODE_LOCAL)
    got = {c[0] for c in lookup(broker, "chat", 1, policy, "metro")}
    assert got == {"box-1"}


def test_loading_residency_is_neither_warm_nor_cold():
    broker = candidate_broker()
    broker.install("cloud-1", "chat-v2-gpu", available_at_us=5_000)
    policy = PolicyConstraint()
    before = lookup(broker, "chat", 2, policy, "metro", now=0)
    after = lookup(broker, "chat", 2, policy, "metro", now=5_000)
    assert ("cloud-1", "chat-v2-gpu") not in {c[:2] for c in before}
    assert ("cloud-1", "chat-v2-gpu", True) in after
    # The hits kept at 5,000 do not hold before it.
    assert lookup(broker, "chat", 2, policy, "metro", now=0) == before


def test_catalog_referential_integrity_after_interleavings():
    rng = random.Random(11)
    for _ in range(20):
        catalog = CapabilityCatalog()
        catalog.add_class(make_class("chat"))
        for i in range(rng.randint(1, 12)):
            # Some additions name a parent that does not exist; the catalog
            # must refuse exactly those.
            if rng.random() < 0.5:
                item = make_variant(f"v{i}", rng.choice(["chat", "ghost"]))
                add, dangling = catalog.add_variant, item.parent_class not in catalog.classes
            else:
                item = make_realization(f"r{i}", rng.choice([*catalog.variants, "ghost"]))
                add, dangling = catalog.add_realization, item.variant_id not in catalog.variants
            if dangling:
                with pytest.raises(CatalogIntegrityError):
                    add(item)
            else:
                add(item)
        assert all(v.parent_class in catalog.classes for v in catalog.variants.values())
        assert all(r.variant_id in catalog.variants for r in catalog.realizations.values())


BROKER_OPS = st.lists(
    st.tuples(
        st.sampled_from(["install", "evict", "advance", "drain", "revoke", "toggle"]),
        st.sampled_from(["edge-1", "edge-2", "cloud-1"]),
        st.sampled_from(["chat-v1-gpu", "chat-v2-gpu"]),
        st.integers(0, 3000),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(BROKER_OPS)
def test_candidate_index_matches_recompute_under_interleaved_churn(ops):
    broker = candidate_broker()
    for rid in broker.catalog.realizations:
        broker.trust.register_lineage(rid, (("base", rid),))
    now = 0
    for op, node_id, rid, amount in ops:
        state = broker.node(node_id)
        if op == "install":  # a load finishing ``amount`` µs from now
            if rid not in state.residency and recomputed_free_memory(broker, node_id) < broker.footprint(rid):
                with pytest.raises(MemoryError):
                    broker.install(node_id, rid, now + amount)
            else:
                broker.install(node_id, rid, now + amount)
        elif op == "evict":
            broker.evict(node_id, rid)
        elif op == "advance":  # loads due by then complete
            now += amount
        elif op == "drain":
            if rid in state.residency:
                broker.mark_eviction(node_id, rid, not state.residency[rid].pending_eviction)
        elif op == "revoke":
            broker.trust.revoke(rid)
        else:
            broker.set_online(node_id, not state.online)
        for n in broker.nodes:
            assert broker.free_memory(n) == recomputed_free_memory(broker, n)
        for quality_target in (1, 2):
            for tiers in (None, {Tier.EDGE}):
                got = lookup(broker, "chat", quality_target, PolicyConstraint(), "metro", now=now, tiers=tiers)
                want = brute_force_candidates(broker, "chat", quality_target, PolicyConstraint(), "metro", now, tiers)
                # Node-id order, then realization-id order.
                assert got == sorted(want)


# Nodes registered before the ops run, and one registered by a "register" op.
TABLE_PROFILES = [
    make_profile("box-1", tier=Tier.LOCAL, region="metro", trust=2, memory=2 * GIB),
    make_profile("edge-1", trust=2, memory=4 * GIB),
    make_profile("edge-cpu", accelerator="cpu", trust=1, memory=4 * GIB),
    make_profile("far-1", domain_id="d2", region="far", trust=3, memory=4 * GIB),
    make_profile("cloud-1", domain_id="d2", region="core", tier=Tier.CLOUD, trust=3, memory=8 * GIB),
]
LATE_PROFILE = make_profile("box-far", tier=Tier.LOCAL, region="far", trust=1, memory=4 * GIB)
TABLE_REALIZATIONS = ["chat-v1-gpu", "chat-v1-cpu", "chat-v2-gpu"]

# Every locality scope, floors above 0, placement tiers and both origins.
TABLE_LOOKUPS = [
    (1, PolicyConstraint(), "metro", None),
    (2, PolicyConstraint(min_trust=2), "metro", {Tier.EDGE}),
    (1, PolicyConstraint(min_trust=1, allowed_domains=("d2",)), "far", None),
    (1, PolicyConstraint(locality_scope=LocalityScope.DOMAIN, allowed_domains=("d1",)), "metro", None),
    (1, PolicyConstraint(min_trust=3, locality_scope=LocalityScope.DOMAIN, allowed_domains=("d2",)), "far", {Tier.CLOUD}),
    (1, PolicyConstraint(locality_scope=LocalityScope.REGION), "metro", None),
    (1, PolicyConstraint(locality_scope=LocalityScope.REGION), "far", None),
    (2, PolicyConstraint(min_trust=1, locality_scope=LocalityScope.REGION), "far", {Tier.LOCAL, Tier.EDGE}),
    (1, PolicyConstraint(locality_scope=LocalityScope.NODE_LOCAL), "metro", {Tier.LOCAL}),
    (1, PolicyConstraint(locality_scope=LocalityScope.NODE_LOCAL), "far", {Tier.LOCAL}),
    (1, PolicyConstraint(min_trust=1, locality_scope=LocalityScope.NODE_LOCAL), "far", None),
]

TABLE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["install", "evict", "drain", "toggle", "attest", "revoke", "register", "advance"]),
        st.integers(0, len(TABLE_PROFILES)),  # index into the registered nodes, in id order
        st.sampled_from(TABLE_REALIZATIONS),
        st.integers(0, 3000),
    ),
    max_size=30,
)


def table_broker():
    catalog = CapabilityCatalog()
    catalog.add_class(make_class("chat"))
    catalog.add_variant(make_variant("chat-v1", "chat", quality=1))
    # chat-v2's trust floor keeps it off the trust-1 nodes.
    catalog.add_variant(make_variant("chat-v2", "chat", quality=2, min_trust=2, preferred_trust=2))
    catalog.add_realization(make_realization("chat-v1-gpu", "chat-v1", artifact_size=GIB))
    catalog.add_realization(make_realization("chat-v1-cpu", "chat-v1", accelerator="cpu", artifact_size=GIB))
    catalog.add_realization(make_realization("chat-v2-gpu", "chat-v2", artifact_size=2 * GIB))
    topology = make_topology(TABLE_PROFILES + [LATE_PROFILE], [], domains=[Domain("d1"), Domain("d2")])
    trust = TrustManager()
    for rid in catalog.realizations:
        trust.register_lineage(rid, (("base", rid),))
    broker = Broker(catalog, topology, trust=trust)
    for p in TABLE_PROFILES:
        broker.register_node(p)
        trust.attest(AttestationRecord(p.node_id, p.trust, 0, None))
    return broker


@settings(max_examples=100, deadline=None)
@given(TABLE_OPS)
def test_candidate_tables_match_brute_force_under_churn(ops):
    """The table-backed lookup against a full scan after every change a table
    must survive (residency, liveness, lapsing trust, time) or be rebuilt for
    (a revocation, a late registration)."""
    broker = table_broker()
    now = 0
    for op, index, rid, amount in ops:
        state = broker.node(sorted(broker.nodes)[index % len(broker.nodes)])
        node_id = state.node_id
        if op == "install":  # a load finishing ``amount`` µs from now
            if rid in state.residency or broker.free_memory(node_id) >= broker.footprint(rid):
                broker.install(node_id, rid, now + amount)
        elif op == "evict":
            broker.evict(node_id, rid)
        elif op == "drain":
            if rid in state.residency:
                broker.mark_eviction(node_id, rid, not state.residency[rid].pending_eviction)
        elif op == "toggle":
            broker.set_online(node_id, not state.online)
        elif op == "attest":  # a level up to the claimed trust, lapsing ``amount`` µs from now
            broker.trust.attest(AttestationRecord(node_id, amount % (state.profile.trust + 1), now, amount))
        elif op == "revoke":
            broker.trust.revoke(rid)
        elif op == "register":
            if LATE_PROFILE.node_id not in broker.nodes:
                broker.register_node(LATE_PROFILE)
                broker.trust.attest(AttestationRecord(LATE_PROFILE.node_id, LATE_PROFILE.trust, now, None))
        else:
            now += amount
        for quality_target, policy, origin, tiers in TABLE_LOOKUPS:
            table = broker.table("chat", quality_target, policy, origin, tiers)
            hits = broker.lookup_candidates(table, now, policy.min_trust)
            want = brute_force_candidates(broker, "chat", quality_target, policy, origin, now, tiers)
            # Node-id order, then realization-id order.
            assert named_hits(table, hits) == sorted(want)
            assert all(table.pairs[p][0] is broker.node(table.pairs[p][0].node_id) for p, _ in hits)
