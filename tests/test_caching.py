import random
from fractions import Fraction

import pytest

from capsim.caching import (
    REJECT_ALREADY_RESIDENT,
    REJECT_INSUFFICIENT_SPACE,
    REJECT_NEGATIVE_BENEFIT,
    REJECT_SCOPE_VIOLATION,
    BenefitInputs,
    CacheSystem,
    ScopeViolation,
    StateStore,
    benefit_us,
    compatibility_hash,
    estimate_p_hit,
)
from capsim.descriptors import StateDescriptor


def make_state(state_id="s1", size=1000, compat="h1"):
    return StateDescriptor(state_id=state_id, compatibility_hash=compat, size=size)


# -- compatibility hash ---------------------------------------------------------


def test_hash_deterministic():
    a = compatibility_hash("real-1", "tok-a", "greedy", "prefix-1")
    b = compatibility_hash("real-1", "tok-a", "greedy", "prefix-1")
    assert a == b


def test_hash_sensitive_to_decoding_config():
    a = compatibility_hash("real-1", "tok-a", "greedy", "prefix-1")
    b = compatibility_hash("real-1", "tok-a", "top-k", "prefix-1")
    assert a != b


def test_hash_sensitive_to_realization():
    a = compatibility_hash("real-1", "tok-a", None, "prefix-1")
    b = compatibility_hash("real-2", "tok-a", None, "prefix-1")
    assert a != b


# -- admission value --------------------------------------------------------------


def test_benefit_arithmetic():
    inputs = BenefitInputs(p_hit=Fraction(1, 2), latency_gain_us=100_000, storage_cost_us=15_000)
    assert benefit_us(inputs) == 35_000


def test_zero_hit_probability_never_positive():
    inputs = BenefitInputs(p_hit=Fraction(0), latency_gain_us=10**9, storage_cost_us=1)
    assert benefit_us(inputs) <= 0




# -- reuse probability -------------------------------------------------------------


def test_fresh_entry_prior_is_half():
    store = StateStore("n1", 10_000)
    decision = store.admit(make_state(), BenefitInputs(Fraction(1, 2), 1000), "sess-1", now=0)
    assert decision.admitted
    entry = store.peek("h1", "sess-1")
    assert estimate_p_hit(entry, now=0, window_us=1000) == Fraction(1, 2)


def test_p_hit_counts_window_hits():
    store = StateStore("n1", 10_000, window_us=10_000)
    store.admit(make_state(), BenefitInputs(Fraction(1, 2), 1000), "sess-1", now=0)
    entry = store.peek("h1", "sess-1")
    for i in range(18):
        entry.record_lookup(now=i, hit=i < 9)
    assert estimate_p_hit(entry, now=18, window_us=10_000) == Fraction(10, 20)


def test_p_hit_all_misses():
    store = StateStore("n1", 10_000, window_us=10_000)
    store.admit(make_state(), BenefitInputs(Fraction(1, 2), 1000), "sess-1", now=0)
    entry = store.peek("h1", "sess-1")
    for i in range(98):
        entry.record_lookup(now=i, hit=False)
    assert estimate_p_hit(entry, now=99, window_us=10_000) == Fraction(1, 100)


def test_window_prunes_old_lookups():
    store = StateStore("n1", 10_000, window_us=100)
    store.admit(make_state(), BenefitInputs(Fraction(1, 2), 1000), "sess-1", now=0)
    entry = store.peek("h1", "sess-1")
    entry.record_lookup(now=0, hit=True)
    entry.record_lookup(now=500, hit=False)
    assert entry.stats_in_window(now=550, window_us=100) == (1, 0)


# -- admit / reject ------------------------------------------------------------------


def test_admit_with_space():
    store = StateStore("n1", 10_000)
    decision = store.admit(
        make_state(),
        BenefitInputs(Fraction(1, 2), 100_000, storage_cost_us=15_000),
        "sess-1",
        now=0,
    )
    assert decision.admitted and decision.benefit_us == 35_000


def test_negative_benefit_rejected():
    store = StateStore("n1", 10_000)
    decision = store.admit(make_state(), BenefitInputs(Fraction(1, 2), 1000, storage_cost_us=5_000), "sess-1", now=0)
    assert decision.outcome == REJECT_NEGATIVE_BENEFIT


def test_session_private_scope_needs_node_trust():
    store = StateStore("n1", 10_000)
    decision = store.admit(
        make_state(), BenefitInputs(Fraction(1, 2), 100_000), "sess-1", now=0,
        node_trust=0, requester_min_trust=2,
    )
    assert decision.outcome == REJECT_SCOPE_VIOLATION


def test_duplicate_admission_rejected():
    store = StateStore("n1", 10_000)
    assert store.admit(make_state(), BenefitInputs(Fraction(1, 2), 100_000), "sess-1", now=0).admitted
    again = store.admit(make_state(), BenefitInputs(Fraction(1, 2), 100_000), "sess-1", now=0)
    assert again.outcome == REJECT_ALREADY_RESIDENT


def test_admission_displaces_only_lower_density():
    store = StateStore("n1", 1000)
    # Low-value resident: density (1/2 * 100) / 1000.
    store.admit(make_state("weak", compat="h-weak"), BenefitInputs(Fraction(1, 2), 100), "sess-1", now=0)
    # High-value newcomer displaces it.
    strong = store.admit(
        make_state("strong", compat="h-strong"),
        BenefitInputs(Fraction(1, 2), 1_000_000), "sess-1", now=0,
    )
    assert strong.admitted and strong.evicted == ("weak",)
    # A weaker-than-resident newcomer is refused instead.
    refused = store.admit(
        make_state("weaker", compat="h-weaker"),
        BenefitInputs(Fraction(1, 2), 10), "sess-1", now=0,
    )
    assert refused.outcome == REJECT_INSUFFICIENT_SPACE


# -- eviction ---------------------------------------------------------------------
# Eviction happens only inside ``admit``, when a newcomer needs room.


def test_evict_for_with_ample_space_is_empty():
    store = StateStore("n1", 10_000)
    store.admit(make_state(), BenefitInputs(Fraction(1, 2), 100_000), "sess-1", now=0)
    decision = store.admit(make_state("s2", compat="h2"), BenefitInputs(Fraction(1, 2), 100_000), "sess-1", now=0)
    assert decision.admitted and decision.evicted == ()


def test_evict_for_orders_by_benefit_density():
    store = StateStore("n1", 2000)
    store.admit(make_state("low", compat="h-low"), BenefitInputs(Fraction(1, 2), 200), "s", now=0)
    store.admit(make_state("high", compat="h-high"), BenefitInputs(Fraction(1, 2), 1_000_000), "s", now=0)
    decision = store.admit(make_state("new", compat="h-new"), BenefitInputs(Fraction(1, 2), 10**9), "s", now=0)
    assert decision.admitted and decision.evicted == ("low",)


def test_admit_larger_than_capacity_rejected():
    store = StateStore("n1", 100)
    decision = store.admit(make_state(size=1000), BenefitInputs(Fraction(1, 2), 100_000), "sess-1", now=0)
    assert decision.outcome == REJECT_INSUFFICIENT_SPACE and store.entries == {}










def test_pinned_entries_survive_eviction():
    store = StateStore("n1", 2000)
    store.admit(make_state("pinned", compat="h-p"), BenefitInputs(Fraction(1, 2), 10), "s", now=0)
    store.peek("h-p", "s").pins = 1
    store.admit(make_state("free", compat="h-f"), BenefitInputs(Fraction(1, 2), 1_000_000), "s", now=0)
    decision = store.admit(make_state("new", compat="h-new"), BenefitInputs(Fraction(1, 2), 10**9), "s", now=0)
    assert decision.evicted == ("free",)
    assert store.peek("h-p", "s") is not None


def test_session_end_drops_private_entries():
    system = CacheSystem()
    store = system.add_store("n1", 10_000)
    store.admit(make_state("a", compat="h-a"), BenefitInputs(Fraction(1, 2), 1000), "sess-1", now=0)
    store.admit(make_state("b", compat="h-b"), BenefitInputs(Fraction(1, 2), 1000), "sess-2", now=0)
    dropped = system.drop_session("sess-1")
    assert dropped == [("n1", "a")]
    assert store.peek("h-b", "sess-2") is not None


# -- lookup scoping ------------------------------------------------------------------


def test_lookup_same_session_hits():
    store = StateStore("n1", 10_000)
    store.admit(make_state(), BenefitInputs(Fraction(1, 2), 1000), "sess-1", now=0, token_count=64)
    entry, covered = store.lookup("h1", "sess-1", now=1, requester_session="sess-1")
    assert entry is not None and covered == 64


def test_lookup_other_session_misses():
    store = StateStore("n1", 10_000)
    store.admit(make_state(), BenefitInputs(Fraction(1, 2), 1000), "sess-1", now=0, token_count=64)
    entry, covered = store.lookup("h1", "sess-1", now=1, requester_session="sess-2")
    assert entry is None and covered == 0






# -- migration ----------------------------------------------------------------------


def test_holders_and_session_drops_follow_node_id_order():
    system = CacheSystem()
    for node_id in ("n3", "n1", "n2"):  # registration order is not id order
        store = system.add_store(node_id, 10_000)
        store.admit(make_state(f"s-{node_id}"), BenefitInputs(Fraction(1, 2), 1000), "sess-1", now=0)
    assert [node_id for node_id, _ in system.holders("h1", "sess-1")] == ["n1", "n2", "n3"]
    assert system.drop_session("sess-1") == [("n1", "s-n1"), ("n2", "s-n2"), ("n3", "s-n3")]
    assert system.holders("h1", "sess-1") == []




def test_migration_transfer_arithmetic():
    from fractions import Fraction as F

    from capsim.topology import Link
    from conftest import make_profile, make_topology

    topo = make_topology(
        [make_profile("n1"), make_profile("n2")],
        [Link("l", "n1", "n2", 10_000, F(100))],
    )
    system = CacheSystem()
    store = system.add_store("n1", 2 << 20)
    system.add_store("n2", 2 << 20)
    one_mib = 1 << 20
    store.admit(
        make_state("kv-1", size=one_mib, compat="h-kv"),
        BenefitInputs(Fraction(1, 2), 10_000_000), "sess-1", now=0,
    )
    entry = store.peek("h-kv", "sess-1")
    system.check_migration(entry, dst_trust=3, requester_min_trust=0)
    transfer_us, core = topo.transfer_between("n1", "n2", entry.size)
    # 10000 us propagation + ceil(1048576 / 100) serialization.
    assert transfer_us == 10_000 + 10_486
    assert core == 0


def test_migration_scope_violation():
    system = CacheSystem()
    store = system.add_store("n1", 10_000)
    store.admit(make_state(), BenefitInputs(Fraction(1, 2), 1000), "sess-1", now=0, node_trust=3, requester_min_trust=2)
    entry = store.peek("h1", "sess-1")
    with pytest.raises(ScopeViolation):
        system.check_migration(entry, dst_trust=0, requester_min_trust=2)


def test_capacity_never_exceeded_under_random_ops():
    rng = random.Random(5)
    store = StateStore("n1", 5_000)
    for i in range(300):
        size = rng.randint(100, 2000)
        state = make_state(f"s{i}", compat=f"h{i}", size=size)
        store.admit(
            state,
            BenefitInputs(Fraction(1, 2), rng.randint(0, 100_000)),
            "sess",
            now=i,
        )
        assert store.used_bytes() <= store.capacity_bytes
        if rng.random() < 0.1 and store.entries:
            # Pinned entries are skipped by admission's eviction loop.
            entry = rng.choice(sorted(store.entries.values(), key=lambda e: e.state_id))
            entry.pins = 1 - entry.pins
