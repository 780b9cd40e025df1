import hashlib
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from capsim.caching import (
    REJECT_ALREADY_RESIDENT,
    REJECT_INSUFFICIENT_SPACE,
    REJECT_NEGATIVE_BENEFIT,
    REJECT_SCOPE_VIOLATION,
    CacheEntry,
    CacheSystem,
    StateStore,
    estimate_p_hit,
    state_hash,
)

HALF = Fraction(1, 2)


def make_entry(state_id="s1", size=1000, compat="h1", session="sess-1", gain=1000, storage=0, tokens=0):
    return CacheEntry(state_id, compat, size, session, gain, storage, token_count=tokens)


# -- state hash ---------------------------------------------------------------------


def test_hash_deterministic():
    assert state_hash("real-1", "prefix-1") == state_hash("real-1", "prefix-1")
    # The hashed payload's bytes are fixed.
    assert state_hash("real-1", "prefix-1") == hashlib.sha256(b'["real-1","default",null,"prefix-1"]').hexdigest()[:32]


def test_hash_sensitive_to_realization():
    assert state_hash("real-1", "prefix-1") != state_hash("real-2", "prefix-1")


def test_hash_sensitive_to_prefix():
    assert state_hash("real-1", "prefix-1") != state_hash("real-1", "prefix-2")


# -- admission value --------------------------------------------------------------


def test_benefit_arithmetic():
    assert make_entry(gain=100_000, storage=15_000).benefit(HALF) == 35_000


def test_zero_hit_probability_never_positive():
    assert make_entry(gain=10**9, storage=1).benefit(Fraction(0)) <= 0


# -- reuse probability -------------------------------------------------------------


def test_fresh_entry_prior_is_half():
    store = StateStore("n1", 10_000)
    decision = store.admit(make_entry(), HALF, now=0)
    assert decision.admitted
    entry = store.peek("h1", "sess-1")
    assert estimate_p_hit(entry, now=0, window_us=1000) == HALF


def test_p_hit_counts_window_hits():
    store = StateStore("n1", 10_000, window_us=10_000)
    store.admit(make_entry(), HALF, now=0)
    for i in range(18):
        store.lookup("h1", "sess-1", now=i)
    assert estimate_p_hit(store.peek("h1", "sess-1"), now=18, window_us=10_000) == Fraction(19, 20)


def test_window_prunes_old_lookups():
    store = StateStore("n1", 10_000, window_us=100)
    store.admit(make_entry(), HALF, now=0)
    store.lookup("h1", "sess-1", now=0)
    store.lookup("h1", "sess-1", now=500)
    entry = store.peek("h1", "sess-1")
    assert estimate_p_hit(entry, now=550, window_us=100) == Fraction(2, 3)
    assert list(entry.window) == [500]


# -- admit / reject ------------------------------------------------------------------


def test_admit_with_space():
    store = StateStore("n1", 10_000)
    decision = store.admit(make_entry(gain=100_000, storage=15_000), HALF, now=0)
    assert decision.admitted and decision.benefit == 35_000


def test_negative_benefit_rejected():
    store = StateStore("n1", 10_000)
    decision = store.admit(make_entry(gain=1000, storage=5_000), HALF, now=0)
    assert decision.outcome == REJECT_NEGATIVE_BENEFIT


def test_session_private_scope_needs_node_trust():
    store = StateStore("n1", 10_000)
    decision = store.admit(make_entry(gain=100_000), HALF, now=0, node_trust=0, requester_min_trust=2)
    assert decision.outcome == REJECT_SCOPE_VIOLATION


def test_duplicate_admission_rejected():
    store = StateStore("n1", 10_000)
    assert store.admit(make_entry(gain=100_000), HALF, now=0).admitted
    again = store.admit(make_entry(gain=100_000), HALF, now=0)
    assert again.outcome == REJECT_ALREADY_RESIDENT


def test_admission_displaces_only_lower_density():
    store = StateStore("n1", 1000)
    # Low-value resident: density (1/2 * 100) / 1000.
    store.admit(make_entry("weak", compat="h-weak", gain=100), HALF, now=0)
    # High-value newcomer displaces it.
    strong = store.admit(make_entry("strong", compat="h-strong", gain=1_000_000), HALF, now=0)
    assert strong.admitted and strong.evicted == ("weak",)
    # A weaker-than-resident newcomer is refused instead.
    refused = store.admit(make_entry("weaker", compat="h-weaker", gain=10), HALF, now=0)
    assert refused.outcome == REJECT_INSUFFICIENT_SPACE


# -- eviction ---------------------------------------------------------------------
# Eviction happens only inside ``admit``, when a newcomer needs room.


def test_evict_for_with_ample_space_is_empty():
    store = StateStore("n1", 10_000)
    store.admit(make_entry(gain=100_000), HALF, now=0)
    decision = store.admit(make_entry("s2", compat="h2", gain=100_000), HALF, now=0)
    assert decision.admitted and decision.evicted == ()


def test_evict_for_orders_by_benefit_density():
    store = StateStore("n1", 2000)
    store.admit(make_entry("low", compat="h-low", session="s", gain=200), HALF, now=0)
    store.admit(make_entry("high", compat="h-high", session="s", gain=1_000_000), HALF, now=0)
    decision = store.admit(make_entry("new", compat="h-new", session="s", gain=10**9), HALF, now=0)
    assert decision.admitted and decision.evicted == ("low",)


def test_admit_larger_than_capacity_rejected():
    store = StateStore("n1", 100)
    decision = store.admit(make_entry(size=1000, gain=100_000), HALF, now=0)
    assert decision.outcome == REJECT_INSUFFICIENT_SPACE and store.entries == {}


def test_pinned_entries_survive_eviction():
    store = StateStore("n1", 2000)
    store.admit(make_entry("pinned", compat="h-p", session="s", gain=10), HALF, now=0)
    store.peek("h-p", "s").pins = 1
    store.admit(make_entry("free", compat="h-f", session="s", gain=1_000_000), HALF, now=0)
    decision = store.admit(make_entry("new", compat="h-new", session="s", gain=10**9), HALF, now=0)
    assert decision.evicted == ("free",)
    assert store.peek("h-p", "s") is not None


def test_session_end_drops_private_entries():
    system = CacheSystem()
    store = system.add_store("n1", 10_000)
    store.admit(make_entry("a", compat="h-a"), HALF, now=0)
    store.admit(make_entry("b", compat="h-b", session="sess-2"), HALF, now=0)
    dropped = system.drop_session("sess-1")
    assert dropped == [("n1", "a")]
    assert store.peek("h-b", "sess-2") is not None


# -- lookup --------------------------------------------------------------------------


def test_lookup_same_session_hits():
    store = StateStore("n1", 10_000)
    store.admit(make_entry(tokens=64), HALF, now=0)
    entry = store.lookup("h1", "sess-1", now=1)
    assert entry is not None and entry.token_count == 64 and list(entry.window) == [1]


def test_lookup_other_session_misses():
    # Entries are keyed by session, so another session's lookup of the same
    # hash finds nothing and leaves the owner's window untouched.
    store = StateStore("n1", 10_000)
    store.admit(make_entry(tokens=64), HALF, now=0)
    assert store.lookup("h1", "sess-2", now=1) is None
    assert list(store.peek("h1", "sess-1").window) == []


# -- migration ----------------------------------------------------------------------


def test_holders_and_session_drops_follow_node_id_order():
    system = CacheSystem()
    for node_id in ("n3", "n1", "n2"):  # registration order is not id order
        store = system.add_store(node_id, 10_000)
        store.admit(make_entry(f"s-{node_id}"), HALF, now=0)
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
    store.admit(make_entry("kv-1", size=one_mib, compat="h-kv", gain=10_000_000), HALF, now=0)
    entry = store.peek("h-kv", "sess-1")
    transfer_us, core = topo.transfer_between("n1", "n2", entry.size)
    # 10000 us propagation + ceil(1048576 / 100) serialization.
    assert transfer_us == 10_000 + 10_486
    assert core == 0


def test_capacity_never_exceeded_under_random_ops():
    rng = random.Random(5)
    store = StateStore("n1", 5_000)
    for i in range(300):
        size = rng.randint(100, 2000)
        entry = make_entry(f"s{i}", compat=f"h{i}", size=size, session="sess", gain=rng.randint(0, 100_000))
        store.admit(entry, HALF, now=i)
        assert store.used_bytes() <= store.capacity_bytes
        if rng.random() < 0.1 and store.entries:
            # Pinned entries are skipped by admission's eviction loop.
            entry = rng.choice(sorted(store.entries.values(), key=lambda e: e.state_id))
            entry.pins = 1 - entry.pins


CACHE_NODES = ["n3", "n1", "n2", "n4"]  # registration order is not id order

CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["admit", "migrate", "drop_session", "drop_realization", "pin", "pop"]),
        st.sampled_from(CACHE_NODES),
        st.sampled_from(["sess-1", "sess-2", "sess-3"]),
        st.sampled_from(["h1", "h2"]),
        st.integers(1, 6),  # entry size
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(CACHE_OPS)
def test_session_index_holders_match_a_peek_of_every_store(ops):
    """``holders`` and ``drop_session`` read the session index; a full scan of
    every store, in node-id order, must give the same after any sequence of
    admissions, migrations, displacements and drops."""
    system = CacheSystem()
    for node_id in CACHE_NODES:
        system.add_store(node_id, 6)  # a few entries each, so admissions displace
    for now, (op, node_id, session, compat, amount) in enumerate(ops):
        store = system.store(node_id)
        if op == "admit":
            entry = make_entry(f"s{now}", size=amount, compat=compat, session=session, gain=100 * (now % 5 + 1))
            entry.source_realization = compat
            store.admit(entry, HALF, now)
        elif op == "migrate":  # a copy of a held entry admitted on the next node, as the engine does
            held = [e for n, e in system.holders(compat, session) if n != node_id]
            if held:
                store.admit(replace(held[0], window=deque(), pins=0), HALF, now)
        elif op == "drop_session":
            want = [(n, e.state_id) for n in sorted(CACHE_NODES) for e in system.store(n).entries.values() if e.session_id == session]
            assert system.drop_session(session) == want
        elif op == "drop_realization":
            system.drop_by_realization(compat)
        elif op == "pin":
            entry = store.peek(compat, session)
            if entry is not None:
                entry.pins = 1 - entry.pins
        else:  # removed behind the index's back, as a revoked pinned entry is
            store.entries.pop(store.entry_key(compat, session), None)
        for s in ("sess-1", "sess-2", "sess-3"):
            for h in ("h1", "h2"):
                want = [(n, system.store(n).peek(h, s)) for n in sorted(CACHE_NODES)]
                assert system.holders(h, s) == [(n, e) for n, e in want if e is not None]
