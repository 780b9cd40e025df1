import random
from collections import Counter, deque
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from capsim.caching import (
    ADMITTED,
    REJECT_ALREADY_RESIDENT,
    REJECT_INSUFFICIENT_SPACE,
    REJECT_NEGATIVE_BENEFIT,
    REJECT_SCOPE_VIOLATION,
    CacheEntry,
    CacheSystem,
    StateStore,
    p_hit_of,
    state_key,
)
from capsim.engine import Simulation
from capsim.scenario import Scenario

HALF = (1, 2)  # p_hit as (numerator, denominator)


def make_entry(state_id="s1", size=1000, key="h1", session="sess-1", gain=1000, storage=0, tokens=0):
    return CacheEntry(state_id, key, size, session, gain, storage, token_count=tokens)


# -- state key ----------------------------------------------------------------------


def test_key_of_equal_inputs_is_equal():
    assert state_key("real-1", "prefix-1") == state_key("real-1", "prefix-1")
    assert hash(state_key("real-1", "prefix-1")) == hash(state_key("real-1", "prefix-1"))


def test_hash_sensitive_to_realization():
    assert state_key("real-1", "prefix-1") != state_key("real-2", "prefix-1")


def test_hash_sensitive_to_prefix():
    assert state_key("real-1", "prefix-1") != state_key("real-1", "prefix-2")


def test_sessions_with_one_prefix_hold_separate_entries():
    store = StateStore("n1", 10_000)
    key = state_key("real-1", "prefix-1")
    for session in ("sess-1", "sess-2"):
        assert store.admit(make_entry(f"st-{session}", 100, key, session), HALF, now=0).admitted
    assert [store.peek(key, s).state_id for s in ("sess-1", "sess-2")] == ["st-sess-1", "st-sess-2"]
    assert len(store.entries) == 2
    store.drop_session("sess-1")
    assert store.peek(key, "sess-1") is None and store.peek(key, "sess-2").state_id == "st-sess-2"


# -- admission value --------------------------------------------------------------


def test_benefit_arithmetic():
    assert StateStore("n1", 10_000).admit(make_entry(gain=100_000, storage=15_000), HALF, now=0).benefit == 35_000


def test_zero_hit_probability_never_positive():
    decision = StateStore("n1", 10_000).admit(make_entry(gain=10**9, storage=1), (0, 1), now=0)
    assert decision.outcome == REJECT_NEGATIVE_BENEFIT and decision.benefit <= 0


# -- reuse probability -------------------------------------------------------------


def test_fresh_entry_prior_is_half():
    store = StateStore("n1", 10_000)
    decision = store.admit(make_entry(), HALF, now=0)
    assert decision.admitted
    entry = store.peek("h1", "sess-1")
    assert p_hit_of(entry, now=0, window_us=1000) == (1, 2)


def test_p_hit_counts_window_hits():
    store = StateStore("n1", 10_000, window_us=10_000)
    store.admit(make_entry(), HALF, now=0)
    for i in range(18):
        store.lookup("h1", "sess-1", now=i)
    assert p_hit_of(store.peek("h1", "sess-1"), now=18, window_us=10_000) == (19, 20)


def test_window_prunes_old_lookups():
    store = StateStore("n1", 10_000, window_us=100)
    store.admit(make_entry(), HALF, now=0)
    store.lookup("h1", "sess-1", now=0)
    store.lookup("h1", "sess-1", now=500)
    entry = store.peek("h1", "sess-1")
    assert p_hit_of(entry, now=550, window_us=100) == (2, 3)
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
    store.admit(make_entry("weak", key="h-weak", gain=100), HALF, now=0)
    # High-value newcomer displaces it.
    strong = store.admit(make_entry("strong", key="h-strong", gain=1_000_000), HALF, now=0)
    assert strong.admitted and strong.evicted == ("weak",)
    # A weaker-than-resident newcomer is refused instead.
    refused = store.admit(make_entry("weaker", key="h-weaker", gain=10), HALF, now=0)
    assert refused.outcome == REJECT_INSUFFICIENT_SPACE


# -- eviction ---------------------------------------------------------------------
# Eviction happens only inside ``admit``, when a newcomer needs room.


def test_evict_for_with_ample_space_is_empty():
    store = StateStore("n1", 10_000)
    store.admit(make_entry(gain=100_000), HALF, now=0)
    decision = store.admit(make_entry("s2", key="h2", gain=100_000), HALF, now=0)
    assert decision.admitted and decision.evicted == ()


def test_evict_for_orders_by_benefit_density():
    store = StateStore("n1", 2000)
    store.admit(make_entry("low", key="h-low", session="s", gain=200), HALF, now=0)
    store.admit(make_entry("high", key="h-high", session="s", gain=1_000_000), HALF, now=0)
    decision = store.admit(make_entry("new", key="h-new", session="s", gain=10**9), HALF, now=0)
    assert decision.admitted and decision.evicted == ("low",)


def test_admit_larger_than_capacity_rejected():
    store = StateStore("n1", 100)
    decision = store.admit(make_entry(size=1000, gain=100_000), HALF, now=0)
    assert decision.outcome == REJECT_INSUFFICIENT_SPACE and store.entries == {}


def test_pinned_entries_survive_eviction():
    store = StateStore("n1", 2000)
    store.admit(make_entry("pinned", key="h-p", session="s", gain=10), HALF, now=0)
    store.peek("h-p", "s").pins = 1
    store.admit(make_entry("free", key="h-f", session="s", gain=1_000_000), HALF, now=0)
    decision = store.admit(make_entry("new", key="h-new", session="s", gain=10**9), HALF, now=0)
    assert decision.evicted == ("free",)
    assert store.peek("h-p", "s") is not None


def test_session_end_drops_private_entries():
    system = CacheSystem()
    store = system.add_store("n1", 10_000)
    store.admit(make_entry("a", key="h-a"), HALF, now=0)
    store.admit(make_entry("b", key="h-b", session="sess-2"), HALF, now=0)
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
    for tokens, node_id in enumerate(("n3", "n1", "n2"), 1):  # registration order is not id order
        store = system.add_store(node_id, 10_000)
        store.admit(make_entry(f"s-{node_id}", tokens=tokens), HALF, now=0)
    holders, top = system.holders("h1", "sess-1")
    assert ([node_id for node_id, _ in holders], top) == (["n1", "n2", "n3"], 3)
    assert system.drop_session("sess-1") == [("n1", "s-n1"), ("n2", "s-n2"), ("n3", "s-n3")]
    assert system.holders("h1", "sess-1") == ((), 0)


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
    store.admit(make_entry("kv-1", size=one_mib, key="h-kv", gain=10_000_000), HALF, now=0)
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
        entry = make_entry(f"s{i}", key=f"h{i}", size=size, session="sess", gain=rng.randint(0, 100_000))
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
# The holder covering the most tokens goes, and the most falls to the other's.
@example([("admit", "n1", "sess-1", "h1", 3), ("admit", "n2", "sess-1", "h1", 1), ("pop", "n1", "sess-1", "h1", 1)])
def test_session_index_holders_match_a_peek_of_every_store(ops):
    """``holders`` and ``drop_session`` read the holder index; a full scan of
    every store, in node-id order, must give the same holders and most tokens
    after any sequence of admissions, migrations, displacements and drops."""
    system = CacheSystem()
    for node_id in CACHE_NODES:
        system.add_store(node_id, 6)  # a few entries each, so admissions displace
    for now, (op, node_id, session, key, amount) in enumerate(ops):
        store = system.store(node_id)
        if op == "admit":
            entry = make_entry(f"s{now}", size=amount, key=key, session=session, gain=100 * (now % 5 + 1), tokens=amount)
            entry.source_realization = key
            store.admit(entry, HALF, now)
        elif op == "migrate":  # a copy of a held entry admitted on the next node, as the engine does
            held = [e for n, e in system.holders(key, session)[0] if n != node_id]
            if held:
                store.admit(replace(held[0], window=deque(), pins=0), HALF, now)
        elif op == "drop_session":
            want = [(n, e.state_id) for n in sorted(CACHE_NODES) for e in system.store(n).entries.values() if e.session_id == session]
            assert system.drop_session(session) == want
        elif op == "drop_realization":
            system.drop_by_realization(key)
        elif op == "pin":
            entry = store.peek(key, session)
            if entry is not None:
                entry.pins = 1 - entry.pins
        else:  # removed outside a drop, as a revoked entry is once its last pin goes
            store.remove(store.entry_key(key, session))
        for s in ("sess-1", "sess-2", "sess-3"):
            for h in ("h1", "h2"):
                want = tuple((n, e) for n in sorted(CACHE_NODES) if (e := system.store(n).peek(h, s)) is not None)
                assert system.holders(h, s) == (want, max((e.token_count for _, e in want), default=0))


# -- integer admission ----------------------------------------------------------------


def reference_admit(store: StateStore, entry: CacheEntry, p_hit: Fraction, now: int):
    """Admission priced in ``Fraction``s: (outcome, benefit, evicted state ids)
    for an entry new to ``store``, which it changes as admission does."""
    value = p_hit * entry.latency_gain_us - entry.storage_cost_us
    if value <= 0:
        return REJECT_NEGATIVE_BENEFIT, value, ()
    if entry.size > store.capacity_bytes:
        return REJECT_INSUFFICIENT_SPACE, value, ()

    def density(e: CacheEntry, p: Fraction) -> Fraction:
        v = p * e.latency_gain_us - e.storage_cost_us
        return v / e.size if e.size > 0 else v

    evicted = []
    if store.free_bytes() < entry.size:
        ranked = []
        for e in store.entries.values():
            lookups = sum(t >= now - store.window_us for t in e.window)
            ranked.append((density(e, Fraction(lookups + 1, lookups + 2)), e))
        ranked.sort(key=lambda pair: (pair[0], pair[1].state_id))
        freed = store.free_bytes()
        for victim_density, victim in ranked:
            if victim.pins > 0:
                continue
            if victim_density >= density(entry, p_hit):
                break
            evicted.append(victim)
            freed += victim.size
            if freed >= entry.size:
                break
        if freed < entry.size:
            return REJECT_INSUFFICIENT_SPACE, value, ()
        for victim in evicted:
            del store.entries[store.entry_key(victim.state_key, victim.session_id)]
    store.entries[store.entry_key(entry.state_key, entry.session_id)] = entry
    return ADMITTED, value, tuple(e.state_id for e in evicted)


# Few distinct sizes and gains, so equal densities are common.
sizes = st.sampled_from([0, 1, 1_000]) | st.integers(0, 2_000)
gains = st.sampled_from([0, 100]) | st.integers(0, 10**6)
residents = st.lists(
    st.tuples(
        sizes,
        gains,
        st.integers(0, 10**5),  # storage cost
        st.lists(st.integers(0, 100), max_size=4).map(sorted),  # lookup times
        st.booleans(),  # pinned
    ),
    max_size=6,
)
p_hits = st.integers(1, 20).flatmap(lambda den: st.tuples(st.integers(0, den), st.just(den)))


@settings(max_examples=300, deadline=None)
@given(
    residents,
    st.tuples(sizes, gains, st.integers(0, 10**5)),
    p_hits,
    st.integers(0, 5_000),
    st.integers(0, 150),
)
# A newcomer as dense as the only resident displaces nothing.
@example([(1_000, 100, 0, [], False)], (1_000, 100, 0), (1, 2), 1_000, 0)
# An empty resident's density is its whole benefit: -10, between the two others'.
@example(
    [(0, 0, 10, [], False), (1, 0, 15, [], False), (999, 10**6, 0, [], False)], (1, 100, 0), (1, 2), 1_000, 0
)
def test_integer_admission_matches_the_fraction_formula(held, newcomer, p_hit, capacity, now):
    """Outcome, benefit and victim order of ``admit`` equal admission priced
    in ``Fraction``s, and the traced ``benefit=`` text is ``str`` of the
    ``Fraction``."""
    store = StateStore("n1", capacity, window_us=50)
    for i, (size, gain, storage, times, pinned) in enumerate(held):
        if store.used_bytes() + size <= capacity:
            entry = make_entry(f"r{i}", size=size, key=f"h{i}", gain=gain, storage=storage)
            entry.window.extend(times)
            entry.pins = int(pinned)
            store.entries[store.entry_key(entry.state_key, entry.session_id)] = entry
    reference = deepcopy(store)
    size, gain, storage = newcomer
    outcome, benefit, evicted = reference_admit(
        reference, make_entry("new", size=size, key="h-new", gain=gain, storage=storage), Fraction(*p_hit), now
    )
    entry = make_entry("new", size=size, key="h-new", gain=gain, storage=storage)
    decision = store.admit(entry, p_hit, now)
    assert (decision.outcome, decision.benefit, decision.evicted) == (outcome, benefit, evicted)
    assert decision.benefit_text() == str(benefit)
    assert sorted(store.entries) == sorted(reference.entries)


def test_unpriced_decision_traces_minus_infinity():
    decision = StateStore("n1", 10_000).admit(make_entry(), HALF, now=0, node_trust=0, requester_min_trust=1)
    assert decision.benefit is None and decision.benefit_text() == "-inf"


def test_untraced_run_builds_no_fraction_to_admit_or_finish_a_request(monkeypatch):
    """An untraced run that admits, displaces and migrates session state
    builds no ``Fraction`` while it finishes a served request or admits state."""
    from test_golden import eviction_heavy_scenario

    sim = Simulation(Scenario.from_dict(eviction_heavy_scenario()))
    depth, built, calls = [0], [], Counter()

    def watched(cls, name):
        method = getattr(cls, name)

        def run(*args, **kwargs):
            calls[name] += 1
            depth[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, name, run)

    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        if depth[0]:
            built.append(args)
        return new(cls, *args, **kwargs)

    watched(Simulation, "_finish_served")
    watched(Simulation, "_apply_migration")
    watched(StateStore, "admit")
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    sim.run()
    assert min(calls["_finish_served"], calls["_apply_migration"], calls["admit"]) > 0
    assert built == []
