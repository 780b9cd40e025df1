"""State-aware caching: benefit-priced admission, density eviction, scoped
lookup, and cooperative migration between node stores.

Admission compares predicted reuse value against transfer/storage/privacy
costs; eviction drops the lowest benefit-density residents first. Entries a
selected plan depends on are pinned until the request completes so scored
coverage cannot be evicted mid-flight.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .descriptors import DataClass, SharingScope, StateDescriptor

INFINITE_COST = None  # sentinel: scope forbids placement outright

ADMITTED = "Admitted"
REJECT_NEGATIVE_BENEFIT = "NegativeBenefit"
REJECT_SCOPE_VIOLATION = "ScopeViolation"
REJECT_INSUFFICIENT_SPACE = "InsufficientSpace"
REJECT_ALREADY_RESIDENT = "AlreadyResident"


class HardwareBound(Exception):
    pass


class ScopeViolation(Exception):
    pass


def compatibility_hash(
    realization_id: str,
    tokenizer_tag: str,
    decoding_config: str | None,
    prefix_token_digest: str,
) -> str:
    """Deterministic digest over the canonical serialization of the inputs."""
    payload = json.dumps(
        [realization_id, tokenizer_tag, decoding_config, prefix_token_digest],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True, slots=True)
class BenefitInputs:
    p_hit: Fraction            # predicted reuse probability in [0, 1]
    latency_gain_us: int       # expected latency reduction per hit
    transfer_cost_us: int = 0
    storage_cost_us: int = 0
    privacy_cost_us: int | None = 0  # None = infinite (scope forbids placement)


def benefit_us(inputs: BenefitInputs) -> Fraction | None:
    """Admission value: p_hit * gain - transfer - storage - privacy.

    Returns None for the infinite-privacy sentinel (never admissible).
    """
    if inputs.privacy_cost_us is INFINITE_COST:
        return None
    return (
        inputs.p_hit * inputs.latency_gain_us
        - inputs.transfer_cost_us
        - inputs.storage_cost_us
        - inputs.privacy_cost_us
    )


@dataclass(slots=True)
class CacheEntry:
    descriptor: StateDescriptor
    scope_key: str | None      # session id / tenant id depending on scope
    latency_gain_us: int       # per-hit gain frozen at admission
    storage_cost_us: int
    token_count: int = 0       # tokens a prefix/tensor hit covers
    source_realization: str | None = None  # for revocation invalidation
    admitted_at_us: int = 0
    last_used_us: int = 0
    window: deque = field(default_factory=deque)  # (timestamp, was_hit)
    pins: int = 0

    @property
    def state_id(self) -> str:
        return self.descriptor.state_id

    @property
    def size(self) -> int:
        return self.descriptor.size

    def record_lookup(self, now: int, hit: bool) -> None:
        self.window.append((now, hit))

    def stats_in_window(self, now: int, window_us: int) -> tuple[int, int]:
        cutoff = now - window_us
        while self.window and self.window[0][0] < cutoff:
            self.window.popleft()
        lookups = len(self.window)
        hits = sum(1 for _, h in self.window if h)
        return lookups, hits


def estimate_p_hit(entry: CacheEntry, now: int, window_us: int) -> Fraction:
    """Laplace-smoothed reuse probability over the sliding window."""
    lookups, hits = entry.stats_in_window(now, window_us)
    return Fraction(hits + 1, lookups + 2)


@dataclass(frozen=True, slots=True)
class CacheDecision:
    outcome: str
    benefit_us: Fraction | None = None
    evicted: tuple[str, ...] = ()

    @property
    def admitted(self) -> bool:
        return self.outcome == ADMITTED


POLICY_BENEFIT = "benefit"
POLICY_LRU = "lru"


class StateStore:
    """One node's cache of reusable state objects.

    Eviction orders by benefit density by default; ``policy="lru"`` switches
    to least-recently-used ordering for ablation runs. Admission is always
    benefit-gated.
    """

    def __init__(
        self,
        node_id: str,
        capacity_bytes: int,
        window_us: int = 300_000_000,
        policy: str = POLICY_BENEFIT,
    ):
        if policy not in (POLICY_BENEFIT, POLICY_LRU):
            raise ValueError(f"unknown eviction policy {policy!r}")
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self.window_us = window_us
        self.policy = policy
        self.entries: dict[str, CacheEntry] = {}  # keyed by (hash, scope_key) digest

    @staticmethod
    def entry_key(compat_hash: str, scope_key: str | None) -> str:
        return f"{compat_hash}|{scope_key or ''}"

    def used_bytes(self) -> int:
        return sum(e.size for e in self.entries.values())

    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes()

    def live_benefit(self, entry: CacheEntry, now: int) -> Fraction:
        # Resident entries have sunk transfer and zero privacy cost; only
        # reuse value vs storage carry is live.
        p_hit = estimate_p_hit(entry, now, self.window_us)
        return p_hit * entry.latency_gain_us - entry.storage_cost_us

    def benefit_density(self, entry: CacheEntry, now: int) -> Fraction:
        if entry.size <= 0:
            return self.live_benefit(entry, now)
        return self.live_benefit(entry, now) / entry.size

    def _eviction_order(self, now: int) -> list[CacheEntry]:
        if self.policy == POLICY_LRU:
            return sorted(self.entries.values(), key=lambda e: (e.last_used_us, e.state_id))
        return sorted(
            self.entries.values(),
            key=lambda e: (self.benefit_density(e, now), e.state_id),
        )

    def scope_permitted(self, descriptor: StateDescriptor, node_trust: int, requester_min_trust: int) -> bool:
        if descriptor.sharing_scope is SharingScope.SESSION_PRIVATE:
            return node_trust >= requester_min_trust
        return True

    def admit(
        self,
        descriptor: StateDescriptor,
        inputs: BenefitInputs,
        scope_key: str | None,
        now: int,
        node_trust: int = 0,
        requester_min_trust: int = 0,
        token_count: int = 0,
        source_realization: str | None = None,
    ) -> CacheDecision:
        if self.peek(descriptor.compatibility_hash, scope_key) is not None:
            return CacheDecision(REJECT_ALREADY_RESIDENT)
        if not self.scope_permitted(descriptor, node_trust, requester_min_trust):
            return CacheDecision(REJECT_SCOPE_VIOLATION)
        value = benefit_us(inputs)
        if value is None or value <= 0:
            return CacheDecision(REJECT_NEGATIVE_BENEFIT, benefit_us=value)
        if descriptor.size > self.capacity_bytes:
            return CacheDecision(REJECT_INSUFFICIENT_SPACE, benefit_us=value)

        entry = CacheEntry(
            descriptor=descriptor,
            scope_key=scope_key,
            latency_gain_us=inputs.latency_gain_us,
            storage_cost_us=inputs.storage_cost_us,
            token_count=token_count,
            source_realization=source_realization,
            admitted_at_us=now,
            last_used_us=now,
        )
        evicted: list[CacheEntry] = []
        if self.free_bytes() < descriptor.size:
            # Benefit mode only displaces residents below the newcomer's
            # density; LRU displaces the stalest entries unconditionally.
            density = (value / descriptor.size) if descriptor.size > 0 else value
            planned: list[CacheEntry] = []
            freed = self.free_bytes()
            for victim in self._eviction_order(now):
                if victim.pins > 0:
                    continue
                if self.policy == POLICY_BENEFIT and self.benefit_density(victim, now) >= density:
                    break
                planned.append(victim)
                freed += victim.size
                if freed >= descriptor.size:
                    break
            if freed < descriptor.size:
                return CacheDecision(REJECT_INSUFFICIENT_SPACE, benefit_us=value)
            for victim in planned:
                del self.entries[self.entry_key(victim.descriptor.compatibility_hash, victim.scope_key)]
            evicted = planned
        self.entries[self.entry_key(descriptor.compatibility_hash, scope_key)] = entry
        return CacheDecision(ADMITTED, benefit_us=value, evicted=tuple(e.state_id for e in evicted))

    def lookup(
        self,
        compat_hash: str,
        scope_key: str | None,
        now: int,
        requester_session: str | None = None,
        requester_tenant: str | None = None,
    ) -> tuple[CacheEntry | None, int]:
        """Scoped lookup: (entry, covered_tokens) on hit, (None, 0) on miss.

        A hash match whose scope key the requester is not authorized for
        (other session for session_private, other tenant for tenant_shared)
        counts as a lookup on the entry but misses.
        """
        entry = self.entries.get(self.entry_key(compat_hash, scope_key))
        if entry is None:
            return None, 0
        scope = entry.descriptor.sharing_scope
        authorized = True
        if scope is SharingScope.SESSION_PRIVATE:
            authorized = requester_session is not None and entry.scope_key == requester_session
        elif scope is SharingScope.TENANT_SHARED:
            authorized = requester_tenant is not None and entry.scope_key == requester_tenant
        if not authorized:
            entry.record_lookup(now, hit=False)
            return None, 0
        entry.record_lookup(now, hit=True)
        entry.last_used_us = now
        return entry, entry.token_count

    def peek(self, compat_hash: str, scope_key: str | None) -> CacheEntry | None:
        """Counter-free residency check used by plan scoring."""
        return self.entries.get(self.entry_key(compat_hash, scope_key))

    def drop_session(self, session_id: str) -> list[str]:
        dropped = []
        for key, entry in list(self.entries.items()):
            if (
                entry.descriptor.sharing_scope is SharingScope.SESSION_PRIVATE
                and entry.scope_key == session_id
            ):
                del self.entries[key]
                dropped.append(entry.state_id)
        return dropped

    def drop_by_realization(self, realization_id: str) -> list[str]:
        """Invalidate unpinned entries derived from a revoked realization."""
        dropped = []
        for key, entry in list(self.entries.items()):
            if entry.source_realization == realization_id and entry.pins == 0:
                del self.entries[key]
                dropped.append(entry.state_id)
        return dropped


class CacheSystem:
    """All node stores plus the affinity index routing consults."""

    def __init__(self, window_us: int = 300_000_000, enabled: bool = True, policy: str = POLICY_BENEFIT):
        self.window_us = window_us
        self.enabled = enabled
        self.policy = policy
        self.stores: dict[str, StateStore] = {}
        self._node_ids: tuple[str, ...] = ()  # sorted keys of ``stores``

    def add_store(self, node_id: str, capacity_bytes: int) -> StateStore:
        store = StateStore(node_id, capacity_bytes, self.window_us, policy=self.policy)
        self.stores[node_id] = store
        self._node_ids = tuple(sorted(self.stores))
        return store

    def store(self, node_id: str) -> StateStore:
        return self.stores[node_id]

    def holders(self, compat_hash: str, scope_key: str | None) -> list[tuple[str, CacheEntry]]:
        """Nodes currently holding a matching entry, sorted by node id."""
        if not self.enabled:
            return []
        out = []
        for node_id in self._node_ids:
            entry = self.stores[node_id].peek(compat_hash, scope_key)
            if entry is not None:
                out.append((node_id, entry))
        return out

    def migratable(self, entry: CacheEntry) -> bool:
        return entry.descriptor.sharing_scope is not SharingScope.HARDWARE_BOUND

    def check_migration(self, entry: CacheEntry, dst_trust: int, requester_min_trust: int) -> None:
        if not self.migratable(entry):
            raise HardwareBound(entry.state_id)
        if entry.descriptor.sharing_scope is SharingScope.SESSION_PRIVATE and dst_trust < requester_min_trust:
            raise ScopeViolation(entry.state_id)
        if entry.descriptor.privacy_label is not DataClass.PUBLIC and dst_trust < requester_min_trust:
            raise ScopeViolation(entry.state_id)

    def drop_session(self, session_id: str) -> list[tuple[str, str]]:
        dropped = []
        for node_id in self._node_ids:
            for state_id in self.stores[node_id].drop_session(session_id):
                dropped.append((node_id, state_id))
        return dropped

    def drop_by_realization(self, realization_id: str) -> list[tuple[str, str]]:
        dropped = []
        for node_id in self._node_ids:
            for state_id in self.stores[node_id].drop_by_realization(realization_id):
                dropped.append((node_id, state_id))
        return dropped
