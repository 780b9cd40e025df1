"""State-aware caching of session KV state: benefit-priced admission,
density eviction, session-checked lookup, and migration between node stores.

The one kind of cached state is a session's prefill KV state. It is private
to its session, stored under (compatibility hash, session id), and migrating
it moves its own ``size`` bytes. Admission values it at
``p_hit * gain - storage``; eviction drops the lowest benefit-density
residents first. Entries a selected plan depends on are pinned until the
request completes so scored coverage cannot be evicted mid-flight.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .descriptors import StateDescriptor

ADMITTED = "Admitted"
REJECT_NEGATIVE_BENEFIT = "NegativeBenefit"
REJECT_SCOPE_VIOLATION = "ScopeViolation"
REJECT_INSUFFICIENT_SPACE = "InsufficientSpace"
REJECT_ALREADY_RESIDENT = "AlreadyResident"


class ScopeViolation(Exception):
    """Session state may not move to a node below the session's trust floor."""


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
    storage_cost_us: int = 0


def benefit_us(inputs: BenefitInputs) -> Fraction:
    """Admission value: p_hit * gain - storage."""
    return inputs.p_hit * inputs.latency_gain_us - inputs.storage_cost_us


@dataclass(slots=True)
class CacheEntry:
    descriptor: StateDescriptor
    session_id: str            # the only session the entry serves
    latency_gain_us: int       # per-hit gain frozen at admission
    storage_cost_us: int
    token_count: int = 0       # tokens a hit covers
    source_realization: str | None = None  # for revocation invalidation
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
    benefit_us: Fraction | None = None  # None when the value was never priced
    evicted: tuple[str, ...] = ()

    @property
    def admitted(self) -> bool:
        return self.outcome == ADMITTED


class StateStore:
    """One node's cache of session state objects.

    Admission is benefit-gated, and a newcomer displaces only residents of
    lower benefit density.
    """

    def __init__(self, node_id: str, capacity_bytes: int, window_us: int = 300_000_000):
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self.window_us = window_us
        self.entries: dict[str, CacheEntry] = {}  # keyed by entry_key(hash, session)

    @staticmethod
    def entry_key(compat_hash: str, session_id: str) -> str:
        return f"{compat_hash}|{session_id}"

    def used_bytes(self) -> int:
        return sum(e.size for e in self.entries.values())

    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes()

    def live_benefit(self, entry: CacheEntry, now: int) -> Fraction:
        p_hit = estimate_p_hit(entry, now, self.window_us)
        return p_hit * entry.latency_gain_us - entry.storage_cost_us

    def benefit_density(self, entry: CacheEntry, now: int) -> Fraction:
        if entry.size <= 0:
            return self.live_benefit(entry, now)
        return self.live_benefit(entry, now) / entry.size

    def admit(
        self,
        descriptor: StateDescriptor,
        inputs: BenefitInputs,
        session_id: str,
        now: int,
        node_trust: int = 0,
        requester_min_trust: int = 0,
        token_count: int = 0,
        source_realization: str | None = None,
    ) -> CacheDecision:
        if self.peek(descriptor.compatibility_hash, session_id) is not None:
            return CacheDecision(REJECT_ALREADY_RESIDENT)
        if node_trust < requester_min_trust:
            return CacheDecision(REJECT_SCOPE_VIOLATION)
        value = benefit_us(inputs)
        if value <= 0:
            return CacheDecision(REJECT_NEGATIVE_BENEFIT, benefit_us=value)
        if descriptor.size > self.capacity_bytes:
            return CacheDecision(REJECT_INSUFFICIENT_SPACE, benefit_us=value)

        entry = CacheEntry(
            descriptor=descriptor,
            session_id=session_id,
            latency_gain_us=inputs.latency_gain_us,
            storage_cost_us=inputs.storage_cost_us,
            token_count=token_count,
            source_realization=source_realization,
        )
        evicted: list[CacheEntry] = []
        if self.free_bytes() < descriptor.size:
            density = (value / descriptor.size) if descriptor.size > 0 else value
            ranked = sorted(
                ((self.benefit_density(e, now), e) for e in self.entries.values()),
                key=lambda pair: (pair[0], pair[1].state_id),
            )
            freed = self.free_bytes()
            for victim_density, victim in ranked:
                if victim.pins > 0:
                    continue
                if victim_density >= density:
                    break
                evicted.append(victim)
                freed += victim.size
                if freed >= descriptor.size:
                    break
            if freed < descriptor.size:
                return CacheDecision(REJECT_INSUFFICIENT_SPACE, benefit_us=value)
            for victim in evicted:
                del self.entries[self.entry_key(victim.descriptor.compatibility_hash, victim.session_id)]
        self.entries[self.entry_key(descriptor.compatibility_hash, session_id)] = entry
        return CacheDecision(ADMITTED, benefit_us=value, evicted=tuple(e.state_id for e in evicted))

    def lookup(
        self,
        compat_hash: str,
        session_id: str,
        now: int,
        requester_session: str | None = None,
    ) -> tuple[CacheEntry | None, int]:
        """(entry, covered_tokens) on hit, (None, 0) on miss.

        A hash match held for a session other than the requester's counts
        as a lookup on the entry but misses.
        """
        entry = self.entries.get(self.entry_key(compat_hash, session_id))
        if entry is None:
            return None, 0
        hit = entry.session_id == requester_session
        entry.record_lookup(now, hit)
        return (entry, entry.token_count) if hit else (None, 0)

    def peek(self, compat_hash: str, session_id: str) -> CacheEntry | None:
        """Counter-free residency check used by plan scoring."""
        return self.entries.get(self.entry_key(compat_hash, session_id))

    def drop_session(self, session_id: str) -> list[str]:
        dropped = []
        for key, entry in list(self.entries.items()):
            if entry.session_id == session_id:
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

    def __init__(self, window_us: int = 300_000_000, enabled: bool = True):
        self.window_us = window_us
        self.enabled = enabled
        self.stores: dict[str, StateStore] = {}
        self._node_ids: tuple[str, ...] = ()  # sorted keys of ``stores``

    def add_store(self, node_id: str, capacity_bytes: int) -> StateStore:
        store = StateStore(node_id, capacity_bytes, self.window_us)
        self.stores[node_id] = store
        self._node_ids = tuple(sorted(self.stores))
        return store

    def store(self, node_id: str) -> StateStore:
        return self.stores[node_id]

    def holders(self, compat_hash: str, session_id: str) -> list[tuple[str, CacheEntry]]:
        """Nodes currently holding a matching entry, sorted by node id."""
        if not self.enabled:
            return []
        out = []
        for node_id in self._node_ids:
            entry = self.stores[node_id].peek(compat_hash, session_id)
            if entry is not None:
                out.append((node_id, entry))
        return out

    def check_migration(self, entry: CacheEntry, dst_trust: int, requester_min_trust: int) -> None:
        if dst_trust < requester_min_trust:
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
