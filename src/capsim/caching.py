"""State-aware caching of session KV state: benefit-priced admission,
density eviction, and migration between node stores.

The one kind of cached state is a session's prefill KV state, a
``CacheEntry``. It is private to its session, stored under (state hash,
session id), and migrating it moves its own ``size`` bytes. Scenario
validation rejects an affinity token that names another session, so a
lookup always finds the requester's own entry. Admission values an entry at
``p_hit * gain - storage``; eviction drops the lowest benefit-density
residents first. Entries a selected plan depends on are pinned until the
request completes so scored coverage cannot be evicted mid-flight.

``CacheSystem`` keeps a session index: per session id, the ids of the nodes
whose store admitted one of the session's entries, in node-id order. Admission
fills it and the session's end clears it; evictions and invalidations leave it
as it is. So it lists every node that holds an entry of the session, and
perhaps some that no longer do. ``holders`` and ``drop_session`` visit only the
listed nodes and read each store afresh, so a stale listing costs one peek.
"""

from __future__ import annotations

import hashlib
import json
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

ADMITTED = "Admitted"
REJECT_NEGATIVE_BENEFIT = "NegativeBenefit"
REJECT_SCOPE_VIOLATION = "ScopeViolation"
REJECT_INSUFFICIENT_SPACE = "InsufficientSpace"
REJECT_ALREADY_RESIDENT = "AlreadyResident"


@lru_cache(maxsize=8192)
def state_hash(realization_id: str, prefix_digest: str) -> str:
    """Digest of the prefill state a realization computes for a prompt prefix."""
    # "default" and null fill fixed slots of the payload: every store key is
    # derived from these bytes, so changing them changes every key.
    payload = json.dumps([realization_id, "default", None, prefix_digest], separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@dataclass(slots=True)
class CacheEntry:
    """One session's cached prefill state."""

    state_id: str
    compatibility_hash: str
    size: int                  # bytes held, and moved by a migration
    session_id: str            # the only session the entry serves
    latency_gain_us: int       # per-hit gain frozen at admission
    storage_cost_us: int = 0
    token_count: int = 0       # tokens a hit covers
    source_realization: str | None = None  # for revocation invalidation
    window: deque = field(default_factory=deque)  # lookup timestamps
    pins: int = 0

    def benefit(self, p_hit: Fraction) -> Fraction:
        """Value of holding the entry: p_hit * gain - storage."""
        return p_hit * self.latency_gain_us - self.storage_cost_us


def estimate_p_hit(entry: CacheEntry, now: int, window_us: int) -> Fraction:
    """Laplace-smoothed reuse probability: every lookup in the window is a hit."""
    cutoff = now - window_us
    while entry.window and entry.window[0] < cutoff:
        entry.window.popleft()
    lookups = len(entry.window)
    return Fraction(lookups + 1, lookups + 2)


@dataclass(slots=True)
class CacheDecision:
    outcome: str
    benefit: Fraction | None = None  # None when the value was never priced
    evicted: tuple[str, ...] = ()

    @property
    def admitted(self) -> bool:
        return self.outcome == ADMITTED


class StateStore:
    """One node's cache of session state objects.

    Admission is benefit-gated, and a newcomer displaces only residents of
    lower benefit density.
    """

    def __init__(
        self,
        node_id: str,
        capacity_bytes: int,
        window_us: int = 300_000_000,
        sessions: dict[str, list[str]] | None = None,
    ):
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self.window_us = window_us
        self.entries: dict[str, CacheEntry] = {}  # keyed by entry_key(hash, session)
        # The owning CacheSystem's session index, told of every admission.
        self._sessions = sessions

    @staticmethod
    def entry_key(compat_hash: str, session_id: str) -> str:
        return f"{compat_hash}|{session_id}"

    def used_bytes(self) -> int:
        return sum(e.size for e in self.entries.values())

    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes()

    def benefit_density(self, entry: CacheEntry, now: int) -> Fraction:
        value = entry.benefit(estimate_p_hit(entry, now, self.window_us))
        return value / entry.size if entry.size > 0 else value

    def admit(
        self,
        entry: CacheEntry,
        p_hit: Fraction,
        now: int,
        node_trust: int = 0,
        requester_min_trust: int = 0,
    ) -> CacheDecision:
        key = self.entry_key(entry.compatibility_hash, entry.session_id)
        if key in self.entries:
            return CacheDecision(REJECT_ALREADY_RESIDENT)
        if node_trust < requester_min_trust:
            return CacheDecision(REJECT_SCOPE_VIOLATION)
        value = entry.benefit(p_hit)
        if value <= 0:
            return CacheDecision(REJECT_NEGATIVE_BENEFIT, benefit=value)
        if entry.size > self.capacity_bytes:
            return CacheDecision(REJECT_INSUFFICIENT_SPACE, benefit=value)

        evicted: list[CacheEntry] = []
        if self.free_bytes() < entry.size:
            density = (value / entry.size) if entry.size > 0 else value
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
                if freed >= entry.size:
                    break
            if freed < entry.size:
                return CacheDecision(REJECT_INSUFFICIENT_SPACE, benefit=value)
            for victim in evicted:
                del self.entries[self.entry_key(victim.compatibility_hash, victim.session_id)]
        self.entries[key] = entry
        if self._sessions is not None:
            nodes = self._sessions.setdefault(entry.session_id, [])
            if self.node_id not in nodes:
                insort(nodes, self.node_id)
        return CacheDecision(ADMITTED, benefit=value, evicted=tuple(e.state_id for e in evicted))

    def lookup(self, compat_hash: str, session_id: str, now: int) -> CacheEntry | None:
        """The session's entry, its lookup recorded in the reuse window."""
        entry = self.entries.get(self.entry_key(compat_hash, session_id))
        if entry is not None:
            entry.window.append(now)
        return entry

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
        # session id -> sorted ids of the nodes that admitted one of its entries
        self._sessions: dict[str, list[str]] = {}

    def add_store(self, node_id: str, capacity_bytes: int) -> StateStore:
        store = StateStore(node_id, capacity_bytes, self.window_us, self._sessions)
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
        for node_id in self._sessions.get(session_id, ()):
            entry = self.stores[node_id].peek(compat_hash, session_id)
            if entry is not None:
                out.append((node_id, entry))
        return out

    def drop_session(self, session_id: str) -> list[tuple[str, str]]:
        """Drop every entry of the session, in node-id order, and its index."""
        dropped = []
        for node_id in self._sessions.pop(session_id, ()):
            for state_id in self.stores[node_id].drop_session(session_id):
                dropped.append((node_id, state_id))
        return dropped

    def drop_by_realization(self, realization_id: str) -> list[tuple[str, str]]:
        dropped = []
        for node_id in self._node_ids:
            for state_id in self.stores[node_id].drop_by_realization(realization_id):
                dropped.append((node_id, state_id))
        return dropped
