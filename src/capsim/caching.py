"""State-aware caching of session KV state: benefit-priced admission,
density eviction, and migration between node stores.

The one kind of cached state is a session's prefill KV state, a
``CacheEntry``. It is private to its session, stored under (state key,
session id), and migrating it moves its own ``size`` bytes. The state key,
``state_key``, is what identifies the state: the realization that computed
it and the digest of the prompt prefix it covers. Scenario validation
rejects an affinity token that names another session, so a lookup always
finds the requester's own entry. Admission values an entry at ``p_hit *
gain - storage``; eviction drops the lowest benefit-density residents first.
Both are kept as integer numerators over positive denominators, so
admitting an entry builds no ``Fraction``. Entries a selected plan depends
on are pinned until the request completes so scored coverage cannot be
evicted mid-flight.

The stores are the one writer of their entries, and ``CacheSystem`` keeps
an exact holder index from what they write: per session id and state key,
the nodes holding the entry, in node-id order, and the most tokens one of
them covers. Each insertion or removal (admission, displacement, the
session's end, a revocation, ``remove``) updates it, so ``holders`` is two
dict reads and ``drop_session`` visits only the nodes that hold the session.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

ADMITTED = "Admitted"
REJECT_NEGATIVE_BENEFIT = "NegativeBenefit"
REJECT_SCOPE_VIOLATION = "ScopeViolation"
REJECT_INSUFFICIENT_SPACE = "InsufficientSpace"
REJECT_ALREADY_RESIDENT = "AlreadyResident"


def state_key(realization_id: str, prefix_digest: str) -> tuple[str, str]:
    """The key of the prefill state a realization computes for a prompt prefix."""
    return realization_id, prefix_digest


@dataclass(slots=True, repr=False)
class CacheEntry:
    """One session's cached prefill state."""

    state_id: str
    state_key: tuple[str, str]
    size: int                  # bytes held, and moved by a migration
    session_id: str            # the only session the entry serves
    latency_gain_us: int       # per-hit gain frozen at admission
    storage_cost_us: int = 0
    token_count: int = 0       # tokens a hit covers
    source_realization: str | None = None  # for revocation invalidation
    window: deque = field(default_factory=deque)  # lookup timestamps
    pins: int = 0


def p_hit_of(entry: CacheEntry, now: int, window_us: int) -> tuple[int, int]:
    """Laplace-smoothed reuse probability, every lookup in the window a hit,
    as (numerator, denominator): consecutive ints, so in lowest terms."""
    cutoff = now - window_us
    while entry.window and entry.window[0] < cutoff:
        entry.window.popleft()
    lookups = len(entry.window)
    return lookups + 1, lookups + 2


@dataclass(slots=True, eq=False, repr=False)
class CacheDecision:
    """What offering an entry to a store did: the outcome, the benefit it was priced at, the entries displaced."""

    outcome: str
    # The entry's benefit as (numerator, denominator > 0); None when never priced.
    value: tuple[int, int] | None = None
    evicted: tuple[str, ...] = ()

    @property
    def admitted(self) -> bool:
        return self.outcome == ADMITTED

    @property
    def benefit(self) -> Fraction | None:
        return None if self.value is None else Fraction(*self.value)

    def benefit_text(self) -> str:
        """``str(self.benefit)``, or ``-inf`` when never priced, without a ``Fraction``."""
        if self.value is None:
            return "-inf"
        num, den = self.value
        g = gcd(num, den)
        return str(num // g) if den == g else f"{num // g}/{den // g}"


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
        system: CacheSystem | None = None,
    ):
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self.window_us = window_us
        self.entries: dict[tuple, CacheEntry] = {}  # keyed by entry_key(state key, session)
        # The owning CacheSystem, whose holder index is told of every entry stored or dropped.
        self._system = system

    @staticmethod
    def entry_key(key: tuple[str, str], session_id: str) -> tuple:
        return key, session_id

    def _dropped(self, entry: CacheEntry) -> None:
        """Tell the holder index that ``entry`` is no longer stored here."""
        if self._system is not None:
            self._system._dropped(self.node_id, entry)

    def used_bytes(self) -> int:
        return sum(e.size for e in self.entries.values())

    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes()

    def admit(
        self,
        entry: CacheEntry,
        p_hit: tuple[int, int],
        now: int,
        node_trust: int = 0,
        requester_min_trust: int = 0,
    ) -> CacheDecision:
        """Admit ``entry`` at reuse probability ``p_hit``, (numerator,
        denominator > 0), if its benefit is positive and space is free or can
        be freed from residents of lower density.

        Benefits and densities are kept as integer numerators over positive
        denominators; densities are ranked over their least common
        denominator, so the order is the exact rational one."""
        key = self.entry_key(entry.state_key, entry.session_id)
        if key in self.entries:
            return CacheDecision(REJECT_ALREADY_RESIDENT)
        if node_trust < requester_min_trust:
            return CacheDecision(REJECT_SCOPE_VIOLATION)
        num, den = p_hit
        value = num * entry.latency_gain_us - entry.storage_cost_us * den
        if value <= 0:
            return CacheDecision(REJECT_NEGATIVE_BENEFIT, (value, den))
        if entry.size > self.capacity_bytes:
            return CacheDecision(REJECT_INSUFFICIENT_SPACE, (value, den))

        evicted: list[CacheEntry] = []
        free = self.free_bytes()
        if free < entry.size:
            # A density is the benefit per byte (an empty entry's is its
            # benefit), as numerator and denominator: (num, den, resident).
            residents = []
            for e in self.entries.values():
                e_num, e_den = p_hit_of(e, now, self.window_us)
                residents.append((e_num * e.latency_gain_us - e.storage_cost_us * e_den, e_den * e.size or e_den, e))
            own_den = den * entry.size  # > 0, as the newcomer needs room
            common = lcm(own_den, *(d for _, d, _ in residents))
            density = value * (common // own_den)
            ranked = sorted(
                ((n * (common // d), e) for n, d, e in residents),
                key=lambda pair: (pair[0], pair[1].state_id),
            )
            freed = free
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
                return CacheDecision(REJECT_INSUFFICIENT_SPACE, (value, den))
            for victim in evicted:
                del self.entries[self.entry_key(victim.state_key, victim.session_id)]
                self._dropped(victim)
        self.entries[key] = entry
        if self._system is not None:
            self._system._admitted(self.node_id, entry)
        return CacheDecision(ADMITTED, (value, den), tuple(e.state_id for e in evicted))

    def lookup(self, key: tuple[str, str], session_id: str, now: int) -> CacheEntry | None:
        """The session's entry, its lookup recorded in the reuse window."""
        entry = self.entries.get(self.entry_key(key, session_id))
        if entry is not None:
            entry.window.append(now)
        return entry

    def peek(self, key: tuple[str, str], session_id: str) -> CacheEntry | None:
        """Counter-free residency check used by plan scoring."""
        return self.entries.get(self.entry_key(key, session_id))

    def remove(self, entry_key: tuple) -> CacheEntry | None:
        """Drop the entry stored under ``entry_key``, if any, and return it."""
        entry = self.entries.pop(entry_key, None)
        if entry is not None:
            self._dropped(entry)
        return entry

    def drop_session(self, session_id: str) -> list[str]:
        dropped = []
        for key, entry in list(self.entries.items()):
            if entry.session_id == session_id:
                del self.entries[key]
                self._dropped(entry)
                dropped.append(entry.state_id)
        return dropped

    def drop_by_realization(self, realization_id: str) -> list[str]:
        """Invalidate unpinned entries derived from a revoked realization."""
        dropped = []
        for key, entry in list(self.entries.items()):
            if entry.source_realization == realization_id and entry.pins == 0:
                del self.entries[key]
                self._dropped(entry)
                dropped.append(entry.state_id)
        return dropped


# A state's holders, (node id, entry) in node-id order, and the most tokens one covers.
Held = tuple[tuple[tuple[str, CacheEntry], ...], int]

_NONE_HELD: Held = ((), 0)


class CacheSystem:
    """All node stores plus the holder index routing consults."""

    def __init__(self, window_us: int = 300_000_000, enabled: bool = True):
        self.window_us = window_us
        self.enabled = enabled
        self.stores: dict[str, StateStore] = {}
        self._node_ids: tuple[str, ...] = ()  # sorted keys of ``stores``
        # session id -> state key -> the holders of the session's entry under that key
        self._index: dict[str, dict[tuple[str, str], Held]] = {}

    def add_store(self, node_id: str, capacity_bytes: int) -> StateStore:
        store = StateStore(node_id, capacity_bytes, self.window_us, self)
        self.stores[node_id] = store
        self._node_ids = tuple(sorted(self.stores))
        return store

    def store(self, node_id: str) -> StateStore:
        return self.stores[node_id]

    def _admitted(self, node_id: str, entry: CacheEntry) -> None:
        """Index ``entry``, just stored on ``node_id``."""
        by_key = self._index.setdefault(entry.session_id, {})
        holders, top = by_key.get(entry.state_key, _NONE_HELD)
        holders = tuple(sorted((*holders, (node_id, entry)), key=itemgetter(0)))
        by_key[entry.state_key] = holders, max(top, entry.token_count)

    def _dropped(self, node_id: str, entry: CacheEntry) -> None:
        """Unindex ``entry``, no longer stored on ``node_id``."""
        by_key = self._index[entry.session_id]
        holders = tuple(h for h in by_key[entry.state_key][0] if h[0] != node_id)
        if holders:
            by_key[entry.state_key] = holders, max(e.token_count for _, e in holders)
        else:
            del by_key[entry.state_key]
            if not by_key:
                del self._index[entry.session_id]

    def holders(self, key: tuple[str, str], session_id: str) -> Held:
        """The nodes holding the session's entry under ``key``, as (node id,
        entry) in node-id order, and the most tokens one of them covers."""
        by_key = self._index.get(session_id)
        return _NONE_HELD if by_key is None else by_key.get(key, _NONE_HELD)

    def drop_session(self, session_id: str) -> list[tuple[str, str]]:
        """Drop every entry of the session, in node-id order."""
        nodes = {node_id for holders, _ in self._index.get(session_id, {}).values() for node_id, _ in holders}
        dropped = []
        for node_id in sorted(nodes):
            for state_id in self.stores[node_id].drop_session(session_id):
                dropped.append((node_id, state_id))
        return dropped

    def drop_by_realization(self, realization_id: str) -> list[tuple[str, str]]:
        dropped = []
        for node_id in self._node_ids:
            for state_id in self.stores[node_id].drop_by_realization(realization_id):
                dropped.append((node_id, state_id))
        return dropped
