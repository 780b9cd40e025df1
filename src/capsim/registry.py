"""Capability registry and resource broker.

The catalog stores the class -> variant -> realization tree with referential
integrity. The broker tracks live node state (residency, reservation
calendars, memory) and answers candidate lookups. Queued-work telemetry is
read off the reservation calendar when it is reported.

The broker is the one writer of the node state a lookup reads: ``install``
and ``evict`` change residency and used memory, ``set_online`` liveness and
``mark_eviction`` a residency's draining flag. Each change advances
``stamp``, so a reader can tell that nothing it read has moved since.

A candidate lookup has a static part and a kept part. ``table`` gives the
static part, one ``CandidateTable`` per (class, quality target, origin
region, allowed domains, locality scope, placement tiers); the origin region
is part of the key only for the scopes that read it. A table lists, in
node-id then realization-id order, each (node, realization) pair the scope
admits (the class's unrevoked realizations at or above the target that match
the node's accelerator, and whose variant's trust floor the node's claimed
trust meets), its footprint and whether its node may take a cold placement.
The catalog and the node profiles are fixed once the broker serves lookups,
so a table changes only when a node registers or a realization is revoked
(seen as a change of ``TrustManager.revocations``). Both clear every table
and advance ``epoch``, so what others derived from the tables can be dropped
too.

``lookup_candidates`` walks a table and reads liveness, effective trust
(only when the policy's floor is above 0), residency (loaded, loading or
draining) and free memory, one subtraction of the used memory that
``install`` and ``evict`` keep. Each pair able to serve is a hit: its
position in the table, and whether it is warm (resident and loaded) or cold,
so that routing prices the activation. The table keeps the hits per trust
floor, with the ``stamp`` they were read at and the instants they hold for:
from the walk's ``now`` until the earliest instant a loading realization of
the table turns warm or, under a floor above 0, an attestation on one of its
nodes starts or lapses. A later lookup inside that interval, with the stamp
and ``TrustManager.attestations`` unchanged, returns the same list object;
any other lookup walks the table again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .descriptors import (
    CapabilityDescriptor,
    CapabilityRealization,
    CapabilityVariant,
    LocalityScope,
    PolicyConstraint,
    ResourceProfile,
    Tier,
)
from .topology import Topology
from .trust import TrustManager


class DuplicateNode(Exception):
    pass


class UnknownNode(Exception):
    pass


class UnknownDomain(Exception):
    pass


class TrustBelowDomainFloor(Exception):
    pass


class UnknownCapabilityClass(Exception):
    pass


class CatalogIntegrityError(Exception):
    pass


class CapabilityCatalog:
    """Three-level capability store with referential integrity."""

    def __init__(self) -> None:
        self.classes: dict[str, CapabilityDescriptor] = {}
        self.variants: dict[str, CapabilityVariant] = {}
        self.realizations: dict[str, CapabilityRealization] = {}

    def add_class(self, desc: CapabilityDescriptor) -> None:
        if desc.name in self.classes:
            raise CatalogIntegrityError(f"duplicate class {desc.name}")
        self.classes[desc.name] = desc

    def add_variant(self, variant: CapabilityVariant) -> None:
        if variant.parent_class not in self.classes:
            raise CatalogIntegrityError(f"variant {variant.variant_id}: unknown class {variant.parent_class}")
        if variant.variant_id in self.variants:
            raise CatalogIntegrityError(f"duplicate variant {variant.variant_id}")
        self.variants[variant.variant_id] = variant

    def add_realization(self, realization: CapabilityRealization) -> None:
        if realization.variant_id not in self.variants:
            raise CatalogIntegrityError(
                f"realization {realization.realization_id}: unknown variant {realization.variant_id}"
            )
        if realization.realization_id in self.realizations:
            raise CatalogIntegrityError(f"duplicate realization {realization.realization_id}")
        self.realizations[realization.realization_id] = realization

    def variant_of(self, realization_id: str) -> CapabilityVariant:
        return self.variants[self.realizations[realization_id].variant_id]

    def realizations_of_class(self, class_name: str) -> list[CapabilityRealization]:
        if class_name not in self.classes:
            raise UnknownCapabilityClass(class_name)
        out = [
            r
            for r in self.realizations.values()
            if self.variants[r.variant_id].parent_class == class_name
        ]
        out.sort(key=lambda r: r.realization_id)
        return out


@dataclass(slots=True, eq=False, repr=False)
class Residency:
    """A realization resident on a node, warm from ``available_at_us``."""

    realization_id: str
    available_at_us: int  # warm once now >= available_at_us; loading before that
    pending_eviction: bool = False


@dataclass(slots=True, eq=False, repr=False)
class NodeState:
    """Live per-node bookkeeping: residency, memory, and the reservation calendar.

    The calendar fixes each reserved stage's start/complete time at selection
    (servers are assigned in reservation order), so scored queueing equals
    realized queueing exactly.
    """

    profile: ResourceProfile
    online: bool = True
    residency: dict[str, Residency] = field(default_factory=dict)
    used_memory_bytes: int = 0  # footprints of every resident realization, kept by Broker
    server_free_us: list[int] = field(default_factory=list)
    # Heaps, as of the last count: start times of the reservations not yet
    # started, (completion time, realization id) of those not yet complete.
    starts: list[int] = field(default_factory=list)
    completions: list[tuple[int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.server_free_us:
            self.server_free_us = [0] * self.profile.max_concurrent
            heapq.heapify(self.server_free_us)

    @property
    def node_id(self) -> str:
        return self.profile.node_id

    def _advance(self, now: int) -> None:
        """Pop what started or completed by ``now``; time never runs backwards."""
        starts, completions = self.starts, self.completions
        while starts and starts[0] <= now:
            heapq.heappop(starts)
        while completions and completions[0][0] <= now:
            heapq.heappop(completions)

    def queue_length(self, now: int) -> int:
        """Reserved stages not yet started; the admission-cap quantity."""
        self._advance(now)
        return len(self.starts)

    def outstanding(self, now: int) -> int:
        """Reserved stages not yet complete."""
        self._advance(now)
        return len(self.completions)

    def peek_wait_us(self, ready_us: int) -> int:
        """Wait a stage ready at ``ready_us`` would incur; pure, no reservation."""
        return max(0, self.server_free_us[0] - ready_us)

    def reserve(self, realization_id: str, ready_us: int, duration_us: int) -> tuple[int, int]:
        """Reserve the first free server for a stage; its (start, completion) time."""
        free = heapq.heappop(self.server_free_us)
        start = max(ready_us, free)
        complete = start + duration_us
        heapq.heappush(self.server_free_us, complete)
        heapq.heappush(self.starts, start)
        heapq.heappush(self.completions, (complete, realization_id))
        return start, complete

    def outstanding_for_realization(self, realization_id: str, now: int) -> int:
        self._advance(now)
        return sum(1 for _, r in self.completions if r == realization_id)


# A hit of a candidate lookup: the position of a (node, realization) pair in
# its table, and whether the realization is resident and loaded there.
Hit = tuple[int, bool]


@dataclass(slots=True, eq=False, repr=False)
class CandidateTable:
    """The static part of a candidate lookup, equal only to itself.
    ``pairs`` holds each (node, realization id) pair a lookup may yield, by
    position; ``nodes`` the same pairs per node, for the walk: the node, its
    memory budget, and per pair its realization id, footprint and warm and
    cold hits. The cold hit is None when the pair can never be placed."""

    pairs: tuple[tuple[NodeState, str], ...]
    nodes: tuple[tuple[NodeState, int, tuple[tuple[str, int, Hit, Hit | None], ...]], ...]
    # Per trust floor, the last lookup's hits: (hits, broker stamp,
    # attestations under a floor above 0 else 0, first and last instant + 1 they hold for).
    kept: dict[int, tuple[list[Hit], int, int, int, int | float]] = field(default_factory=dict)


_NEVER = float("inf")


class Broker:
    """Admits nodes, tracks their residency, and answers candidate queries."""

    def __init__(self, catalog: CapabilityCatalog, topology: Topology, trust: TrustManager | None = None):
        self.catalog = catalog
        self.topology = topology
        self.trust = trust
        self.nodes: dict[str, NodeState] = {}
        self._by_id: list[NodeState] = []  # self.nodes in node-id order
        # Static candidate tables by lookup key, as of ``_revocations`` revocations.
        self._tables: dict[tuple, CandidateTable] = {}
        self._revocations = 0
        self.epoch = 0  # times the tables were cleared
        self.stamp = 0  # changes of node state a lookup reads: residency, used memory, liveness, draining
        self.hit_rebuilds = 0  # lookups that walked their table

    # -- admission ---------------------------------------------------------

    def register_node(self, profile: ResourceProfile) -> NodeState:
        if profile.node_id in self.nodes:
            raise DuplicateNode(profile.node_id)
        domain = self.topology.domains.get(profile.domain_id)
        if domain is None:
            raise UnknownDomain(profile.domain_id)
        if profile.trust < domain.min_trust:
            raise TrustBelowDomainFloor(
                f"node {profile.node_id} trust {profile.trust} < domain floor {domain.min_trust}"
            )
        state = NodeState(profile=profile)
        self.nodes[profile.node_id] = state
        self._by_id = [self.nodes[node_id] for node_id in sorted(self.nodes)]
        self._tables.clear()
        self.epoch += 1
        return state

    def node(self, node_id: str) -> NodeState:
        state = self.nodes.get(node_id)
        if state is None:
            raise UnknownNode(node_id)
        return state

    # -- residency ---------------------------------------------------------

    def footprint(self, realization_id: str) -> int:
        """Memory a resident realization takes: its artifact size."""
        return self.catalog.realizations[realization_id].artifact_size_bytes

    def install(self, node_id: str, realization_id: str, available_at_us: int) -> None:
        state = self.node(node_id)
        if realization_id in state.residency:
            return
        footprint = self.footprint(realization_id)
        if self.free_memory(node_id) < footprint:
            raise MemoryError(f"node {node_id}: no room for {realization_id}")
        state.residency[realization_id] = Residency(realization_id, available_at_us)
        state.used_memory_bytes += footprint
        self.stamp += 1

    def evict(self, node_id: str, realization_id: str) -> None:
        state = self.node(node_id)
        if state.residency.pop(realization_id, None) is not None:
            state.used_memory_bytes -= self.footprint(realization_id)
            self.stamp += 1

    def mark_eviction(self, node_id: str, realization_id: str, pending: bool) -> None:
        """Set whether the node's residency of ``realization_id`` is draining
        (never served, evicted once its work completes); no-op when it is not resident."""
        res = self.node(node_id).residency.get(realization_id)
        if res is not None and res.pending_eviction != pending:
            res.pending_eviction = pending
            self.stamp += 1

    def set_online(self, node_id: str, online: bool) -> None:
        """Take the node on or off line; an offline node yields no hits."""
        state = self.node(node_id)
        if state.online != online:
            state.online = online
            self.stamp += 1

    def free_memory(self, node_id: str) -> int:
        """Memory budget minus the footprints of every resident realization."""
        state = self.node(node_id)
        return state.profile.memory_budget_bytes - state.used_memory_bytes

    # -- telemetry ---------------------------------------------------------

    def refresh_queue_telemetry(self, node_id: str, now: int) -> int:
        """Queued work on a node: the wait a stage ready at ``now`` would see."""
        return self.node(node_id).peek_wait_us(now)

    # -- candidate lookup ---------------------------------------------------

    def effective_trust(self, state: NodeState, now: int) -> int:
        """The node's attested trust at ``now``; its claimed trust without a trust manager."""
        if self.trust is None:
            return state.profile.trust
        return self.trust.effective_trust(state.node_id, now)

    def _in_scope(self, state: NodeState, policy: PolicyConstraint, origin_region: str) -> bool:
        if policy.allowed_domains is not None and state.profile.domain_id not in policy.allowed_domains:
            return False
        scope = policy.locality_scope
        if scope is LocalityScope.ANY or scope is LocalityScope.DOMAIN:
            return True
        if scope is LocalityScope.REGION:
            return state.profile.region == origin_region
        if scope is LocalityScope.NODE_LOCAL:
            return state.profile.tier is Tier.LOCAL and state.profile.region == origin_region
        return False

    def lookup_candidates(self, table: CandidateTable, now: int = 0, min_trust: int = 0) -> list[Hit]:
        """The hits of ``table``'s pairs able to serve at ``now`` on a node of
        effective trust at least ``min_trust``, in table order: warm when the
        realization is resident and loaded, cold when it is not resident but
        its node may place it and has the free memory. The list is kept and
        returned again, the same object, until node state, an attestation or
        time changes it; callers must not modify it."""
        trust = self.trust
        attested = trust.attestations if min_trust > 0 and trust is not None else 0
        kept = table.kept.get(min_trust)
        if kept is not None and kept[1] == self.stamp and kept[2] == attested and kept[3] <= now < kept[4]:
            return kept[0]
        self.hit_rebuilds += 1
        out: list[Hit] = []
        until: int | float = _NEVER  # the first instant a loading pair turns warm or a node's trust changes
        for state, budget, realizations in table.nodes:
            if not state.online:
                continue
            # Trust levels are >= 0, so a floor of 0 passes every node.
            if min_trust > 0:
                if trust is not None:
                    change = trust.next_change(state.node_id, now)
                    if change is not None and change < until:
                        until = change
                if self.effective_trust(state, now) < min_trust:
                    continue
            residency = state.residency
            free = budget - state.used_memory_bytes
            for realization_id, footprint, warm, cold in realizations:
                res = residency.get(realization_id)
                if res is not None:
                    # Draining is never served; still loading is neither warm nor re-placeable.
                    if not res.pending_eviction:
                        if res.available_at_us <= now:
                            out.append(warm)
                        elif res.available_at_us < until:
                            until = res.available_at_us
                elif cold is not None and free >= footprint:
                    out.append(cold)
        if kept is not None and out == kept[0]:
            out = kept[0]  # the same hits: the same object, so readers can tell by identity
        table.kept[min_trust] = (out, self.stamp, attested, now, until)
        return out

    def table(
        self,
        capability_class: str,
        quality_target: int,
        policy: PolicyConstraint,
        origin_region: str = "",
        tiers: set[Tier] | None = None,
    ) -> CandidateTable:
        """The static candidate table of a lookup, built on first use and kept
        until a node registers or a realization is revoked. ``tiers``
        restricts cold placement targets (used by the cloud-only baseline)."""
        if self.trust is not None and self.trust.revocations != self._revocations:
            self._tables.clear()
            self.epoch += 1
            self._revocations = self.trust.revocations
        scope = policy.locality_scope
        regional = scope is LocalityScope.REGION or scope is LocalityScope.NODE_LOCAL
        key = (
            capability_class,
            quality_target,
            origin_region if regional else None,
            policy.allowed_domains,
            scope,
            None if tiers is None else frozenset(tiers),
        )
        table = self._tables.get(key)
        if table is None:
            realizations = [
                (r.accelerator, r.realization_id, self.footprint(r.realization_id), variant.security.min_trust)
                for r in self.catalog.realizations_of_class(capability_class)
                for variant in (self.catalog.variant_of(r.realization_id),)
                if variant.quality >= quality_target
                and not (self.trust is not None and self.trust.is_revoked(r.realization_id))
            ]
            pairs, nodes = [], []
            for state in self._by_id:
                if not self._in_scope(state, policy, origin_region):
                    continue
                profile = state.profile
                budget = profile.memory_budget_bytes
                placeable = tiers is None or profile.tier in tiers
                own = []
                for needs, rid, fp, floor in realizations:
                    # The variant's floor is on the node's claimed trust, as in placement.
                    if needs == profile.accelerator and profile.trust >= floor:
                        p = len(pairs)
                        pairs.append((state, rid))
                        own.append((rid, fp, (p, True), (p, False) if placeable and fp <= budget else None))
                if own:
                    nodes.append((state, budget, tuple(own)))
            table = self._tables[key] = CandidateTable(tuple(pairs), tuple(nodes))
        return table
