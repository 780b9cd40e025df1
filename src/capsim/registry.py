"""Capability registry and resource broker.

The catalog stores the class -> variant -> realization tree with referential
integrity. The broker tracks live node state (residency, reservation
calendars, memory) and answers candidate lookups. Queued-work telemetry is
read off the reservation calendar when it is reported.

Candidate lookup returns warm and cold (placeable) candidates so routing can
price activation instead of the registry hiding it.

A lookup recomputes nothing that has not changed since the last one. The
broker keeps:
- each node's used memory, the footprints of its resident realizations,
  updated by ``install`` and ``evict`` (the only writers of residency), so
  free memory is one subtraction;
- one static candidate table per (class, quality target, origin region,
  allowed domains, locality scope, placement tiers); the origin region is
  part of the key only for the scopes that read it. A table lists, in node-id
  order, each node the scope admits with the class's unrevoked realizations
  at or above the target that match its accelerator, each one's footprint,
  and whether the node may take a cold placement. The catalog and the node
  profiles are fixed once the broker serves lookups, so a table changes only
  when a node registers or a realization is revoked; both clear every table
  (a revocation is seen as a change of ``TrustManager.revocations``).
A lookup walks its table and reads afresh what changes between lookups:
liveness, effective trust (only when the policy's floor is above 0),
residency (loaded, loading or draining) and free memory.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

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

    def footprint_bytes(self, realization_id: str) -> int:
        # Memory footprint for placement budgeting equals the artifact size.
        return self.realizations[realization_id].artifact_size_bytes


@dataclass(slots=True)
class Residency:
    realization_id: str
    available_at_us: int  # warm once now >= available_at_us; loading before that
    pending_eviction: bool = False


@dataclass(slots=True)
class Reservation:
    realization_id: str
    start_us: int
    complete_us: int


@dataclass(slots=True)
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
    reservations: list[Reservation] = field(default_factory=list)
    server_free_us: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.server_free_us:
            self.server_free_us = [0] * self.profile.capacity.max_concurrent
            heapq.heapify(self.server_free_us)

    @property
    def node_id(self) -> str:
        return self.profile.node_id

    def prune(self, now: int) -> None:
        if any(r.complete_us <= now for r in self.reservations):
            self.reservations = [r for r in self.reservations if r.complete_us > now]

    def queue_length(self, now: int) -> int:
        """Reserved stages not yet started; the admission-cap quantity."""
        self.prune(now)
        return sum(1 for r in self.reservations if r.start_us > now)

    def outstanding(self, now: int) -> int:
        self.prune(now)
        return len(self.reservations)

    def peek_wait_us(self, ready_us: int) -> int:
        """Wait a stage ready at ``ready_us`` would incur; pure, no reservation."""
        return max(0, self.server_free_us[0] - ready_us)

    def reserve(self, realization_id: str, ready_us: int, duration_us: int) -> Reservation:
        free = heapq.heappop(self.server_free_us)
        start = max(ready_us, free)
        complete = start + duration_us
        heapq.heappush(self.server_free_us, complete)
        res = Reservation(realization_id, start, complete)
        self.reservations.append(res)
        return res

    def outstanding_for_realization(self, realization_id: str, now: int) -> int:
        self.prune(now)
        return sum(1 for r in self.reservations if r.realization_id == realization_id)


class Candidate(NamedTuple):
    """A (node, realization) pair able to serve a request; warm when the
    realization is resident and loaded, cold when it would be placed."""

    node: NodeState
    realization_id: str
    warm: bool

    @property
    def node_id(self) -> str:
        return self.node.profile.node_id


# One node of a static candidate table: the node, whether it may take a cold
# placement, and (realization id, footprint) of each realization it can run.
_TableRow = tuple[NodeState, bool, tuple[tuple[str, int], ...]]


class Broker:
    """Admits nodes, tracks their residency, and answers candidate queries."""

    def __init__(self, catalog: CapabilityCatalog, topology: Topology, trust: TrustManager | None = None):
        self.catalog = catalog
        self.topology = topology
        self.trust = trust
        self.nodes: dict[str, NodeState] = {}
        self._footprint: dict[str, int] = {}
        self._by_id: list[NodeState] = []  # self.nodes in node-id order
        # Static candidate tables by lookup key, as of ``_revocations`` revocations.
        self._tables: dict[tuple, tuple[_TableRow, ...]] = {}
        self._revocations = 0

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
        return state

    def node(self, node_id: str) -> NodeState:
        state = self.nodes.get(node_id)
        if state is None:
            raise UnknownNode(node_id)
        return state

    # -- residency ---------------------------------------------------------

    def footprint(self, realization_id: str) -> int:
        fp = self._footprint.get(realization_id)
        if fp is None:
            fp = self.catalog.footprint_bytes(realization_id)
            self._footprint[realization_id] = fp
        return fp

    def install(self, node_id: str, realization_id: str, available_at_us: int) -> None:
        state = self.node(node_id)
        if realization_id in state.residency:
            return
        footprint = self.footprint(realization_id)
        if self.free_memory(node_id) < footprint:
            raise MemoryError(f"node {node_id}: no room for {realization_id}")
        state.residency[realization_id] = Residency(realization_id, available_at_us)
        state.used_memory_bytes += footprint

    def evict(self, node_id: str, realization_id: str) -> None:
        state = self.node(node_id)
        if state.residency.pop(realization_id, None) is not None:
            state.used_memory_bytes -= self.footprint(realization_id)

    def free_memory(self, node_id: str) -> int:
        """Memory budget minus the footprints of every resident realization."""
        state = self.node(node_id)
        return state.profile.capacity.memory_budget_bytes - state.used_memory_bytes

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
        loc = state.profile.locality
        if policy.allowed_domains is not None and state.profile.domain_id not in policy.allowed_domains:
            return False
        scope = policy.locality_scope
        if scope is LocalityScope.ANY or scope is LocalityScope.DOMAIN:
            return True
        if scope is LocalityScope.REGION:
            return loc.region == origin_region
        if scope is LocalityScope.NODE_LOCAL:
            return loc.tier is Tier.LOCAL and loc.region == origin_region
        return False

    def lookup_candidates(
        self,
        capability_class: str,
        quality_target: int,
        policy: PolicyConstraint,
        origin_region: str = "",
        now: int = 0,
        tiers: set[Tier] | None = None,
    ) -> list[Candidate]:
        """All (node, realization) pairs able to serve the request, warm-flagged,
        in node-id then realization-id order.

        Cold candidates are nodes where the realization is not resident but
        fits in free memory; routing prices the activation. ``tiers``
        restricts cold placement targets (used by the cloud-only baseline).
        """
        min_trust = policy.min_trust
        out: list[Candidate] = []
        for state, placeable, realizations in self._table(capability_class, quality_target, policy, origin_region, tiers):
            if not state.online:
                continue
            # Trust levels are >= 0, so a floor of 0 passes every node.
            if min_trust > 0 and self.effective_trust(state, now) < min_trust:
                continue
            residency = state.residency
            free = state.profile.capacity.memory_budget_bytes - state.used_memory_bytes
            for realization_id, footprint in realizations:
                res = residency.get(realization_id)
                if res is not None:
                    # Draining is never served; still loading is neither warm nor re-placeable.
                    if not res.pending_eviction and res.available_at_us <= now:
                        out.append(Candidate(state, realization_id, True))
                elif placeable and free >= footprint:
                    out.append(Candidate(state, realization_id, False))
        return out

    def _table(
        self,
        capability_class: str,
        quality_target: int,
        policy: PolicyConstraint,
        origin_region: str,
        tiers: set[Tier] | None,
    ) -> tuple[_TableRow, ...]:
        """The static candidate table of a lookup, built on first use and kept
        until a node registers or a realization is revoked."""
        if self.trust is not None and self.trust.revocations != self._revocations:
            self._tables.clear()
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
                (r.accelerator, r.realization_id, self.footprint(r.realization_id))
                for r in self.catalog.realizations_of_class(capability_class)
                if self.catalog.variant_of(r.realization_id).quality >= quality_target
                and not (self.trust is not None and self.trust.is_revoked(r.realization_id))
            ]
            rows = []
            for state in self._by_id:
                if not self._in_scope(state, policy, origin_region):
                    continue
                profile = state.profile
                own = tuple((rid, fp) for needs, rid, fp in realizations if needs == profile.hardware.accelerator)
                if own:
                    rows.append((state, tiers is None or profile.locality.tier in tiers, own))
            table = self._tables[key] = tuple(rows)
        return table
