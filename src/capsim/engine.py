"""Deterministic discrete-event core: drives arrivals through routing,
execution, caching, and trust, applies epoch replanning and scripted events,
and accumulates metrics and receipts. Each event-trace row goes to a list or
to a writer that streams it to disk as ``row(time_us, layout, values)``: one
of the layout constants below and a tuple of its values, with no dict built.

Stage schedules are fixed at selection time (reservation calendars), so the
event loop realizes exactly the timing the router scored; identical
(scenario, seed) inputs produce byte-identical outputs.

Each event is a call: its handler and the arguments it takes, the objects
the pusher already holds. An event is pushed only when something reads it.
Some events only write a trace row: a stage's dispatch, the inbound, KV and
artifact transfers, and queue telemetry after a replan. They are pushed only
when trace is on, with the sink's ``row`` as their handler. A stage's
completion writes a row and ends a realization's drain on its node; only a
replan or a revocation starts a drain, so on an untraced run of a scenario
that neither replans nor scripts a revocation, completions are not pushed.
Each event's ``seq`` is taken in push order, so leaving events out keeps the
order of every other event.

A session ends when its last turn finishes or is rejected. If no event is
due at that instant, the session end runs at once: nothing is pushed after a
turn ends, so as an event it would pop next. Otherwise it is pushed, and
pops after every event already due then.

A served request's receipt takes its plan's parts from ``_plan_parts``: the
(realization, lineage digest) pairs, which no event changes, and the stage
nodes' (node, effective trust) pairs at the first stage's start. The trust
pairs are kept while no attestation is added and the first stage starts in
the span in which no stage node's attestation starts or lapses
(``TrustManager.last_change`` to ``next_change``); equal pairs are one tuple
for every plan, so ``receipts.jsonl`` formats each once.

Two per-request calls are left out where their answer is already known.
``TrustManager.verdict`` is asked only about a request whose trust floor is
above 0: it runs at the select's own instant, so no revocation has come since
the select read its table, and no node's effective trust is below 0. A
finishing turn whose reused state is still stored on the node that serves
its last stage makes no offer, since the offer would find that state there
and write nothing. A turn whose prefill realization is revoked offers no
state: a revocation drops the states the realization computed, and none is
stored again, by an offer or by a migration that lands after it.

The scripted events are pushed first, so at equal times they pop before
arrivals. The arrivals then enter in one pass: they are appended in order
with rising ``seq``, and the event list is sorted, since a list sorted by
(time, seq) is a heap. They are sorted again only when scripted requests
join the generated ones, which come sorted.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import replace
from typing import Callable, Protocol

from . import deployment
from .caching import CacheEntry, CacheSystem, p_hit_of
from .descriptors import (
    REASON_HORIZON_TRUNCATED,
    ExecutionReceipt,
    RequestDescriptor,
    Tier,
    Verdict,
)
from .metrics import MetricsFrame
from .registry import Broker, CapabilityCatalog
from .routing import Rejection, Router, ScoredPlan, _ceil_time
from .scenario import Scenario
from .trust import AttestationRecord, ReceiptLog, TrustManager
from .workload import Arrival, generate_arrivals


# The reuse probability a newly offered session state is admitted with.
_NEW_ENTRY_P_HIT = (1, 2)
_NEVER = float("inf")

# Trace row layouts, in trace.csv's column order (``cli.TRACE_COLUMNS``): the
# kind, the named columns the row has, then its detail keys sorted.
_ARRIVAL = ("arrival", "request_id")
_DISPATCH = ("dispatch", "request_id", "node_id", "ready_us")
_STAGE_COMPLETE = ("stage_complete", "request_id", "node_id")
_INBOUND = ("transfer_complete", "request_id", "bytes", "transfer")
_REQUEST_TRANSFER = ("transfer_complete", "request_id", "transfer")  # kv and response
_MIGRATION = ("transfer_complete", "request_id", "state_entry", "transfer")
_ARTIFACT = ("transfer_complete", "node_id", "realization_id", "bytes", "transfer")
_CACHE_ADMIT = ("cache_admit", "node_id", "state_id", "bytes", "benefit", "outcome")
_CACHE_REJECT = ("cache_reject", *_CACHE_ADMIT[1:])
_CACHE_MIGRATE = ("cache_migrate", *_CACHE_ADMIT[1:], "src_node")
_CACHE_EVICT = ("cache_evict", "node_id", "state_id", "reason")
_EPOCH_REPLAN = ("epoch_replan", "evictions", "loads")
_TELEMETRY = ("telemetry", "node_id", "queued_work_us")
_PLACEMENT_EVICT = ("placement_evict", "node_id", "realization_id")
_SESSION_END = ("session_end", "session_id")
_NODE_ONLINE, _NODE_OFFLINE = ("node_online", "node_id"), ("node_offline", "node_id")
_REVOKE = ("revoke", "realization_id")


class TraceSink(Protocol):
    """Where trace rows go: a ``TraceList`` kept in memory, or a writer that
    streams them to a file (``cli.TraceWriter``). ``layout`` is the kind, then
    the field names, and ``values`` one value per name. A row's ``seq`` is the
    sink's length, the rows it has taken, before it takes that row."""

    def row(self, time_us: int, layout: tuple[str, ...], values: tuple) -> None: ...

    def __len__(self) -> int: ...


class TraceList(list):
    """The trace kept in memory: one dict per row, ``timestamp_us``, ``seq``
    and ``kind``, then the row's fields."""

    def row(self, time_us: int, layout: tuple[str, ...], values: tuple) -> None:
        row = {"timestamp_us": time_us, "seq": len(self), "kind": layout[0]}
        row.update(zip(layout[1:], values, strict=True))
        self.append(row)


class Simulation:
    def __init__(
        self,
        scenario: Scenario,
        placement_tiers: set[Tier] | None = None,
        audit: bool = False,
        trace: bool | TraceSink = False,
    ):
        """``trace=True`` keeps trace rows in a ``TraceList``, ``self.trace``;
        ``trace`` may also be a sink that takes the rows as they occur.
        ``audit=True`` keeps each selection's ``(request id, ScoredPlan)``
        in ``self.audit``."""
        self.scenario = scenario
        self.seed = scenario.seed
        self.duration_us = scenario.duration_us
        self.trace_enabled = trace is not False

        self.topology = scenario.build_topology()
        self.catalog = CapabilityCatalog()
        for cd in scenario.classes:
            self.catalog.add_class(cd)
        for var in scenario.variants:
            self.catalog.add_variant(var)
        for real in scenario.realizations:
            self.catalog.add_realization(real)

        self.trust = TrustManager()
        for real in scenario.realizations:
            rid = real.realization_id
            parent = self.catalog.variant_of(rid).parent_class
            self.trust.register_lineage(rid, self.catalog.classes[parent].lineage)

        self.broker = Broker(self.catalog, self.topology, trust=self.trust)
        attested = {a.node_id for a in scenario.attestations}
        for profile in scenario.nodes:
            self.broker.register_node(profile)
            if profile.node_id not in attested:
                self.trust.attest(AttestationRecord(profile.node_id, profile.trust, 0, None))
        for att in scenario.attestations:
            self.trust.attest(att)

        cache = scenario.cache
        self.caches = CacheSystem(window_us=cache.window_us, enabled=cache.enabled)
        # Cache storage cost per byte as ints: an entry of n bytes costs n * num // den.
        unit_cost = cache.storage_unit_cost
        self._storage_num, self._storage_den = unit_cost.numerator, unit_cost.denominator
        for profile in scenario.nodes:
            self.caches.add_store(profile.node_id, profile.cache_capacity_bytes)

        self.router = Router(
            broker=self.broker,
            topology=self.topology,
            caches=self.caches,
            weights=scenario.routing_weights,
            bytes_per_token=scenario.bytes_per_token,
            enable_split=scenario.enable_split,
            artifact_repository=scenario.artifact_repository,
            placement_tiers=placement_tiers,
            audit=audit,
        )

        for rid, node_id in sorted(scenario.initial_placement):
            if placement_tiers is not None:
                tier = self.broker.node(node_id).profile.tier
                if tier not in placement_tiers:
                    continue
            self.broker.install(node_id, rid, available_at_us=0)

        self.receipts = ReceiptLog()
        # The receipts are the per-request records the metrics aggregate.
        self.metrics = MetricsFrame(duration_us=self.duration_us, records=self.receipts.receipts)
        for profile in scenario.nodes:
            self.metrics.node_capacity[profile.node_id] = profile.max_concurrent
        self.trace: TraceSink = TraceList() if isinstance(trace, bool) else trace
        self._row = self.trace.row
        self.audit: list[tuple[str, ScoredPlan]] = []

        # (time_us, seq, handler, args), run as handler(time_us, *args): seq is
        # unique, so tuples compare on (time_us, seq) alone, in C.
        self._events: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        # Committed and not yet served, by request id: (arrival, scored plan,
        # (node_id, entry key) of the reused state or None); read only at the horizon.
        self._in_flight: dict[str, tuple[Arrival, ScoredPlan, tuple[str, str] | None]] = {}
        self._session_remaining: dict[str, int] = {}
        self._pending_loads: dict[str, set[str]] = {}
        # Replan demand; arrivals are not recorded when nothing replans.
        self._demand = deployment.DemandWindow() if scenario.deployment.replan_enabled else None
        # A stage's completion is read by the trace, and by a realization
        # draining on its node, which only a replan or a revocation starts.
        self._push_completions = self.trace_enabled or scenario.deployment.replan_enabled or bool(scenario.revocations)
        # Per plan id, its receipts' (capability_versions, node_attestations,
        # trust.attestations when built, first, end): the attestations hold
        # for a first stage that starts in [first, end).
        self._plan_parts: dict[str, tuple] = {}
        # Each node_attestations value once, whichever plan built it.
        self._attestation_values: dict[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]] = {}

    # -- event plumbing ------------------------------------------------------

    def _push(self, time_us: int, handler: Callable[..., None], *args) -> None:
        """Schedule ``handler(time_us, *args)``."""
        heapq.heappush(self._events, (time_us, self._seq, handler, args))
        self._seq += 1

    # -- schedule construction -------------------------------------------------

    def _schedule_initial_events(self) -> None:
        # Scripted control-plane events first so that, at equal timestamps,
        # they order before arrivals.
        for ev in self.scenario.node_events:
            self._push(ev.time_us, self._on_node_event, ev.node_id, ev.online)
        for rev in self.scenario.revocations:
            self._push(rev.time_us, self._on_revoke, rev.realization_id)
        dep = self.scenario.deployment
        if dep.replan_enabled:
            for t in range(dep.epoch_us, self.duration_us, dep.epoch_us):
                self._push(t, self._on_replan)

        arrivals = generate_arrivals(self.scenario.workload, self.duration_us, self.seed)
        if self.scenario.scripted_requests:  # the generated arrivals come sorted
            arrivals.extend(self.scenario.scripted_requests)
            arrivals.sort(key=lambda a: (a.request.arrival_time, a.request.origin_region, a.request.request_id))
        # Entered in one pass: a list sorted by (time, seq) is a heap.
        seq, on_arrival = self._seq, self._on_arrival  # one bound method for every arrival's event
        self._events.extend((a.request.arrival_time, seq + n, on_arrival, (a,)) for n, a in enumerate(arrivals))
        self._events.sort()
        self._seq = seq + len(arrivals)
        remaining = self._session_remaining
        for arrival in arrivals:
            sid = arrival.session_id
            remaining[sid] = remaining.get(sid, 0) + 1

    # -- run loop -----------------------------------------------------------------

    def run(self) -> "Simulation":
        """Run to the horizon; returns this simulation, whose ``metrics``,
        ``receipts``, ``trace`` and ``audit`` hold the outcome."""
        self._schedule_initial_events()
        events = self._events
        while events and events[0][0] <= self.duration_us:
            time_us, _, handler, args = heapq.heappop(events)
            handler(time_us, *args)
        self._truncate_in_flight()
        return self

    # -- arrival / selection -----------------------------------------------------

    def _on_arrival(self, now: int, arrival: Arrival) -> None:
        request = arrival.request
        if self._demand is not None:
            self._demand.add(request)
        if self.trace_enabled:
            self._row(now, _ARRIVAL, (request.request_id,))

        scored = self.router.select(request, now)
        if isinstance(scored, Rejection):
            self._finish_rejected(now, arrival, scored.reason)
            return

        if self.router.audit:
            self.audit.append((request.request_id, scored))

        # Only a trust floor above 0 can fail the verdict. The select ran at
        # this same instant, so no revocation has come since it read its
        # table, and a node's effective trust is never below 0, so a floor
        # of 0 always passes. A trust check per stage start (ROADMAP item
        # 7(b)) would have to revisit this rule.
        if request.policy.min_trust > 0:
            verdict, reason = self.trust.verdict(request, scored.plan.stages, scored.stages[0].start_us)
            if verdict == "rejected":
                self._finish_rejected(now, arrival, reason or "rejected")
                return

        self._commit(now, arrival, scored)

    def _commit(self, now: int, arrival: Arrival, scored: ScoredPlan) -> None:
        request = arrival.request
        request_id = request.request_id
        use = scored.state_use
        pinned = None

        if use is not None:
            store = self.caches.store(use.entry_node)
            entry = store.lookup(use.entry.state_key, use.entry.session_id, now)
            entry.pins += 1
            pinned = (use.entry_node, store.entry_key(entry.state_key, entry.session_id))
        self._in_flight[request_id] = (arrival, scored, pinned)
        if use is not None and use.entry_node != scored.stages[0].node_id:
            migration_done = now + scored.inbound_net_us + use.transfer_us
            self._push(
                migration_done, self._apply_migration, request, use.entry, use.entry_node, scored.stages[0].node_id
            )

        for proj in scored.stages:
            node = self.broker.node(proj.node_id)
            if proj.cold:
                self.broker.install(proj.node_id, proj.realization_id, proj.warm_available_at_us)
                realization = self.catalog.realizations[proj.realization_id]
                self.metrics.model_load_overhead_us += proj.warm_available_at_us - proj.start_us
                self.metrics.placement_churn += 1
                self.metrics.core_bytes_placement += self.router.artifact_fetch(proj.node_id, realization)[1]
            realized = node.reserve(proj.realization_id, proj.ready_us, proj.duration_us)
            if realized != (proj.start_us, proj.complete_us):
                raise RuntimeError(
                    f"{request_id} on {proj.node_id}: realized schedule "
                    f"{realized} differs from scored "
                    f"({proj.start_us}, {proj.complete_us})"
                )
            self.metrics.max_queue_length[proj.node_id] = max(
                self.metrics.max_queue_length.get(proj.node_id, 0), node.queue_length(now)
            )
            if self.trace_enabled:  # so that an untraced run builds no row values
                self._push(proj.start_us, self._row, _DISPATCH, (request_id, proj.node_id, proj.ready_us))
            if self._push_completions:
                self._push(proj.complete_us, self._on_stage_complete, request_id, proj.node_id, proj.realization_id)

        if self.trace_enabled:
            inbound_bytes = request.input_tokens * self.router.bytes_per_token
            self._push(now + scored.inbound_net_us, self._row, _INBOUND, (request_id, inbound_bytes, "inbound"))
            if len(scored.stages) == 2:
                kv_done = scored.stages[0].complete_us + scored.interstage_net_us
                self._push(kv_done, self._row, _REQUEST_TRANSFER, (request_id, "kv"))
        self._push(scored.finish_us, self._finish_served, arrival, scored, pinned)

    # -- event handlers -----------------------------------------------------------

    def _on_stage_complete(self, now: int, request_id: str, node_id: str, rid: str) -> None:
        if self.trace_enabled:
            self._row(now, _STAGE_COMPLETE, (request_id, node_id))
        self._maybe_complete_eviction(now, node_id, rid)

    def _apply_migration(
        self, now: int, request: RequestDescriptor, entry: CacheEntry, src_node: str, dst_node: str
    ) -> None:
        if self.trace_enabled:
            self._row(now, _MIGRATION, (request.request_id, (src_node, dst_node), "state_migration"))
        if entry.source_realization and self.trust.is_revoked(entry.source_realization):
            return  # the bytes moved, but a revoked realization's state is stored nowhere
        decision = self.caches.store(dst_node).admit(
            replace(entry, window=deque(), pins=0),
            p_hit_of(entry, now, self.caches.window_us),
            now,
            node_trust=self.trust.effective_trust(dst_node, now),
            requester_min_trust=request.policy.min_trust,
        )
        if self.trace_enabled:
            benefit = decision.benefit_text()
            self._row(now, _CACHE_MIGRATE, (dst_node, entry.state_id, entry.size, benefit, decision.outcome, src_node))
            for victim in decision.evicted:
                self._row(now, _CACHE_EVICT, (dst_node, victim, "displaced"))

    def _on_replan(self, now: int) -> None:
        dep = self.scenario.deployment
        # A replan pops before every arrival at its own time (its event was
        # pushed first), so every arrival added is before the window's end.
        cells = self._demand.cells(now - dep.window_us)
        residency = {
            node_id: {rid for rid, res in state.residency.items() if not res.pending_eviction}
            for node_id, state in self.broker.nodes.items()
        }
        problem = deployment.build_problem(self.router, cells, self.scenario.placement_weights, residency)
        solution = deployment.solve(problem, dep.local_search_rounds)
        loads, evictions = deployment.plan_delta(solution, residency)
        if self.trace_enabled:
            self._row(now, _EPOCH_REPLAN, (len(evictions), len(loads)))

        # A load queued by an earlier replan waits only while this plan still holds it.
        for node_id, pending in self._pending_loads.items():
            pending.difference_update([rid for rid in pending if (rid, node_id) not in solution])
        for rid, node_id in evictions:
            self.broker.mark_eviction(node_id, rid, True)
            self._maybe_complete_eviction(now, node_id, rid)
        for rid, node_id in loads:
            if rid in self.broker.node(node_id).residency:
                self.broker.mark_eviction(node_id, rid, False)  # resurrected before it drained
                continue
            self._start_load(now, node_id, rid)
        if self.trace_enabled:
            for node_id in sorted(self.broker.nodes):
                queued_work_us = self.broker.refresh_queue_telemetry(node_id, now)
                self._push(now, self._row, _TELEMETRY, (node_id, queued_work_us))

    def _start_load(self, now: int, node_id: str, rid: str) -> None:
        """Load ``rid``, not resident, on the node, or queue it once until an
        eviction frees memory there. Only an eviction frees memory, and it
        starts the node's queued loads at once, so no cold commit can
        install a queued load meanwhile."""
        if self.broker.free_memory(node_id) < self.broker.footprint(rid):
            self._pending_loads.setdefault(node_id, set()).add(rid)
            return
        realization = self.catalog.realizations[rid]
        transfer, core = self.router.artifact_fetch(node_id, realization)
        available = now + transfer + realization.load_time_us
        self.broker.install(node_id, rid, available)
        self.metrics.placement_churn += 1
        self.metrics.model_load_overhead_us += transfer + realization.load_time_us
        self.metrics.core_bytes_placement += core
        if self.trace_enabled:
            self._push(available, self._row, _ARTIFACT, (node_id, rid, realization.artifact_size_bytes, "artifact"))

    def _maybe_complete_eviction(self, now: int, node_id: str, rid: str) -> None:
        state = self.broker.node(node_id)
        res = state.residency.get(rid)
        if res is None or not res.pending_eviction:
            return
        if state.outstanding_for_realization(rid, now) > 0:
            return
        self.broker.evict(node_id, rid)
        self.metrics.placement_churn += 1
        if self.trace_enabled:
            self._row(now, _PLACEMENT_EVICT, (node_id, rid))
        for pending_rid in sorted(self._pending_loads.pop(node_id, ())):
            self._start_load(now, node_id, pending_rid)

    def _on_session_end(self, now: int, session_id: str) -> None:
        dropped = self.caches.drop_session(session_id)
        if self.trace_enabled:
            for node_id, state_id in dropped:
                self._row(now, _CACHE_EVICT, (node_id, state_id, "session_end"))
            self._row(now, _SESSION_END, (session_id,))

    def _on_node_event(self, now: int, node_id: str, online: bool) -> None:
        self.broker.set_online(node_id, online)
        if self.trace_enabled:
            self._row(now, _NODE_ONLINE if online else _NODE_OFFLINE, (node_id,))

    def _on_revoke(self, now: int, rid: str) -> None:
        self.trust.revoke(rid)
        if self.trace_enabled:
            self._row(now, _REVOKE, (rid,))
        for node_id in sorted(self.broker.nodes):
            self.broker.mark_eviction(node_id, rid, True)
            self._maybe_complete_eviction(now, node_id, rid)
        dropped = self.caches.drop_by_realization(rid)
        if self.trace_enabled:
            for node_id, state_id in dropped:
                self._row(now, _CACHE_EVICT, (node_id, state_id, "revoked"))

    # -- terminal bookkeeping ------------------------------------------------------

    def _finish_rejected(self, now: int, arrival: Arrival, reason: str) -> None:
        request = arrival.request
        self.receipts.emit(
            ExecutionReceipt(
                request_id=request.request_id,
                verdict=Verdict.REJECTED,
                reason=reason,
                arrival_time=request.arrival_time,
                finish_time=now,
            )
        )
        self._end_turn(now, arrival)

    def _unpin(self, pinned: tuple[str, str] | None) -> CacheEntry | None:
        """Release the pin a commit took on the state it reused; the entry,
        if its store still holds it."""
        if pinned is None:
            return None
        node_id, entry_key = pinned
        entry = self.caches.store(node_id).entries.get(entry_key)
        if entry is not None:
            entry.pins = max(0, entry.pins - 1)
        return entry

    def _finish_served(self, now: int, arrival: Arrival, scored: ScoredPlan, pinned: tuple[str, str] | None) -> None:
        request = arrival.request
        if self.trace_enabled:
            self._row(now, _REQUEST_TRANSFER, (request.request_id, "response"))
        del self._in_flight[request.request_id]

        entry = self._unpin(pinned)
        source = entry.source_realization if entry is not None else None
        if source and self.trust.is_revoked(source) and entry.pins == 0:
            node_id, entry_key = pinned
            self.caches.store(node_id).remove(entry_key)
            if self.trace_enabled:
                self._row(now, _CACHE_EVICT, (node_id, entry.state_id, "revoked"))
            entry = None

        ttft, tpot = compute_ttft_tpot(scored, request)
        attest_time = scored.stages[0].start_us
        parts = self._plan_parts.get(scored.plan.plan_id)
        if parts is None or parts[2] != self.trust.attestations or not parts[3] <= attest_time < parts[4]:
            parts = self._trust_parts(scored, attest_time, parts)
        use = scored.state_use
        degraded = scored.served_quality < request.quality_target
        lookup = bool(request.affinity_token and self.caches.enabled)
        self.receipts.emit(
            ExecutionReceipt(
                request_id=request.request_id,
                verdict=Verdict.DEGRADED if degraded else Verdict.ALLOWED,
                reason=f"quality-downgrade:{scored.served_quality}" if degraded else None,
                plan=scored.plan.stages,
                capability_versions=parts[0],
                node_attestations=parts[1],
                cache_states_reused=(use.entry.state_id,) if use else (),
                cache_tokens_covered=use.covered_tokens if use else 0,
                t_net_us=scored.t_net_us,
                t_queue_us=scored.t_queue_us,
                t_exec_us=scored.t_exec_us,
                t_state_us=scored.t_state_us,
                c_load=scored.c_load,
                p_policy=scored.p_policy,
                arrival_time=request.arrival_time,
                finish_time=now,
                ttft_us=ttft,
                tpot_us=tpot,
                core_bytes=scored.core_bytes,
                cache_lookup=lookup,
                occupancy_us=tuple(proj.duration_us for proj in scored.stages),
            )
        )
        # Only a session turn with a prefix has state to offer. The state the
        # turn reused, still stored on the node that serves its last stage, is
        # what an offer would find there first.
        if lookup and arrival.prefix_tokens > 0 and (entry is None or pinned[0] != scored.stages[-1].node_id):
            self._offer_session_state(now, arrival, scored)
        self._end_turn(now, arrival)

    def _trust_parts(self, scored: ScoredPlan, attest_time: int, kept: tuple | None) -> tuple:
        """The plan's trust parts for a first stage that starts at
        ``attest_time``, kept for its later receipts: its sorted (realization,
        lineage digest) pairs, which no event changes, and its nodes' sorted
        (node, effective trust) pairs, valid until an attestation is added or
        a first stage starts outside the span in which no stage node's
        attestation starts or lapses."""
        trust, stages = self.trust, scored.stages
        if kept is None:
            lineage = trust.lineage_for
            versions = tuple(sorted({(s.realization_id, lineage(s.realization_id)) for s in stages}))
        else:
            versions = kept[0]
        nodes = sorted({s.node_id for s in stages})
        attestations = tuple((node_id, trust.effective_trust(node_id, attest_time)) for node_id in nodes)
        attestations = self._attestation_values.setdefault(attestations, attestations)
        first = max((t for n in nodes if (t := trust.last_change(n, attest_time)) is not None), default=-_NEVER)
        end = min((t for n in nodes if (t := trust.next_change(n, attest_time)) is not None), default=_NEVER)
        parts = self._plan_parts[scored.plan.plan_id] = (versions, attestations, trust.attestations, first, end)
        return parts

    def _offer_session_state(self, now: int, arrival: Arrival, scored: ScoredPlan) -> None:
        """Offer the turn's prefix state to the store of the node that served
        its last stage, unless that store holds it already. State computed
        by a revoked realization is not offered, as ``drop_by_realization``
        keeps none. The caller offers only a session turn with a prefix, with
        caching on."""
        request = arrival.request
        prefill_rid = scored.stages[0].realization_id
        if self.trust.is_revoked(prefill_rid):
            return
        serving_node = scored.stages[-1].node_id
        realization = self.catalog.realizations[prefill_rid]
        key = self.router.state_key_for(prefill_rid, request)
        store = self.caches.store(serving_node)
        if store.peek(key, arrival.session_id) is not None:
            return
        size = arrival.prefix_tokens * realization.kv_bytes_per_token
        speed = self.broker.node(serving_node).profile.speed_factor
        per_token = realization.prefill_time_per_token_us
        gain = _ceil_time(per_token, arrival.prefix_tokens, speed.numerator, speed.denominator)
        entry = CacheEntry(
            state_id=f"st-{request.request_id}",
            state_key=key,
            size=size,
            session_id=arrival.session_id,
            latency_gain_us=gain,
            storage_cost_us=size * self._storage_num // self._storage_den,
            token_count=arrival.prefix_tokens,
            source_realization=prefill_rid,
        )
        # Trust is never below 0: at a floor of 0 the scope check passes unread.
        min_trust = request.policy.min_trust
        decision = store.admit(
            entry,
            _NEW_ENTRY_P_HIT,
            now,
            node_trust=self.trust.effective_trust(serving_node, now) if min_trust > 0 else 0,
            requester_min_trust=min_trust,
        )
        if self.trace_enabled:
            layout = _CACHE_ADMIT if decision.admitted else _CACHE_REJECT
            self._row(now, layout, (serving_node, entry.state_id, size, decision.benefit_text(), decision.outcome))
            for victim in decision.evicted:
                self._row(now, _CACHE_EVICT, (serving_node, victim, "displaced"))

    def _end_turn(self, now: int, arrival: Arrival) -> None:
        sid = arrival.session_id
        remaining = self._session_remaining.pop(sid, 0) - 1
        if remaining > 0:
            self._session_remaining[sid] = remaining
        elif self._events and self._events[0][0] <= now:  # the events due now pop first
            self._push(now, self._on_session_end, sid)
        else:  # it would pop next: no caller pushes an event after a turn ends
            self._on_session_end(now, sid)

    def _truncate_in_flight(self) -> None:
        """Receipts for requests still in flight at the horizon. A revoked
        state they pinned stays stored, so ``trace.csv`` gains no row."""
        for request_id in sorted(self._in_flight):
            arrival, scored, pinned = self._in_flight[request_id]
            self._unpin(pinned)
            self.receipts.emit(
                ExecutionReceipt(
                    request_id=request_id,
                    verdict=Verdict.REJECTED,
                    reason=REASON_HORIZON_TRUNCATED,
                    plan=scored.plan.stages,
                    arrival_time=arrival.request.arrival_time,
                    finish_time=self.duration_us,
                )
            )
        self._in_flight.clear()


def compute_ttft_tpot(scored: ScoredPlan, request: RequestDescriptor) -> tuple[int, int]:
    """(TTFT, TPOT) in integer microseconds for a served request.

    TTFT is elapsed time from arrival to the first output token: inbound
    transfer, state wait, realized queueing, activation/setup, uncovered
    prefill, and one decode step. TPOT is the mean inter-output-token time,
    the decode-phase duration over the output token count.
    """
    ttft = scored.first_token_us - request.arrival_time
    tpot = scored.decode_total_us // max(1, request.output_tokens)
    return ttft, tpot
