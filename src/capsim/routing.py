"""Capability-aware service routing: plan enumeration, six-term cost scoring,
argmin selection with deterministic tie-breaks, and overload degradation.

Scoring is pure over a broker snapshot and exact: all weights are rationals,
all terms integers, so argmin decisions are scale-invariant and bit-stable.
A scored plan carries its full projected schedule (per-stage ready/start/
complete times); committing a plan reserves exactly that schedule, which is
why realized queueing always equals the scored queueing term.

Every plan is priced from stage halves: a half prices one candidate (node,
realization) once, with its inbound and outbound transfer, state reuse,
activation, execution, wait and penalties. A single-node plan is one half; a
prefill/decode split adds the two halves, the KV transfer between them and
the decode node's wait at the prefill's completion. ``select`` compares J as
an exact integer numerator over the weights' common denominator, so the
budget filter and the relative tie window need no rationals, and projects
the schedule of the winner only. ``score`` prices one given plan from the
same halves.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .caching import CacheEntry, CacheSystem, HardwareBound, ScopeViolation, compatibility_hash
from .descriptors import (
    REASON_BUDGET_EXCEEDED,
    REASON_NO_FEASIBLE_PLAN,
    CapabilityRealization,
    PlanPhase,
    PlanStage,
    RequestDescriptor,
    Tier,
)
from .registry import Broker, Candidate, NodeState
from .topology import Topology, Unreachable, region_vertex
from .trust import TrustManager

TIE_EPS_NUM = 1
TIE_EPS_DEN = 10**9  # relative tie window for argmin, 1e-9

DEFAULT_TOKENIZER_TAG = "default"


@lru_cache(maxsize=8192)
def _state_hash(realization_id: str, prefix_digest: str) -> str:
    return compatibility_hash(realization_id, DEFAULT_TOKENIZER_TAG, None, prefix_digest)


@dataclass(frozen=True, slots=True)
class RoutingWeights:
    alpha: Fraction = Fraction(1)   # T_net
    beta: Fraction = Fraction(1)    # T_queue
    gamma: Fraction = Fraction(1)   # T_exec
    delta: Fraction = Fraction(1)   # T_state
    epsilon: Fraction = Fraction(0)  # C_load
    zeta: Fraction = Fraction(0)    # P_policy
    kappa: Fraction = Fraction(0)   # load-penalty scale inside C_load
    pi_soft: int = 0                # per soft-preference miss
    tie_eps: Fraction = Fraction(TIE_EPS_NUM, TIE_EPS_DEN)  # relative argmin tie window


@dataclass(frozen=True, slots=True)
class ExecutionPlan:
    stages: tuple[PlanStage, ...]
    plan_id: str

    @classmethod
    def of(cls, stages: tuple[PlanStage, ...]) -> "ExecutionPlan":
        """The plan of ``stages``, its id hashed afresh; ``Router.plan`` memoizes it."""
        payload = json.dumps([s.to_dict() for s in stages], sort_keys=True, separators=(",", ":"))
        return cls(stages=stages, plan_id=hashlib.sha256(payload.encode()).hexdigest()[:32])


@dataclass(frozen=True, slots=True)
class PlanCost:
    t_net_us: int
    t_queue_us: int
    t_exec_us: int
    t_state_us: int
    c_load: int
    p_policy: int
    total: Fraction

    def terms(self) -> tuple[int, int, int, int, int, int]:
        return (self.t_net_us, self.t_queue_us, self.t_exec_us, self.t_state_us, self.c_load, self.p_policy)


def _weight_multipliers(weights: RoutingWeights) -> tuple[int, tuple[int, ...]]:
    """Common denominator and integer per-term multipliers for exact J sums."""
    parts = (weights.alpha, weights.beta, weights.gamma, weights.delta, weights.epsilon, weights.zeta)
    scale = lcm(*(p.denominator for p in parts))
    return scale, tuple(p.numerator * (scale // p.denominator) for p in parts)


def _numerator(mult: tuple[int, ...], terms: tuple[int, ...]) -> int:
    """J times the weights' common denominator."""
    return sum(m * t for m, t in zip(mult, terms))


@dataclass(frozen=True, slots=True)
class StageProjection:
    node_id: str
    realization_id: str
    phase: PlanPhase
    ready_us: int
    start_us: int
    complete_us: int
    duration_us: int
    cold: bool
    warm_available_at_us: int  # when a cold load finishes (== start for warm)


@dataclass(frozen=True, slots=True)
class StateUse:
    """How the plan satisfies the request's state affinity."""

    entry_node: str
    entry: CacheEntry
    covered_tokens: int
    migrate: bool            # False = recompute charge
    transfer_us: int
    core_bytes: int


@dataclass(frozen=True, slots=True)
class ScoredPlan:
    plan: ExecutionPlan
    cost: PlanCost
    stages: tuple[StageProjection, ...]
    inbound_net_us: int
    interstage_net_us: int
    outbound_net_us: int
    finish_us: int
    first_token_us: int      # absolute time the first output token is produced
    decode_total_us: int     # full decode-phase duration on the decode stage
    state_use: StateUse | None
    core_bytes: int          # request+kv+response bytes over core links
    uncovered_prefill_tokens: int


class Unroutable(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Rejection:
    reason: str


@dataclass(frozen=True, slots=True)
class Selection:
    scored: ScoredPlan
    served_quality: int
    degraded: bool
    # (plan_id, terms) of every plan incl. the chosen one; empty unless the router audits
    alternatives: tuple[tuple[str, tuple[int, int, int, int, int, int]], ...]


@dataclass(slots=True)
class _Half:
    """One candidate's share of every plan it appears in, priced once per select.

    The prefill side (``t_in`` set) serves single-node and prefill stages, the
    decode side (``t_out`` set) single-node and decode stages; a side is None
    when the origin and the node are not connected in that direction.
    ``pre_num`` and ``dec_num`` are each side's J numerator; ``use``,
    ``activation`` and the core bytes are kept to project the winner's schedule.
    """

    cand: Candidate
    variant_id: str
    free_us: int   # earliest server release: a stage ready at t waits max(0, free_us - t)
    kv_bytes: int  # handed to the decode node when this half prefills
    c_load: int
    p_policy: int
    activation: int  # cold load before the stage can run, 0 when warm
    t_in: int | None = None
    core_in: int = 0
    use: StateUse | None = None
    wait: int = 0
    prefill_exec: int = 0
    t_state: int = 0
    prefill_done_us: int = 0
    pre_num: int = 0
    t_out: int | None = None
    core_out: int = 0
    decode_us: int = 0
    decode_exec: int = 0
    dec_num: int = 0


# A priced plan: (J numerator, prefill-or-only half, decode half or None,
# KV transfer time, decode wait).
_Priced = tuple[int, _Half, _Half | None, int, int]


class Router:
    def __init__(
        self,
        broker: Broker,
        topology: Topology,
        caches: CacheSystem,
        trust: TrustManager | None = None,
        weights: RoutingWeights | None = None,
        bytes_per_token: int = 4,
        enable_split: bool = True,
        artifact_repository: str | None = None,
        placement_tiers: set[Tier] | None = None,
        audit: bool = False,
    ):
        self.broker = broker
        self.topology = topology
        self.caches = caches
        self.trust = trust
        self.weights = weights or RoutingWeights()
        self.bytes_per_token = bytes_per_token
        self.enable_split = enable_split
        self.artifact_repository = artifact_repository
        self.placement_tiers = placement_tiers
        self.audit = audit  # selections carry every plan's (plan_id, terms)
        self._scale, self._mult = _weight_multipliers(self.weights)
        self._plans: dict[tuple[PlanStage, ...], ExecutionPlan] = {}

    def plan(self, stages: tuple[PlanStage, ...]) -> ExecutionPlan:
        """The plan of ``stages``, hashed once per router."""
        plan = self._plans.get(stages)
        if plan is None:
            plan = self._plans[stages] = ExecutionPlan.of(stages)
        return plan

    # -- helpers -------------------------------------------------------------

    def _eff_time_us(self, per_token_us: int, tokens: int, speed: Fraction) -> int:
        if tokens <= 0:
            return 0
        if speed.numerator <= 0:
            raise Unroutable("zero speed factor")
        return -(-per_token_us * tokens * speed.denominator // speed.numerator)

    def _cold_extras_us(self, node_id: str, realization: CapabilityRealization) -> tuple[int, int]:
        """(activation time, core bytes) to fetch and load the artifact."""
        if self.artifact_repository is None:
            return realization.load_time_us, 0
        transfer, core = self.topology.transfer_between(
            self.artifact_repository, node_id, realization.artifact_size_bytes
        )
        return transfer + realization.load_time_us, core

    def _affinity_parts(self, request: RequestDescriptor) -> tuple[str, str] | None:
        if not request.affinity_token:
            return None
        session_id, _, prefix_digest = request.affinity_token.partition(":")
        return session_id, prefix_digest

    def state_hash_for(self, realization_id: str, request: RequestDescriptor) -> str | None:
        parts = self._affinity_parts(request)
        if parts is None:
            return None
        _, prefix_digest = parts
        return _state_hash(realization_id, prefix_digest)

    def _resolve_state(
        self,
        request: RequestDescriptor,
        prefill_node: NodeState,
        realization: CapabilityRealization,
        held: dict[str, list[tuple[str, CacheEntry]]] | None = None,
    ) -> StateUse | None:
        """Locate reusable affinity state and price making it available.

        ``held`` memoizes the online holders per compatibility hash for
        callers that resolve state for many candidates at one instant.
        """
        parts = self._affinity_parts(request)
        if parts is None or not self.caches.enabled:
            return None
        session_id, _ = parts
        compat = self.state_hash_for(realization.realization_id, request)
        if held is None:
            held = {}
        holders = held.get(compat)
        if holders is None:
            holders = held[compat] = [
                (node_id, entry)
                for node_id, entry in self.caches.holders(compat, session_id)
                if self.broker.node(node_id).online
            ]
        if not holders:
            return None
        speed = prefill_node.profile.hardware.speed_factor
        local = [(n, e) for n, e in holders if n == prefill_node.node_id]
        if local:
            node_id, entry = local[0]
            covered = min(entry.token_count, request.input_tokens)
            if covered <= 0:
                return None
            return StateUse(node_id, entry, covered, migrate=False, transfer_us=0, core_bytes=0)
        best: StateUse | None = None
        for node_id, entry in holders:
            covered = min(entry.token_count, request.input_tokens)
            if covered <= 0:
                continue
            recompute_us = self._eff_time_us(realization.prefill_time_per_token_us, covered, speed)
            migrate_us: int | None = None
            core = 0
            if self.caches.migratable(entry) and entry.descriptor.migration_cost is not None:
                dst_trust = self._node_trust(prefill_node, now=None)
                try:
                    self.caches.check_migration(entry, dst_trust, request.policy.min_trust)
                    migrate_us, core = self.topology.transfer_between(
                        node_id, prefill_node.node_id, entry.descriptor.migration_cost
                    )
                except (HardwareBound, ScopeViolation, Unreachable):
                    migrate_us = None
            if migrate_us is not None and migrate_us < recompute_us:
                use = StateUse(node_id, entry, covered, migrate=True, transfer_us=migrate_us, core_bytes=core)
            else:
                use = StateUse(node_id, entry, covered, migrate=False, transfer_us=recompute_us, core_bytes=0)
            if best is None or (use.transfer_us, use.entry_node) < (best.transfer_us, best.entry_node):
                best = use
        return best

    def _node_trust(self, state: NodeState, now: int | None) -> int:
        if self.trust is None or now is None:
            return state.profile.trust
        return self.trust.effective_trust(state.node_id, now)

    def _c_load_for(self, state: NodeState, now: int) -> int:
        kappa = self.weights.kappa
        if kappa == 0:
            return 0
        outstanding = state.outstanding(now)
        cap = state.profile.capacity.max_concurrent
        return kappa.numerator * outstanding * outstanding // (kappa.denominator * cap * cap)

    def _soft_misses(self, request: RequestDescriptor, stages: list[tuple[NodeState, CapabilityRealization]], now: int) -> int:
        misses = 0
        preferred = request.policy.preferred_domains
        for state, realization in stages:
            if preferred is not None and state.profile.domain_id not in preferred:
                misses += 1
            variant = self.broker.catalog.variant_of(realization.realization_id)
            if self._node_trust(state, now) < variant.security.preferred_trust:
                misses += 1
        return misses

    # -- scoring --------------------------------------------------------------

    def score(
        self,
        plan: ExecutionPlan,
        request: RequestDescriptor,
        now: int,
        warm_flags: tuple[bool, ...],
        zero_queue: bool = False,
    ) -> ScoredPlan:
        """Price one plan: the six cost terms plus the projected schedule.

        Each stage is priced as a stage half, as ``select`` prices it.
        ``warm_flags`` marks per-stage residency (cold stages pay activation
        inside T_exec). ``zero_queue`` scores against an idle, penalty-free
        substrate without state reuse — the deployment planner's view.
        Raises ``Unreachable`` when a transfer the plan needs has no route.
        """
        origin = region_vertex(request.origin_region)
        held: dict[str, list[tuple[str, CacheEntry]]] = {}
        halves = [
            self._half(request, Candidate(s.node_id, s.realization_id, warm), origin, now, held, zero_queue)
            for s, warm in zip(plan.stages, warm_flags)
        ]
        if any(h is None for h in halves) or halves[0].t_in is None or halves[-1].t_out is None:
            raise Unreachable(f"plan {plan.plan_id}: a transfer it needs has no route")
        pre, dec = halves[0], (halves[1] if len(halves) == 2 else None)
        t_inter = wait = 0
        if dec is not None:
            t_inter, _ = self.topology.transfer_between(pre.cand.node_id, dec.cand.node_id, pre.kv_bytes)
            wait = max(0, dec.free_us - pre.prefill_done_us - t_inter)
        return self._scored(plan, request, now, pre, dec, t_inter, wait)

    def _scored(
        self,
        plan: ExecutionPlan,
        request: RequestDescriptor,
        now: int,
        pre: _Half,
        dec: _Half | None,
        t_inter: int,
        wait: int,
    ) -> ScoredPlan:
        """The priced plan ``(pre, dec, t_inter, wait)`` with its projected schedule."""
        use = pre.use
        # Migration is network wait before the stage is ready; the recompute
        # branch is server work inside the first stage's occupancy.
        ready = now + pre.t_in + (use.transfer_us if use is not None and use.migrate else 0)
        start = ready + pre.wait
        if dec is None:
            last, core_inter = pre, 0
            complete = pre.prefill_done_us + pre.decode_us
            stages = (_projection(pre, PlanPhase.FULL, ready, start, complete),)
        else:
            last = dec
            _, core_inter = self.topology.transfer_between(pre.cand.node_id, dec.cand.node_id, pre.kv_bytes)
            dec_ready = pre.prefill_done_us + t_inter
            complete = dec_ready + wait + dec.decode_exec
            stages = (
                _projection(pre, PlanPhase.PREFILL, ready, start, pre.prefill_done_us),
                _projection(dec, PlanPhase.DECODE, dec_ready, dec_ready + wait, complete),
            )
        speed = self.broker.node(last.cand.node_id).profile.hardware.speed_factor
        per_token = self.broker.catalog.realizations[last.cand.realization_id].decode_time_per_token_us
        terms = self._terms_of(pre, dec, t_inter, wait)
        return ScoredPlan(
            plan=plan,
            cost=PlanCost(*terms, total=Fraction(_numerator(self._mult, terms), self._scale)),
            stages=stages,
            inbound_net_us=pre.t_in,
            interstage_net_us=t_inter,
            outbound_net_us=last.t_out,
            finish_us=complete + last.t_out,
            first_token_us=complete - last.decode_us + self._eff_time_us(per_token, 1, speed),
            decode_total_us=last.decode_us,
            state_use=use,
            core_bytes=pre.core_in + core_inter + last.core_out + (use.core_bytes if use is not None else 0),
            uncovered_prefill_tokens=max(0, request.input_tokens - (use.covered_tokens if use is not None else 0)),
        )

    # -- selection ----------------------------------------------------------------

    def _candidates(self, request: RequestDescriptor, quality: int, now: int) -> list[Candidate]:
        """Qualifying candidates on nodes below their admission cap."""
        candidates = self.broker.lookup_candidates(
            request.capability_class,
            quality,
            request.policy,
            origin_region=request.origin_region,
            now=now,
            tiers=self.placement_tiers,
        )
        kept = []
        for cand in candidates:
            state = self.broker.node(cand.node_id)
            if state.queue_length(now) >= state.profile.capacity.admission_cap:
                continue
            kept.append(cand)
        return kept

    def _half(
        self,
        request: RequestDescriptor,
        cand: Candidate,
        origin: str,
        now: int,
        held: dict[str, list[tuple[str, CacheEntry]]],
        zero_queue: bool = False,
    ) -> _Half | None:
        """Price ``cand`` as a stage half: what it is charged in any plan.

        ``zero_queue`` prices it on an idle server with no load or policy
        penalty and no state reuse.
        """
        node = self.broker.node(cand.node_id)
        realization = self.broker.catalog.realizations[cand.realization_id]
        try:
            t_in, core_in = self.topology.transfer_between(origin, cand.node_id, request.input_tokens * self.bytes_per_token)
        except Unreachable:
            t_in = None
        try:
            t_out, core_out = self.topology.transfer_between(cand.node_id, origin, request.output_tokens * self.bytes_per_token)
        except Unreachable:
            t_out = None
        if t_in is None and t_out is None:
            return None
        activation = 0
        if not cand.warm:
            try:
                activation, _ = self._cold_extras_us(cand.node_id, realization)
            except Unreachable:
                return None  # the artifact cannot reach the node: no plan may place it
        base_exec = realization.setup_time_us + activation
        m_net, m_queue, m_exec, m_state, m_load, m_policy = self._mult
        half = _Half(
            cand,
            realization.variant_id,
            free_us=0 if zero_queue else node.server_free_us[0],  # 0: idle since before any ready time
            kv_bytes=request.input_tokens * realization.kv_bytes_per_token,
            c_load=0 if zero_queue else self._c_load_for(node, now),
            p_policy=0 if zero_queue else self.weights.pi_soft * self._soft_misses(request, [(node, realization)], now),
            activation=activation,
        )
        penalty = m_load * half.c_load + m_policy * half.p_policy
        speed = node.profile.hardware.speed_factor
        if t_in is not None:
            use = None if zero_queue else self._resolve_state(request, node, realization, held)
            covered = use.covered_tokens if use else 0
            t_state = use.transfer_us if use else 0
            migrate_wait = t_state if (use and use.migrate) else 0
            ready = now + t_in + migrate_wait
            half.t_in, half.core_in, half.use = t_in, core_in, use
            half.wait = max(0, half.free_us - ready)
            half.prefill_exec = base_exec + self._eff_time_us(
                realization.prefill_time_per_token_us, max(0, request.input_tokens - covered), speed
            )
            half.t_state = t_state
            # Recomputing covered tokens occupies the server after the prefill.
            half.prefill_done_us = ready + half.wait + half.prefill_exec + (t_state - migrate_wait)
            half.pre_num = m_net * t_in + m_queue * half.wait + m_exec * half.prefill_exec + m_state * t_state + penalty
        if t_out is not None:
            half.t_out, half.core_out = t_out, core_out
            half.decode_us = self._eff_time_us(realization.decode_time_per_token_us, request.output_tokens, speed)
            half.decode_exec = base_exec + half.decode_us
            half.dec_num = m_net * t_out + m_exec * half.decode_exec + penalty
        return half

    def _price_plans(self, request: RequestDescriptor, candidates: list[Candidate], now: int) -> list[_Priced]:
        """Every single-node and prefill/decode plan over ``candidates`` with a
        route for each transfer it needs, with its J numerator."""
        origin = region_vertex(request.origin_region)
        held: dict[str, list[tuple[str, CacheEntry]]] = {}  # holders per compatibility hash, this instant
        halves = [h for h in (self._half(request, c, origin, now, held) for c in candidates) if h is not None]
        m_net, m_queue, m_exec = self._mult[:3]
        plans: list[_Priced] = [
            (h.pre_num + m_net * h.t_out + m_exec * h.decode_us, h, None, 0, 0)
            for h in halves
            if h.t_in is not None and h.t_out is not None
        ]
        if self.enable_split:
            decoders: dict[str, list[_Half]] = {}
            for h in halves:
                if h.t_out is not None:
                    decoders.setdefault(h.variant_id, []).append(h)
            transfer = self.topology.transfer_between
            for pre in halves:
                if pre.t_in is None:
                    continue
                pre_node = pre.cand.node_id
                for dec in decoders.get(pre.variant_id, ()):
                    if dec.cand.node_id == pre_node:
                        continue
                    try:
                        t_inter, _ = transfer(pre_node, dec.cand.node_id, pre.kv_bytes)
                    except Unreachable:
                        continue
                    wait = max(0, dec.free_us - pre.prefill_done_us - t_inter)
                    num = pre.pre_num + dec.dec_num + m_net * t_inter + m_queue * wait
                    plans.append((num, pre, dec, t_inter, wait))
        return plans

    def _plan_of(self, pre: _Half, dec: _Half | None) -> ExecutionPlan:
        if dec is None:
            return self.plan((PlanStage(pre.cand.node_id, pre.cand.realization_id, PlanPhase.FULL),))
        return self.plan(
            (
                PlanStage(pre.cand.node_id, pre.cand.realization_id, PlanPhase.PREFILL),
                PlanStage(dec.cand.node_id, dec.cand.realization_id, PlanPhase.DECODE),
            )
        )

    @staticmethod
    def _terms_of(pre: _Half, dec: _Half | None, t_inter: int, wait: int) -> tuple[int, int, int, int, int, int]:
        if dec is None:
            return (pre.t_in + pre.t_out, pre.wait, pre.prefill_exec + pre.decode_us, pre.t_state, pre.c_load, pre.p_policy)
        return (
            pre.t_in + t_inter + dec.t_out,
            pre.wait + wait,
            pre.prefill_exec + dec.decode_exec,
            pre.t_state,
            pre.c_load + dec.c_load,
            pre.p_policy + dec.p_policy,
        )

    def select(self, request: RequestDescriptor, now: int) -> Selection | Rejection:
        """Argmin-J selection with the overload/degradation ladder.

        Ladder: admission-capped nodes are excluded first; an empty plan set
        retries at quality_target - 1 while the request is degradable; plans
        existing only above budget reject as BudgetExceeded, none at all as
        NoFeasiblePlan.

        Plans are compared on integer J numerators; the plan_id tie-break
        hashes only the plans inside the tie window, and only the winner's
        schedule is projected.
        """
        quality = request.quality_target
        saw_budget_only = False
        limit = None if request.budget is None else request.budget * self._scale
        while quality >= 1:
            candidates = self._candidates(request, quality, now)
            plans = self._price_plans(request, candidates, now)
            within = plans if limit is None else [p for p in plans if p[0] <= limit]
            if within:
                return self._selection(request, now, plans, within, quality)
            if plans:
                saw_budget_only = True
            if request.degradable and quality > 1:
                quality -= 1
                continue
            break
        return Rejection(REASON_BUDGET_EXCEEDED if saw_budget_only else REASON_NO_FEASIBLE_PLAN)

    def _selection(
        self, request: RequestDescriptor, now: int, plans: list[_Priced], within: list[_Priced], quality: int
    ) -> Selection:
        # J <= best + |best| * eps, multiplied through by eps's denominator;
        # J is an integer, so the floor of the bound compares the same.
        eps = self.weights.tie_eps
        best = min(p[0] for p in within)
        cut = (best * eps.denominator + abs(best) * eps.numerator) // eps.denominator
        plan, (_, pre, dec, t_inter, wait) = min(
            ((self._plan_of(p[1], p[2]), p) for p in within if p[0] <= cut),
            key=lambda c: c[0].plan_id,
        )
        alternatives = ()
        if self.audit:
            alternatives = tuple(sorted((self._plan_of(p[1], p[2]).plan_id, self._terms_of(*p[1:])) for p in plans))
        return Selection(
            scored=self._scored(plan, request, now, pre, dec, t_inter, wait),
            served_quality=quality,
            degraded=quality < request.quality_target,
            alternatives=alternatives,
        )


def _projection(half: _Half, phase: PlanPhase, ready: int, start: int, complete: int) -> StageProjection:
    cand = half.cand
    return StageProjection(
        node_id=cand.node_id,
        realization_id=cand.realization_id,
        phase=phase,
        ready_us=ready,
        start_us=start,
        complete_us=complete,
        duration_us=complete - start,
        cold=not cand.warm,
        warm_available_at_us=start + half.activation,
    )
