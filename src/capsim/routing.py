"""Capability-aware service routing: plan enumeration, six-term cost scoring,
argmin selection with deterministic tie-breaks, and overload degradation.

Scoring is pure over a broker snapshot and exact: all weights are rationals,
all terms integers, so argmin decisions are scale-invariant and bit-stable.
A scored plan carries its full projected schedule (per-stage ready/start/
complete times); committing a plan reserves exactly that schedule, which is
why realized queueing always equals the scored queueing term.

Selection prices each candidate (node, realization) once as a stage half:
its inbound and outbound transfer, state reuse, activation, execution, wait
and penalties. A single-node plan is one half; a prefill/decode split adds
the two halves, the KV transfer between them and the decode node's wait at
the prefill's completion. J is compared as an exact integer numerator over
the weights' common denominator, so the budget filter and the relative tie
window need no rationals; only the winner is rescored into a full
``ScoredPlan`` with ``score``.
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

    def scaled(self, factor: int) -> "RoutingWeights":
        """All six cost-term weights multiplied by a positive constant."""
        return RoutingWeights(
            alpha=self.alpha * factor,
            beta=self.beta * factor,
            gamma=self.gamma * factor,
            delta=self.delta * factor,
            epsilon=self.epsilon * factor,
            zeta=self.zeta * factor,
            kappa=self.kappa,
            pi_soft=self.pi_soft,
            tie_eps=self.tie_eps,
        )


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


def combine_terms(weights: RoutingWeights, terms: tuple[int, int, int, int, int, int]) -> Fraction:
    scale, mult = _weight_multipliers(weights)
    return Fraction(_numerator(mult, terms), scale)


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
    ``pre_num`` and ``dec_num`` are each side's J numerator.
    """

    cand: Candidate
    variant_id: str
    free_us: int   # earliest server release: a stage ready at t waits max(0, free_us - t)
    kv_bytes: int  # handed to the decode node when this half prefills
    c_load: int
    p_policy: int
    t_in: int | None = None
    wait: int = 0
    prefill_exec: int = 0
    t_state: int = 0
    prefill_done_us: int = 0
    pre_num: int = 0
    t_out: int | None = None
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

        ``warm_flags`` marks per-stage residency (cold stages pay activation
        inside T_exec). ``zero_queue`` scores against an idle, penalty-free
        substrate — the deployment planner's view.
        """
        origin = region_vertex(request.origin_region)
        stages = [
            (self.broker.node(s.node_id), self.broker.catalog.realizations[s.realization_id])
            for s in plan.stages
        ]
        in_payload = request.input_tokens * self.bytes_per_token
        out_payload = request.output_tokens * self.bytes_per_token

        first_node = stages[0][0]
        last_node = stages[-1][0]
        t_in, core_in = self.topology.transfer_between(origin, first_node.node_id, in_payload)
        t_out, core_out = self.topology.transfer_between(last_node.node_id, origin, out_payload)
        t_inter = core_inter = 0
        if len(stages) == 2:
            kv_bytes = request.input_tokens * stages[0][1].kv_bytes_per_token
            t_inter, core_inter = self.topology.transfer_between(
                first_node.node_id, last_node.node_id, kv_bytes
            )
        t_net = t_in + t_inter + t_out

        state_use = None if zero_queue else self._resolve_state(request, first_node, stages[0][1])
        covered = state_use.covered_tokens if state_use else 0
        t_state = state_use.transfer_us if state_use else 0
        uncovered = max(0, request.input_tokens - covered)
        # Migration is network wait before the stage is ready; the recompute
        # branch is server work folded into the first stage's occupancy.
        migrate_wait = t_state if (state_use and state_use.migrate) else 0
        recompute_work = t_state if (state_use and not state_use.migrate) else 0

        projections: list[StageProjection] = []
        t_exec = 0
        t_queue = 0
        c_load = 0
        cursor = now + t_in + migrate_wait
        first_token_us = 0
        decode_total_us = 0
        for idx, ((node_state, realization), stage) in enumerate(zip(stages, plan.stages)):
            speed = node_state.profile.hardware.speed_factor
            exec_us = realization.setup_time_us
            cold = not warm_flags[idx]
            activation = 0
            if cold:
                activation, _ = self._cold_extras_us(node_state.node_id, realization)
                exec_us += activation
            decode_us = 0
            if stage.phase in (PlanPhase.FULL, PlanPhase.PREFILL):
                exec_us += self._eff_time_us(realization.prefill_time_per_token_us, uncovered, speed)
            if stage.phase in (PlanPhase.FULL, PlanPhase.DECODE):
                decode_us = self._eff_time_us(realization.decode_time_per_token_us, request.output_tokens, speed)
                exec_us += decode_us
            t_exec += exec_us
            occupancy_us = exec_us + (recompute_work if idx == 0 else 0)
            if idx == 1:
                cursor += t_inter
            ready = cursor
            wait = 0 if zero_queue else node_state.peek_wait_us(ready)
            start = ready + wait
            complete = start + occupancy_us
            t_queue += wait
            if not zero_queue:
                c_load += self._c_load_for(node_state, now)
            if stage.phase in (PlanPhase.FULL, PlanPhase.DECODE):
                one_token = self._eff_time_us(realization.decode_time_per_token_us, 1, speed)
                first_token_us = complete - decode_us + one_token
                decode_total_us = decode_us
            projections.append(
                StageProjection(
                    node_id=node_state.node_id,
                    realization_id=realization.realization_id,
                    phase=stage.phase,
                    ready_us=ready,
                    start_us=start,
                    complete_us=complete,
                    duration_us=occupancy_us,
                    cold=cold,
                    warm_available_at_us=start + activation,
                )
            )
            cursor = complete

        p_policy = 0 if zero_queue else self.weights.pi_soft * self._soft_misses(request, stages, now)
        terms = (t_net, t_queue, t_exec, t_state, c_load, p_policy)
        cost = PlanCost(*terms, total=Fraction(_numerator(self._mult, terms), self._scale))
        finish = cursor + t_out
        state_core = state_use.core_bytes if (state_use and state_use.migrate) else 0
        return ScoredPlan(
            plan=plan,
            cost=cost,
            stages=tuple(projections),
            inbound_net_us=t_in,
            interstage_net_us=t_inter,
            outbound_net_us=t_out,
            finish_us=finish,
            first_token_us=first_token_us,
            decode_total_us=decode_total_us,
            state_use=state_use,
            core_bytes=core_in + core_inter + core_out + state_core,
            uncovered_prefill_tokens=uncovered,
        )

    # -- enumeration ------------------------------------------------------------

    def _plans_from_candidates(self, candidates: list[Candidate]) -> list[tuple[ExecutionPlan, tuple[bool, ...]]]:
        plans: list[tuple[ExecutionPlan, tuple[bool, ...]]] = []
        for cand in candidates:
            stage = PlanStage(cand.node_id, cand.realization_id, PlanPhase.FULL)
            plans.append((self.plan((stage,)), (cand.warm,)))
        if self.enable_split:
            catalog = self.broker.catalog
            for pre in candidates:
                for dec in candidates:
                    if pre.node_id == dec.node_id:
                        continue
                    if catalog.realizations[pre.realization_id].variant_id != (
                        catalog.realizations[dec.realization_id].variant_id
                    ):
                        continue
                    stages = (
                        PlanStage(pre.node_id, pre.realization_id, PlanPhase.PREFILL),
                        PlanStage(dec.node_id, dec.realization_id, PlanPhase.DECODE),
                    )
                    plans.append((self.plan(stages), (pre.warm, dec.warm)))
        plans.sort(key=lambda p: p[0].plan_id)
        return plans

    def _candidates(self, request: RequestDescriptor, quality: int, now: int, respect_caps: bool) -> list[Candidate]:
        candidates = self.broker.lookup_candidates(
            request.capability_class,
            quality,
            request.policy,
            origin_region=request.origin_region,
            now=now,
            tiers=self.placement_tiers,
        )
        if not respect_caps:
            return candidates
        kept = []
        for cand in candidates:
            state = self.broker.node(cand.node_id)
            if state.queue_length(now) >= state.profile.capacity.admission_cap:
                continue
            kept.append(cand)
        return kept

    def _score_enumerated(
        self, request: RequestDescriptor, candidates: list[Candidate], now: int
    ) -> list[ScoredPlan]:
        scored = []
        for plan, warm_flags in self._plans_from_candidates(candidates):
            try:
                scored.append(self.score(plan, request, now, warm_flags))
            except Unreachable:
                continue  # a stage node the origin cannot reach is not a plan
        return scored

    def feasible_plans(self, request: RequestDescriptor, now: int) -> list[ScoredPlan]:
        """The feasible plan set: quality/policy-filtered, budget-filtered, scored."""
        candidates = self._candidates(request, request.quality_target, now, respect_caps=False)
        scored = self._score_enumerated(request, candidates, now)
        if request.budget is not None:
            scored = [s for s in scored if s.cost.total <= request.budget]
        return scored

    # -- selection ----------------------------------------------------------------

    def _half(
        self,
        request: RequestDescriptor,
        cand: Candidate,
        origin: str,
        now: int,
        held: dict[str, list[tuple[str, CacheEntry]]],
    ) -> _Half | None:
        """Price ``cand`` as a stage half: what ``score`` charges it in any plan."""
        node = self.broker.node(cand.node_id)
        realization = self.broker.catalog.realizations[cand.realization_id]
        try:
            t_in, _ = self.topology.transfer_between(origin, cand.node_id, request.input_tokens * self.bytes_per_token)
        except Unreachable:
            t_in = None
        try:
            t_out, _ = self.topology.transfer_between(cand.node_id, origin, request.output_tokens * self.bytes_per_token)
        except Unreachable:
            t_out = None
        if t_in is None and t_out is None:
            return None
        base_exec = realization.setup_time_us
        if not cand.warm:
            try:
                activation, _ = self._cold_extras_us(cand.node_id, realization)
            except Unreachable:
                return None  # the artifact cannot reach the node: no plan may place it
            base_exec += activation
        m_net, m_queue, m_exec, m_state, m_load, m_policy = self._mult
        half = _Half(
            cand,
            realization.variant_id,
            free_us=node.server_free_us[0],
            kv_bytes=request.input_tokens * realization.kv_bytes_per_token,
            c_load=self._c_load_for(node, now),
            p_policy=self.weights.pi_soft * self._soft_misses(request, [(node, realization)], now),
        )
        penalty = m_load * half.c_load + m_policy * half.p_policy
        speed = node.profile.hardware.speed_factor
        if t_in is not None:
            use = self._resolve_state(request, node, realization, held)
            covered = use.covered_tokens if use else 0
            t_state = use.transfer_us if use else 0
            migrate_wait = t_state if (use and use.migrate) else 0
            ready = now + t_in + migrate_wait
            half.t_in = t_in
            half.wait = max(0, half.free_us - ready)
            half.prefill_exec = base_exec + self._eff_time_us(
                realization.prefill_time_per_token_us, max(0, request.input_tokens - covered), speed
            )
            half.t_state = t_state
            # Recomputing covered tokens occupies the server after the prefill.
            half.prefill_done_us = ready + half.wait + half.prefill_exec + (t_state - migrate_wait)
            half.pre_num = m_net * t_in + m_queue * half.wait + m_exec * half.prefill_exec + m_state * t_state + penalty
        if t_out is not None:
            half.t_out = t_out
            half.decode_us = self._eff_time_us(realization.decode_time_per_token_us, request.output_tokens, speed)
            half.decode_exec = base_exec + half.decode_us
            half.dec_num = m_net * t_out + m_exec * half.decode_exec + penalty
        return half

    def _price_plans(self, request: RequestDescriptor, candidates: list[Candidate], now: int) -> list[_Priced]:
        """Every plan ``_plans_from_candidates`` enumerates that ``score`` can price, with its J numerator."""
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

    def _plan_of(self, pre: _Half, dec: _Half | None) -> tuple[ExecutionPlan, tuple[bool, ...]]:
        if dec is None:
            stage = PlanStage(pre.cand.node_id, pre.cand.realization_id, PlanPhase.FULL)
            return self.plan((stage,)), (pre.cand.warm,)
        stages = (
            PlanStage(pre.cand.node_id, pre.cand.realization_id, PlanPhase.PREFILL),
            PlanStage(dec.cand.node_id, dec.cand.realization_id, PlanPhase.DECODE),
        )
        return self.plan(stages), (pre.cand.warm, dec.cand.warm)

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
        hashes only the plans inside the tie window, and only the winner is
        scored in full.
        """
        quality = request.quality_target
        saw_budget_only = False
        limit = None if request.budget is None else request.budget * self._scale
        while quality >= 1:
            candidates = self._candidates(request, quality, now, respect_caps=True)
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
        plan, warm_flags, priced = min(
            ((*self._plan_of(p[1], p[2]), p) for p in within if p[0] <= cut),
            key=lambda c: c[0].plan_id,
        )
        scored = self.score(plan, request, now, warm_flags)
        priced_terms = self._terms_of(*priced[1:])
        if scored.cost.terms() != priced_terms:
            raise RuntimeError(
                f"{request.request_id}: plan {plan.plan_id} scored {scored.cost.terms()}, priced {priced_terms}"
            )
        alternatives = ()
        if self.audit:
            alternatives = tuple(
                sorted((self._plan_of(p[1], p[2])[0].plan_id, self._terms_of(*p[1:])) for p in plans)
            )
        return Selection(
            scored=scored,
            served_quality=quality,
            degraded=quality < request.quality_target,
            alternatives=alternatives,
        )


def _argmin(scored: list[ScoredPlan], tie_eps: Fraction = Fraction(TIE_EPS_NUM, TIE_EPS_DEN)) -> ScoredPlan:
    """Minimum-cost plan; totals within the relative tie window resolve to the
    smallest plan_id."""
    best_total = min(s.cost.total for s in scored)
    bound = best_total + abs(best_total) * tie_eps
    contenders = [s for s in scored if s.cost.total <= bound]
    contenders.sort(key=lambda s: s.plan.plan_id)
    return contenders[0]


def within_tie(candidate: Fraction, best: Fraction, tie_eps: Fraction = Fraction(TIE_EPS_NUM, TIE_EPS_DEN)) -> bool:
    """True when ``candidate`` does not beat ``best`` by more than the tie window."""
    return candidate >= best - abs(best) * tie_eps
