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

Weights are >= 0, so every term of J is too, and parts of a plan's
numerator bound its J from below. What never changes during a run is kept per
(origin, candidate) in a static row: the routes to and from the node, set-up
and cold activation, the realization and the node's speed. From a row alone,
each side of a candidate gets an exact integer lower bound: transfer,
execution with the most prompt tokens any online holder covers reused for
free, and decode, leaving out the wait, the state charge and the load and
policy penalties. ``select`` walks single-node plans, prefill sides and
decode sides in the order of these bounds, equal single-node bounds in
plan-id order. It builds a candidate's half (its queue, load and policy
reads) only when the static bound can still reach the tie window of the best
within-budget plan seen so far, resolves the half's state only when the
half's own bound can, and stops a walk once the bound passes that window.

A plan whose bound is at least that best J cannot lower it; it can only land
in the final tie window, where the smallest plan id wins. So it is deferred,
not priced. Once the walk ends, J* is final: the deferred plans whose bound is
within the window and the budget are priced in plan-id order, only while
their id is below the smallest id of a priced plan inside, and up to the
first that lands inside. Since the window only shrinks, a skipped plan could
neither win nor tie, and a deferred plan left unpriced either cannot reach
the window or cannot win its tie-break, so the outcome is the one full
enumeration gives.

A node at its admission cap is checked when its half is built and then
dropped. ``now`` is fixed for the whole select, so this is the same as
excluding the node before pricing. An auditing router lists every plan, so
it never sets a cut: it builds every half and prices every plan.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from fractions import Fraction
from math import lcm

from .caching import CacheEntry, CacheSystem, state_hash
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
from .topology import Route, Topology, Unreachable, region_vertex

TIE_EPS_NUM = 1
TIE_EPS_DEN = 10**9  # relative tie window for argmin, 1e-9


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


@dataclass(slots=True)
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


@dataclass(slots=True)
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


@dataclass(slots=True)
class StateUse:
    """How the plan satisfies the request's state affinity."""

    entry_node: str
    entry: CacheEntry
    covered_tokens: int
    migrate: bool            # False = recompute charge
    transfer_us: int
    core_bytes: int


@dataclass(slots=True)
class ScoredPlan:
    plan: ExecutionPlan
    cost: PlanCost
    stages: tuple[StageProjection, ...]
    inbound_net_us: int
    interstage_net_us: int
    finish_us: int
    first_token_us: int      # absolute time the first output token is produced
    decode_total_us: int     # full decode-phase duration on the decode stage
    state_use: StateUse | None
    core_bytes: int          # request+kv+response bytes over core links


@dataclass(slots=True)
class Rejection:
    reason: str


@dataclass(slots=True)
class Selection:
    scored: ScoredPlan
    served_quality: int
    degraded: bool
    # (plan_id, terms) of every plan incl. the chosen one; empty unless the router audits
    alternatives: tuple[tuple[str, tuple[int, int, int, int, int, int]], ...]


@dataclass(frozen=True, slots=True)
class _Row:
    """What pricing a candidate from one origin needs that no event changes
    during a run. A route is None when its endpoints are not connected;
    ``activation_us`` is None when the artifact cannot reach the node, so the
    realization can only run there warm. ``single`` is the candidate's
    single-node plan, hashed when the row is built. ``speed_num / speed_den``
    is the node's speed factor."""

    node: NodeState
    realization: CapabilityRealization
    single: ExecutionPlan
    route_in: Route | None
    route_out: Route | None
    setup_us: int
    activation_us: int | None  # cold load before a stage can run
    speed_num: int
    speed_den: int


# A candidate's static bounds for one request: (t_in, t_out, decode time,
# set-up plus activation, prefill-side bound, decode-side bound); a side's
# entries are None when its route is missing.
_Bounds = tuple[int | None, int | None, int, int, int | None, int | None]


@dataclass(slots=True)
class _Half:
    """One candidate's share of every plan it appears in, priced once per select.

    The prefill side (``t_in`` set) serves single-node and prefill stages, the
    decode side (``t_out`` set) single-node and decode stages; a side is None
    when the origin and the node are not connected in that direction.
    ``dec_num`` is the decode side's J numerator. The prefill side starts with
    ``pre_lb``, a lower bound on its numerator; ``Router._prefill`` resolves
    its state reuse and sets the exact ``pre_num``. ``use`` and ``activation``
    are kept to project the winner's schedule.
    """

    row: _Row
    warm: bool
    free_us: int   # earliest server release: a stage ready at t waits max(0, free_us - t)
    kv_bytes: int  # handed to the decode node when this half prefills
    c_load: int
    p_policy: int
    activation: int  # cold load before the stage can run, 0 when warm
    t_in: int | None = None
    pre_lb: int = 0
    use: StateUse | None = None
    wait: int = 0
    prefill_exec: int = 0
    t_state: int = 0
    prefill_done_us: int = 0
    pre_num: int | None = None  # None until resolved
    t_out: int | None = None
    decode_us: int = 0
    decode_exec: int = 0
    dec_num: int = 0


# Per realization: the online holders of the request's state and the most
# prompt tokens one of them covers.
_Held = dict[str, tuple[list[tuple[str, CacheEntry]], int]]

# A priced plan: (J numerator, prefill-or-only half, decode half or None,
# KV transfer time, decode wait).
_Priced = tuple[int, _Half, _Half | None, int, int]


class Router:
    def __init__(
        self,
        broker: Broker,
        topology: Topology,
        caches: CacheSystem,
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
        self.weights = weights or RoutingWeights()
        negative = [f.name for f in fields(self.weights) if getattr(self.weights, f.name) < 0]
        if negative:  # _price_plans' lower bound needs every term of J >= 0
            raise ValueError(f"routing weights must be >= 0: {', '.join(negative)}")
        self.bytes_per_token = bytes_per_token
        self.enable_split = enable_split
        self.artifact_repository = artifact_repository
        self.placement_tiers = placement_tiers
        self.audit = audit  # selections carry every plan's (plan_id, terms)
        self._scale, self._mult = _weight_multipliers(self.weights)
        self._eps_num, self._eps_den = self.weights.tie_eps.numerator, self.weights.tie_eps.denominator
        self._plans: dict[tuple[PlanStage, ...], ExecutionPlan] = {}
        self._rows: dict[tuple[str, str, str], _Row] = {}
        # Work counters: halves built, and session states resolved for a prefill.
        self.halves_priced = 0
        self.states_resolved = 0

    def plan(self, stages: tuple[PlanStage, ...]) -> ExecutionPlan:
        """The plan of ``stages``, hashed once per router."""
        plan = self._plans.get(stages)
        if plan is None:
            plan = self._plans[stages] = ExecutionPlan.of(stages)
        return plan

    # -- helpers -------------------------------------------------------------

    def _cold_extras_us(self, node_id: str, realization: CapabilityRealization) -> tuple[int, int]:
        """(activation time, core bytes) to fetch and load the artifact."""
        if self.artifact_repository is None:
            return realization.load_time_us, 0
        transfer, core = self.topology.transfer_between(
            self.artifact_repository, node_id, realization.artifact_size_bytes
        )
        return transfer + realization.load_time_us, core

    def state_hash_for(self, realization_id: str, request: RequestDescriptor) -> str | None:
        if not request.affinity_token:
            return None
        return state_hash(realization_id, request.affinity_token.partition(":")[2])

    def _holders(
        self, request: RequestDescriptor, realization_id: str, held: _Held
    ) -> tuple[list[tuple[str, CacheEntry]], int]:
        """The online nodes holding the request's state for ``realization_id``,
        and the most prompt tokens one of them covers; memoized in ``held``."""
        found = held.get(realization_id)
        if found is None:
            holders, most = [], 0
            if request.affinity_token and self.caches.enabled:
                session_id, _, prefix_digest = request.affinity_token.partition(":")
                holders = [
                    (node_id, entry)
                    for node_id, entry in self.caches.holders(state_hash(realization_id, prefix_digest), session_id)
                    if self.broker.node(node_id).online
                ]
                most = min(request.input_tokens, max((entry.token_count for _, entry in holders), default=0))
            found = held[realization_id] = (holders, most)
        return found

    def _resolve_state(
        self,
        request: RequestDescriptor,
        prefill_node: NodeState,
        realization: CapabilityRealization,
        held: _Held | None = None,
    ) -> StateUse | None:
        """Locate reusable affinity state and price making it available.

        ``held`` memoizes the holders per realization for callers that
        resolve state for many candidates of one request at one instant.
        """
        self.states_resolved += 1
        holders, most = self._holders(request, realization.realization_id, {} if held is None else held)
        if most <= 0:
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
            recompute_us = _ceil_time(realization.prefill_time_per_token_us, covered, speed.numerator, speed.denominator)
            try:
                migrate_us, core = self.topology.transfer_between(node_id, prefill_node.node_id, entry.size)
            except Unreachable:
                migrate_us, core = None, 0
            if migrate_us is not None and migrate_us < recompute_us:
                use = StateUse(node_id, entry, covered, migrate=True, transfer_us=migrate_us, core_bytes=core)
            else:
                use = StateUse(node_id, entry, covered, migrate=False, transfer_us=recompute_us, core_bytes=0)
            if best is None or (use.transfer_us, use.entry_node) < (best.transfer_us, best.entry_node):
                best = use
        return best

    def _c_load_for(self, state: NodeState, now: int) -> int:
        kappa = self.weights.kappa
        if kappa == 0:
            return 0
        outstanding = state.outstanding(now)
        cap = state.profile.capacity.max_concurrent
        return kappa.numerator * outstanding * outstanding // (kappa.denominator * cap * cap)

    def _soft_misses(
        self, request: RequestDescriptor, state: NodeState, realization: CapabilityRealization, now: int
    ) -> int:
        preferred = request.policy.preferred_domains
        variant = self.broker.catalog.variant_of(realization.realization_id)
        return int(preferred is not None and state.profile.domain_id not in preferred) + int(
            self.broker.effective_trust(state, now) < variant.security.preferred_trust
        )

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
        held: _Held = {}
        halves = []
        for stage, warm in zip(plan.stages, warm_flags):
            row = self._row(origin, self.broker.node(stage.node_id), stage.realization_id)
            bounds = self._bounds(request, row, warm, held, zero_queue)
            halves.append(None if bounds is None else self._half(request, row, warm, bounds, now, zero_queue))
        if any(h is None for h in halves) or halves[0].t_in is None or halves[-1].t_out is None:
            raise Unreachable(f"plan {plan.plan_id}: a transfer it needs has no route")
        pre, dec = halves[0], (halves[1] if len(halves) == 2 else None)
        self._prefill(request, pre, now, held, zero_queue)
        t_inter = wait = 0
        if dec is not None:
            t_inter, _ = self.topology.transfer_between(pre.row.node.node_id, dec.row.node.node_id, pre.kv_bytes)
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
            _, core_inter = self.topology.transfer_between(pre.row.node.node_id, dec.row.node.node_id, pre.kv_bytes)
            dec_ready = pre.prefill_done_us + t_inter
            complete = dec_ready + wait + dec.decode_exec
            stages = (
                _projection(pre, PlanPhase.PREFILL, ready, start, pre.prefill_done_us),
                _projection(dec, PlanPhase.DECODE, dec_ready, dec_ready + wait, complete),
            )
        per_token = last.row.realization.decode_time_per_token_us
        terms = self._terms_of(pre, dec, t_inter, wait)
        core_in = pre.row.route_in.core_bytes(request.input_tokens * self.bytes_per_token)
        core_out = last.row.route_out.core_bytes(request.output_tokens * self.bytes_per_token)
        return ScoredPlan(
            plan=plan,
            cost=PlanCost(*terms, total=Fraction(_numerator(self._mult, terms), self._scale)),
            stages=stages,
            inbound_net_us=pre.t_in,
            interstage_net_us=t_inter,
            finish_us=complete + last.t_out,
            first_token_us=complete - last.decode_us + _ceil_time(per_token, 1, last.row.speed_num, last.row.speed_den),
            decode_total_us=last.decode_us,
            state_use=use,
            core_bytes=core_in + core_inter + core_out + (use.core_bytes if use is not None else 0),
        )

    # -- selection ----------------------------------------------------------------

    def _route(self, src: str, dst: str) -> Route | None:
        try:
            return self.topology.route(src, dst)
        except Unreachable:
            return None

    def _row(self, origin: str, node: NodeState, realization_id: str) -> _Row:
        """The static row of candidate ``(node, realization_id)`` priced from
        ``origin``, built once per router."""
        node_id = node.profile.node_id
        key = (origin, node_id, realization_id)
        row = self._rows.get(key)
        if row is None:
            realization = self.broker.catalog.realizations[realization_id]
            try:
                activation, _ = self._cold_extras_us(node_id, realization)
            except Unreachable:
                activation = None
            row = self._rows[key] = _Row(
                node,
                realization,
                single=self.plan((PlanStage(node_id, realization_id, PlanPhase.FULL),)),
                route_in=self._route(origin, node_id),
                route_out=self._route(node_id, origin),
                setup_us=realization.setup_time_us,
                activation_us=activation,
                speed_num=node.profile.hardware.speed_factor.numerator,
                speed_den=node.profile.hardware.speed_factor.denominator,
            )
        return row

    def _bounds(
        self, request: RequestDescriptor, row: _Row, warm: bool, held: _Held, zero_queue: bool = False
    ) -> _Bounds | None:
        """Static lower bounds on the J numerators of a candidate's two sides.

        Each side charges its transfer and its execution: set-up, the
        activation when cold, and for the prefill side the prompt tokens no
        online holder covers (every token when ``zero_queue``), for the decode
        side the decode. The wait, the state charge and the load and policy
        penalties are >= 0 and left out. None when the candidate can take no
        stage: it has no route either way, or it is cold and its artifact
        cannot reach the node. The holders of the request's state are read
        from ``held``, looked up on the realization's first miss. Times are
        rounded up as ``_ceil_time`` does, inline.
        """
        if warm:
            base = row.setup_us
        elif row.activation_us is None:
            return None
        else:
            base = row.setup_us + row.activation_us
        m_net, m_exec = self._mult[0], self._mult[2]
        realization = row.realization
        num, den = row.speed_num, row.speed_den
        t_in = t_out = pre = dec = None
        decode_us = 0
        if row.route_in is not None:
            t_in = row.route_in.time_us(request.input_tokens * self.bytes_per_token)
            tokens = request.input_tokens
            if not zero_queue:
                found = held.get(realization.realization_id)
                if found is None:
                    found = self._holders(request, realization.realization_id, held)
                tokens -= found[1]
            uncovered = -(-realization.prefill_time_per_token_us * tokens * den // num)
            pre = m_net * t_in + m_exec * (base + uncovered)
        if row.route_out is not None:
            t_out = row.route_out.time_us(request.output_tokens * self.bytes_per_token)
            decode_us = -(-realization.decode_time_per_token_us * request.output_tokens * den // num)
            dec = m_net * t_out + m_exec * (base + decode_us)
        elif t_in is None:
            return None
        return t_in, t_out, decode_us, base, pre, dec

    def _half(
        self,
        request: RequestDescriptor,
        row: _Row,
        warm: bool,
        bounds: _Bounds,
        now: int,
        zero_queue: bool = False,
    ) -> _Half:
        """Price a candidate as a stage half, all but its prefill's state reuse.

        The decode side is exact: its static bound plus the load and policy
        penalties. The prefill side gets ``pre_lb``, its static bound plus the
        same penalties. ``zero_queue`` prices the half on an idle server with
        no load or policy penalty.
        """
        self.halves_priced += 1
        t_in, t_out, decode_us, base, pre, dec = bounds
        node = row.node
        pi_soft = 0 if zero_queue else self.weights.pi_soft
        half = _Half(
            row,
            warm,
            free_us=0 if zero_queue else node.server_free_us[0],  # 0: idle since before any ready time
            kv_bytes=request.input_tokens * row.realization.kv_bytes_per_token,
            c_load=0 if zero_queue else self._c_load_for(node, now),
            p_policy=pi_soft * self._soft_misses(request, node, row.realization, now) if pi_soft else 0,
            activation=0 if warm else row.activation_us,
        )
        penalty = self._mult[4] * half.c_load + self._mult[5] * half.p_policy
        if t_in is not None:
            half.t_in, half.pre_lb = t_in, pre + penalty
        if t_out is not None:
            half.t_out, half.decode_us, half.decode_exec, half.dec_num = t_out, decode_us, base + decode_us, dec + penalty
        return half

    def _prefill(
        self, request: RequestDescriptor, half: _Half, now: int, held: _Held, zero_queue: bool = False
    ) -> None:
        """Resolve ``half``'s prefill side: state reuse, wait, execution and ``pre_num``."""
        realization = half.row.realization
        use = None if zero_queue else self._resolve_state(request, half.row.node, realization, held)
        covered = use.covered_tokens if use else 0
        t_state = use.transfer_us if use else 0
        migrate_wait = t_state if (use and use.migrate) else 0
        ready = now + half.t_in + migrate_wait
        half.use = use
        half.wait = max(0, half.free_us - ready)
        half.prefill_exec = (
            realization.setup_time_us
            + half.activation
            + _ceil_time(
                realization.prefill_time_per_token_us, request.input_tokens - covered, half.row.speed_num, half.row.speed_den
            )
        )
        half.t_state = t_state
        # Recomputing covered tokens occupies the server after the prefill.
        half.prefill_done_us = ready + half.wait + half.prefill_exec + (t_state - migrate_wait)
        m_net, m_queue, m_exec, m_state, m_load, m_policy = self._mult
        half.pre_num = (
            m_net * half.t_in
            + m_queue * half.wait
            + m_exec * half.prefill_exec
            + m_state * t_state
            + m_load * half.c_load
            + m_policy * half.p_policy
        )

    def _tie_cut(self, best: int) -> int:
        """The largest J numerator inside the tie window of ``best``.

        J <= best + |best| * eps, multiplied through by eps's denominator;
        J is an integer, so the floor of the bound compares the same.
        """
        den = self._eps_den
        return (best * den + abs(best) * self._eps_num) // den

    def _price_plans(
        self, request: RequestDescriptor, candidates: list[Candidate], now: int, limit: int | None
    ) -> list[_Priced]:
        """The single-node and prefill/decode plans over ``candidates`` with a
        route for each transfer they need, with their J numerators, less the
        plans that cannot reach the tie window and those on a node at its
        admission cap.

        Each term of J is >= 0. A single-node plan's numerator is bounded from
        below by its static prefill and decode bounds (``_bounds``), then, once
        its half is built, by the half's ``pre_lb`` plus the decode side's
        transfer and decode time. A split is bounded by its static prefill and
        least static decode bounds, then by the built halves' ``pre_lb`` or
        ``pre_num`` plus ``dec_num`` (all leave out the KV transfer and the
        decode wait). Single-node plans (equal bounds in plan-id order),
        prefill sides and each variant's decode sides are walked in the order
        of their static bounds. A half is built, and its node's admission cap
        checked, only when a static bound lets it through, and its state is
        resolved only when the built half's bound does.

        Against ``best``, the smallest numerator within ``limit`` seen so far,
        each bound decides one of three ways. Above ``best``'s tie cut, the
        plan is dropped, and a walk over static bounds stops. At or above
        ``best``, the plan cannot lower it and can only tie, so it is
        deferred with that bound. Below ``best``, the walk goes on to the next
        bound or prices the plan. The cut only shrinks and J only rises above
        each of its bounds, so a dropped plan is neither the within-budget
        best nor inside the final window, and a deferred one is not the best.

        After the walk ``best`` is J*. ``top``, the least of its tie cut and
        ``limit``, bounds the plans ``select`` breaks the tie among by plan
        id. Deferred plans with a bound <= ``top`` are priced in plan-id
        order while their id is below the smallest id of a priced plan with
        J <= ``top``, up to the first whose J is <= ``top``. Every plan left
        unpriced has a bound above ``top`` or an id that loses the tie-break,
        so the winner is the one full enumeration picks. While no plan within
        budget is known nothing is dropped or deferred, so the budget outcome
        is unchanged. An auditing router lists every plan, so it never sets a
        cut or defers.
        """
        origin = region_vertex(request.origin_region)
        held: _Held = {}  # state holders per realization, this instant
        rows: list[_Row] = []
        warm: list[bool] = []
        bounds: list[_Bounds] = []
        for node, realization_id, is_warm in candidates:
            row = self._row(origin, node, realization_id)
            b = self._bounds(request, row, is_warm, held)
            if b is not None:
                rows.append(row)
                warm.append(is_warm)
                bounds.append(b)
        built: dict[int, _Half | None] = {}

        def half(i: int) -> _Half | None:
            """Candidate i's half, built on first use; None on a node at its admission cap."""
            if i not in built:
                node = rows[i].node
                capped = node.queue_length(now) >= node.profile.capacity.admission_cap
                built[i] = None if capped else self._half(request, rows[i], warm[i], bounds[i], now)
            return built[i]

        m_net, m_queue, m_exec = self._mult[:3]
        transfer = self.topology.transfer_between

        def price(i: int, j: int | None) -> _Priced | None:
            """Plan (i, j) priced exactly: candidate i alone when j is None, else
            i's prefill and j's decode. None when a node is at its admission
            cap or the KV transfer has no route."""
            pre = half(i)
            dec = None if j is None else half(j)
            if pre is None or (j is not None and dec is None):
                return None
            # A single adds the decode side's transfer and decode time; set-up and penalties count once.
            rest = bounds[i][5] - m_exec * bounds[i][3] if dec is None else dec.dec_num
            if pre.pre_num is None:
                self._prefill(request, pre, now, held)
            if dec is None:
                return (pre.pre_num + rest, pre, None, 0, 0)
            try:
                t_inter, _ = transfer(rows[i].node.node_id, rows[j].node.node_id, pre.kv_bytes)
            except Unreachable:
                return None
            wait = max(0, dec.free_us - pre.prefill_done_us - t_inter)
            return (pre.pre_num + dec.dec_num + m_net * t_inter + m_queue * wait, pre, dec, t_inter, wait)

        plans: list[_Priced] = []
        # The smallest within-budget numerator so far and its tie cut; unset while auditing.
        best = cut = None
        # Plans that could only tie ``best``: (lower bound, candidate i, decode candidate j or None).
        deferred: list[tuple[int, int, int | None]] = []

        def keep(priced: _Priced | None) -> None:
            nonlocal best, cut
            if priced is None:
                return
            plans.append(priced)
            num = priced[0]
            if not self.audit and (limit is None or num <= limit) and (best is None or num < best):
                best, cut = num, self._tie_cut(num)

        def waits(bound: int, i: int, j: int | None) -> bool:
            """Whether plan (i, j), bounded below by ``bound``, stays unpriced:
            dropped past the cut, or deferred when it can only tie ``best``."""
            if best is None or bound < best:
                return False
            if bound <= cut:
                deferred.append((bound, i, j))
            return True

        # A single-node plan is its half's prefill side plus the decode side's
        # transfer and decode time; the set-up and penalties count once.
        singles = sorted(
            (pre + dec - m_exec * base, rows[i].single.plan_id, i)
            for i, (_, _, _, base, pre, dec) in enumerate(bounds)
            if pre is not None and dec is not None
        )
        for bound, _, i in singles:
            if cut is not None and bound > cut:
                break
            if waits(bound, i, None):
                continue
            h = half(i)
            if h is None or waits(bound - bounds[i][4] + h.pre_lb, i, None):
                continue
            keep(price(i, None))
        decoders: dict[str, list[tuple[int, int]]] = {}
        prefills: list[tuple[int, int]] = []
        if self.enable_split:
            for dec, j in sorted((b[5], j) for j, b in enumerate(bounds) if b[5] is not None):
                decoders.setdefault(rows[j].realization.variant_id, []).append((dec, j))
            prefills = sorted((b[4], i) for i, b in enumerate(bounds) if b[4] is not None)
        least_dec = min((d[0][0] for d in decoders.values()), default=0)
        for bound, i in prefills:
            if cut is not None and bound + least_dec > cut:
                break
            # The prefill side's bound: static, then the built half's, then exact.
            # A bound that can only tie defers every pair below.
            if best is None or bound + least_dec < best:
                pre = half(i)
                if pre is None:
                    continue
                bound = pre.pre_lb
                if cut is not None and bound + least_dec > cut:
                    continue
                if best is None or bound + least_dec < best:
                    if pre.pre_num is None:
                        self._prefill(request, pre, now, held)
                    bound = pre.pre_num
            pre_node = rows[i].node
            for dec_bound, j in decoders.get(rows[i].realization.variant_id, ()):
                if cut is not None and bound + dec_bound > cut:
                    break
                if rows[j].node is pre_node or waits(bound + dec_bound, i, j):
                    continue
                dec = half(j)
                if dec is None or waits(bound + dec.dec_num, i, j):
                    continue
                keep(price(i, j))
        if deferred:
            # J* is final. The tie-break takes the smallest plan id with J <=
            # top; a deferred plan can only beat the smallest priced one.
            top = self._tie_cut(best) if limit is None else min(self._tie_cut(best), limit)
            first = min(self._plan_of(p[1], p[2]).plan_id for p in plans if p[0] <= top)
            waiting = sorted(
                (self._plan_on(rows[i], None if j is None else rows[j]).plan_id, i, j)
                for bound, i, j in deferred
                if bound <= top
            )
            for plan_id, i, j in waiting:
                if plan_id >= first:
                    break
                priced = price(i, j)
                if priced is not None:
                    plans.append(priced)
                    if priced[0] <= top:
                        break
        return plans

    def _plan_of(self, pre: _Half, dec: _Half | None) -> ExecutionPlan:
        return self._plan_on(pre.row, None if dec is None else dec.row)

    def _plan_on(self, pre: _Row, dec: _Row | None) -> ExecutionPlan:
        """The plan with ``pre`` as its only or prefill stage and ``dec`` as its decode stage."""
        if dec is None:
            return pre.single
        return self.plan((_stage(pre, PlanPhase.PREFILL), _stage(dec, PlanPhase.DECODE)))

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

        Ladder: nodes at their admission cap are dropped as their halves are
        built; an empty plan set retries at quality_target - 1 while the
        request is degradable; plans existing only above budget reject as
        BudgetExceeded, none at all as NoFeasiblePlan.

        Plans are compared on integer J numerators; the plan_id tie-break
        hashes only the plans inside the tie window and the deferred plans
        that could join it, and only the winner's schedule is projected.
        """
        quality = request.quality_target
        saw_budget_only = False
        limit = None if request.budget is None else request.budget * self._scale
        while quality >= 1:
            candidates = self.broker.lookup_candidates(
                request.capability_class,
                quality,
                request.policy,
                origin_region=request.origin_region,
                now=now,
                tiers=self.placement_tiers,
            )
            plans = self._price_plans(request, candidates, now, limit)
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
        cut = self._tie_cut(min(p[0] for p in within))
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


def _ceil_time(per_token_us: int, tokens: int, speed_num: int, speed_den: int) -> int:
    """``tokens`` (>= 0) at ``per_token_us`` each on a node of speed factor
    ``speed_num / speed_den``, rounded up."""
    return -(-per_token_us * tokens * speed_den // speed_num)


def _stage(row: _Row, phase: PlanPhase) -> PlanStage:
    return PlanStage(row.node.node_id, row.realization.realization_id, phase)


def _projection(half: _Half, phase: PlanPhase, ready: int, start: int, complete: int) -> StageProjection:
    return StageProjection(
        node_id=half.row.node.node_id,
        realization_id=half.row.realization.realization_id,
        phase=phase,
        ready_us=ready,
        start_us=start,
        complete_us=complete,
        duration_us=complete - start,
        cold=not half.warm,
        warm_available_at_us=start + half.activation,
    )
