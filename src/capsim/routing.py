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

A prefill reuses session state held on its own node, or state whose bytes
migrate there from a holder trusted at the select because migrating beats
recomputing the tokens it covers; T_state is that migration's wait. Any
other prefill charges its whole prompt as execution.

Weights are >= 0, so every term of J is too, and parts of a plan's
numerator bound its J from below. A select's work splits in two. What depends
only on the broker's static candidate table and the origin is a static row
per candidate: its routes, its prefill and decode µs per token on the node's
speed as integers, and set-up with and without the cold activation. The rows
of a (table, origin) are built in table order on its first select and kept
until the broker clears its tables, and so are their pricing classes: rows
with the same realization, routes, per-token coefficients, speed, set-up and
cold cost, as identical servers behind one gateway have. Classes that share
all but their route delays and set-up or activation, as servers at different
distances behind links of one bandwidth do, form a pricing shape.

What changes between selects is kept as well, and read again only after an
event that changes it. The broker returns the same hit list object while
the hits hold (see ``registry``); ``_Classes.last`` keeps the last list a
(table, origin) saw with each group's lead and each shape's groups in order,
reused while the list is that object. A session's state holders, and the
most tokens one of them covers, are read from the cache system's holder
index, which the stores keep exact, once per realization per select; a
request without an affinity token has no session and reads none. From these,
one formula (``_bounds``, also behind ``score`` and ``idle_cost``) gives each
side of a candidate an exact integer lower bound: transfer, execution with
the most prompt tokens any holder covers reused for free, and decode, leaving
out the wait, the state charge and the load and policy penalties. Members of
a class share it. Within a shape, a (class, warm) group's single-node bound
is its static offset, m_net times both route delays plus m_exec times set-up
and activation, plus a per-request part the whole shape shares: every
ceiling falls in that part, so ``_shifted`` moves one group's bounds to
another's exactly, and a select calls ``_bounds`` once per shape it enters.
Building the candidate's half (its queue, load and policy reads), then
resolving its state, tighten the bound of every plan it is in.

Routing is the one module that prices a candidate. On an idle node with no
load or policy penalty, a request without session state waits for nothing
and pays no state charge, so the static bound of its warm single-node plan is
its exact J: ``idle_cost`` gives it to the placement planner. The artifact
fetch from the repository is priced by ``artifact_fetch`` alone, for a row's
cold activation, the engine's loads and placement's transfer cost.

``select`` is one best-first search over these bounds: a heap holds each
plan at its current bound, and each pop takes one step on the plan with the
least (build its prefill half, resolve that half's state, for a split build
its decode half, price it exactly) and pushes it back at its tighter bound; a
step that leaves its plan ahead of every other entry takes its next step at
once, with no push or pop. Plans enter the heap lazily, each where it would
pop had every plan been entered at the start, so the search's order, and the
work it does, is the same. A shape is entered, its bounds computed and its
first group's lead pushed, only once the least key reaches the shape's least
offset, which its bounds are no less than, and never above the tie window; a
shape the search never reaches costs nothing. A group enters when the group
before it in its shape, by (offset, lead plan id), first pops, and a group's
single-node plans enter one at a time in plan-id order: the next when the one
before first pops, and none once the plan-id tie-break rules them out. The
split plans wait behind one sentinel entry, at the least prefill-side plus
the least decode-side static bound, which no split plan's bound is below;
with splits on every shape is entered up front for it, and only a select
whose sentinel pops sorts the decode partners and pushes its splits. So a
select's work grows with the plans it reaches, not with its nodes. The first
exact plan popped has the least J of all; if it is within budget it is J*,
otherwise no plan is. After J*, only plans whose bound is inside its tie
window and the budget, and whose plan id is below the least one priced
there, can change the plan-id tie-break, so every other plan is left
unpriced and the outcome is the one full enumeration gives.

The records a select builds per candidate or per request, ``_Half``,
``StateUse``, ``StageProjection`` and ``ScoredPlan``, take positional
arguments in field order: CPython matches each keyword of a generated
``__init__`` by name, which costs more than building the record, and
``tests/test_records.py`` pins the order they rely on.

The search keeps the winner as it goes: J*'s tie cut within the budget, set
at the first exact pop, and the plan with the least id priced inside it. It
returns that plan, None when no plan is within budget, with the plans it
priced, which tell the ladder whether any plan was priced at all. ``select``
projects the winner's schedule; nothing derives J*, its cut or the tie-break
again.

A node at its admission cap is checked when its half is built and then
dropped. ``now`` is fixed for the whole select, so this is the same as
excluding the node before pricing. An auditing router lists every plan, so
it never stops the search: it enters every shape up front, builds every half
and prices every plan, and it keeps the winner by the same rule.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from fractions import Fraction
from hashlib import sha256
from heapq import heapify, heappop, heappush, heappushpop
from math import lcm
from typing import NamedTuple

from .caching import CacheEntry, CacheSystem, Held, state_key
from .descriptors import (
    REASON_BUDGET_EXCEEDED,
    REASON_NO_FEASIBLE_PLAN,
    CapabilityRealization,
    PlanPhase,
    PlanStage,
    RequestDescriptor,
    Tier,
    bounded,
    plan_items,
)
from .registry import Broker, CandidateTable, Hit, NodeState
from .topology import Route, Topology, Unreachable, region_vertex

TIE_EPS_NUM = 1
TIE_EPS_DEN = 10**9  # relative tie window for argmin, 1e-9


@dataclass(slots=True, eq=False, repr=False)
class RoutingWeights:
    """The weights of J's six terms, the load and soft-preference penalties and the argmin tie window."""

    alpha: Fraction = bounded(Fraction(1), 0)   # T_net
    beta: Fraction = bounded(Fraction(1), 0)    # T_queue
    gamma: Fraction = bounded(Fraction(1), 0)   # T_exec
    delta: Fraction = bounded(Fraction(1), 0)   # T_state
    epsilon: Fraction = bounded(Fraction(0), 0)  # C_load
    zeta: Fraction = bounded(Fraction(0), 0)    # P_policy
    kappa: Fraction = bounded(Fraction(0), 0)   # load-penalty scale inside C_load
    pi_soft: int = bounded(0, 0)                # per soft-preference miss
    tie_eps: Fraction = bounded(Fraction(TIE_EPS_NUM, TIE_EPS_DEN), 0)  # relative argmin tie window


@dataclass(slots=True, repr=False)
class ExecutionPlan:
    """A plan's stages and the id hashed from them."""

    stages: tuple[PlanStage, ...]
    plan_id: str

    @classmethod
    def of(cls, stages: tuple[PlanStage, ...]) -> "ExecutionPlan":
        """The plan of ``stages``, its id hashed afresh; ``Router.plan`` memoizes it.
        The id is the first 32 hex digits of the SHA-256 of the stages' JSON
        list, the bytes of a receipt's ``plan``."""
        return cls(stages=stages, plan_id=sha256(f"[{plan_items(stages)}]".encode()).hexdigest()[:32])


def _weight_multipliers(weights: RoutingWeights) -> tuple[int, tuple[int, ...]]:
    """Common denominator and integer per-term multipliers for exact J sums."""
    parts = (weights.alpha, weights.beta, weights.gamma, weights.delta, weights.epsilon, weights.zeta)
    scale = lcm(*(p.denominator for p in parts))
    return scale, tuple(p.numerator * (scale // p.denominator) for p in parts)


@dataclass(slots=True, repr=False)
class StageProjection:
    """One stage of a priced plan's projected schedule."""

    node_id: str
    realization_id: str
    phase: PlanPhase
    ready_us: int
    start_us: int
    complete_us: int
    duration_us: int
    cold: bool
    warm_available_at_us: int  # when a cold load finishes (== start for warm)


@dataclass(slots=True, repr=False)
class StateUse:
    """The stored state a plan reuses: held on its prefill node, or on
    ``entry_node`` and migrated there in ``transfer_us``."""

    entry_node: str
    entry: CacheEntry
    covered_tokens: int
    transfer_us: int
    core_bytes: int


@dataclass(slots=True, repr=False)
class ScoredPlan:
    """A priced plan: its six cost terms, named as the receipt names them,
    and its projected schedule. ``select`` returns it with the ladder step it
    serves at, below the request's quality target when degraded, and, when
    the router audits, every plan's (plan_id, terms). Equality compares the
    priced fields only."""

    plan: ExecutionPlan
    t_net_us: int
    t_queue_us: int
    t_exec_us: int
    t_state_us: int
    c_load: int
    p_policy: int
    stages: tuple[StageProjection, ...]
    inbound_net_us: int
    interstage_net_us: int
    finish_us: int
    first_token_us: int      # absolute time the first output token is produced
    decode_total_us: int     # full decode-phase duration on the decode stage
    state_use: StateUse | None
    core_bytes: int          # request+kv+response bytes over core links
    served_quality: int = field(compare=False)
    alternatives: tuple[tuple[str, tuple[int, int, int, int, int, int]], ...] = field(compare=False)


@dataclass(slots=True, repr=False)
class Rejection:
    """Why ``select`` found no plan for a request."""

    reason: str


@dataclass(slots=True, eq=False, repr=False)
class _Row:
    """What pricing a candidate from one origin needs that no event changes
    during a run. ``prefill_us`` and ``decode_us`` are the realization's µs
    per token times the denominator of the node's speed factor, so n tokens
    take n * ``prefill_us / speed_num`` µs, rounded up. ``cold_us`` is set-up
    plus the cold activation, None when the artifact cannot reach the node,
    so the realization can only run there warm. ``single`` is the
    candidate's single-node plan, hashed when the row is built."""

    node: NodeState
    realization: CapabilityRealization
    single: ExecutionPlan
    route_in: Route
    route_out: Route
    prefill_us: int
    decode_us: int
    speed_num: int
    setup_us: int
    cold_us: int | None


class _Classes(NamedTuple):
    """A (candidate table, origin)'s rows by table position, and their pricing
    classes: rows with the same realization, routes, per-token coefficients,
    speed, set-up and cold cost, whose static bounds are equal for every
    request. Class c has a cold group, id 2c, and a warm one, 2c + 1:
    ``groups[warm][position]``, -1 where the candidate can take no stage so
    (no row, or cold with no route for its artifact). ``rank`` gives each
    position its place in single-node plan-id order.

    Classes with the same realization, bottleneck bandwidth on both routes,
    per-token coefficients and speed form a pricing shape, ``shape[group]``.
    They differ only by their route delays and set-up or activation, so each
    static bound of a group, of its single-node plan, its prefill side and its
    decode side, is a static part plus a per-request part its whole shape
    shares. ``offset[group]`` holds the three static parts: m_net times both
    delays, the inbound delay or the outbound one, plus m_exec times set-up
    and activation. The first is the group's offset.

    ``last`` holds the hit list of the last select, reused while the broker
    returns that same list object, with what the search derives from it: each
    member's successor in its group by plan id; each group's lead, its member
    with the least plan id, and its successor in its shape by (offset, lead
    rank); per shape, its first group as (offset, lead hit, the least
    prefill-side and the least decode-side static part of its groups less
    the first's); and for a router that neither splits nor audits, the heap
    of the shapes' waiting entries, which each select copies."""

    rows: tuple[_Row | None, ...]
    groups: tuple[tuple[int, ...], tuple[int, ...]]
    rank: tuple[int, ...]
    shape: tuple[int, ...]
    offset: tuple[tuple[int, int, int] | None, ...]
    last: list


# A candidate's static bounds for one request: (row, warm, t_in, t_out, decode time, set-up
# plus activation, prefill-side bound, decode-side bound, its transfer and decode alone).
_Bound = tuple[_Row, bool, int, int, int, int, int, int, int]


@dataclass(slots=True, eq=False, repr=False)
class _Half:
    """One candidate's share of every plan it appears in, priced once per select.

    The prefill side serves single-node and prefill stages, the decode side
    single-node and decode stages. ``dec_num`` is the decode side's J
    numerator. The prefill side starts with ``pre_lb``, a lower bound on its
    numerator; ``Router._prefill`` resolves its state reuse and sets the
    exact ``pre_num``. ``use`` and ``activation`` are kept to project the
    winner's schedule.
    """

    row: _Row
    warm: bool
    free_us: int   # earliest server release: a stage ready at t waits max(0, free_us - t)
    kv_bytes: int  # handed to the decode node when this half prefills
    c_load: int
    p_policy: int
    activation: int  # cold load before the stage can run, 0 when warm
    t_in: int
    pre_lb: int
    t_out: int
    decode_us: int
    decode_exec: int
    dec_num: int
    use: StateUse | None = None
    wait: int = 0
    prefill_exec: int = 0
    t_state: int = 0
    prefill_done_us: int = 0
    pre_num: int | None = None  # None until resolved


# Per realization: the holders of the request's state and the most prompt
# tokens one of them covers.
_Held = dict[str, Held]

_NO_HOLDERS: Held = ((), 0)

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
        self.audit = audit  # the selected plan carries every plan's (plan_id, terms) in ``alternatives``
        self._scale, self._mult = _weight_multipliers(self.weights)
        self._eps_num, self._eps_den = self.weights.tie_eps.numerator, self.weights.tie_eps.denominator
        self._kappa_num, self._kappa_den = self.weights.kappa.numerator, self.weights.kappa.denominator
        self._plans: dict[tuple[PlanStage, ...], ExecutionPlan] = {}
        self._rows: dict[tuple[str, str, str], _Row | None] = {}
        # The rows of each (candidate table, origin region) as of the broker's ``epoch``.
        self._specialised: dict[tuple[CandidateTable, str], _Classes] = {}
        self._epoch = broker.epoch
        # Work counters: halves built, session states resolved for a prefill,
        # selects that entered their split plans, and the search's heap pops.
        self.halves_priced = 0
        self.states_resolved = 0
        self.split_entries = 0
        self.search_pops = 0

    def plan(self, stages: tuple[PlanStage, ...]) -> ExecutionPlan:
        """The plan of ``stages``, hashed once per router."""
        plan = self._plans.get(stages)
        if plan is None:
            plan = self._plans[stages] = ExecutionPlan.of(stages)
        return plan

    # -- helpers -------------------------------------------------------------

    def artifact_fetch(self, node_id: str, realization: CapabilityRealization) -> tuple[int, int]:
        """(transfer time, core bytes) to fetch ``realization``'s artifact to
        ``node_id`` from the repository; (0, 0) when there is none. Raises
        ``Unreachable`` when the repository has no route to the node."""
        if self.artifact_repository is None:
            return 0, 0
        return self.topology.transfer_between(self.artifact_repository, node_id, realization.artifact_size_bytes)

    def state_key_for(self, realization_id: str, request: RequestDescriptor) -> tuple[str, str]:
        """The key of the state ``realization_id`` computes for the prefix of
        a session turn, a request with an affinity token."""
        return state_key(realization_id, request.affinity_token.partition(":")[2])

    def _holders(self, request: RequestDescriptor, realization_id: str, held: _Held) -> Held:
        """The nodes holding the request's state for ``realization_id``, and
        the most prompt tokens one of them covers, none without an affinity
        token; memoized in ``held``. Some holders may be offline:
        ``_resolve_state`` skips them."""
        found = held.get(realization_id)
        if found is None:
            if request.affinity_token:
                session_id, _, prefix_digest = request.affinity_token.partition(":")
                holders, top = self.caches.holders(state_key(realization_id, prefix_digest), session_id)
                found = (holders, min(request.input_tokens, top))
            else:  # no session, so no stored state to read
                found = _NO_HOLDERS
            held[realization_id] = found
        return found

    def _resolve_state(
        self,
        request: RequestDescriptor,
        prefill_node: NodeState,
        realization: CapabilityRealization,
        now: int,
        held: _Held | None = None,
    ) -> StateUse | None:
        """The request's state held on ``prefill_node``, a candidate and so
        online, else the state that migrates there fastest from an online
        holder of effective trust at least 1 and the request's ``min_trust``
        at ``now``, if migrating beats recomputing its covered tokens; None
        when the prefill reuses none.

        ``held`` memoizes the holders per realization for callers that
        resolve state for many candidates of one request at one instant.
        """
        self.states_resolved += 1
        holders, most = self._holders(request, realization.realization_id, {} if held is None else held)
        if most <= 0:
            return None
        profile = prefill_node.profile
        prefill_id, speed = profile.node_id, profile.speed_factor
        # Each holder covers a token: an offer needs a prefix, a migration
        # copies the count, and ``most > 0`` means the prompt has one.
        for node_id, entry in holders:
            if node_id == prefill_id:
                return StateUse(node_id, entry, min(entry.token_count, request.input_tokens), 0, 0)
        # A node offline, or whose attestation lapsed, hands over nothing.
        floor = max(1, request.policy.min_trust)
        nodes = self.broker.nodes
        best: StateUse | None = None
        for node_id, entry in holders:
            node = nodes[node_id]
            if not node.online or self.broker.effective_trust(node, now) < floor:
                continue
            try:
                migrate_us, core = self.topology.transfer_between(node_id, prefill_id, entry.size)
            except Unreachable:
                continue
            covered = min(entry.token_count, request.input_tokens)
            recompute_us = _ceil_time(realization.prefill_time_per_token_us, covered, speed.numerator, speed.denominator)
            if migrate_us < recompute_us and (best is None or (migrate_us, node_id) < (best.transfer_us, best.entry_node)):
                best = StateUse(node_id, entry, covered, migrate_us, core)
        return best

    def _c_load_for(self, state: NodeState, now: int) -> int:
        if not self._kappa_num:
            return 0
        outstanding = state.outstanding(now)
        cap = state.profile.max_concurrent
        return self._kappa_num * outstanding * outstanding // (self._kappa_den * cap * cap)

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
    ) -> ScoredPlan:
        """Price one plan: the six cost terms plus the projected schedule,
        served at the request's quality target with no alternatives.

        Each stage is priced as a stage half, as ``select`` prices it.
        ``warm_flags`` marks per-stage residency (cold stages pay activation
        inside T_exec). Raises ``Unreachable`` when a transfer the plan needs
        has no route.
        """
        origin = region_vertex(request.origin_region)
        rows = [self._row(origin, self.broker.node(s.node_id), s.realization_id) for s in plan.stages]
        held: _Held = {}
        bounds = self._bounds(request, rows, enumerate(warm_flags), held)
        if len(bounds) < len(rows):
            raise Unreachable(f"plan {plan.plan_id}: a transfer it needs has no route")
        halves = [self._half(request, b, now) for b in bounds]
        pre, dec = halves[0], (halves[1] if len(halves) == 2 else None)
        self._prefill(request, pre, now, held)
        return self._scored(plan, request, now, self._priced(pre, dec), request.quality_target, ())

    def idle_cost(self, request: RequestDescriptor, node: NodeState, realization_id: str) -> int | None:
        """The J numerator of ``request``'s warm single-node plan on ``node``
        as placement sees it: an idle node, no load or policy penalty. The
        request carries no affinity token, so there is no state charge either,
        and the plan's static bound is exact. None when the node has no route
        from the request's origin."""
        row = self._row(region_vertex(request.origin_region), node, realization_id)
        bounds = self._bounds(request, (row,), ((0, True),), {})
        return bounds[0][6] + bounds[0][8] if bounds else None

    def _priced(self, pre: _Half, dec: _Half | None) -> _Priced:
        """The plan of ``pre``, resolved, alone or with ``dec`` decoding,
        priced exactly."""
        if dec is None:
            return pre.pre_num + self._mult[0] * pre.t_out + self._mult[2] * pre.decode_us, pre, None, 0, 0
        t_inter, _ = self.topology.transfer_between(pre.row.node.node_id, dec.row.node.node_id, pre.kv_bytes)
        wait = max(0, dec.free_us - pre.prefill_done_us - t_inter)
        return pre.pre_num + dec.dec_num + self._mult[0] * t_inter + self._mult[1] * wait, pre, dec, t_inter, wait

    def _scored(
        self,
        plan: ExecutionPlan,
        request: RequestDescriptor,
        now: int,
        priced: _Priced,
        quality: int,
        alternatives: tuple,
    ) -> ScoredPlan:
        """The priced plan with its projected schedule, served at ``quality``."""
        _, pre, dec, t_inter, wait = priced
        use = pre.use
        ready = now + pre.t_in + pre.t_state
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
        core_in = pre.row.route_in.core_bytes(request.input_tokens * self.bytes_per_token)
        core_out = last.row.route_out.core_bytes(request.output_tokens * self.bytes_per_token)
        t_net, t_queue, t_exec, t_state, c_load, p_policy = self._terms_of(pre, dec, t_inter, wait)
        # Positional, in ScoredPlan's field order.
        return ScoredPlan(
            plan,
            t_net,
            t_queue,
            t_exec,
            t_state,
            c_load,
            p_policy,
            stages,
            pre.t_in,
            t_inter,
            complete + last.t_out,
            complete - last.decode_us - (-last.row.decode_us // last.row.speed_num),
            last.decode_us,
            use,
            core_in + core_inter + core_out + (use.core_bytes if use is not None else 0),
            quality,
            alternatives,
        )

    # -- selection ----------------------------------------------------------------

    def _row(self, origin: str, node: NodeState, realization_id: str) -> _Row | None:
        """The static row of candidate ``(node, realization_id)`` priced from
        ``origin``, built once per router; None when the node has no route
        from the origin (links are undirected, so then none back either)."""
        node_id = node.profile.node_id
        key = (origin, node_id, realization_id)
        if key in self._rows:
            return self._rows[key]
        try:
            route_in, route_out = self.topology.route(origin, node_id), self.topology.route(node_id, origin)
        except Unreachable:
            self._rows[key] = None
            return None
        realization = self.broker.catalog.realizations[realization_id]
        try:
            cold = realization.setup_time_us + self.artifact_fetch(node_id, realization)[0] + realization.load_time_us
        except Unreachable:
            cold = None
        speed = node.profile.speed_factor
        row = self._rows[key] = _Row(
            node,
            realization,
            single=self.plan((PlanStage(node_id, realization_id, PlanPhase.FULL),)),
            route_in=route_in,
            route_out=route_out,
            prefill_us=realization.prefill_time_per_token_us * speed.denominator,
            decode_us=realization.decode_time_per_token_us * speed.denominator,
            speed_num=speed.numerator,
            setup_us=realization.setup_time_us,
            cold_us=cold,
        )
        return row

    def _specialise(self, table: CandidateTable, origin_region: str) -> _Classes:
        """The rows of ``table``'s pairs priced from ``origin_region``, by
        position, and their pricing classes; all are dropped once the broker
        clears its tables, as those are gone."""
        if self._epoch != self.broker.epoch:
            self._specialised.clear()
            self._epoch = self.broker.epoch
        origin = region_vertex(origin_region)
        rows = tuple(self._row(origin, n, r) for n, r in table.pairs)
        cold, warm, rank = [-1] * len(rows), [-1] * len(rows), [0] * len(rows)
        ids: dict[tuple, int] = {}
        shapes: dict[tuple, int] = {}
        shape: list[int] = []  # per group
        offset: list[tuple[int, int, int] | None] = []  # per group; None for a cold one no candidate joins
        m_net, m_exec = self._mult[0], self._mult[2]
        ranked = sorted((row.single.plan_id, p) for p, row in enumerate(rows) if row is not None)
        for r, (_, p) in enumerate(ranked):
            row = rows[p]
            route_in, route_out = row.route_in, row.route_out
            times = (row.realization.realization_id, row.prefill_us, row.decode_us, row.speed_num)
            c = ids.setdefault((times, route_in, route_out, row.cold_us), len(ids))
            if 2 * c == len(shape):  # a new class: its shape and its groups' static parts
                bandwidths = (route_in.bw_num, route_in.bw_den, route_out.bw_num, route_out.bw_den)
                s = shapes.setdefault((times, bandwidths), len(shapes))
                shape += (s, s)
                d_in, d_out = m_net * route_in.delay_us, m_net * route_out.delay_us
                delays = (d_in + d_out, d_in, d_out)
                for base in (row.cold_us, row.setup_us):
                    offset.append(None if base is None else tuple(d + m_exec * base for d in delays))
            rank[p] = r
            warm[p] = 2 * c + 1
            if row.cold_us is not None:
                cold[p] = 2 * c
        classes = _Classes(rows, (tuple(cold), tuple(warm)), tuple(rank), tuple(shape), tuple(offset), [None])
        self._specialised[table, origin_region] = classes
        return classes

    def _bounds(
        self, request: RequestDescriptor, rows: Sequence[_Row | None], hits: Iterable[Hit], held: _Held
    ) -> list[_Bound]:
        """Static lower bounds on the J numerators of the two sides of each
        hit's candidate, ``rows[position]``, in hit order.

        Each side charges its transfer and its execution: set-up, the
        activation when cold, and for the prefill side the prompt tokens no
        holder covers (``held``, filled on a realization's first miss), for
        the decode side the decode. The wait, the state charge and
        the penalties are >= 0 and left out. A candidate without a row (no
        route from the origin), or cold with no route for its artifact, can
        take no stage and is left out. Times round up as ``Route.time_us`` does.
        """
        m_net, m_exec = self._mult[0], self._mult[2]
        tokens_in, tokens_out = request.input_tokens, request.output_tokens
        bytes_in, bytes_out = tokens_in * self.bytes_per_token, tokens_out * self.bytes_per_token
        out = []
        for p, warm in hits:
            row = rows[p]
            if row is None:
                continue
            base = row.setup_us if warm else row.cold_us
            if base is None:
                continue
            realization_id = row.realization.realization_id
            found = held.get(realization_id)
            if found is None:
                found = self._holders(request, realization_id, held)
            num, route_in, route_out = row.speed_num, row.route_in, row.route_out
            t_in = route_in.delay_us - (-bytes_in * route_in.bw_den // route_in.bw_num)
            t_out = route_out.delay_us - (-bytes_out * route_out.bw_den // route_out.bw_num)
            decode_us = -(-row.decode_us * tokens_out // num)
            rest = m_net * t_out + m_exec * decode_us
            uncovered = -(-row.prefill_us * (tokens_in - found[1]) // num)
            pre = m_net * t_in + m_exec * (base + uncovered)
            out.append((row, warm, t_in, t_out, decode_us, base, pre, rest + m_exec * base, rest))
        return out

    def _shifted(self, bound: _Bound, row: _Row, warm: bool) -> _Bound:
        """The static bounds of ``row``'s candidate, warm or cold, moved from
        ``bound``, a candidate's of the same pricing shape for the same
        request: only the route delays and the set-up or activation differ."""
        m_net, m_exec = self._mult[0], self._mult[2]
        base = row.setup_us if warm else row.cold_us
        d_in = row.route_in.delay_us - bound[0].route_in.delay_us
        d_out = row.route_out.delay_us - bound[0].route_out.delay_us
        rest = bound[8] + m_net * d_out
        pre = bound[6] + m_net * d_in + m_exec * (base - bound[5])
        return row, warm, bound[2] + d_in, bound[3] + d_out, bound[4], base, pre, rest + m_exec * base, rest

    def _half(self, request: RequestDescriptor, bound: _Bound, now: int) -> _Half:
        """Price a candidate as a stage half, all but its prefill's state reuse.

        The decode side is exact: its static bound plus the load and policy
        penalties. The prefill side gets ``pre_lb``, its static bound plus the
        same penalties.
        """
        self.halves_priced += 1
        row, warm, t_in, t_out, decode_us, base, pre, dec, _ = bound
        node = row.node
        pi_soft = self.weights.pi_soft
        c_load = self._c_load_for(node, now)
        p_policy = pi_soft * self._soft_misses(request, node, row.realization, now) if pi_soft else 0
        penalty = self._mult[4] * c_load + self._mult[5] * p_policy
        # Positional, in _Half's field order.
        return _Half(
            row,
            warm,
            node.server_free_us[0],
            request.input_tokens * row.realization.kv_bytes_per_token,
            c_load,
            p_policy,
            base - row.setup_us,
            t_in,
            pre + penalty,
            t_out,
            decode_us,
            base + decode_us,
            dec + penalty,
        )

    def _prefill(self, request: RequestDescriptor, half: _Half, now: int, held: _Held) -> None:
        """Resolve ``half``'s prefill side: state reuse, wait, execution and ``pre_num``."""
        row = half.row
        use = self._resolve_state(request, row.node, row.realization, now, held)
        covered = use.covered_tokens if use else 0
        t_state = use.transfer_us if use else 0
        ready = now + half.t_in + t_state
        half.use = use
        half.wait = max(0, half.free_us - ready)
        uncovered = request.input_tokens - covered
        half.prefill_exec = row.setup_us + half.activation - (-row.prefill_us * uncovered // row.speed_num)
        half.t_state = t_state
        half.prefill_done_us = ready + half.wait + half.prefill_exec
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
        self, request: RequestDescriptor, classes: _Classes, hits: list[Hit], now: int, limit: int | None
    ) -> tuple[_Priced | None, list[_Priced]]:
        """The winner of ``select``'s argmin over the single-node and
        prefill/decode plans of the candidates of ``hits``,
        ``classes.rows[position]`` each, or None when no plan is within
        ``limit``; and the plans priced, with their J numerators: all of them,
        less the plans that cannot change the outcome and those on a node at
        its admission cap.

        One best-first search. A heap entry is a plan at a lower bound on its
        J numerator: plan (i, k) is candidate i alone when k < 0, else i's
        prefill and the decode of its k-th partner, the candidates of its
        variant on other nodes in order of their static decode bounds. A
        popped plan takes its next step (build i's half, resolve its state,
        for a split build the decode half, price it exactly) and is pushed
        back at the bound that step gives. Halves are shared, so an entry's
        bound can be stale: such an entry is pushed back at its current bound
        with no work done. An entry pushed back ahead of the heap's least
        entry, and below the offset of every shape not entered, would pop
        next, so it takes its next step at once instead.

        Candidates enter lazily. The hits fall into groups, a pricing class
        and a warm flag, whose members share one static bound, and the groups
        into pricing shapes, whose groups' bounds differ by their offsets
        alone. A shape enters once the least key, of the heap and of the entry
        held out of it, reaches its least offset, capped at ``top`` once that
        is set: one ``_bounds`` call for its first group, whose lead, its
        member with the least single-node plan id, gets an entry. Its bound is
        its offset plus a part that is >= 0, so nothing of the shape could
        have popped before. When a group's lead first pops, the next group of
        its shape in (offset, lead plan id) order enters, its bounds shifted
        from the lead's, and when any member first pops, the group's next
        member in plan-id order enters: each at the key it would have had from
        the start, which is no less. Splits wait behind one sentinel (i = -1),
        at the least prefill-side plus the least decode-side static bound of
        the groups: each shape's first bound plus its groups' least static
        parts give it, so with splits on every shape enters up front, as it
        does for an auditing router. The sentinel sorts after every other
        entry at that bound but before the splits. When it pops, every
        group's bound is shifted from its shape's, every candidate's is built
        and each prefill side gets one entry for its first partner, and then
        one for its next partner when the one before is first popped; a
        partner's static bound is no less than the one before it. So the
        heap's least entry is the one that would pop if every plan were
        entered from the start, and every entry pops in that order.

        The first exact plan popped thus has the least J. Over ``limit``,
        every plan is, and the search stops with no winner. Otherwise it is
        J*, and ``top``, the least of J*'s tie cut and ``limit``, bounds the
        plans the tie is broken among by plan id: each exact plan popped with
        J <= ``top`` and an id below the winner's becomes the winner. The
        search goes on only while the least bound is <= ``top``, and refines
        only plans whose id is below the winner's: any other plan either
        cannot reach the window or loses the tie-break, and a group whose
        next member's id is not below it enters no more. An auditing router
        lists every plan, so it never stops or skips, and takes its winner by
        the same rule.
        """
        rows, groups, rank, shape, offset, last = classes
        if hits is last[0]:  # the broker returns its kept list while the hits hold
            _, later, after, firsts, waiting = last
        else:
            members: dict[int, list[tuple[int, Hit]]] = {}  # per group, its hits by plan id
            for hit in hits:
                g = groups[hit[1]][hit[0]]
                if g >= 0:
                    members.setdefault(g, []).append((rank[hit[0]], hit))
            later: dict[int, Hit] = {}  # per member, the next of its group
            chains: dict[int, list[tuple[int, int, Hit, int, int]]] = {}  # per shape, its groups
            for g, ms in members.items():
                ms.sort()
                later.update((a[1][0], b[1]) for a, b in zip(ms, ms[1:]))
                off, pre, dec = offset[g]
                chains.setdefault(shape[g], []).append((off, ms[0][0], ms[0][1], pre, dec))
            after: dict[int, Hit] = {}  # per group's lead, the next group's lead in its shape
            firsts = {}
            for s, chain in chains.items():
                chain.sort()
                off, _, hit, pre, dec = chain[0]
                firsts[s] = off, hit, min(c[3] for c in chain) - pre, min(c[4] for c in chain) - dec
                after.update((a[2][0], b[2]) for a, b in zip(chain, chain[1:]))
            # A shape not entered waits at its least offset, before every entry
            # there: (offset, -5, 0, "", -2, its first lead).
            waiting = None
            if not (self.enable_split or self.audit):
                waiting = [(f[0], -5, 0, "", -2, f[1]) for f in firsts.values()]
                heapify(waiting)
            last[:] = hits, later, after, firsts, waiting
        held: _Held = {}  # state holders per realization, this instant
        bounds: list[_Bound | None] = [None] * len(rows)  # by position, once the candidate enters
        # (bound, -steps done, k, single plan id or "", i, priced plan or None):
        # on equal bounds, plans further along pop first, then single-node
        # plans in plan-id order.
        if waiting is None:
            # Every shape enters now: the sentinel needs every shape's bounds,
            # and an auditing router reaches every plan.
            heap: list[tuple] = []
            entering = list(zip(firsts.values(), self._bounds(request, rows, [f[1] for f in firsts.values()], held)))
            for f, b in entering:
                bounds[f[1][0]] = b
                heap.append((b[6] + b[8], 0, -1, b[0].single.plan_id, f[1][0], None))
            if self.enable_split and heap:
                # The sentinel (i = -1) stands for every split until it pops: after
                # every entry at its bound but the splits, whose bounds are no less.
                least = min(b[6] + f[2] for f, b in entering) + min(b[7] + f[3] for f, b in entering)
                heap.append((least, 0, 0, "", -1, None))
            heapify(heap)
        else:
            heap = waiting.copy()  # the shapes' waiting entries, a heap kept with the hit list
        built: dict[int, _Half | None] = {}  # None: the node is at its admission cap

        decoders: list[list[int]] = []  # per prefill side, its variant's candidates by static decode bound
        entered: list[int] = []  # each prefill side's last partner entered
        plans: list[_Priced] = []
        # Set once J* is popped: its tie cut within the budget, and the priced
        # plan with the least id inside it so far, the winner.
        top = best_id = best = None
        stop = None  # ``top`` for a quiet router, which stops and skips on it
        back = None  # the entry the last step pushes back, held out of the heap until the next pop
        pops = 0
        while heap or back is not None:
            if back is not None and (not heap or back < heap[0]):
                entry = back  # ahead of every entry, so it would pop next: its next step is taken at once
            else:
                entry = heappop(heap) if back is None else heappushpop(heap, back)
                pops += 1
            bound, neg_steps, k, tie, i, priced = entry
            back = None
            if stop is not None and bound > stop:
                break
            if i == -2:  # a shape the least key reaches: its first group enters
                b = bounds[priced[0]] = self._bounds(request, rows, (priced,), held)[0]
                heappush(heap, (b[6] + b[8], 0, -1, b[0].single.plan_id, priced[0], None))
                continue
            if i < 0:  # the sentinel: build every bound, enter each prefill side's first split
                self.split_entries += 1
                candidates = []
                for p, warm in hits:
                    if bounds[p] is None:
                        g = groups[warm][p]
                        if g < 0:
                            continue
                        bounds[p] = self._shifted(bounds[firsts[shape[g]][1][0]], rows[p], warm)
                    candidates.append(p)
                partners: dict[str, list[int]] = {}
                for _, j in sorted((bounds[j][7], j) for j in candidates):
                    partners.setdefault(bounds[j][0].realization.variant_id, []).append(j)
                decoders, entered = [[]] * len(rows), [0] * len(rows)
                for p in candidates:
                    d = decoders[p] = partners[bounds[p][0].realization.variant_id]
                    heappush(heap, (bounds[p][6] + bounds[d[0]][7], 0, 0, "", p, None))
                continue
            if k < 0:
                j = -1
                # Its first pop: the next member of its group enters, and after a
                # group's lead, the next group of its shape.
                if not neg_steps and (h := later.get(i)) and (stop is None or rows[h[0]].single.plan_id < best_id):
                    bounds[h[0]] = (rows[h[0]],) + bounds[i][1:]
                    heappush(heap, (bound, 0, -1, rows[h[0]].single.plan_id, h[0], None))
                if not neg_steps and (h := after.get(i)):
                    b = bounds[h[0]] = self._shifted(bounds[i], rows[h[0]], h[1])
                    heappush(heap, (b[6] + b[8], 0, -1, b[0].single.plan_id, h[0], None))
            else:
                j = decoders[i][k]
                if k == entered[i] and k + 1 < len(decoders[i]):
                    entered[i] = k + 1
                    heappush(heap, (bounds[i][6] + bounds[decoders[i][k + 1]][7], 0, k + 1, "", i, None))
                if bounds[j][0].node is bounds[i][0].node:
                    continue
            if stop is not None and (tie or self._plan_on(bounds[i][0], bounds[j][0]).plan_id) >= best_id:
                continue
            if priced is not None:
                if top is None:  # the first exact plan popped: its J is J*
                    top = self._tie_cut(bound) if limit is None else min(self._tie_cut(bound), limit)
                    if not self.audit:
                        if bound > top:
                            break  # the least J is over budget, and so is every plan's
                        stop = top
                if bound <= top:
                    plan_id = tie or self._plan_on(bounds[i][0], bounds[j][0]).plan_id
                    if best_id is None or plan_id < best_id:
                        best, best_id = priced, plan_id
                continue
            # The plan's least J numerator given the halves built so far, and the
            # steps done toward it; none while a node of it is at its cap.
            if i in built:
                pre = built[i]
                if pre is None:
                    continue
                least, steps = (pre.pre_lb, 1) if pre.pre_num is None else (pre.pre_num, 2)
            else:
                pre = None
                least, steps = bounds[i][6], 0
            if j < 0:
                least += bounds[i][8]
            elif j not in built:
                least += bounds[j][7]
            elif (dec := built[j]) is None:
                continue
            else:
                least += dec.dec_num
                steps += 1
            if least != bound:  # stale: back at its current bound, no work done
                back = (least, -steps, k, tie, i, None)
                continue
            # Take the next step; it moves one side's bound, or prices the plan.
            steps += 1
            if pre is not None and pre.pre_num is None:
                self._prefill(request, pre, now, held)
                bound += pre.pre_num - pre.pre_lb
            elif pre is None or (j >= 0 and j not in built):
                c = i if pre is None else j
                node = bounds[c][0].node
                if node.queue_length(now) >= node.profile.admission_cap:
                    built[c] = None
                    continue
                half = built[c] = self._half(request, bounds[c], now)
                bound += half.pre_lb - bounds[c][6] if c == i else half.dec_num - bounds[c][7]
            else:
                priced = self._priced(pre, None if j < 0 else built[j])
                plans.append(priced)
                bound, steps = priced[0], 4
            back = (bound, -steps, k, tie, i, priced)
        self.search_pops += pops
        return best, plans

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

    def select(self, request: RequestDescriptor, now: int) -> ScoredPlan | Rejection:
        """Argmin-J selection with the overload/degradation ladder.

        Ladder: nodes at their admission cap are dropped as their halves are
        built; an empty plan set retries at quality_target - 1 while the
        request is degradable; plans existing only above budget reject as
        BudgetExceeded, none at all as NoFeasiblePlan.

        Plans are compared on integer J numerators; the plan_id tie-break
        hashes only the plans the search reaches inside the tie window. The
        search returns the winner and the plans it priced, so a step of the
        ladder is served when there is a winner, and counts as over budget
        when plans were priced but none won; only the winner's schedule is
        projected.
        """
        quality = request.quality_target
        saw_budget_only = False
        limit = None if request.budget is None else request.budget * self._scale
        origin, policy = request.origin_region, request.policy
        while quality >= 1:
            table = self.broker.table(request.capability_class, quality, policy, origin, self.placement_tiers)
            hits = self.broker.lookup_candidates(table, now, policy.min_trust)
            classes = self._specialised.get((table, origin))
            if classes is None:
                classes = self._specialise(table, origin)
            best, plans = self._price_plans(request, classes, hits, now, limit)
            if best is not None:
                alternatives = ()
                if self.audit:
                    alternatives = tuple(
                        sorted((self._plan_of(p[1], p[2]).plan_id, self._terms_of(*p[1:])) for p in plans)
                    )
                plan = best[1].row.single if best[2] is None else self._plan_of(best[1], best[2])
                return self._scored(plan, request, now, best, quality, alternatives)
            if plans:
                saw_budget_only = True
            if request.degradable and quality > 1:
                quality -= 1
                continue
            break
        return Rejection(REASON_BUDGET_EXCEEDED if saw_budget_only else REASON_NO_FEASIBLE_PLAN)


def _ceil_time(per_token_us: int, tokens: int, speed_num: int, speed_den: int) -> int:
    """``tokens`` (>= 0) at ``per_token_us`` each on a node of speed factor
    ``speed_num / speed_den``, rounded up."""
    return -(-per_token_us * tokens * speed_den // speed_num)


def _stage(row: _Row, phase: PlanPhase) -> PlanStage:
    return PlanStage(row.node.node_id, row.realization.realization_id, phase)


def _projection(half: _Half, phase: PlanPhase, ready: int, start: int, complete: int) -> StageProjection:
    row = half.row
    # Positional, in StageProjection's field order.
    return StageProjection(
        row.node.profile.node_id,
        row.realization.realization_id,
        phase,
        ready,
        start,
        complete,
        complete - start,
        not half.warm,
        start + half.activation,
    )
