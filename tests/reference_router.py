"""The exhaustive reference router: every plan enumerated and scored in full.

``Router`` prices plans from stage halves and projects only the winner's
schedule. This module keeps the independent implementation it must agree
with: ``score`` prices one plan stage by stage, ``feasible_plans`` enumerates
and scores every plan, and ``argmin`` picks the winner over exact ``Fraction``
values of J, combined from each plan's terms. Tests compare the router
against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from capsim.descriptors import PlanPhase, PlanStage, RequestDescriptor
from capsim.registry import CandidateTable, Hit, NodeState
from capsim.routing import (
    TIE_EPS_DEN,
    TIE_EPS_NUM,
    ExecutionPlan,
    Router,
    RoutingWeights,
    ScoredPlan,
    StageProjection,
    _weight_multipliers,
)
from capsim.topology import Unreachable, region_vertex


def scaled_weights(weights: RoutingWeights, factor: int) -> RoutingWeights:
    """All six cost-term weights multiplied by a positive constant."""
    return RoutingWeights(
        alpha=weights.alpha * factor,
        beta=weights.beta * factor,
        gamma=weights.gamma * factor,
        delta=weights.delta * factor,
        epsilon=weights.epsilon * factor,
        zeta=weights.zeta * factor,
        kappa=weights.kappa,
        pi_soft=weights.pi_soft,
        tie_eps=weights.tie_eps,
    )


def eff_time_us(per_token_us: int, tokens: int, speed: Fraction) -> int:
    """Time for ``tokens`` at ``per_token_us`` each on a node of ``speed``, rounded up."""
    return ceil(Fraction(per_token_us * max(0, tokens)) / speed)


def combine_terms(weights: RoutingWeights, terms: tuple[int, int, int, int, int, int]) -> Fraction:
    """J: the weighted sum of the six terms, exact."""
    scale, mult = _weight_multipliers(weights)
    return Fraction(sum(m * t for m, t in zip(mult, terms)), scale)


def terms_of(scored: ScoredPlan) -> tuple[int, int, int, int, int, int]:
    """A scored plan's six cost terms, in J's order."""
    return (scored.t_net_us, scored.t_queue_us, scored.t_exec_us, scored.t_state_us, scored.c_load, scored.p_policy)


def plan_j(weights: RoutingWeights, scored: ScoredPlan) -> Fraction:
    """J of a scored plan under ``weights``, from its six terms."""
    return combine_terms(weights, terms_of(scored))


def score(
    router: Router,
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
        (router.broker.node(s.node_id), router.broker.catalog.realizations[s.realization_id])
        for s in plan.stages
    ]
    in_payload = request.input_tokens * router.bytes_per_token
    out_payload = request.output_tokens * router.bytes_per_token

    first_node = stages[0][0]
    last_node = stages[-1][0]
    t_in, core_in = router.topology.transfer_between(origin, first_node.node_id, in_payload)
    t_out, core_out = router.topology.transfer_between(last_node.node_id, origin, out_payload)
    t_inter = core_inter = 0
    if len(stages) == 2:
        kv_bytes = request.input_tokens * stages[0][1].kv_bytes_per_token
        t_inter, core_inter = router.topology.transfer_between(
            first_node.node_id, last_node.node_id, kv_bytes
        )
    t_net = t_in + t_inter + t_out

    state_use = None if zero_queue else router._resolve_state(request, first_node, stages[0][1], now)
    covered = state_use.covered_tokens if state_use else 0
    t_state = state_use.transfer_us if state_use else 0  # a migration is network wait before the stage is ready
    uncovered = max(0, request.input_tokens - covered)

    projections: list[StageProjection] = []
    t_exec = 0
    t_queue = 0
    c_load = 0
    cursor = now + t_in + t_state
    first_token_us = 0
    decode_total_us = 0
    for idx, ((node_state, realization), stage) in enumerate(zip(stages, plan.stages)):
        speed = node_state.profile.speed_factor
        exec_us = realization.setup_time_us
        cold = not warm_flags[idx]
        activation = 0
        if cold:
            activation = router.artifact_fetch(node_state.node_id, realization)[0] + realization.load_time_us
            exec_us += activation
        decode_us = 0
        if stage.phase in (PlanPhase.FULL, PlanPhase.PREFILL):
            exec_us += eff_time_us(realization.prefill_time_per_token_us, uncovered, speed)
        if stage.phase in (PlanPhase.FULL, PlanPhase.DECODE):
            decode_us = eff_time_us(realization.decode_time_per_token_us, request.output_tokens, speed)
            exec_us += decode_us
        t_exec += exec_us
        if idx == 1:
            cursor += t_inter
        ready = cursor
        wait = 0 if zero_queue else node_state.peek_wait_us(ready)
        start = ready + wait
        complete = start + exec_us
        t_queue += wait
        if not zero_queue:
            c_load += router._c_load_for(node_state, now)
        if stage.phase in (PlanPhase.FULL, PlanPhase.DECODE):
            one_token = eff_time_us(realization.decode_time_per_token_us, 1, speed)
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
                duration_us=exec_us,
                cold=cold,
                warm_available_at_us=start + activation,
            )
        )
        cursor = complete

    misses = sum(router._soft_misses(request, node_state, realization, now) for node_state, realization in stages)
    p_policy = 0 if zero_queue else router.weights.pi_soft * misses
    finish = cursor + t_out
    return ScoredPlan(
        plan=plan,
        t_net_us=t_net,
        t_queue_us=t_queue,
        t_exec_us=t_exec,
        t_state_us=t_state,
        c_load=c_load,
        p_policy=p_policy,
        stages=tuple(projections),
        inbound_net_us=t_in,
        interstage_net_us=t_inter,
        finish_us=finish,
        first_token_us=first_token_us,
        decode_total_us=decode_total_us,
        state_use=state_use,
        core_bytes=core_in + core_inter + core_out + (state_use.core_bytes if state_use else 0),
        served_quality=request.quality_target,
        alternatives=(),
    )


# A candidate as tests name it: (node id, realization id, warm).
Named = tuple[str, str, bool]


def named_hits(table: CandidateTable, hits: list[Hit]) -> list[Named]:
    """The candidates of a lookup's ``hits`` in ``table``, named."""
    return [(table.pairs[p][0].node_id, table.pairs[p][1], warm) for p, warm in hits]


def static_bounds(
    router: Router, request: RequestDescriptor, node: NodeState, realization_id: str, warm: bool, covered: int
) -> tuple[int, int, int, int, int, int] | None:
    """One candidate's static bounds, priced from its routes and the node's
    ``Fraction`` speed: (t_in, t_out, decode time, set-up plus activation,
    prefill-side bound, decode-side bound). ``covered`` prompt tokens are
    reused for free. None when the candidate can take no stage: no route
    from the origin, or cold with no route for its artifact."""
    origin = region_vertex(request.origin_region)
    realization = router.broker.catalog.realizations[realization_id]
    try:
        route_in, route_out = router.topology.route(origin, node.node_id), router.topology.route(node.node_id, origin)
        fetch = 0 if warm else router.artifact_fetch(node.node_id, realization)[0]
    except Unreachable:
        return None
    base = realization.setup_time_us + (0 if warm else fetch + realization.load_time_us)
    speed = node.profile.speed_factor
    _, mult = _weight_multipliers(router.weights)
    t_in = route_in.time_us(request.input_tokens * router.bytes_per_token)
    t_out = route_out.time_us(request.output_tokens * router.bytes_per_token)
    prefill_us = eff_time_us(realization.prefill_time_per_token_us, request.input_tokens - covered, speed)
    decode_us = eff_time_us(realization.decode_time_per_token_us, request.output_tokens, speed)
    pre = mult[0] * t_in + mult[2] * (base + prefill_us)
    dec = mult[0] * t_out + mult[2] * (base + decode_us)
    return t_in, t_out, decode_us, base, pre, dec


def plans_from_candidates(router: Router, candidates: list[Named]) -> list[tuple[ExecutionPlan, tuple[bool, ...]]]:
    """Every single-node plan and every same-variant prefill/decode pair, by plan_id."""
    plans: list[tuple[ExecutionPlan, tuple[bool, ...]]] = []
    for node_id, realization_id, warm in candidates:
        stage = PlanStage(node_id, realization_id, PlanPhase.FULL)
        plans.append((router.plan((stage,)), (warm,)))
    if router.enable_split:
        catalog = router.broker.catalog
        for pre_node, pre_rid, pre_warm in candidates:
            for dec_node, dec_rid, dec_warm in candidates:
                if pre_node == dec_node:
                    continue
                if catalog.realizations[pre_rid].variant_id != catalog.realizations[dec_rid].variant_id:
                    continue
                stages = (
                    PlanStage(pre_node, pre_rid, PlanPhase.PREFILL),
                    PlanStage(dec_node, dec_rid, PlanPhase.DECODE),
                )
                plans.append((router.plan(stages), (pre_warm, dec_warm)))
    plans.sort(key=lambda p: p[0].plan_id)
    return plans


def score_enumerated(
    router: Router, request: RequestDescriptor, candidates: list[Named], now: int
) -> list[ScoredPlan]:
    scored = []
    for plan, warm_flags in plans_from_candidates(router, candidates):
        try:
            scored.append(score(router, plan, request, now, warm_flags))
        except Unreachable:
            continue  # a stage node the origin cannot reach is not a plan
    return scored


def lookup(router: Router, request: RequestDescriptor, quality: int, now: int) -> list[Named]:
    """The broker's qualifying candidates for ``request`` at ``quality``."""
    broker = router.broker
    table = broker.table(request.capability_class, quality, request.policy, request.origin_region, router.placement_tiers)
    return named_hits(table, broker.lookup_candidates(table, now, request.policy.min_trust))


def admitted_candidates(router: Router, request: RequestDescriptor, quality: int, now: int) -> list[Named]:
    """The qualifying candidates on nodes below their admission cap: the set
    a selection at ``now`` may place stages on."""
    admitted = []
    for cand in lookup(router, request, quality, now):
        node = router.broker.node(cand[0])
        if node.queue_length(now) < node.profile.admission_cap:
            admitted.append(cand)
    return admitted


def feasible_plans(router: Router, request: RequestDescriptor, now: int) -> list[ScoredPlan]:
    """The feasible plan set: quality/policy-filtered, budget-filtered, scored.

    Admission caps are not applied.
    """
    scored = score_enumerated(router, request, lookup(router, request, request.quality_target, now), now)
    if request.budget is not None:
        scored = [s for s in scored if plan_j(router.weights, s) <= request.budget]
    return scored


def argmin(scored: list[ScoredPlan], weights: RoutingWeights) -> ScoredPlan:
    """Minimum-J plan under ``weights``; values of J within the relative tie
    window resolve to the smallest plan_id."""
    best_total = min(plan_j(weights, s) for s in scored)
    bound = best_total + abs(best_total) * weights.tie_eps
    contenders = [s for s in scored if plan_j(weights, s) <= bound]
    contenders.sort(key=lambda s: s.plan.plan_id)
    return contenders[0]


def within_tie(candidate: Fraction, best: Fraction, tie_eps: Fraction = Fraction(TIE_EPS_NUM, TIE_EPS_DEN)) -> bool:
    """True when ``candidate`` does not beat ``best`` by more than the tie window."""
    return candidate >= best - abs(best) * tie_eps


def checked_select(select):
    """``Router.select`` wrapped to assert that each selection's plan equals
    ``score`` of it at the same instant; ``checks`` counts the selections."""

    def checked(router: Router, request: RequestDescriptor, now: int):
        outcome = select(router, request, now)
        if isinstance(outcome, ScoredPlan):
            warm_flags = tuple(not proj.cold for proj in outcome.stages)
            assert outcome == score(router, outcome.plan, request, now, warm_flags), request.request_id
            checked.checks += 1
        return outcome

    checked.checks = 0
    return checked
