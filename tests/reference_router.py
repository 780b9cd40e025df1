"""The exhaustive reference router: every plan enumerated and scored in full.

``Router`` prices plans from stage halves and projects only the winner's
schedule. This module keeps the independent implementation it must agree
with: ``score`` prices one plan stage by stage, ``feasible_plans`` enumerates
and scores every plan, and ``argmin`` picks the winner over exact ``Fraction``
totals. Tests compare the router against it.
"""

from __future__ import annotations

from fractions import Fraction

from capsim.descriptors import PlanPhase, PlanStage, RequestDescriptor
from capsim.registry import Candidate
from capsim.routing import (
    TIE_EPS_DEN,
    TIE_EPS_NUM,
    ExecutionPlan,
    PlanCost,
    Router,
    RoutingWeights,
    ScoredPlan,
    Selection,
    StageProjection,
    _numerator,
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


def combine_terms(weights: RoutingWeights, terms: tuple[int, int, int, int, int, int]) -> Fraction:
    scale, mult = _weight_multipliers(weights)
    return Fraction(_numerator(mult, terms), scale)


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

    state_use = None if zero_queue else router._resolve_state(request, first_node, stages[0][1])
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
            activation, _ = router._cold_extras_us(node_state.node_id, realization)
            exec_us += activation
        decode_us = 0
        if stage.phase in (PlanPhase.FULL, PlanPhase.PREFILL):
            exec_us += router._eff_time_us(realization.prefill_time_per_token_us, uncovered, speed)
        if stage.phase in (PlanPhase.FULL, PlanPhase.DECODE):
            decode_us = router._eff_time_us(realization.decode_time_per_token_us, request.output_tokens, speed)
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
            c_load += router._c_load_for(node_state, now)
        if stage.phase in (PlanPhase.FULL, PlanPhase.DECODE):
            one_token = router._eff_time_us(realization.decode_time_per_token_us, 1, speed)
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

    p_policy = 0 if zero_queue else router.weights.pi_soft * router._soft_misses(request, stages, now)
    terms = (t_net, t_queue, t_exec, t_state, c_load, p_policy)
    cost = PlanCost(*terms, total=Fraction(_numerator(router._mult, terms), router._scale))
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


def plans_from_candidates(router: Router, candidates: list[Candidate]) -> list[tuple[ExecutionPlan, tuple[bool, ...]]]:
    """Every single-node plan and every same-variant prefill/decode pair, by plan_id."""
    plans: list[tuple[ExecutionPlan, tuple[bool, ...]]] = []
    for cand in candidates:
        stage = PlanStage(cand.node_id, cand.realization_id, PlanPhase.FULL)
        plans.append((router.plan((stage,)), (cand.warm,)))
    if router.enable_split:
        catalog = router.broker.catalog
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
                plans.append((router.plan(stages), (pre.warm, dec.warm)))
    plans.sort(key=lambda p: p[0].plan_id)
    return plans


def score_enumerated(
    router: Router, request: RequestDescriptor, candidates: list[Candidate], now: int
) -> list[ScoredPlan]:
    scored = []
    for plan, warm_flags in plans_from_candidates(router, candidates):
        try:
            scored.append(score(router, plan, request, now, warm_flags))
        except Unreachable:
            continue  # a stage node the origin cannot reach is not a plan
    return scored


def feasible_plans(router: Router, request: RequestDescriptor, now: int) -> list[ScoredPlan]:
    """The feasible plan set: quality/policy-filtered, budget-filtered, scored.

    Admission caps are not applied.
    """
    candidates = router.broker.lookup_candidates(
        request.capability_class,
        request.quality_target,
        request.policy,
        origin_region=request.origin_region,
        now=now,
        tiers=router.placement_tiers,
    )
    scored = score_enumerated(router, request, candidates, now)
    if request.budget is not None:
        scored = [s for s in scored if s.cost.total <= request.budget]
    return scored


def argmin(scored: list[ScoredPlan], tie_eps: Fraction = Fraction(TIE_EPS_NUM, TIE_EPS_DEN)) -> ScoredPlan:
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


def checked_select(select):
    """``Router.select`` wrapped to assert that each selection's plan equals
    ``score`` of it at the same instant; ``checks`` counts the selections."""

    def checked(router: Router, request: RequestDescriptor, now: int):
        outcome = select(router, request, now)
        if isinstance(outcome, Selection):
            chosen = outcome.scored
            warm_flags = tuple(not proj.cold for proj in chosen.stages)
            assert chosen == score(router, chosen.plan, request, now, warm_flags), request.request_id
            checked.checks += 1
        return outcome

    checked.checks = 0
    return checked
