import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from capsim.caching import CacheSystem
from capsim.deployment import (
    _placement_of,
    DemandCell,
    DemandWindow,
    InfeasiblePlacement,
    InstanceTooLarge,
    PlacementPair,
    PlacementProblem,
    PlacementWeights,
    build_problem,
    cells_from_requests,
    improve_local_search,
    objective,
    plan_delta,
    solve,
    solve_exact,
    solve_greedy,
)
from capsim.descriptors import RequestDescriptor, PolicyConstraint
from capsim.routing import Router, RoutingWeights
from conftest import random_placement_problem
import reference_placement as reference


def synth_problem(pairs, cells, latency, budgets, p_miss=10_000_000, nu=1):
    # The latencies are Fractions, written as numerators over their common denominator.
    den = lcm(1, *(lat.denominator for row in latency for lat in row if lat is not None))
    return PlacementProblem(
        cells=tuple(cells),
        pairs=tuple(sorted(pairs, key=lambda p: p.key)),
        node_budget=budgets,
        weights=PlacementWeights(nu_risk=Fraction(nu), p_miss_us=p_miss),
        latency=[[None if lat is None else int(lat * den) for lat in row] for row in latency],
        latency_den=den,
    )


def pair(rid, node, memory=1, deploy=0, net=0, risk=0):
    return PlacementPair(
        realization_id=rid, node_id=node, memory_bytes=memory,
        deploy_cost=deploy, net_cost_us=net, risk=risk,
    )


def test_empty_demand_empty_placement_is_zero():
    problem = synth_problem([pair("r0", "n0")], [], [], {"n0": 4})
    assert objective(problem, frozenset()) == 0


def test_unserved_demand_charges_miss_penalty():
    cell = DemandCell("r0", "east", 1, count=7, input_tokens=1, output_tokens=1)
    problem = synth_problem([pair("r0", "n0")], [cell], [[Fraction(5_000)]], {"n0": 4})
    assert objective(problem, frozenset()) == 7 * 10_000_000


def test_objective_matches_hand_sum():
    # 2 realizations x 3 nodes, every term written out by hand.
    pairs = [
        pair("rA", "n0", memory=2, deploy=100, net=300, risk=0),
        pair("rA", "n1", memory=2, deploy=100, net=700, risk=1),
        pair("rA", "n2", memory=2, deploy=0, net=0, risk=0),
        pair("rB", "n0", memory=3, deploy=200, net=400, risk=0),
        pair("rB", "n1", memory=3, deploy=200, net=900, risk=0),
        pair("rB", "n2", memory=3, deploy=200, net=100, risk=1),
    ]
    cells = [
        DemandCell("rA", "east", 1, count=10, input_tokens=1, output_tokens=1),
        DemandCell("rB", "east", 1, count=4, input_tokens=1, output_tokens=1),
    ]
    latency = [
        [Fraction(900), Fraction(1100), Fraction(4000), None, None, None],
        [None, None, None, Fraction(1500), Fraction(2500), Fraction(600)],
    ]
    problem = synth_problem(pairs, cells, latency, {"n0": 5, "n1": 5, "n2": 5}, nu=50)
    placement = frozenset({("rA", "n0"), ("rB", "n2")})
    # L: 10 * 900 + 4 * 600; deploy: 100 + 200; net: 300 + 100; risk: 1 * 50.
    expected = 10 * 900 + 4 * 600 + (100 + 200) + (300 + 100) + 50
    assert objective(problem, placement) == expected


def test_objective_rejects_memory_violation():
    problem = synth_problem(
        [pair("r0", "n0", memory=5), pair("r1", "n0", memory=5)],
        [], [], {"n0": 8},
    )
    with pytest.raises(InfeasiblePlacement):
        objective(problem, frozenset({("r0", "n0"), ("r1", "n0")}))


def test_greedy_places_the_only_improving_assignment():
    cell = DemandCell("r0", "east", 1, count=5, input_tokens=1, output_tokens=1)
    problem = synth_problem(
        [pair("r0", "n0", memory=1, deploy=100, net=50)],
        [cell], [[Fraction(2_000)]], {"n0": 4},
    )
    assert solve_greedy(problem) == frozenset({("r0", "n0")})


def test_greedy_with_no_fitting_node_is_empty():
    cell = DemandCell("r0", "east", 1, count=5, input_tokens=1, output_tokens=1)
    problem = synth_problem(
        [pair("r0", "n0", memory=9)],
        [cell], [[Fraction(2_000)]], {"n0": 4},
    )
    assert solve_greedy(problem) == frozenset()


def test_greedy_drops_residents_with_no_demand():
    # Resident but worthless: re-adding changes nothing, so the solution
    # excludes it and the diff schedules an eviction.
    problem = synth_problem(
        [pair("r0", "n0", memory=1)],
        [], [], {"n0": 4},
    )
    solution = solve_greedy(problem)
    assert solution == frozenset()
    _, evictions = plan_delta(solution, {"n0": {"r0"}})
    assert evictions == (("r0", "n0"),)


def test_local_search_escapes_density_trap():
    # Greedy favors the dense small item, which blocks the big valuable one.
    big = DemandCell("big", "east", 1, count=1, input_tokens=1, output_tokens=1)
    small = DemandCell("small", "east", 1, count=1, input_tokens=1, output_tokens=1)
    p_miss = 1_000_000
    pairs = [pair("big", "n0", memory=10), pair("small", "n0", memory=1)]
    latency = [
        [Fraction(p_miss - 100_000), None],   # placing big saves 100000
        [None, Fraction(p_miss - 12_000)],    # placing small saves 12000 (density 12000 > 10000)
    ]
    problem = synth_problem(pairs, [big, small], latency, {"n0": 10}, p_miss=p_miss)
    greedy = solve_greedy(problem)
    assert greedy == frozenset({("small", "n0")})
    improved = improve_local_search(problem, greedy, max_rounds=8)
    exact = solve_exact(problem)
    assert improved == exact == frozenset({("big", "n0")})


def test_local_search_zero_rounds_is_identity():
    problem = random_placement_problem(random.Random(3))
    start = solve_greedy(problem)
    assert improve_local_search(problem, start, max_rounds=0) == start


def test_local_search_never_increases_objective():
    rng = random.Random(17)
    for _ in range(20):
        problem = random_placement_problem(rng)
        start = solve_greedy(problem)
        better = improve_local_search(problem, start, max_rounds=10)
        assert objective(problem, better) <= objective(problem, start)


def test_exact_on_one_by_one_matches_hand_arithmetic():
    cell = DemandCell("r0", "east", 1, count=3, input_tokens=1, output_tokens=1)
    problem = synth_problem(
        [pair("r0", "n0", memory=1, deploy=111, net=222)],
        [cell], [[Fraction(1_000)]], {"n0": 1},
    )
    placement = solve_exact(problem)
    assert placement == frozenset({("r0", "n0")})
    assert objective(problem, placement) == 3 * 1_000 + 111 + 222


def test_exact_with_zero_demand_keeps_nothing():
    problem = synth_problem(
        [pair("r0", "n0", deploy=10), pair("r1", "n0", deploy=0)],
        [], [], {"n0": 4},
    )
    assert solve_exact(problem) == frozenset()


def test_exact_bound_enforced():
    pairs = [pair(f"r{i}", f"n{j}") for i in range(7) for j in range(3)]
    problem = synth_problem(pairs, [], [], {f"n{j}": 100 for j in range(3)})
    with pytest.raises(InstanceTooLarge):
        solve_exact(problem)


def test_solvers_are_deterministic():
    rng = random.Random(23)
    problem = random_placement_problem(rng)
    assert solve(problem, 8) == solve(problem, 8)
    assert solve_exact(problem) == solve_exact(problem)


def test_heuristic_never_beats_oracle_and_stays_close():
    rng = random.Random(29)
    for _ in range(10):
        problem = random_placement_problem(rng)
        heuristic = solve(problem, 8)
        exact = solve_exact(problem)
        h = objective(problem, heuristic)
        e = objective(problem, exact)
        assert h >= e
        if e > 0:
            assert h <= e * Fraction(3, 2)


def test_every_solver_output_respects_budgets():
    rng = random.Random(31)
    for _ in range(20):
        problem = random_placement_problem(rng)
        for solution in (solve_greedy(problem), solve(problem, 8), solve_exact(problem)):
            used: dict[str, int] = {}
            index = {p.key: p for p in problem.pairs}
            for key in solution:
                p = index[key]
                used[p.node_id] = used.get(p.node_id, 0) + p.memory_bytes
            for node, total in used.items():
                assert total <= problem.node_budget[node]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    masks=st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=6),
)
def test_integer_solvers_match_fraction_reference(seed, ties, masks):
    # The integer objective equals the Fraction re-pricing exactly on every
    # mask, and every solver picks the reference's placement, ties included.
    problem = random_placement_problem(random.Random(seed), ties=ties)
    for mask in masks:
        mask &= (1 << len(problem.pairs)) - 1
        placement = _placement_of(problem, mask)
        if not reference.memory_ok(problem, mask):
            with pytest.raises(InfeasiblePlacement):
                objective(problem, placement)
            continue
        assert objective(problem, placement) == reference.objective(problem, placement)
        assert improve_local_search(problem, placement, 3) == reference.improve_local_search(problem, placement, 3)
    assert solve_greedy(problem) == reference.solve_greedy(problem)
    assert solve(problem, 8) == reference.solve(problem, 8)
    assert solve_exact(problem) == reference.solve_exact(problem)


def test_plan_delta_diffs_against_residency():
    solution = frozenset({("r0", "n0"), ("r1", "n1")})
    residency = {"n0": {"r0", "r9"}, "n1": set()}
    loads, evictions = plan_delta(solution, residency)
    assert loads == (("r1", "n1"),)
    assert evictions == (("r9", "n0"),)


def test_cells_aggregate_means_within_window():
    reqs = [
        RequestDescriptor("a", "chat", 1, PolicyConstraint(), origin_region="east", input_tokens=100, output_tokens=10, arrival_time=100),
        RequestDescriptor("b", "chat", 1, PolicyConstraint(), origin_region="east", input_tokens=200, output_tokens=30, arrival_time=200),
        RequestDescriptor("c", "chat", 1, PolicyConstraint(), origin_region="east", input_tokens=999, output_tokens=99, arrival_time=5000),
    ]
    cells = cells_from_requests(reqs, 0, 1000)
    assert len(cells) == 1
    cell = cells[0]
    assert (cell.count, cell.input_tokens, cell.output_tokens) == (2, 150, 20)


arrival_ops = st.tuples(
    st.just("arrive"),
    st.integers(min_value=0, max_value=3_000),  # gap after the previous step, us
    st.sampled_from(["chat", "code"]),
    st.sampled_from(["east", "west", "core"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=0, max_value=40),
)
# A replan comes strictly after every arrival before it, as in the engine.
replan_ops = st.tuples(st.just("replan"), st.integers(min_value=1, max_value=6_000))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10_000), st.lists(st.one_of(arrival_ops, replan_ops), max_size=60))
def test_demand_window_equals_regrouping_every_arrival(window_us, ops):
    window = DemandWindow()
    arrived = []
    now = 0
    for op in ops:
        now += op[1]
        if op[0] == "arrive":
            _, _, cls, region, quality, input_tokens, output_tokens = op
            request = RequestDescriptor(
                f"r{len(arrived)}", cls, quality, origin_region=region,
                input_tokens=input_tokens, output_tokens=output_tokens, arrival_time=now,
            )
            window.add(request)
            arrived.append(request)
        else:
            assert window.cells(now - window_us) == cells_from_requests(arrived, now - window_us, now)
            assert len(window) == sum(r.arrival_time >= now - window_us for r in arrived)


def test_problem_built_from_live_broker_prices_residency(simple_broker):
    broker = simple_broker
    broker.install("edge-1", "chat-v1-gpu", 0)
    caches = CacheSystem()
    for node_id in broker.nodes:
        caches.add_store(node_id, 1 << 20)
    router = Router(
        broker=broker, topology=broker.topology, caches=caches,
        weights=RoutingWeights(), artifact_repository="cloud-1",
    )
    cells = [DemandCell("chat", "metro", 1, count=10, input_tokens=100, output_tokens=10)]
    residency = {"edge-1": {"chat-v1-gpu"}}
    problem = build_problem(router, cells, PlacementWeights(), residency)
    by_key = {p.key: p for p in problem.pairs}
    assert by_key[("chat-v1-gpu", "edge-1")].deploy_cost == 0
    assert by_key[("chat-v1-gpu", "edge-1")].net_cost_us == 0
    assert by_key[("chat-v1-gpu", "edge-2")].net_cost_us > 0
    # Idle pricing makes the resident edge pair the cheapest for local
    # demand, so the solved placement keeps it.
    solution = solve(problem, 8)
    assert ("chat-v1-gpu", "edge-1") in solution


@pytest.mark.parametrize("name", ["small_place", "replan_heavy"])
def test_replan_latency_is_the_reference_idle_score_of_each_warm_single_plan(name, monkeypatch):
    """At every replan, each (cell, pair) latency is the reference router's
    idle-substrate score of the pair's warm single-node plan for a request of
    the cell's class, region, quality and mean tokens; None when the pair's
    variant cannot serve the cell or its node has no route to the region."""
    from capsim import deployment
    from capsim.descriptors import PlanPhase, PlanStage
    from capsim.engine import Simulation
    from capsim.scenario import Scenario
    from capsim.topology import Unreachable
    from reference_router import plan_j, score
    from test_golden import SCENARIOS, replan_heavy_scenario

    doc = replan_heavy_scenario() if name == "replan_heavy" else json.loads((SCENARIOS / f"{name}.json").read_text())
    sim = Simulation(Scenario.from_dict(doc))
    build_problem = deployment.build_problem
    checked = []

    def checked_build(router, cells, *args, **kwargs):
        problem = build_problem(router, cells, *args, **kwargs)
        catalog = router.broker.catalog
        for cell, latencies in zip(cells, problem.latency, strict=True):
            probe = RequestDescriptor(
                request_id="probe",
                capability_class=cell.capability_class,
                quality_target=cell.quality,
                policy=PolicyConstraint(),
                origin_region=cell.region,
                input_tokens=cell.input_tokens,
                output_tokens=cell.output_tokens,
            )
            for pair, latency in zip(problem.pairs, latencies, strict=True):
                variant = catalog.variant_of(pair.realization_id)
                expected = None
                if variant.parent_class == cell.capability_class and variant.quality >= cell.quality:
                    plan = router.plan((PlanStage(pair.node_id, pair.realization_id, PlanPhase.FULL),))
                    try:
                        scored = score(router, plan, probe, 0, (True,), zero_queue=True)
                    except Unreachable:
                        pass
                    else:
                        expected = plan_j(router.weights, scored)
                value = None if latency is None else Fraction(latency, problem.latency_den)
                assert value == expected, (cell, pair.key)
                checked.append(latency is not None)
        return problem

    monkeypatch.setattr(deployment, "build_problem", checked_build)
    sim.run()
    assert any(checked) and len(checked) > len(sim.scenario.nodes)


# Each replan's candidate pairs, in order: every gpu realization on every gpu
# node, less edge-east-1's while it is offline in the replan-heavy variant.
# Pinned from the placement rule before it read the broker's candidate tables.
ALL_PAIRS = [
    (rid, node)
    for rid in ("caption-v1-gpu", "translate-full-gpu", "translate-lite-gpu")
    for node in ("cloud-1", "edge-east-1", "edge-east-2")
]
WITHOUT_EDGE_EAST_1 = [p for p in ALL_PAIRS if p[1] != "edge-east-1"]
REPLAN_PAIRS = {
    "small_place": [ALL_PAIRS] * 2,
    "replan_heavy": [ALL_PAIRS] * 2 + [WITHOUT_EDGE_EAST_1] * 2 + [ALL_PAIRS] * 6
    + [WITHOUT_EDGE_EAST_1] + [ALL_PAIRS] * 3,
}


@pytest.mark.parametrize("name", sorted(REPLAN_PAIRS))
def test_replan_candidates_are_pinned_and_priced_in_integers(name, monkeypatch):
    from capsim import deployment
    from capsim.engine import Simulation
    from capsim.scenario import Scenario
    from test_golden import SCENARIOS, replan_heavy_scenario

    doc = replan_heavy_scenario() if name == "replan_heavy" else json.loads((SCENARIOS / f"{name}.json").read_text())
    build_problem = deployment.build_problem
    problems = []

    def recorded_build(*args, **kwargs):
        problems.append(build_problem(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(deployment, "build_problem", recorded_build)
    Simulation(Scenario.from_dict(doc)).run()
    assert [sorted(p.key for p in problem.pairs) for problem in problems] == REPLAN_PAIRS[name]
    for problem in problems:
        assert all(type(p.deploy_cost) is int for p in problem.pairs)
        assert all(lat is None or type(lat) is int for row in problem.latency for lat in row)
        assert any(lat is not None for row in problem.latency for lat in row)
