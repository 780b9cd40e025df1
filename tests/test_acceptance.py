"""Acceptance suite: nine system-level criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
check pins its tolerance inline.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from capsim import deployment
from capsim.cli import TraceWriter, _write_outputs
from capsim.descriptors import Tier
from capsim.engine import Simulation
from capsim.routing import Router
from capsim.scenario import Scenario
from capsim.workload import generate_arrivals, generate_region_arrivals
from conftest import random_placement_problem
from reference_router import checked_select, scaled_weights
from test_golden import GOLDEN, output_digests
from test_workload import CHI2_999, region

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TIE_REL = Fraction(1, 10**9)


def load(name: str) -> Scenario:
    scenario = Scenario.load(SCENARIOS / f"{name}.json")
    assert scenario.validate() == []
    return scenario


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_placement_oracle_suite():
    started = time.time()
    worst = Fraction(0)
    for seed in range(50):
        problem = random_placement_problem(random.Random(1000 + seed))
        heuristic = deployment.solve(problem, local_search_rounds=8)
        exact = deployment.solve_exact(problem)
        h = deployment.objective(problem, heuristic)
        e = deployment.objective(problem, exact)
        assert h >= e, f"seed {seed}: heuristic beat the exhaustive oracle"
        if e > 0:
            worst = max(worst, h / e)
            assert h <= e * Fraction(3, 2), f"seed {seed}: ratio {float(h / e):.3f} exceeds 1.5"
        else:
            assert h == 0
    elapsed = time.time() - started
    report(1, elapsed < 10.0, f"50 instances, worst ratio {float(worst):.4f}, {elapsed:.2f}s")


def test_criterion_2_routing_argmin_audit(tmp_path, monkeypatch):
    scenario = load("audit")
    # Every selection's plan must also equal the reference router's score of it.
    checked = checked_select(Router.select)
    with monkeypatch.context() as patch, (tmp_path / "trace.csv").open("w") as trace:
        patch.setattr(Router, "select", checked)
        sim = Simulation(scenario, audit=True, trace=TraceWriter(trace))
        result = sim.run()
    assert checked.checks == len(result.audit), "a selection escaped the reference check"
    assert len(result.audit) >= 10_000, f"only {len(result.audit)} routed requests"
    # The audit run doubles as the golden-digest check for this scenario.
    _write_outputs(tmp_path, scenario, sim, result)
    assert output_digests(tmp_path) == GOLDEN["audit"], "audit outputs differ from the golden digest"

    weights = scenario.routing_weights
    w = (weights.alpha, weights.beta, weights.gamma, weights.delta, weights.epsilon, weights.zeta)

    def rescore(terms):
        return sum(wi * t for wi, t in zip(w, terms))

    plan_scores = 0
    for entry in result.audit:
        costs = {plan_id: rescore(terms) for plan_id, terms in entry.alternatives}
        chosen = costs[entry.chosen_plan_id]
        floor = chosen - abs(chosen) * TIE_REL
        for plan_id, cost in costs.items():
            assert cost >= floor, (
                f"request {entry.request_id}: plan {plan_id} at {cost} beats chosen {chosen}"
            )
        plan_scores += len(costs)

    scaled = Simulation(scenario, audit=True, weights=scaled_weights(weights, 10))
    result10 = scaled.run()
    chosen_base = [(e.request_id, e.chosen_plan_id) for e in result.audit]
    chosen_scaled = [(e.request_id, e.chosen_plan_id) for e in result10.audit]
    assert chosen_base == chosen_scaled, "x10 weight rescale changed a selection"
    report(2, True, f"{len(result.audit)} selections audited, {plan_scores} plan scores, rescale invariant")


def test_criterion_3_cache_admission_soundness():
    scenario = load("session_heavy")
    result = Simulation(scenario, trace=True).run()

    capacities = {s.profile.node_id: s.cache_capacity_bytes for s in scenario.nodes}
    sizes: dict[str, int] = {}
    occupancy: dict[str, int] = {node: 0 for node in capacities}
    admits = 0
    for row in result.trace:
        kind = row["kind"]
        if kind == "cache_admit":
            assert Fraction(row["benefit"]) > 0, f"admitted {row['state_id']} with benefit {row['benefit']}"
            sizes[row["state_id"]] = row["bytes"]
            occupancy[row["node_id"]] += row["bytes"]
            admits += 1
        elif kind == "cache_migrate" and row["outcome"] == "Admitted":
            sizes.setdefault(row["state_id"], row["bytes"])
            occupancy[row["node_id"]] += row["bytes"]
        elif kind == "cache_evict":
            occupancy[row["node_id"]] -= sizes[row["state_id"]]
        if kind in ("cache_admit", "cache_migrate", "cache_evict"):
            node = row["node_id"]
            assert 0 <= occupancy[node] <= capacities[node], f"{node} occupancy {occupancy[node]}"
    assert admits > 0, "scenario exercised no admissions"

    # Scope audit: every reused state was produced by a request of the same
    # session, reconstructed independently from the deterministic workload.
    arrivals = generate_arrivals(scenario.workload, scenario.duration_us, scenario.seed)
    session_of = {a.request.request_id: a.session_id for a in arrivals}
    reuses = 0
    for receipt in result.receipts.receipts:
        for state_id in receipt.cache_states_reused:
            producer = state_id.removeprefix("st-")
            assert session_of[producer] == session_of[receipt.request_id], (
                f"{receipt.request_id} reused state of foreign session {producer}"
            )
            reuses += 1
    assert reuses > 0, "scenario exercised no reuse"
    report(3, True, f"{admits} admissions benefit>0, capacity bounded, {reuses} reuses all scope-clean")


def test_criterion_4_prefix_reuse_latency():
    scenario = load("session_heavy")
    on = Simulation(scenario, cache_enabled=True).run()
    off_a = Simulation(scenario, cache_enabled=False).run()
    off_b = Simulation(scenario, cache_enabled=False).run()

    mean_on = on.metrics.to_dict()["ttft_us"]["mean"]
    mean_off = off_a.metrics.to_dict()["ttft_us"]["mean"]
    cache = on.metrics.to_dict()["cache"]["tensor_state"]
    ratio = cache["hits"] / cache["lookups"]
    identical = (
        off_a.receipts_jsonl() == off_b.receipts_jsonl()
        and off_a.metrics.to_json() == off_b.metrics.to_json()
    )
    ok = mean_on < mean_off and ratio > 0.3 and identical
    report(4, ok, f"mean TTFT {mean_on} < {mean_off} us, hit ratio {ratio:.3f} > 0.3, cache-off bit-identical")


def test_criterion_5_wan_reduction():
    scenario = load("locality")
    full = Simulation(scenario).run().metrics.to_dict()
    base = Simulation(scenario, placement_tiers={Tier.CLOUD}).run().metrics.to_dict()
    core_full = full["core_bytes"]["total"]
    core_base = base["core_bytes"]["total"]
    p95_full = full["ttft_us"]["p95"]
    p95_base = base["ttft_us"]["p95"]
    ok = core_full < core_base and p95_full <= p95_base
    report(5, ok, f"core bytes {core_full} < {core_base}, p95 TTFT {p95_full} <= {p95_base} us")


def test_criterion_6_overload_discipline():
    scenario = load("overload")
    doc = Simulation(scenario).run().metrics.to_dict()
    caps = {s.profile.node_id: s.profile.capacity.admission_cap for s in scenario.nodes}
    over = {n: q for n, q in doc["max_queue_length"].items() if q > caps[n]}
    admitted = doc["arrivals"] - doc["rejected"]
    admitted_rate = doc["served"] / admitted
    ok = not over and doc["rejected"] > 0 and admitted_rate > 0.95
    report(
        6,
        ok,
        f"max queue {max(doc['max_queue_length'].values())} <= cap {min(caps.values())}, "
        f"{doc['rejected']} rejections, admitted completion {admitted_rate:.3f} > 0.95",
    )


def test_criterion_7_determinism():
    scenario = load("session_heavy")
    a = Simulation(scenario).run()
    b = Simulation(scenario).run()
    identical = a.receipts_jsonl() == b.receipts_jsonl() and a.metrics.to_json() == b.metrics.to_json()
    other_seed = generate_arrivals(scenario.workload, scenario.duration_us, scenario.seed + 1)
    base_seed = generate_arrivals(scenario.workload, scenario.duration_us, scenario.seed)
    differs = [x.request.arrival_time for x in other_seed] != [x.request.arrival_time for x in base_seed]
    report(7, identical and differs, "same seed byte-identical, different seed differs")


def test_criterion_8_receipts_and_trust():
    scenario = load("trust_churn")
    result = Simulation(scenario).run()
    arrivals = generate_arrivals(scenario.workload, scenario.duration_us, scenario.seed)
    receipts = result.receipts.receipts
    ids = [r.request_id for r in receipts]
    bijection = len(ids) == len(set(ids)) == len(arrivals)

    # Attestation script: edge-1 valid [0, 12s) at level 2; min_trust is 2.
    expiry = 12_000_000
    trust_clean = True
    for receipt in receipts:
        if receipt.verdict.value in ("allowed", "degraded"):
            assert all(level >= 2 for _, level in receipt.node_attestations)
            if any(s.node_id == "edge-1" for s in receipt.plan) and receipt.arrival_time >= expiry:
                trust_clean = False

    revoke_at = 18_000_000
    revoked_clean = all(
        not any(s.realization_id == "summarize-a-gpu" for s in r.plan)
        for r in receipts
        if r.arrival_time >= revoke_at and r.verdict.value in ("allowed", "degraded")
    )
    used_before = any(
        any(s.realization_id == "summarize-a-gpu" for s in r.plan)
        for r in receipts
        if r.arrival_time < revoke_at
    )
    used_edge_before = any(
        any(s.node_id == "edge-1" for s in r.plan)
        for r in receipts
        if r.arrival_time < expiry and r.verdict.value in ("allowed", "degraded")
    )
    ok = bijection and trust_clean and revoked_clean and used_before and used_edge_before
    report(
        8,
        ok,
        f"{len(receipts)} receipts for {len(arrivals)} arrivals, trust-expiry honored, revocation honored",
    )


def test_criterion_9_workload_statistics():
    seeds = (101, 102, 103, 104, 105)
    duration_us = 100_000_000
    rate = 100.0
    poisson_ok = True
    for seed in seeds:
        arrivals = generate_region_arrivals(region(rate=rate), duration_us, seed)
        expected = rate * duration_us / 1_000_000
        if abs(len(arrivals) - expected) > 4 * math.sqrt(expected):
            poisson_ok = False
    chi_ok = True
    for seed in seeds:
        arrivals = generate_region_arrivals(region(rate=rate), duration_us, seed)
        assert len(arrivals) >= 10_000 * 0.9
        counts = Counter(a.request.capability_class for a in arrivals)
        n = len(arrivals)
        expected = n / 8
        stat = sum((counts.get(f"c{i}", 0) - expected) ** 2 / expected for i in range(8))
        if stat >= CHI2_999[7]:
            chi_ok = False
    report(9, poisson_ok and chi_ok, f"5 seeds within 4*sqrt(rT); uniform chi-square below {CHI2_999[7]}")
