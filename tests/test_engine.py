import copy
import functools
import heapq
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from capsim import engine
from capsim.caching import REJECT_SCOPE_VIOLATION, StateStore
from capsim.engine import Simulation
from capsim.metrics import per_request_item
from capsim.registry import Broker
from capsim.scenario import Scenario

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def mini_scenario_dict(**overrides):
    base = {
        "name": "mini",
        "seed": 1,
        "duration_us": 10_000_000,
        "bytes_per_token": 4,
        "topology": {
            "artifact_repository": "edge-1",
            "domains": [{"domain_id": "d1", "min_trust": 0}],
            "nodes": [
                {
                    "node_id": "edge-1", "domain_id": "d1", "region": "metro", "tier": "edge",
                    "accelerator": "gpu", "speed_factor": "1", "memory_budget_bytes": 8 << 30,
                    "max_concurrent": 1, "admission_cap": 8, "trust": 2,
                    "cache_capacity_bytes": 1 << 20,
                },
            ],
            "links": [
                {"link_id": "l-gw", "src": "region:metro", "dst": "edge-1",
                 "propagation_delay_us": 500, "bandwidth_bytes_per_us": "1000"},
            ],
        },
        "catalog": {
            "classes": [
                {
                    "name": "chat",
                    "security": {"min_trust": 0},
                    "lineage": [["base", "distill"]],
                    "variants": [
                        {
                            "variant_id": "chat-v1", "quality": 1,
                            "realizations": [
                                {
                                    "realization_id": "chat-v1-gpu", "accelerator": "gpu",
                                    "artifact_size_bytes": 1 << 30, "load_time_us": 1_000_000,
                                    "prefill_time_per_token_us": 50, "decode_time_per_token_us": 200,
                                    "setup_time_us": 1000, "kv_bytes_per_token": 256,
                                }
                            ],
                        }
                    ],
                }
            ]
        },
        "initial_placement": [["chat-v1-gpu", "edge-1"]],
        "weights": {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1, "epsilon": 0, "zeta": 0,
                     "kappa": 0, "pi_soft": 0, "lambda": 1, "mu": 1, "nu": 1, "p_miss_us": 10_000_000},
        "cache": {"enabled": True, "window_us": 300_000_000},
        "deployment": {"replan_enabled": False},
        "routing": {"enable_split": True},
        "workload": {"regions": []},
        "requests": [],
    }
    base.update(overrides)
    return base


def scripted_request(request_id="q1", arrival=0, input_tokens=100, output_tokens=10, **extra):
    req = {
        "request_id": request_id,
        "capability_class": "chat",
        "quality_target": 1,
        "policy": {"min_trust": 0, "locality_scope": "any"},
        "origin_region": "metro",
        "input_tokens": input_tokens,
        "output_tokens": output_tokens,
        "arrival_time": arrival,
    }
    req.update(extra)
    return req


def run_scenario(d, **sim_kwargs):
    scenario = Scenario.from_dict(d)
    assert scenario.validate() == []
    sim = Simulation(scenario, **sim_kwargs)
    return sim.run()


def test_single_warm_request_closed_form_timing():
    d = mini_scenario_dict()
    d["requests"] = [scripted_request()]
    result = run_scenario(d, trace=True)
    assert len(result.receipts) == 1
    receipt = result.receipts.receipts[0]
    assert result.metrics.records == [receipt]

    t_in = 500 + 1   # ceil(400 / 1000)
    t_out = 500 + 1  # ceil(40 / 1000)
    prefill = 100 * 50
    decode_total = 10 * 200
    assert receipt.t_net_us == t_in + t_out
    assert receipt.t_queue_us == 0
    assert receipt.t_exec_us == 1000 + prefill + decode_total
    assert receipt.t_state_us == 0
    # First token after inbound transfer, setup, full prefill, one decode step.
    assert receipt.ttft_us == t_in + 1000 + prefill + 200
    assert receipt.tpot_us == 200
    assert per_request_item(receipt)["latency_us"] == t_in + 1000 + prefill + decode_total + t_out


def test_zero_workload_produces_nothing():
    result = run_scenario(mini_scenario_dict())
    assert len(result.receipts) == 0
    assert result.metrics.to_dict()["arrivals"] == 0


def test_conservation_and_receipt_bijection():
    d = mini_scenario_dict()
    # 1 slot, 100ms service, 8-deep queue, 30 requests in 1 ms: most reject.
    d["requests"] = [scripted_request(f"q{i:02d}", arrival=i * 30) for i in range(30)]
    result = run_scenario(d)
    doc = result.metrics.to_dict()
    assert doc["arrivals"] == 30
    assert doc["served"] + doc["rejected"] + doc["truncated"] == 30
    assert doc["rejected"] > 0
    ids = [r.request_id for r in result.receipts.receipts]
    assert len(ids) == 30 and len(set(ids)) == 30


def test_queue_waits_match_dispatch_trace():
    d = mini_scenario_dict()
    d["requests"] = [scripted_request(f"q{i}", arrival=0, input_tokens=10) for i in range(3)]
    result = run_scenario(d, trace=True)
    waits = {}
    for row in result.trace:
        if row["kind"] == "dispatch":
            waits.setdefault(row["request_id"], 0)
            waits[row["request_id"]] += row["timestamp_us"] - row["ready_us"]
    for receipt in result.receipts.receipts:
        assert receipt.t_queue_us == waits[receipt.request_id]
        assert receipt.t_queue_us >= 0
    assert any(w > 0 for w in waits.values())


def test_scripted_arrivals_at_one_instant_are_served_in_id_order():
    # Listed in reverse: the events enter by (time, origin region, request id), not file order.
    d = mini_scenario_dict()
    d["requests"] = [scripted_request(f"q{i}", arrival=0, input_tokens=10) for i in (2, 1, 0)]
    waits = {r.request_id: r.t_queue_us for r in run_scenario(d).receipts.receipts}
    assert waits["q0"] == 0 < waits["q1"] < waits["q2"]


def test_commit_raises_when_realized_schedule_differs_from_scored():
    d = mini_scenario_dict()
    d["requests"] = [scripted_request()]
    sim = Simulation(Scenario.from_dict(d))
    commit = sim._commit

    def commit_after_phantom(now, arrival, scored):
        # A stage reserved between selection and commit takes the server the
        # scored plan counted on.
        proj = scored.stages[0]
        sim.broker.node(proj.node_id).reserve("phantom", proj.ready_us, 1)
        commit(now, arrival, scored)

    sim._commit = commit_after_phantom
    with pytest.raises(RuntimeError, match="realized schedule"):
        sim.run()


def test_node_concurrency_cap_never_exceeded():
    d = mini_scenario_dict()
    d["topology"]["nodes"][0]["max_concurrent"] = 2
    d["requests"] = [scripted_request(f"q{i}", arrival=i * 1000) for i in range(12)]
    result = run_scenario(d, trace=True)
    started = {}
    intervals = []
    for row in result.trace:
        if row["kind"] == "dispatch":
            started[row["request_id"]] = row["timestamp_us"]
        elif row["kind"] == "stage_complete":
            intervals.append((started.pop(row["request_id"]), row["timestamp_us"]))
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    level = peak = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    assert peak <= 2


def test_prefix_reuse_skips_covered_prefill():
    d = mini_scenario_dict()
    d["requests"] = [
        scripted_request("q1", arrival=0, input_tokens=100, affinity_token="sess-1:aa", session={"session_id": "sess-1"}),
        scripted_request("q2", arrival=2_000_000, input_tokens=100, affinity_token="sess-1:aa",
                         session={"session_id": "sess-1"}),
    ]
    result = run_scenario(d)
    # The engine caches the session prefix only for generated sessions, so
    # scripted requests share the affinity token but carry no prefix length:
    # both requests run the full prefill.
    first, second = result.receipts.receipts
    assert first.t_exec_us == second.t_exec_us


def test_ended_sessions_leave_no_turn_count():
    d = mini_scenario_dict()
    d["workload"] = {
        "regions": [
            {
                "region": "metro", "rate_per_s": 2.0, "zipf_s": 0.0, "classes": ["chat"],
                "session": {"turns_g": 0.5, "prefix_tokens": 64},
                "input_tokens": {"dist": "fixed", "value": 20},
                "output_tokens": {"dist": "fixed", "value": 4},
                "policy_mix": [{"weight": 1.0, "min_trust": 0}],
            }
        ]
    }
    d["duration_us"] = 20_000_000
    sim = Simulation(Scenario.from_dict(d), trace=True)
    result = sim.run()
    ended = {row["session_id"] for row in result.trace if row["kind"] == "session_end"}
    assert len(ended) > 1
    assert ended.isdisjoint(sim._session_remaining)


def test_session_prefix_reuse_via_workload():
    d = mini_scenario_dict()
    d["workload"] = {
        "regions": [
            {
                "region": "metro", "rate_per_s": 1.0, "zipf_s": 0.0, "classes": ["chat"],
                "session": {"turns_g": 0.5, "prefix_tokens": 64},
                "input_tokens": {"dist": "fixed", "value": 20},
                "output_tokens": {"dist": "fixed", "value": 4},
                "policy_mix": [{"weight": 1.0, "min_trust": 0}],
            }
        ]
    }
    d["duration_us"] = 40_000_000
    result = run_scenario(d)
    hits = [r for r in result.metrics.records if per_request_item(r)["cache_hit"]]
    assert hits, "expected at least one prefix hit"
    for receipt in hits:
        assert per_request_item(receipt)["tokens_covered"] == 64
        # 84 input tokens, 64 covered: only 20 uncovered prefill tokens plus
        # setup and decode are executed.
        assert receipt.t_exec_us == 1000 + 20 * 50 + 4 * 200
        assert receipt.cache_tokens_covered == 64
        assert receipt.cache_states_reused


def test_split_plan_selected_for_disaggregated_variant():
    d = mini_scenario_dict()
    d["topology"]["nodes"].append(
        {
            "node_id": "hpu-1", "domain_id": "d1", "region": "metro", "tier": "edge",
            "accelerator": "hpu", "speed_factor": "1", "memory_budget_bytes": 8 << 30,
            "max_concurrent": 1, "admission_cap": 8, "trust": 2, "cache_capacity_bytes": 1 << 20,
        }
    )
    d["topology"]["links"].append(
        {"link_id": "l-gw-hpu", "src": "region:metro", "dst": "hpu-1",
         "propagation_delay_us": 500, "bandwidth_bytes_per_us": "1000"}
    )
    # One variant, two realizations: a prefill-optimized part and a
    # decode-optimized part on different accelerators.
    d["catalog"]["classes"][0]["variants"][0]["realizations"] = [
        {
            "realization_id": "duo-prefill", "accelerator": "hpu",
            "artifact_size_bytes": 1 << 30, "load_time_us": 1_000_000,
            "prefill_time_per_token_us": 10, "decode_time_per_token_us": 2000,
            "setup_time_us": 100, "kv_bytes_per_token": 64,
        },
        {
            "realization_id": "duo-decode", "accelerator": "gpu",
            "artifact_size_bytes": 1 << 30, "load_time_us": 1_000_000,
            "prefill_time_per_token_us": 500, "decode_time_per_token_us": 100,
            "setup_time_us": 100, "kv_bytes_per_token": 64,
        },
    ]
    d["initial_placement"] = [["duo-prefill", "hpu-1"], ["duo-decode", "edge-1"]]
    d["requests"] = [scripted_request("q1", input_tokens=400, output_tokens=100)]
    result = run_scenario(d, trace=True)
    receipt = result.receipts.receipts[0]
    assert [s.phase.value for s in receipt.plan] == ["prefill", "decode"]
    assert [s.node_id for s in receipt.plan] == ["hpu-1", "edge-1"]

    # First token timing includes the inter-stage state handoff.
    t_in = 500 + 2           # 1600 bytes over 1000 B/us
    prefill_stage = 100 + 400 * 10
    kv_gap = 500 + 500 + 26  # 400 tokens * 64 B over the two-hop 1000 B/us path
    first_decode = 100 + 100  # setup + one decode token
    assert receipt.ttft_us == t_in + prefill_stage + kv_gap + first_decode
    kv_rows = [r for r in result.trace if r["kind"] == "transfer_complete" and r.get("transfer") == "kv"]
    assert len(kv_rows) == 1


def test_cold_activation_counts_load_overhead():
    d = mini_scenario_dict()
    d["initial_placement"] = []  # nothing resident: first request activates
    d["requests"] = [scripted_request("q1"), scripted_request("q2", arrival=8_000_000)]
    result = run_scenario(d)
    doc = result.metrics.to_dict()
    assert doc["served"] == 2
    assert doc["placement_churn"] == 1
    assert doc["model_load_overhead_us"] >= 1_000_000
    first, second = result.receipts.receipts
    assert first.t_exec_us > second.t_exec_us  # second rides the warm copy


def test_truncated_requests_reported_separately():
    d = mini_scenario_dict(duration_us=1_000_000)
    d["requests"] = [scripted_request("q1", arrival=990_000, input_tokens=1000)]
    result = run_scenario(d)
    doc = result.metrics.to_dict()
    assert doc["truncated"] == 1 and doc["served"] == 0
    receipt = result.receipts.receipts[0]
    assert receipt.verdict.value == "rejected" and receipt.reason == "HorizonTruncated"


def test_metrics_aggregates_match_record_recompute():
    d = mini_scenario_dict()
    d["workload"] = {
        "regions": [
            {
                "region": "metro", "rate_per_s": 4.0, "zipf_s": 0.0, "classes": ["chat"],
                "session": {"turns_g": 0.5, "prefix_tokens": 32},
                "input_tokens": {"dist": "lognormal", "mu": 3.0, "sigma": 0.6},
                "output_tokens": {"dist": "fixed", "value": 8},
                "policy_mix": [{"weight": 1.0, "min_trust": 0}],
            }
        ]
    }
    d["duration_us"] = 30_000_000
    result = run_scenario(d)
    doc = result.metrics.to_dict()
    records = doc["per_request"]
    served = [r for r in records if r["outcome"] == "served"]
    assert doc["served"] == len(served)

    from capsim.metrics import percentile, ratio_str

    latencies = [r["latency_us"] for r in served]
    assert doc["latency_us"]["p50"] == percentile(latencies, 50)
    assert doc["latency_us"]["p95"] == percentile(latencies, 95)
    assert doc["latency_us"]["mean"] == sum(latencies) // len(latencies)
    assert doc["completion_rate"] == ratio_str(len(served), len(records))
    lookups = [r for r in records if r["cache_lookup"]]
    hits = [r for r in lookups if r["cache_hit"]]
    assert doc["cache"]["tensor_state"]["lookups"] == len(lookups)
    assert doc["cache"]["tensor_state"]["hits"] == len(hits)
    busy = {}
    for r in served:
        for node, occupancy in r["stages"]:
            busy[node] = busy.get(node, 0) + occupancy
    for node, total in busy.items():
        cap = doc["node_utilization"][node]
        assert cap == ratio_str(total, doc["duration_us"] * 1)
    assert doc["core_bytes"]["requests"] == sum(r["core_bytes"] for r in served)


def test_simultaneous_cold_activations_respect_memory():
    d = mini_scenario_dict()
    # Room for exactly one artifact. Same-instant arrivals process in request
    # id order: the first reserves the memory and activates; the second sees a
    # copy that is still loading (not a candidate) and no room for another.
    d["topology"]["nodes"][0]["memory_budget_bytes"] = 1 << 30
    d["initial_placement"] = []
    d["requests"] = [
        scripted_request("q-a", arrival=1000),
        scripted_request("q-b", arrival=1000),
    ]
    result = run_scenario(d)
    by_id = {r.request_id: r for r in result.receipts.receipts}
    assert by_id["q-a"].verdict.value == "allowed"
    assert by_id["q-b"].verdict.value == "rejected"
    assert by_id["q-b"].reason == "NoFeasiblePlan"


def test_revocation_drains_queued_work_before_eviction():
    d = mini_scenario_dict()
    d["trust_script"] = {"revocations": [{"realization_id": "chat-v1-gpu", "time_us": 10_000}]}
    d["requests"] = [
        scripted_request("q0", arrival=0),
        scripted_request("q1", arrival=2_000),
        scripted_request("q2", arrival=4_000),
        scripted_request("late", arrival=20_000),
    ]
    result = run_scenario(d, trace=True)
    by_id = {r.request_id: r for r in result.receipts.receipts}
    # Work selected before the revocation drains and completes.
    for rid in ("q0", "q1", "q2"):
        assert by_id[rid].verdict.value == "allowed"
        assert by_id[rid].plan[0].realization_id == "chat-v1-gpu"
    assert by_id["late"].verdict.value == "rejected"
    assert by_id["late"].reason == "NoFeasiblePlan"
    evictions = [r for r in result.trace if r["kind"] == "placement_evict"]
    completes = [r for r in result.trace if r["kind"] == "stage_complete"]
    assert len(evictions) == 1
    # Eviction lands exactly when the last in-flight stage drains.
    assert evictions[0]["timestamp_us"] == max(c["timestamp_us"] for c in completes)


def test_byte_identical_reruns():
    d = mini_scenario_dict()
    d["workload"] = {
        "regions": [
            {
                "region": "metro", "rate_per_s": 3.0, "zipf_s": 0.0, "classes": ["chat"],
                "session": {"turns_g": 0.5, "prefix_tokens": 16},
                "input_tokens": {"dist": "fixed", "value": 40},
                "output_tokens": {"dist": "fixed", "value": 8},
                "policy_mix": [{"weight": 1.0, "min_trust": 0}],
            }
        ]
    }
    a = run_scenario(d)
    b = run_scenario(d)
    assert a.receipts.to_jsonl() == b.receipts.to_jsonl()
    assert a.metrics.to_json() == b.metrics.to_json()


def test_offline_node_excluded_until_back_online():
    d = mini_scenario_dict()
    d["topology"]["nodes"].append(
        {
            "node_id": "edge-2", "domain_id": "d1", "region": "metro", "tier": "edge",
            "accelerator": "gpu", "speed_factor": "1", "memory_budget_bytes": 8 << 30,
            "max_concurrent": 1, "admission_cap": 8, "trust": 2, "cache_capacity_bytes": 1 << 20,
        }
    )
    d["topology"]["links"].append(
        {"link_id": "l-gw-2", "src": "region:metro", "dst": "edge-2",
         "propagation_delay_us": 100, "bandwidth_bytes_per_us": "1000"}
    )
    d["initial_placement"] = [["chat-v1-gpu", "edge-1"], ["chat-v1-gpu", "edge-2"]]
    d["node_events"] = [
        {"node_id": "edge-2", "time_us": 0, "online": False},
        {"node_id": "edge-2", "time_us": 5_000_000, "online": True},
    ]
    d["requests"] = [scripted_request("q-early", arrival=1_000_000), scripted_request("q-late", arrival=6_000_000)]
    result = run_scenario(d)
    by_id = {r.request_id: r for r in result.receipts.receipts}
    assert by_id["q-early"].plan[0].node_id == "edge-1"   # edge-2 offline, despite shorter link
    assert by_id["q-late"].plan[0].node_id == "edge-2"    # back online, wins on delay


def migration_scenario_dict():
    """Two edges one link apart; turn 2 of session s1 moves its state from
    edge-1, where turn 1 left it, to edge-2."""
    d = mini_scenario_dict()
    d["topology"]["nodes"].append(
        {
            "node_id": "edge-2", "domain_id": "d1", "region": "metro", "tier": "edge",
            "accelerator": "gpu", "speed_factor": "1", "memory_budget_bytes": 8 << 30,
            "max_concurrent": 1, "admission_cap": 8, "trust": 2, "cache_capacity_bytes": 1 << 20,
        }
    )
    d["topology"]["links"].extend(
        [
            {"link_id": "l-gw-2", "src": "region:metro", "dst": "edge-2",
             "propagation_delay_us": 500, "bandwidth_bytes_per_us": "1000"},
            {"link_id": "l-e1-e2", "src": "edge-1", "dst": "edge-2",
             "propagation_delay_us": 200, "bandwidth_bytes_per_us": "1000"},
        ]
    )
    # Make edge-1 the closer node so turn 1 lands there deterministically.
    d["topology"]["links"][0]["propagation_delay_us"] = 400
    d["initial_placement"] = [["chat-v1-gpu", "edge-1"], ["chat-v1-gpu", "edge-2"]]
    session = {"session_id": "s1", "turn_index": 1, "total_turns": 2, "prefix_tokens": 64}
    d["requests"] = [
        # Turn 1 produces the 64-token session state at edge-1.
        scripted_request("t1", arrival=0, input_tokens=100, affinity_token="s1:x",
                         session={**session, "turn_index": 1}),
        # A hog occupies edge-1 long enough that turn 2 prefers edge-2.
        scripted_request("hog", arrival=30_000, input_tokens=4000, output_tokens=200),
        # Turn 2 follows the state: selecting edge-2 means migrating it over.
        scripted_request("t2", arrival=60_000, input_tokens=100, affinity_token="s1:x",
                         session={**session, "turn_index": 2}),
    ]
    return d


def test_a_migrated_copy_of_revoked_state_is_not_stored():
    # st-t1 leaves edge-1 for edge-2 at 60,100 µs and lands at 60,718 µs;
    # chat-v1-gpu, whose prefill computed it, is revoked in between.
    d = migration_scenario_dict()
    d["trust_script"] = {"revocations": [{"realization_id": "chat-v1-gpu", "time_us": 60_100}]}
    result = run_scenario(d, trace=True)
    rows = [(r["timestamp_us"], r["kind"], r.get("transfer")) for r in result.trace
            if r["kind"] in ("revoke", "cache_migrate") or r.get("transfer") == "state_migration"]
    assert rows == [(60_100, "revoke", None), (60_718, "transfer_complete", "state_migration")]
    assert not [e for store in result.caches.stores.values() for e in store.entries.values() if e.state_id == "st-t1"]


def test_cooperative_migration_moves_session_state():
    result = run_scenario(migration_scenario_dict(), trace=True)
    by_id = {r.request_id: r for r in result.receipts.receipts}
    assert by_id["t1"].plan[0].node_id == "edge-1"
    assert by_id["hog"].plan[0].node_id == "edge-1"
    t2 = by_id["t2"]
    assert t2.plan[0].node_id == "edge-2"
    # Migration beat recompute: 200 us + ceil(64 * 256 / 1000) over the
    # direct link, versus 64 * 50 us of repeated prefill.
    assert t2.t_state_us == 200 + 17
    assert t2.cache_tokens_covered == 64
    migrations = [r for r in result.trace if r["kind"] == "transfer_complete" and r.get("transfer") == "state_migration"]
    assert len(migrations) == 1
    # Cooperative consistency: the copy admitted at the destination is the
    # same state object (same id, same state key) as the source's,
    # which the turn-1 admission row pins to edge-1.
    migrate_rows = [r for r in result.trace if r["kind"] == "cache_migrate"]
    assert migrate_rows == [
        {**migrate_rows[0], "node_id": "edge-2", "src_node": "edge-1", "outcome": "Admitted", "state_id": "st-t1"}
    ]
    assert t2.cache_states_reused == ("st-t1",)
    # The session ends with its last scripted turn, dropping both copies.
    session_evictions = [r for r in result.trace if r["kind"] == "cache_evict" and r.get("reason") == "session_end"]
    assert {r["node_id"] for r in session_evictions} == {"edge-1", "edge-2"}


def test_a_lapsed_holder_hands_over_no_state():
    # edge-1, the only holder of st-t1, loses its attestation at 50,000 µs,
    # before turn 2 is routed at 60,000 µs: turn 2 prefills its whole prompt
    # on edge-2 and migrates nothing.
    d = migration_scenario_dict()
    d["trust_script"] = {
        "attestations": [{"node_id": "edge-1", "level": 2, "issue_time_us": 0, "validity_window_us": 50_000}]
    }
    result = run_scenario(d, trace=True)
    t2 = {r.request_id: r for r in result.receipts.receipts}["t2"]
    assert t2.plan[0].node_id == "edge-2"
    assert (t2.cache_states_reused, t2.cache_tokens_covered, t2.t_state_us) == ((), 0, 0)
    assert t2.t_exec_us == 1000 + 100 * 50 + 10 * 200
    assert not [r for r in result.trace if r["kind"] == "cache_migrate" or r.get("transfer") == "state_migration"]


def test_affinity_token_of_another_session_fails_validation(tmp_path, capsys):
    from capsim.cli import main

    # Routing finds holders by the token's session, admission and lookup by
    # the session id: b would be routed to s1's state and served with it.
    d = mini_scenario_dict()
    d["requests"] = [
        scripted_request("a", arrival=0, affinity_token="s1:x",
                         session={"session_id": "s1", "total_turns": 2, "prefix_tokens": 64}),
        scripted_request("b", arrival=1_000_000, affinity_token="s1:x", session={"session_id": "s2"}),
        scripted_request("c", arrival=2_000_000, affinity_token="s1:x",
                         session={"session_id": "s1", "turn_index": 2, "total_turns": 2}),
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert main(["validate", str(path)]) == 1
    paths = [line.split(" ", 1)[1].split(": ", 1)[0] for line in capsys.readouterr().err.splitlines()]
    assert paths == ["requests[1].affinity_token"]


def test_state_is_not_admitted_once_the_node_attestation_lapses():
    # edge-1 meets the request's trust floor when it is selected, but its
    # attestation lapses before the request completes, so the session state
    # it offers at completion is refused at the admission trust check.
    d = mini_scenario_dict()
    d["trust_script"] = {
        "attestations": [{"node_id": "edge-1", "level": 2, "issue_time_us": 0, "validity_window_us": 3000}]
    }
    d["requests"] = [
        scripted_request(policy={"min_trust": 2, "locality_scope": "any"}, affinity_token="s1:x",
                         session={"session_id": "s1", "total_turns": 2, "prefix_tokens": 50}),
    ]
    result = run_scenario(d, trace=True)
    assert [r.verdict.value for r in result.receipts.receipts] == ["allowed"]
    offers = [row for row in result.trace if row["kind"].startswith("cache_")]
    assert [(row["kind"], row["outcome"]) for row in offers] == [("cache_reject", REJECT_SCOPE_VIOLATION)]


def test_a_receipt_keeps_the_attestation_at_its_own_start():
    # Two requests of one plan: q-long starts before edge-1's attestation
    # lapses at 10 ms and finishes after q-short, which starts after it. Each
    # receipt holds the level at its own first stage's start, whichever
    # receipt of the plan was built first.
    d = mini_scenario_dict()
    d["topology"]["nodes"][0]["max_concurrent"] = 2
    d["trust_script"] = {
        "attestations": [{"node_id": "edge-1", "level": 2, "issue_time_us": 0, "validity_window_us": 10_000}]
    }
    d["requests"] = [
        scripted_request("q-long", arrival=0, output_tokens=1000),
        scripted_request("q-short", arrival=20_000, output_tokens=10),
    ]
    result = run_scenario(d)
    short, long = result.receipts.receipts
    assert (short.request_id, long.request_id) == ("q-short", "q-long")
    assert short.plan is long.plan
    assert (short.node_attestations, long.node_attestations) == ((("edge-1", 0),), (("edge-1", 2),))


@pytest.mark.parametrize(
    "storage_unit_cost, admits, rejects, hits",
    [("0", 14, 0, 26), ("1", 0, 40, 0)],
    ids=["free_storage", "storage_one_per_byte"],
)
def test_storage_cost_enters_the_admission_benefit(storage_unit_cost, admits, rejects, hits):
    from pathlib import Path

    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "session_heavy.json").read_text())
    doc["cache"]["storage_unit_cost"] = storage_unit_cost
    scenario = replace(Scenario.from_dict(doc), duration_us=20_000_000)
    assert scenario.validate() == []
    result = Simulation(scenario, trace=True).run()
    kinds = [row for row in result.trace if row["kind"] in ("cache_admit", "cache_reject")]
    assert sum(row["kind"] == "cache_admit" for row in kinds) == admits
    # At one cost unit per byte, a state's storage charge outweighs half the
    # prefill time a hit would save, so every offer is refused.
    assert [row["outcome"] for row in kinds if row["kind"] == "cache_reject"] == ["NegativeBenefit"] * rejects
    tensor = result.metrics.to_dict()["cache"]["tensor_state"]
    assert (tensor["lookups"], tensor["hits"]) == (40, hits)


def test_replan_matches_exhaustive_oracle_on_shipped_scenario():
    from pathlib import Path

    from capsim import deployment
    from capsim.workload import generate_arrivals

    scenario = Scenario.load(Path(__file__).resolve().parent.parent / "scenarios" / "small_place.json")
    sim = Simulation(scenario, trace=True)
    result = sim.run()

    # Reconstruct the problem the 20 s epoch solved: demand window over the
    # deterministic arrival stream, against the initial residency (the 10 s
    # epoch changed nothing).
    arrivals = generate_arrivals(scenario.workload, 20_000_000, scenario.seed)
    cells = deployment.cells_from_requests(
        [a.request for a in arrivals], 20_000_000 - scenario.deployment.window_us, 20_000_000
    )
    residency = {p.node_id: set() for p in scenario.nodes}
    for rid, node in scenario.initial_placement:
        residency[node].add(rid)
    fresh = Simulation(scenario)  # clean broker: the initial residency, every node online
    problem = deployment.build_problem(fresh.router, cells, scenario.placement_weights, residency)
    exact = deployment.solve_exact(problem)
    heuristic = deployment.solve(problem, scenario.deployment.local_search_rounds)
    h, e = deployment.objective(problem, heuristic), deployment.objective(problem, exact)
    assert e <= h <= e * 3 / 2

    # Demand concentrated in region east pulls the light realization to an
    # edge node there, and the run's actual delta agrees with the solver.
    assert ("translate-lite-gpu", "edge-east-1") in exact
    loads = [r for r in result.trace if r["kind"] == "transfer_complete" and r.get("transfer") == "artifact"]
    assert [(r["realization_id"], r["node_id"]) for r in loads] == [("translate-lite-gpu", "edge-east-1")]


def test_trimmed_arrival_history_gives_full_history_cells_at_every_replan(monkeypatch):
    from pathlib import Path

    from capsim import deployment

    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "small_place.json").read_text())
    # A window shorter than the run, so replans drop history they no longer need.
    doc["deployment"].update(epoch_us=2_000_000, window_us=6_000_000, replan_enabled=True)
    doc["duration_us"] = 40_000_000
    doc["node_events"] = [
        {"node_id": "edge-east-1", "time_us": t, "online": online}
        for start in range(6_000_000, 40_000_000, 15_000_000)
        for t, online in ((start, False), (start + 3_000_000, True))
    ]
    scenario = Scenario.from_dict(doc)
    assert scenario.validate() == []
    sim = Simulation(scenario)

    arrived = []
    select = sim.router.select

    def recording_select(request, now):
        arrived.append(request)
        return select(request, now)

    sim.router.select = recording_select
    build_problem = deployment.build_problem
    epoch_us = scenario.deployment.epoch_us
    replans = iter(range(epoch_us, scenario.duration_us, epoch_us))
    held = []

    def build_against_full_history(router, cells, *args, **kwargs):
        now = next(replans)
        start_us = now - scenario.deployment.window_us
        assert cells == deployment.cells_from_requests(arrived, start_us, now), f"replan at {now}"
        held.append((len(sim._demand), len(arrived)))
        return build_problem(router, cells, *args, **kwargs)

    monkeypatch.setattr(deployment, "build_problem", build_against_full_history)
    sim.run()
    assert len(held) == 19
    assert all(n <= total for n, total in held)
    assert held[-1][0] < held[-1][1] // 2, "history was never trimmed"


def test_replan_withdraws_placement_still_in_flight():
    d = mini_scenario_dict(duration_us=35_000_000)
    d["topology"]["nodes"][0]["memory_budget_bytes"] = 1 << 30  # exactly one artifact
    d["topology"]["nodes"].append(
        {
            "node_id": "cloud-1", "domain_id": "d1", "region": "core", "tier": "cloud",
            "accelerator": "gpu", "speed_factor": "2", "memory_budget_bytes": 32 << 30,
            "max_concurrent": 8, "admission_cap": 64, "trust": 3, "cache_capacity_bytes": 1 << 20,
        }
    )
    d["topology"]["links"].append(
        {"link_id": "l-core", "src": "edge-1", "dst": "cloud-1",
         "propagation_delay_us": 35_000, "bandwidth_bytes_per_us": "100", "is_core": True}
    )
    d["topology"]["artifact_repository"] = "cloud-1"
    d["initial_placement"] = [["chat-v1-gpu", "cloud-1"]]
    d["deployment"] = {"epoch_us": 10_000_000, "window_us": 10_000_000,
                        "replan_enabled": True, "local_search_rounds": 8}
    # A burst of demand in the first seven seconds, then silence: the 10 s
    # epoch starts pulling the realization to the edge (the 1 GiB artifact
    # takes ~11.7 s to fetch and load), and the 20 s epoch withdraws it
    # before the transfer lands.
    d["requests"] = [
        scripted_request(f"b{i:03d}", arrival=i * 20_000, input_tokens=50, output_tokens=8)
        for i in range(350)
    ]
    result = run_scenario(d, trace=True)
    replans = {r["timestamp_us"]: r for r in result.trace if r["kind"] == "epoch_replan"}
    assert replans[10_000_000]["loads"] == 1
    assert replans[20_000_000]["evictions"] >= 1
    evictions = [r for r in result.trace if r["kind"] == "placement_evict"]
    edge_eviction = [r for r in evictions if r["node_id"] == "edge-1"]
    assert edge_eviction and edge_eviction[0]["timestamp_us"] == 20_000_000
    artifact_rows = [
        r for r in result.trace
        if r["kind"] == "transfer_complete" and r.get("transfer") == "artifact" and r["node_id"] == "edge-1"
    ]
    # The transfer completion event still fires after the withdrawal; it must
    # not resurrect the residency.
    assert artifact_rows and artifact_rows[0]["timestamp_us"] > 20_000_000


@pytest.mark.parametrize(
    "code_requests, queued_replans, edge_loads",
    [
        (100, 5, 1),  # every replan up to 8 s asks for code: it loads once chat drains
        (25, 3, 0),  # the last code request is at 3.9 s: no replan after 4 s asks for it
    ],
)
def test_a_draining_node_loads_each_queued_realization_once(
    monkeypatch, code_requests, queued_replans, edge_loads
):
    """Every load counted installs a realization that was absent, however
    many replans queued it while the node drained, and a queued load that
    the latest replan no longer holds is dropped."""
    d = mini_scenario_dict(duration_us=14_000_000)
    d["topology"]["nodes"][0]["memory_budget_bytes"] = 2 << 20
    d["topology"]["nodes"].append(
        {
            "node_id": "cloud-1", "domain_id": "d1", "region": "core", "tier": "cloud",
            "accelerator": "gpu", "speed_factor": "1", "memory_budget_bytes": 1 << 30,
            "max_concurrent": 8, "admission_cap": 64, "trust": 3, "cache_capacity_bytes": 1 << 20,
        }
    )
    d["topology"]["links"].append(
        {"link_id": "l-core", "src": "edge-1", "dst": "cloud-1",
         "propagation_delay_us": 35_000, "bandwidth_bytes_per_us": "1000", "is_core": True}
    )
    d["topology"]["artifact_repository"] = "cloud-1"
    chat = d["catalog"]["classes"][0]
    chat["variants"][0]["realizations"][0].update(artifact_size_bytes=2 << 20, load_time_us=10_000)
    code = copy.deepcopy(chat)
    code["name"] = "code"
    code["variants"][0]["variant_id"] = "code-v1"
    code["variants"][0]["realizations"][0].update(realization_id="code-v1-gpu", artifact_size_bytes=1 << 20)
    d["catalog"]["classes"].append(code)
    d["initial_placement"] = [["chat-v1-gpu", "edge-1"], ["chat-v1-gpu", "cloud-1"], ["code-v1-gpu", "cloud-1"]]
    d["deployment"] = {"epoch_us": 1_000_000, "window_us": 1_000_000,
                        "replan_enabled": True, "local_search_rounds": 8}
    # Eight 1 s chat requests keep edge-1 busy until 8 s, and only edge-1 may
    # serve them. The 2 s replan evicts chat there for code, and each replan
    # that still sees code demand asks for code again while chat drains; once
    # chat is out, edge-1 has room for code twice.
    in_region = {"min_trust": 0, "locality_scope": "region"}
    d["requests"] = [
        scripted_request(f"c{i}", arrival=i * 1000, output_tokens=5000, policy=in_region) for i in range(8)
    ] + [
        scripted_request(f"k{i:03d}", arrival=1_500_000 + i * 100_000, capability_class="code")
        for i in range(code_requests)
    ]
    scenario = Scenario.from_dict(d)
    assert scenario.validate() == []
    sim = Simulation(scenario, trace=True)
    changes = []
    install, evict = Broker.install, Broker.evict

    def counted_install(broker, node_id, rid, available_at_us):
        changes.append(rid not in broker.node(node_id).residency)
        install(broker, node_id, rid, available_at_us)

    def counted_evict(broker, node_id, rid):
        changes.append(rid in broker.node(node_id).residency)
        evict(broker, node_id, rid)

    monkeypatch.setattr(Broker, "install", counted_install)
    monkeypatch.setattr(Broker, "evict", counted_evict)
    result = sim.run()
    replans = [r for r in result.trace if r["kind"] == "epoch_replan" and r["loads"]]
    assert len(replans) >= queued_replans, "the load was not queued across epochs"
    assert all(changes)
    assert sim.metrics.placement_churn == len(changes)
    loads = [r for r in result.trace if r.get("transfer") == "artifact" and r["node_id"] == "edge-1"]
    assert len(loads) == edge_loads


def test_replan_delta_is_empty_under_steady_demand():
    from pathlib import Path

    scenario = Scenario.load(Path(__file__).resolve().parent.parent / "scenarios" / "small_place.json")
    scenario = replace(scenario, duration_us=40_000_000)
    assert scenario.validate() == []
    sim = Simulation(scenario, trace=True)
    result = sim.run()
    replans = [r for r in result.trace if r["kind"] == "epoch_replan"]
    assert [r["timestamp_us"] for r in replans] == [10_000_000, 20_000_000, 30_000_000]
    # Demand builds to the point of one edge placement, then holds steady.
    assert (replans[1]["loads"], replans[1]["evictions"]) == (1, 1)
    assert (replans[2]["loads"], replans[2]["evictions"]) == (0, 0)


def test_revocation_evicts_placements_and_dependent_states():
    from fractions import Fraction

    from capsim.caching import CacheEntry

    d = mini_scenario_dict()
    d["topology"]["nodes"].append(
        {
            "node_id": "edge-2", "domain_id": "d1", "region": "metro", "tier": "edge",
            "accelerator": "gpu", "speed_factor": "1", "memory_budget_bytes": 8 << 30,
            "max_concurrent": 1, "admission_cap": 8, "trust": 2, "cache_capacity_bytes": 1 << 20,
        }
    )
    d["topology"]["links"].append(
        {"link_id": "l-gw-2", "src": "region:metro", "dst": "edge-2",
         "propagation_delay_us": 500, "bandwidth_bytes_per_us": "1000"}
    )
    d["initial_placement"] = [["chat-v1-gpu", "edge-1"], ["chat-v1-gpu", "edge-2"]]
    d["trust_script"] = {"revocations": [{"realization_id": "chat-v1-gpu", "time_us": 1_000_000}]}
    scenario = Scenario.from_dict(d)
    assert scenario.validate() == []
    sim = Simulation(scenario, trace=True)
    # Three dependent states planted before the run: two on edge-1, one on edge-2.
    for i, node in enumerate(("edge-1", "edge-1", "edge-2")):
        sim.caches.store(node).admit(
            CacheEntry(f"dep-{i}", f"h-{i}", 100, f"sess-{i}", 10_000, token_count=10, source_realization="chat-v1-gpu"),
            (1, 2),
            now=0,
            node_trust=2,
        )
    result = sim.run()
    placement_evictions = [r for r in result.trace if r["kind"] == "placement_evict"]
    assert {(r["node_id"], r["realization_id"]) for r in placement_evictions} == {
        ("edge-1", "chat-v1-gpu"),
        ("edge-2", "chat-v1-gpu"),
    }
    invalidations = [r for r in result.trace if r["kind"] == "cache_evict" and r.get("reason") == "revoked"]
    assert sorted(r["state_id"] for r in invalidations) == ["dep-0", "dep-1", "dep-2"]
    # After the revocation nothing can serve the class.
    late = scripted_request("late", arrival=2_000_000)
    d2 = dict(d)
    d2["requests"] = [late]
    rerun = run_scenario(d2)
    receipt = rerun.receipts.receipts[-1]
    assert receipt.verdict.value == "rejected" and receipt.reason == "NoFeasiblePlan"


def revoked_mid_turn_scenario() -> Scenario:
    """session_heavy cut to 3 s, with chat-small-gpu revoked at 1,410,000 µs,
    while metro-000002 reuses st-metro-000001 on edge-1."""
    doc = json.loads((ROOT / "scenarios" / "session_heavy.json").read_text())
    doc["duration_us"] = 3_000_000
    doc["trust_script"] = {"revocations": [{"realization_id": "chat-small-gpu", "time_us": 1_410_000}]}
    scenario = Scenario.from_dict(doc)
    assert scenario.validate() == []
    return scenario


def test_a_revoked_state_in_use_is_removed_when_its_turn_finishes():
    # In session_heavy, metro-000002 reuses st-metro-000001 on edge-1 from
    # 1,405,135 to 1,417,288 µs. The revocation between the two keeps the
    # pinned entry stored; the turn's finish releases the last pin and
    # removes it. The realization drains from edge-1 at the turn's stage
    # completion, which a quiet run pushes because the scenario revokes.
    scenario = revoked_mid_turn_scenario()
    for trace in (False, True):
        sim = Simulation(scenario, trace=trace).run()
        turn = next(r for r in sim.receipts.receipts if r.request_id == "metro-000002")
        assert turn.cache_states_reused == ("st-metro-000001",)
        assert turn.arrival_time < 1_410_000 < turn.finish_time == 1_417_288
        assert not [e for store in sim.caches.stores.values() for e in store.entries.values()
                    if e.state_id == "st-metro-000001"]
        assert not [n for n, state in sim.broker.nodes.items() if "chat-small-gpu" in state.residency]
    evicted = [(r["timestamp_us"], r["node_id"], r["reason"]) for r in sim.trace
               if r["kind"] == "cache_evict" and r["state_id"] == "st-metro-000001"]
    assert evicted == [(turn.finish_time, "edge-1", "revoked")]


def test_a_finishing_turn_offers_no_state_from_a_revoked_realization(monkeypatch):
    # metro-000002's finish removes the revoked state it reused; what its
    # prefill computed comes from the same revoked realization, so it is
    # not offered in its place.
    admitted = []
    admit = StateStore.admit

    def recording(self, entry, p_hit, now, **trust):
        admitted.append((now, entry.state_id, entry.source_realization))
        return admit(self, entry, p_hit, now, **trust)

    monkeypatch.setattr(StateStore, "admit", recording)
    sim = Simulation(revoked_mid_turn_scenario(), trace=True)
    offers = record_offers(sim)
    sim.run()
    assert "metro-000002" in offers
    assert admitted and all(source != "chat-small-gpu" for now, _, source in admitted if now >= 1_410_000)
    rows = [(r["kind"], r["state_id"], r.get("reason")) for r in sim.trace
            if r["timestamp_us"] == 1_417_288 and r["kind"].startswith("cache_")]
    assert rows == [("cache_evict", "st-metro-000001", "revoked")]


def record_offers(sim: Simulation) -> list[str]:
    """The ids of the turns ``sim`` offers session state for, as it runs."""
    offers = []
    offer = sim._offer_session_state

    def recording(now, arrival, scored):
        offers.append(arrival.request.request_id)
        offer(now, arrival, scored)

    sim._offer_session_state = recording
    return offers


def split_session_scenario_dict():
    """A session whose first turn runs whole on hpu-1 and leaves its state
    there; its second turn reuses that state for a prefill on hpu-1 and
    decodes on edge-1. The KV handoff (8 KiB a token) is too slow for a
    one-token decode, and a 100-token decode on hpu-1 too slow for turn 2."""
    d = mini_scenario_dict()
    d["topology"]["nodes"].append(
        {
            "node_id": "hpu-1", "domain_id": "d1", "region": "metro", "tier": "edge",
            "accelerator": "hpu", "speed_factor": "1", "memory_budget_bytes": 8 << 30,
            "max_concurrent": 1, "admission_cap": 8, "trust": 2, "cache_capacity_bytes": 1 << 20,
        }
    )
    d["topology"]["links"].append(
        {"link_id": "l-gw-hpu", "src": "region:metro", "dst": "hpu-1",
         "propagation_delay_us": 500, "bandwidth_bytes_per_us": "1000"}
    )
    d["catalog"]["classes"][0]["variants"][0]["realizations"] = [
        {
            "realization_id": "duo-prefill", "accelerator": "hpu",
            "artifact_size_bytes": 1 << 30, "load_time_us": 1_000_000,
            "prefill_time_per_token_us": 10, "decode_time_per_token_us": 2000,
            "setup_time_us": 100, "kv_bytes_per_token": 8192,
        },
        {
            "realization_id": "duo-decode", "accelerator": "gpu",
            "artifact_size_bytes": 1 << 30, "load_time_us": 1_000_000,
            "prefill_time_per_token_us": 500, "decode_time_per_token_us": 100,
            "setup_time_us": 100, "kv_bytes_per_token": 64,
        },
    ]
    d["initial_placement"] = [["duo-prefill", "hpu-1"], ["duo-decode", "edge-1"]]
    session = {"session_id": "s1", "turn_index": 1, "total_turns": 2, "prefix_tokens": 64}
    d["requests"] = [
        scripted_request("t1", input_tokens=400, output_tokens=1, affinity_token="s1:x", session=session),
        scripted_request("t2", arrival=100_000, input_tokens=400, output_tokens=100, affinity_token="s1:x",
                         session={**session, "turn_index": 2}),
    ]
    return d


def test_a_split_turn_offers_its_state_to_its_decode_node():
    # The reused state is stored on the prefill node, not on the decode node
    # that serves the turn, so the finish still offers the state there.
    sim = Simulation(Scenario.from_dict(split_session_scenario_dict()), trace=True, audit=True)
    offers = record_offers(sim)
    sim.run()
    scored = dict(sim.audit)
    assert [(s.node_id, s.phase.value) for s in scored["t2"].stages] == [("hpu-1", "prefill"), ("edge-1", "decode")]
    assert scored["t2"].state_use.entry_node == "hpu-1"  # held on its prefill node: nothing migrates
    assert offers == ["t1", "t2"]
    admits = [(r["node_id"], r["state_id"]) for r in sim.trace if r["kind"] == "cache_admit"]
    assert admits == [("hpu-1", "st-t1"), ("edge-1", "st-t2")]


def test_a_migrated_state_turn_still_offers_its_state():
    # Turn 2 pins the state on edge-1 and is served on edge-2, where the
    # migrated copy is: the finish offers, and finds that copy.
    sim = Simulation(Scenario.from_dict(migration_scenario_dict()), audit=True)
    offers = record_offers(sim)
    sim.run()
    scored = dict(sim.audit)["t2"]
    assert (scored.state_use.entry_node, scored.stages[0].node_id) == ("edge-1", "edge-2")
    assert "t2" in offers


@pytest.mark.parametrize("name", ["session_heavy", "trust_churn"])
def test_a_turn_that_reused_state_on_its_serving_node_makes_no_offer(name):
    # The store of the node that serves a turn's last stage still holds the
    # state the turn reused, so an offer of it would find it there.
    sim = Simulation(Scenario.load(ROOT / "scenarios" / f"{name}.json"), audit=True)
    offers = record_offers(sim)
    sim.run()
    finished = {r.request_id for r in sim.receipts.receipts if r.reason != "HorizonTruncated"}
    reused_there = [rid for rid, s in sim.audit
                    if s.state_use is not None and s.state_use.entry_node == s.stages[-1].node_id]
    assert set(reused_there) & finished
    expected = [rid for rid, _ in sim.audit if rid in finished and rid not in reused_there]
    assert sorted(offers) == sorted(expected)


def test_sessions_workload_admits_as_often_as_before(monkeypatch):
    calls = []
    admit = StateStore.admit

    def counted(self, *args, **kwargs):
        calls.append(self.node_id)
        return admit(self, *args, **kwargs)

    monkeypatch.setattr(StateStore, "admit", counted)
    Simulation(Scenario.from_dict(workloads.WORKLOADS["sessions"][0](ROOT, 1))).run()
    assert len(calls) == 144


def test_served_requests_never_exceed_budget():
    from fractions import Fraction

    d = mini_scenario_dict()
    # Tight-ish budget: some arrivals reject once the queue builds, and every
    # served receipt's realized cost honors the cap.
    budget = 25_000
    d["requests"] = [
        scripted_request(f"q{i:02d}", arrival=i * 2000, budget=budget) for i in range(20)
    ]
    result = run_scenario(d)
    doc = result.metrics.to_dict()
    assert doc["rejected"] > 0
    served_ids = {r["request_id"] for r in doc["per_request"] if r["outcome"] == "served"}
    assert served_ids
    for receipt in result.receipts.receipts:
        if receipt.request_id in served_ids:
            # Scenario weights: alpha..delta 1, epsilon/zeta 0.
            realized = Fraction(
                receipt.t_net_us + receipt.t_queue_us + receipt.t_exec_us + receipt.t_state_us
            )
            assert realized <= budget, (receipt.request_id, realized)


def test_sustained_load_balances_identical_nodes():
    from collections import Counter
    from pathlib import Path

    scenario = Scenario.load(Path(__file__).resolve().parent.parent / "scenarios" / "overload.json")
    result = Simulation(scenario).run()
    counts = Counter(s.node_id for r in result.receipts.receipts for s in r.plan)
    assert abs(counts["edge-a"] - counts["edge-b"]) <= 2
    # Rejection aggregates recompute from the per-request records.
    doc = result.metrics.to_dict()
    by_reason = Counter(r["reason"] for r in doc["per_request"] if r["outcome"] == "rejected")
    assert doc["rejections_by_reason"] == dict(by_reason)


def test_receipts_serialize_with_stable_field_names():
    d = mini_scenario_dict()
    d["requests"] = [scripted_request("q1")]
    result = run_scenario(d)
    line = result.receipts.to_jsonl().strip()
    doc = json.loads(line)
    assert set(doc) == {
        "request_id", "plan", "capability_versions", "node_attestations",
        "cache_states_reused", "cache_tokens_covered", "verdict", "reason",
        "timing", "arrival_time", "finish_time",
    }
    assert set(doc["timing"]) == {"t_net_us", "t_queue_us", "t_exec_us", "t_state_us", "c_load", "p_policy"}


# Events a run pops, quiet and traced. Trace-only events (a stage's dispatch,
# the inbound, KV and artifact transfers, telemetry) are pushed only when
# tracing; pushing the artifact event on every run popped one more on
# small_place and three more on replan_churn. Both replan, so a stage's
# completion can end a drain there. sessions neither replans nor revokes, so
# its quiet run pushes no completions: 2,044 fewer pops than when it did. A
# session end runs at once when no event is due at its instant: as an event,
# each of these popped next (1,246, 18,980 and 4,218 quiet pops).
@pytest.mark.parametrize(
    "name, quiet, traced, inline",
    [("small_place", 935, 1564, 311), ("replan_churn", 14149, 23573, 4831), ("sessions", 4104, 10242, 114)],
)
def test_event_pops_pin_the_trace_only_events(name, quiet, traced, inline, monkeypatch):
    popped = []
    ended = []

    def heappop(events):
        event = heapq.heappop(events)
        popped.append((event[0], event[2].__name__))
        return event

    on_session_end = Simulation._on_session_end

    @functools.wraps(on_session_end)
    def counted(self, now, session_id):
        ended.append(session_id)
        on_session_end(self, now, session_id)

    monkeypatch.setattr(engine, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
    monkeypatch.setattr(Simulation, "_on_session_end", counted)
    runs = {}
    for trace in (False, True):
        popped.clear()
        ended.clear()
        if name in workloads.WORKLOADS:
            scenario = Scenario.from_dict(workloads.WORKLOADS[name][0](ROOT, 1))
        else:
            scenario = Scenario.load(ROOT / "scenarios" / f"{name}.json")
        Simulation(scenario, trace=trace).run()
        runs[trace] = list(popped)
        assert len(ended) - sum(handler == "_on_session_end" for _, handler in popped) == inline
    assert (len(runs[False]), len(runs[True])) == (quiet, traced)
    # A trace-only event's handler is the trace sink's ``row``; on a run that
    # cannot drain, the completions are read by the trace alone.
    drains = scenario.deployment.replan_enabled or bool(scenario.revocations)
    unread = {"row"} if drains else {"row", "_on_stage_complete"}
    assert all(handler not in unread for _, handler in runs[False])
    assert "_on_stage_complete" in {handler for _, handler in runs[True]}
    # Leaving them out keeps every other event in its place.
    assert [e for e in runs[True] if e[1] not in unread] == runs[False]


def test_a_session_end_waits_for_the_events_due_at_its_instant():
    d = mini_scenario_dict()
    twin = copy.deepcopy(d["topology"]["nodes"][0])
    twin["node_id"] = "edge-2"
    d["topology"]["nodes"].append(twin)
    d["topology"]["links"].append(
        {"link_id": "l-gw2", "src": "region:metro", "dst": "edge-2",
         "propagation_delay_us": 500, "bandwidth_bytes_per_us": "1000"}
    )
    d["initial_placement"].append(["chat-v1-gpu", "edge-2"])
    d["requests"] = [scripted_request("q1"), scripted_request("q2")]
    result = run_scenario(d, trace=True)
    (a, b) = result.receipts.receipts
    assert {a.plan[0].node_id, b.plan[0].node_id} == {"edge-1", "edge-2"}
    assert a.finish_time == b.finish_time
    # The first turn ends while the second's finish is due at the same
    # instant, so its session end is pushed and pops after that finish.
    rows = [(row["kind"], row.get("transfer"), row.get("request_id", row.get("session_id"))) for row in result.trace]
    order = [r for r in rows if r[0] == "session_end" or r[1] == "response"]
    assert order == [
        ("transfer_complete", "response", a.request_id),
        ("transfer_complete", "response", b.request_id),
        ("session_end", None, a.request_id),
        ("session_end", None, b.request_id),
    ]
