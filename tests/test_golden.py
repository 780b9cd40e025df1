"""Golden output digests for every shipped scenario.

Each entry is the sha256 of the ``metrics.json``, ``receipts.jsonl`` and
``trace.csv`` bytes that ``capsim run --out --trace`` writes for the scenario
at its own seed and duration. A change that alters output on purpose updates
the digests here and gives the reason in CHANGES.md.

``audit`` takes about 10 s to run, so its digest is checked inside acceptance
criterion 2, which runs it anyway (``audit=True`` leaves these bytes unchanged).

``small_place`` replans only twice in its 30 s, so ``REPLAN_HEAVY`` also pins
an inline variant of it that replans every 2 s under node and trust churn.
No shipped scenario fills a session cache, so ``EVICTION_HEAVY`` pins one that
does: ring-linked edges whose caches hold about one session state each, so
admissions displace residents and states migrate between edges. No shipped
scenario rejects a request at dispatch, so ``TRUST_LAPSE`` pins a
``trust_churn`` whose attestation lapses between one request's selection and
the start of its first stage. ``EVICTION_HEAVY`` displaces residents only by
migration, so ``OFFER_DISPLACE`` pins a ``session_heavy`` in which the state
that a finishing turn offers displaces them too.

``WORKLOAD_DIGESTS`` pins the digest perfbench prints (``sha256=``) for each
of its workloads at seed 1, so that a run of the benchmark checks nothing a
test does not.

Two relations over whole runs sit here too: a run is a prefix of a run twice
as long, and no record that is not frozen, per request or built once, is
written after it is built.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from capsim.caching import CacheDecision
from capsim.cli import main
from capsim.deployment import DemandCell, PlacementPair, PlacementWeights
from capsim.descriptors import (
    CapabilityDescriptor,
    CapabilityRealization,
    CapabilityVariant,
    ExecutionReceipt,
    RequestDescriptor,
    ResourceProfile,
    SecurityLabel,
    Verdict,
)
from capsim.engine import Simulation
from capsim.metrics import ratio_str
from capsim.registry import CandidateTable
from capsim.routing import ExecutionPlan, Rejection, RoutingWeights, ScoredPlan, StageProjection, StateUse, _Row
from capsim.scenario import CacheConfig, DeploymentConfig, NodeEvent, Revocation, Scenario
from capsim.topology import Domain, Link
from capsim.trust import AttestationRecord
from capsim.workload import Arrival, PolicyTemplate, RegionWorkload, TokenDist, generate_arrivals
from conftest import capsim_records

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's generators and output check, imported only)
from check import check_outputs  # noqa: E402

GOLDEN = {
    "audit": (
        "3798374579c07866a7e1f1ff55d0dfd486a646841aa4a1c11f05c5175214a7a5",
        "cf51828dea1cac6899e7d3d8a4197cc055e5906fb31fce8129e3468d50082c02",
        "970249f17cae8d1827923595fa6d3638a616f50b1548924b04b0be840c6875bf",
    ),
    "locality": (
        "7c92333c2fc0f1cf1857dd78aefff22967993ded71a5c50de20b9d4188b45828",
        "b3f47a96f9f20e3f00938d7ba843d6ff17aa73028f19b5ddd3054804092f2929",
        "8efba76bb4728154f5ca0446e0ada15a89473179e2ba808ca13d588fe2c539fd",
    ),
    "overload": (
        "4d904856da28368ba8b353e8fc42edd41b5e3e5513987209904d26543ed07ea6",
        "804bb6d420ba39f7d56f82a164f0667b9344e0d11dba4569031b63c3d5ede014",
        "01571b59055438716a0fdc41698f95532c68cff8424f1b326aeb6690a550d619",
    ),
    "session_heavy": (
        "2c294b716932aa10d4b8450212f430dd85141b47860cebc7c1ae750a63fc6bdd",
        "c997dabc0ee2807534682ec0f2c468a7667367d4225c97f49a0e44053fd43549",
        "6a86f14da11086d64b03cc009241404fe792605ad6f1c1ff0b49c2c73669cace",
    ),
    "small_place": (
        "5f87831ec6671a86dc08174f9f990db23565853596c3480e6bc64813cdda1a7e",
        "523f55de2d2cee9b1f76eeac64005600c5885dc46204eec128ca6ab206b7c5aa",
        "c92cd551d13cf01233561465d813623dbb99196380cd83805d9a6e9cbc3b6cf7",
    ),
    "trust_churn": (
        "458f810476dac985dc9076cee824577b13fb796e2a363dd9c2bf0d612404325a",
        "828aa63c5482f3ce14e7b2118c99efe4eff4259fcdfb88d822364ab5223669ca",
        "cb8c54895766f98c25d30c0c916d192f58ca759763309db9a674c394349561d9",
    ),
}


# small_place replanning every 2 s: edge-east-1 goes offline for 3 s in every
# 15 s, and its attestation lapses half-way through the run.
REPLAN_HEAVY = (
    "7d3445f6f88b4d312f81ee19124aec54a7d30a7c7b39b1f467d3a131a3aa206a",
    "98c96349e5ba05676821f93eb2b168403fa11cd9a2e21e07b3c1338775fce482",
    "40757dea030f1f7faab36c238a1e6750c70a36ec620a1a2503be5aae77f291cd",
)


def replan_heavy_scenario() -> dict:
    doc = json.loads((SCENARIOS / "small_place.json").read_text())
    duration = 30_000_000
    doc["deployment"].update(epoch_us=2_000_000, replan_enabled=True)
    doc["workload"]["regions"][0]["rate_per_s"] = 40.0
    doc["node_events"] = [
        {"node_id": "edge-east-1", "time_us": t, "online": online}
        for start in range(6_000_000, duration, 15_000_000)
        for t, online in ((start, False), (start + 3_000_000, True))
    ]
    doc["trust_script"] = {
        "attestations": [
            {"node_id": "edge-east-1", "level": 2, "issue_time_us": 0, "validity_window_us": duration // 2}
        ]
    }
    doc.update(name="replan-heavy", duration_us=duration)
    return doc


# session_heavy's edge cloned into 8 ring-linked edges, one region each, with
# long 1024-token-prefix sessions and a 512 KiB cache on every node: one
# chat-small state (1024 tokens x 512 bytes) fills it.
EVICTION_HEAVY = (
    "0f02361b1f8f812fe62ed841357778ca7fc4e03240da9750cc7c2f6954fc059d",
    "30b049f441addbb291c070fe7440de9e78037dc3dbedaee733520a2f22b4ec83",
    "59026c50e5b23f34f12b556f8dc11ba08384b3740f43908ea1a47c35a036d88e",
)
EVICTION_EDGES = 8


def eviction_heavy_scenario() -> dict:
    doc = json.loads((SCENARIOS / "session_heavy.json").read_text())
    topo = doc["topology"]
    by_id = {n["node_id"]: n for n in topo["nodes"]}
    links = {l["link_id"]: l for l in topo["links"]}
    gw, ring, core = links["l-gw-e1"], links["l-e1-e2"], links["l-e1-c"]
    names = [f"edge-{i}" for i in range(1, EVICTION_EDGES + 1)]
    topo["nodes"] = [dict(by_id["edge-1"], node_id=e, region=f"metro-{i}") for i, e in enumerate(names, 1)]
    topo["nodes"].append(by_id["cloud-1"])
    for node in topo["nodes"]:
        node["cache_capacity_bytes"] = 524_288
    topo["links"] = []
    for i, e in enumerate(names, 1):
        nxt = names[i % EVICTION_EDGES]
        topo["links"] += [
            dict(gw, link_id=f"l-gw-{e}", src=f"region:metro-{i}", dst=e),
            dict(ring, link_id=f"l-{e}-{nxt}", src=e, dst=nxt),
            dict(core, link_id=f"l-{e}-c", src=e),
        ]
    doc["initial_placement"] = [["chat-small-gpu", n] for n in names + ["cloud-1"]] + [["chat-large-gpu", "cloud-1"]]
    doc["routing"] = {"enable_split": False}
    template = doc["workload"]["regions"][0]
    doc["workload"]["regions"] = [
        dict(template, region=f"metro-{i}", rate_per_s=10.0, session={"turns_g": 0.05, "prefix_tokens": 1024})
        for i in range(1, EVICTION_EDGES + 1)
    ]
    doc.update(name="eviction-heavy", seed=1, duration_us=10_000_000)
    return doc


# trust_churn with edge-1's attestation lapsing at 7,056,440 µs, after
# metro-000045 is routed to edge-1 and before its stage starts there: the
# dispatch-time verdict rejects it TrustExpired. The broker's kept hits stop
# holding at that instant too.
TRUST_LAPSE = (
    "8471d1f976575ba4f26d2f247c76eb3fb18a33f52cd5855cb1567d7264952bbb",
    "c5365b98f313dae3bbb75d40caae54407746631a1dee1573b5c01318b3cb3f04",
    "86a10b81f4c7eb7d3b20d5013921f08bdc0690730fc82947381172380807b739",
)


def trust_lapse_scenario() -> dict:
    doc = json.loads((SCENARIOS / "trust_churn.json").read_text())
    for attestation in doc["trust_script"]["attestations"]:
        if attestation["node_id"] == "edge-1":
            attestation["validity_window_us"] = 7_056_440
    doc.update(name="trust-lapse")
    return doc


# session_heavy with a second region, metro-2 (edge-2's), whose sessions ask
# for chat-large, which edge-1 also hosts, and a 256 KiB cache on every node:
# one chat-large state (256 tokens x 1024 bytes) or two chat-small ones. A
# chat-large state is worth more per byte than a chat-small one, so a state
# that a finishing turn offers displaces residents; EVICTION_HEAVY displaces
# only by migration.
OFFER_DISPLACE = (
    "6b7f46914990999e2bdd8c0ba39133878e8ac09f0eb4d71df11f330de515fa94",
    "1b2942abf90966c47da211d2a374c4e7b2c830b39a9ddc2b769e6aa8f4f3343f",
    "ccf141d9a5dbad3b263a6c8b08b36c9da38eba6ec1795fa84bf6b7319fb018d8",
)


def offer_displace_scenario() -> dict:
    doc = json.loads((SCENARIOS / "session_heavy.json").read_text())
    topo = doc["topology"]
    for node in topo["nodes"]:
        node["cache_capacity_bytes"] = 262_144
        if node["node_id"] == "edge-1":
            node["memory_budget_bytes"] = 16 << 30
        elif node["node_id"] == "edge-2":
            node["region"] = "metro-2"
    topo["links"] += [
        dict(link, link_id=f"{link['link_id']}-2", src="region:metro-2")
        for link in topo["links"]
        if link["src"] == "region:metro"
    ]
    doc["initial_placement"].append(["chat-large-gpu", "edge-1"])
    metro = doc["workload"]["regions"][0]
    large = dict(metro["policy_mix"][0], quality_target=2)
    doc["workload"]["regions"].append(dict(metro, region="metro-2", policy_mix=[large]))
    doc.update(name="offer-displace")
    return doc


def output_digests(out_dir: Path, names=("metrics.json", "receipts.jsonl", "trace.csv")) -> tuple[str, ...]:
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names)


def test_every_shipped_scenario_has_a_digest():
    assert set(GOLDEN) == {path.stem for path in SCENARIOS.glob("*.json")}


@pytest.mark.parametrize("name", sorted(set(GOLDEN) - {"audit"}))
def test_run_output_matches_golden_digest(name, tmp_path):
    assert main(["run", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path), "--trace"]) == 0
    assert output_digests(tmp_path) == GOLDEN[name]


# The inline variants of shipped scenarios, and their digests.
VARIANTS = {
    "replan_heavy": (replan_heavy_scenario, REPLAN_HEAVY),
    "eviction_heavy": (eviction_heavy_scenario, EVICTION_HEAVY),
    "trust_lapse": (trust_lapse_scenario, TRUST_LAPSE),
    "offer_displace": (offer_displace_scenario, OFFER_DISPLACE),
}


@pytest.mark.parametrize("name", sorted(set(GOLDEN) - {"audit"}) + sorted(VARIANTS))
def test_untraced_run_writes_the_golden_metrics_and_receipts(name, tmp_path):
    # Events that only write trace rows are not scheduled without --trace.
    if name in VARIANTS:
        make, digests = VARIANTS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(make()))
    else:
        path, digests = SCENARIOS / f"{name}.json", GOLDEN[name]
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert not (out / "trace.csv").exists()
    assert output_digests(out, ("metrics.json", "receipts.jsonl")) == digests[:2]


def test_replan_heavy_output_matches_golden_digest(tmp_path):
    path = tmp_path / "replan_heavy.json"
    path.write_text(json.dumps(replan_heavy_scenario()))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--trace"]) == 0
    assert json.loads((out / "metrics.json").read_text())["placement_churn"] > 0
    assert output_digests(out) == REPLAN_HEAVY


def test_eviction_heavy_output_matches_golden_digest(tmp_path):
    path = tmp_path / "eviction_heavy.json"
    path.write_text(json.dumps(eviction_heavy_scenario()))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--trace"]) == 0
    rows = list(csv.DictReader((out / "trace.csv").open()))
    assert any(r["kind"] == "cache_evict" and "reason=displaced" in r["detail"] for r in rows)
    assert any(r["kind"] == "cache_migrate" and "outcome=Admitted" in r["detail"] for r in rows)
    assert output_digests(out) == EVICTION_HEAVY


def test_trust_lapse_output_matches_golden_digest(tmp_path):
    path = tmp_path / "trust_lapse.json"
    path.write_text(json.dumps(trust_lapse_scenario()))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--trace"]) == 0
    receipts = [json.loads(line) for line in (out / "receipts.jsonl").read_text().splitlines()]
    expired = [(r["request_id"], r["verdict"]) for r in receipts if r["reason"] == "TrustExpired"]
    assert expired == [("metro-000045", "rejected")]
    assert output_digests(out) == TRUST_LAPSE


def test_offer_displace_output_matches_golden_digest(tmp_path):
    path = tmp_path / "offer_displace.json"
    path.write_text(json.dumps(offer_displace_scenario()))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--trace"]) == 0
    rows = list(csv.DictReader((out / "trace.csv").open()))
    # A displaced row follows the admission, or the migration, that displaced it.
    kinds = [r["kind"] for r in rows if r["kind"] in ("cache_admit", "cache_migrate")
             or (r["kind"] == "cache_evict" and "reason=displaced" in r["detail"])]
    assert ("cache_admit", "cache_evict") in zip(kinds, kinds[1:])
    assert output_digests(out) == OFFER_DISPLACE


def _attest_mid_run(sim: Simulation) -> None:
    """Attest ``edge-1`` at level 3 from the first arrival at or after 5 s,
    between two events, as library code holding the simulation may."""
    on_arrival, added = sim._on_arrival, []

    def attesting(now, arrival):
        if not added and now >= 5_000_000:
            sim.trust.attest(AttestationRecord("edge-1", 3, now, None))
            added.append(now)
        on_arrival(now, arrival)

    sim._on_arrival = attesting


TRUST_RUNS = {
    "trust_churn": (lambda: json.loads((SCENARIOS / "trust_churn.json").read_text()), None),
    "trust_lapse": (trust_lapse_scenario, None),
    "trust_churn_attested": (lambda: json.loads((SCENARIOS / "trust_churn.json").read_text()), _attest_mid_run),
    "replan_churn": (lambda: workloads.WORKLOADS["replan_churn"][0](ROOT, 1), None),
}


# The engine keeps each plan's receipt attestations while no stage node's
# attestation starts or lapses around the first stage's start, and no
# attestation is added; re-deriving them for each receipt must agree.
@pytest.mark.parametrize("name", sorted(TRUST_RUNS))
def test_receipt_attestations_match_a_fresh_derivation(name):
    make, prepare = TRUST_RUNS[name]
    sim = Simulation(Scenario.from_dict(make()), trace=True)
    if prepare is not None:
        prepare(sim)
    sim.run()
    starts: dict[str, int] = {}
    for row in sim.trace:
        if row["kind"] == "dispatch":
            starts.setdefault(row["request_id"], row["timestamp_us"])
    lineage = sim.trust.lineage_for
    shared: dict[tuple, tuple] = {}
    served = [r for r in sim.receipts.receipts if r.verdict is not Verdict.REJECTED]
    assert served
    for receipt in served:
        start = starts[receipt.request_id]
        stages = receipt.plan
        expected = tuple(sorted({(s.node_id, sim.trust.effective_trust(s.node_id, start)) for s in stages}))
        assert receipt.node_attestations == expected, receipt.request_id
        assert receipt.capability_versions == tuple(
            sorted({(s.realization_id, lineage(s.realization_id)) for s in stages})
        )
        # Receipts of one plan with equal attestations share one tuple.
        assert shared.setdefault((stages, expected), receipt.node_attestations) is receipt.node_attestations


def verdict_calls(name: str) -> tuple[dict[str, int], list[str]]:
    """A traced run of ``TRUST_RUNS[name]``: the trust floor of each request
    that a select found a plan for, and the requests the dispatch-time
    verdict was asked about."""
    make, _ = TRUST_RUNS[name]
    sim = Simulation(Scenario.from_dict(make()), trace=True)
    floors: dict[str, int] = {}
    judged: list[str] = []
    select, verdict = sim.router.select, sim.trust.verdict

    def selecting(request, now):
        scored = select(request, now)
        if not isinstance(scored, Rejection):
            floors[request.request_id] = request.policy.min_trust
        return scored

    def judging(request, plan, now):
        judged.append(request.request_id)
        return verdict(request, plan, now)

    sim.router.select, sim.trust.verdict = selecting, judging
    sim.run()
    return floors, judged


@pytest.mark.parametrize("name", ["trust_churn", "trust_lapse", "replan_churn"])
def test_every_request_with_a_trust_floor_reaches_the_verdict(name):
    floors, judged = verdict_calls(name)
    floored = {rid for rid, floor in floors.items() if floor > 0}
    assert floored
    assert floored <= set(judged)


def test_a_request_without_a_trust_floor_skips_the_verdict():
    # replan_churn mixes requests with and without a floor; a floor of 0
    # passes whatever trust a node has, and a select at the same instant
    # leaves no revocation for the verdict to find.
    floors, judged = verdict_calls("replan_churn")
    assert 0 in floors.values()
    assert judged == [rid for rid, floor in floors.items() if floor > 0]


# perfbench's sha256= for each of its workloads at seed 1.
WORKLOAD_DIGESTS = {
    "fanout17": "2c91dbe5973c89ded382333b53449b3f7588b147980a96e937798c12f7f175a9",
    "sessions": "b247a68a0686a183f4cbb352a2a594c94f87d8104af31cf02178ade86982941b",
    "replan_churn": "ea5ab86c0f3fa33e1a35005f82333c3c8f0627e36d7746b7819725a38d523b16",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workload_output_matches_its_digest(name, tmp_path):
    generate, with_trace = workloads.WORKLOADS[name]
    doc = generate(ROOT, 1)
    scenario = Scenario.from_dict(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)] + (["--trace"] if with_trace else [])) == 0
    arrivals = len(generate_arrivals(scenario.workload, scenario.duration_us, scenario.seed))
    digest, _ = check_outputs(out, arrivals + len(scenario.scripted_requests), with_trace)
    assert digest == WORKLOAD_DIGESTS[name]


# Runs scenarios with --trace and prints each one's output digests.
DIGESTS_OF_RUNS = """
import hashlib, json, sys, tempfile
from pathlib import Path
from capsim.cli import main
out = {}
for name in sys.argv[1:]:
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["run", f"scenarios/{name}.json", "--out", tmp, "--trace"]) == 0
        out[name] = [hashlib.sha256((Path(tmp) / f).read_bytes()).hexdigest()
                     for f in ("metrics.json", "receipts.jsonl", "trace.csv")]
print(json.dumps(out))
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    """String hashing, and so set and dict-of-set iteration order, changes
    with ``PYTHONHASHSEED``; no output byte may follow it."""
    names = ["session_heavy", "trust_churn"]
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", DIGESTS_OF_RUNS, *names],
            cwd=SCENARIOS.parent,
            env={**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got == {name: list(GOLDEN[name]) for name in names}, seed


def receipt_lines(scenario: Scenario, duration_us: int) -> dict[str, str]:
    scenario = replace(scenario, duration_us=duration_us)
    assert scenario.validate() == []
    lines = Simulation(scenario).run().receipts.to_jsonl().splitlines()
    return {json.loads(line)["request_id"]: line for line in lines}


@pytest.mark.parametrize("name", ["session_heavy", "trust_churn", "small_place"])
def test_a_run_is_a_prefix_of_a_run_twice_as_long(name):
    """No decision looks past the current time: each receipt of a run of
    length T, but those cut off by its horizon, is the same request's
    receipt in a run of length 2T."""
    scenario = Scenario.load(SCENARIOS / f"{name}.json")
    short = receipt_lines(scenario, scenario.duration_us)
    long = receipt_lines(scenario, 2 * scenario.duration_us)
    final = {rid: line for rid, line in short.items() if json.loads(line)["reason"] != "HorizonTruncated"}
    assert final, "every receipt was truncated"
    assert {rid: long.get(rid) for rid in final} == final


def item_of_receipt(receipt: dict) -> dict:
    """The fields of a ``metrics.json`` ``per_request`` item that its
    ``receipts.jsonl`` line determines, by the rules docs/formats.md states."""
    served = receipt["verdict"] != "rejected"
    if served:
        outcome = "served"
    else:
        outcome = "truncated" if receipt["reason"] == "HorizonTruncated" else "rejected"
    covered = receipt["cache_tokens_covered"]
    return {
        "request_id": receipt["request_id"],
        "outcome": outcome,
        "reason": None if served else receipt["reason"],
        "arrival_us": receipt["arrival_time"],
        "finish_us": receipt["finish_time"],
        "latency_us": receipt["finish_time"] - receipt["arrival_time"] if served else 0,
        "degraded": receipt["verdict"] == "degraded",
        "cache_hit": covered > 0,
        "tokens_covered": covered,
    }


@pytest.mark.parametrize("name", sorted(GOLDEN) + sorted(VARIANTS) + sorted(workloads.WORKLOADS))
def test_per_request_items_follow_the_receipts(name, tmp_path):
    """``metrics.json``'s ``per_request`` list and ``receipts.jsonl`` name the
    same requests in the same order, each item is read from its receipt, and
    the cache row counts the items' lookups and hits; over every shipped
    scenario, golden variant and benchmark workload at seed 1."""
    if name in VARIANTS:
        doc = VARIANTS[name][0]()
    elif name in workloads.WORKLOADS:
        doc = workloads.WORKLOADS[name][0](ROOT, 1)
    else:
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    items = metrics["per_request"]
    lookups = sum(item["cache_lookup"] for item in items)
    hits = sum(item["cache_hit"] for item in items)
    assert metrics["cache"] == {"tensor_state": {"lookups": lookups, "hits": hits, "ratio": ratio_str(hits, lookups)}}
    with (out / "receipts.jsonl").open() as lines:
        receipts = [json.loads(line) for line in lines]
    assert [i["request_id"] for i in items] == [r["request_id"] for r in receipts]
    outcomes = set()
    for item, receipt in zip(items, receipts):
        expected = item_of_receipt(receipt)
        assert {key: item[key] for key in expected} == expected
        outcomes.add(item["outcome"])
        if item["outcome"] == "served":
            assert [node for node, _ in item["stages"]] == [s["node_id"] for s in receipt["plan"]]
        else:
            assert item["stages"] == []
            assert (item["ttft_us"], item["tpot_us"], item["core_bytes"], item["cache_lookup"]) == (0, 0, 0, False)
    assert "served" in outcomes


# Records built per request, per select or per replan. They are plain slotted
# dataclasses, since a frozen one's __init__ writes every field through
# object.__setattr__, so nothing in the program may write to one once built.
PER_REQUEST_RECORDS = (
    RequestDescriptor,
    ExecutionReceipt,
    Arrival,
    StageProjection,
    StateUse,
    ScoredPlan,
    Rejection,
    CacheDecision,
    DemandCell,
    PlacementPair,
)

# Records built at load, or once per router or broker table, that are not
# frozen (tests/test_records.py pins which records are). Field defaults such
# as ``TokenDist()`` or ``RoutingWeights()`` are among them: one object per
# process, shared by every record that leaves the field unset.
LOAD_RECORDS = (
    Scenario,
    CacheConfig,
    DeploymentConfig,
    Revocation,
    NodeEvent,
    Domain,
    Link,
    ResourceProfile,
    CapabilityDescriptor,
    CapabilityVariant,
    CapabilityRealization,
    SecurityLabel,
    AttestationRecord,
    RegionWorkload,
    TokenDist,
    PolicyTemplate,
    RoutingWeights,
    PlacementWeights,
    CandidateTable,
    ExecutionPlan,
    _Row,
)


def writes_over_traced_runs(monkeypatch, tmp_path, records) -> tuple[list[str], set[str]]:
    """Every write to one of ``records`` outside its own ``__init__``, and the
    names of those built, over traced runs that admit session state, reject
    requests, churn trust and nodes, and replan."""
    building: set[int] = set()
    built: set[str] = set()
    writes: list[str] = []

    def guard(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            building.add(id(self))
            try:
                init(self, *args, **kwargs)
            finally:
                building.discard(id(self))
            built.add(cls.__name__)

        def __setattr__(self, name, value):
            if id(self) not in building:
                writes.append(f"{cls.__name__}.{name}")
            object.__setattr__(self, name, value)

        def __delattr__(self, name):
            writes.append(f"del {cls.__name__}.{name}")
            object.__delattr__(self, name)

        monkeypatch.setattr(cls, "__init__", __init__)
        monkeypatch.setattr(cls, "__setattr__", __setattr__)
        monkeypatch.setattr(cls, "__delattr__", __delattr__)

    for cls in records:
        assert not cls.__dataclass_params__.frozen, cls.__name__
        guard(cls)
    replan_heavy = tmp_path / "replan_heavy.json"
    replan_heavy.write_text(json.dumps(replan_heavy_scenario()))
    paths = [SCENARIOS / f"{name}.json" for name in ("session_heavy", "trust_churn", "small_place")] + [replan_heavy]
    for i, path in enumerate(paths):
        assert main(["run", str(path), "--out", str(tmp_path / str(i)), "--trace"]) == 0
    return writes, built


def test_per_request_records_are_never_written_after_construction(monkeypatch, tmp_path):
    writes, built = writes_over_traced_runs(monkeypatch, tmp_path, PER_REQUEST_RECORDS)
    assert writes == []
    assert built == {cls.__name__ for cls in PER_REQUEST_RECORDS}


def test_load_records_are_never_written_after_construction(monkeypatch, tmp_path):
    """The same over the records that are built once and then shared. A
    record's default that is itself a record is guarded here, or frozen."""
    defaults = {
        type(default)
        for cls in capsim_records().values()
        for f in fields(cls)
        for default in (f.default if isinstance(f.default, tuple) else (f.default,))
        if is_dataclass(default)
    }
    assert {PolicyTemplate, TokenDist, RoutingWeights, CacheConfig} <= defaults
    assert {cls for cls in defaults if not cls.__dataclass_params__.frozen} <= set(LOAD_RECORDS)
    writes, built = writes_over_traced_runs(monkeypatch, tmp_path, LOAD_RECORDS)
    assert writes == []
    assert built == {cls.__name__ for cls in LOAD_RECORDS}
