"""Benchmark workloads: scenario documents derived from the shipped scenarios.

Each generator takes the checkout root and the benchmark seed and returns a
scenario dict that ``capsim.Scenario.from_dict`` accepts. The seed becomes the
scenario seed, so it alone fixes the arrival stream. Nothing here imports
capsim: the documents are plain JSON, written to disk and run through
``capsim run`` like any user scenario.

Why each workload exists (the layers it is predicted to stress and to leave
alone) is recorded in perfbench/README.md.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

# Simulated seconds per workload. Chosen so that one run of the workload
# takes a few host seconds at the parent commit: long enough to amortise
# process start-up noise, short enough for several fresh-process runs within
# one benchmark invocation.
FANOUT_DURATION_US = 1_500_000
SESSIONS_DURATION_US = 25_000_000
REPLAN_DURATION_US = 120_000_000
SESSION_EDGES = 8


def _shipped(root: Path, name: str) -> dict:
    return json.loads((root / "scenarios" / f"{name}.json").read_text())


def fanout(root: Path, seed: int, nodes: int, duration_us: int = FANOUT_DURATION_US) -> dict:
    """``audit.json`` with its metro edge cloned to ``nodes - 1`` edges plus ``cloud-1``.

    Splits stay on, so routing enumerates n + n(n-1) plans per request.
    """
    if nodes < 2:
        raise ValueError("fanout needs at least one edge and the cloud node")
    doc = _shipped(root, "audit")
    topo = doc["topology"]
    by_id = {n["node_id"]: n for n in topo["nodes"]}
    edge_template, cloud = by_id["edge-1"], by_id["cloud-1"]
    gw_template = next(l for l in topo["links"] if l["dst"] == "edge-1" and l["src"].startswith("region:"))
    core_template = next(l for l in topo["links"] if l["src"] == "edge-1" and l["dst"] == "cloud-1")
    edges = [f"edge-{i:02d}" for i in range(1, nodes)]
    topo["nodes"] = [dict(edge_template, node_id=e) for e in edges] + [cloud]
    topo["links"] = []
    for e in edges:
        topo["links"].append(dict(gw_template, link_id=f"l-gw-{e}", dst=e))
        topo["links"].append(dict(core_template, link_id=f"l-{e}-c", src=e))
    doc["initial_placement"] = [["chat-v1-gpu", n] for n in edges + ["cloud-1"]]
    doc["routing"] = {"enable_split": True}
    region = doc["workload"]["regions"][0]
    region["rate_per_s"] = 110.0
    region["session"] = {"turns_g": 0.5, "prefix_tokens": 64}
    doc.update(name=f"fanout{nodes}", seed=seed, duration_us=duration_us)
    return doc


def fanout17(root: Path, seed: int) -> dict:
    return fanout(root, seed, 17)


def sessions(root: Path, seed: int) -> dict:
    """``session_heavy.json``'s edge cloned into ring-linked edges, one region each.

    Splits are off and sessions are long with a 1024-token prefix, so most
    requests find their session state on the edge that served the last turn.
    """
    doc = _shipped(root, "session_heavy")
    topo = doc["topology"]
    by_id = {n["node_id"]: n for n in topo["nodes"]}
    edge_template, cloud = by_id["edge-1"], by_id["cloud-1"]
    links = {l["link_id"]: l for l in topo["links"]}
    gw, ring, core = links["l-gw-e1"], links["l-e1-e2"], links["l-e1-c"]
    names = [f"edge-{i}" for i in range(1, SESSION_EDGES + 1)]
    topo["nodes"] = [dict(edge_template, node_id=e, region=f"metro-{i}") for i, e in enumerate(names, 1)]
    topo["nodes"].append(cloud)
    topo["links"] = []
    for i, e in enumerate(names, 1):
        topo["links"].append(dict(gw, link_id=f"l-gw-{e}", src=f"region:metro-{i}", dst=e))
        nxt = names[i % SESSION_EDGES]
        topo["links"].append(dict(ring, link_id=f"l-{e}-{nxt}", src=e, dst=nxt))
        topo["links"].append(dict(core, link_id=f"l-{e}-c", src=e))
    doc["initial_placement"] = [["chat-small-gpu", n] for n in names + ["cloud-1"]]
    doc["initial_placement"].append(["chat-large-gpu", "cloud-1"])
    doc["routing"] = {"enable_split": False}
    template = doc["workload"]["regions"][0]
    regions = []
    for i in range(1, SESSION_EDGES + 1):
        region = copy.deepcopy(template)
        region.update(region=f"metro-{i}", rate_per_s=10.0)
        region["session"] = {"turns_g": 0.05, "prefix_tokens": 1024}
        regions.append(region)
    doc["workload"]["regions"] = regions
    doc.update(name="sessions", seed=seed, duration_us=SESSIONS_DURATION_US)
    return doc


def replan_churn(root: Path, seed: int) -> dict:
    """``small_place.json`` replanning every 2 s under node and trust churn.

    ``edge-east-1`` goes offline for 3 s in every 15 s and its attestation
    lapses half-way through; the event trace is on.
    """
    doc = _shipped(root, "small_place")
    duration = REPLAN_DURATION_US
    doc["deployment"].update(epoch_us=2_000_000, replan_enabled=True)
    doc["workload"]["regions"][0]["rate_per_s"] = 40.0
    events = []
    for start in range(6_000_000, duration, 15_000_000):
        events.append({"node_id": "edge-east-1", "time_us": start, "online": False})
        events.append({"node_id": "edge-east-1", "time_us": start + 3_000_000, "online": True})
    doc["node_events"] = events
    doc["trust_script"] = {
        "attestations": [
            {"node_id": "edge-east-1", "level": 2, "issue_time_us": 0, "validity_window_us": duration // 2}
        ]
    }
    doc.update(name="replan_churn", seed=seed, duration_us=duration)
    return doc


# name -> (scenario generator, whether the run writes trace.csv)
WORKLOADS = {
    "fanout17": (fanout17, False),
    "sessions": (sessions, False),
    "replan_churn": (replan_churn, True),
}
