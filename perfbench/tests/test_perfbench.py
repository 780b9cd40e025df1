"""Tests for the benchmark's own code.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from check import CheckFailed, check_outputs  # noqa: E402
from tracer import layer_metrics  # noqa: E402

from capsim import Scenario, cli  # noqa: E402
from capsim.workload import generate_arrivals  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_scenarios_validate(name):
    generate, _ = workloads.WORKLOADS[name]
    doc = generate(ROOT, 5)
    assert Scenario.from_dict(doc).validate() == []
    assert doc == generate(ROOT, 5)
    assert doc["seed"] == 5


@pytest.mark.parametrize("nodes", [3, 5, 9, 17])
def test_fanout_node_counts_validate(nodes):
    scenario = Scenario.from_dict(workloads.fanout(ROOT, 1, nodes))
    assert scenario.validate() == []
    assert len(scenario.nodes) == nodes


@pytest.fixture
def run_outputs(tmp_path):
    doc = workloads.fanout(ROOT, 3, 3, duration_us=300_000)
    path = tmp_path / "fanout3.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    scenario = Scenario.from_dict(doc)
    return out, len(generate_arrivals(scenario.workload, scenario.duration_us, scenario.seed))


def test_check_accepts_a_clean_run(run_outputs):
    out, arrivals = run_outputs
    digest, summary = check_outputs(out, arrivals, with_trace=False)
    assert len(digest) == 64
    assert summary["served"] + sum(summary["rejections_by_reason"].values()) + summary["truncated"] == arrivals


def test_check_rejects_a_dropped_receipt(run_outputs):
    out, arrivals = run_outputs
    receipts = out / "receipts.jsonl"
    lines = receipts.read_text().splitlines(keepends=True)
    receipts.write_text("".join(lines[:3] + lines[4:]))
    with pytest.raises(CheckFailed, match="receipts"):
        check_outputs(out, arrivals, with_trace=False)


def test_check_rejects_a_conservation_mismatch(run_outputs):
    out, arrivals = run_outputs
    with pytest.raises(CheckFailed, match="conservation"):
        check_outputs(out, arrivals + 1, with_trace=False)


def test_layer_metrics_self_time_subtracts_direct_children():
    names = ["engine.run", "routing.select", "routing.score", "caching.holders"]
    spans = [
        (0, 0, 1_000, -1),  # engine.run
        (1, 100, 600, 0),  # routing.select
        (2, 200, 400, 1),  # routing.score, child of select
        (3, 250, 300, 2),  # caching.holders, child of score
    ]
    doc = {"names": names, "spans": spans, "counts": {}}
    metrics_doc = {"arrivals": 1, "cache": {"tensor_state": {"lookups": 0, "hits": 0}}}
    m = layer_metrics(doc, metrics_doc)
    assert m["engine.self_s"] == pytest.approx(500e-9)
    assert m["routing.select_self_s"] == pytest.approx(300e-9)
    assert m["routing.score_s"] == pytest.approx(200e-9)
    assert m["routing.plans_per_select"] == 1
    assert m["routing.select_share"] == pytest.approx(0.5)
