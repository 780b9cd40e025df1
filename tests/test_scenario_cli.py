import json
import shutil
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from capsim.cli import main
from capsim.scenario import Scenario, ScenarioParseError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def scenario_copy(tmp_path):
    def _copy(name: str) -> Path:
        dst = tmp_path / f"{name}.json"
        shutil.copy(SCENARIOS / f"{name}.json", dst)
        return dst

    return _copy


def test_shipped_scenarios_validate():
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = Scenario.load(path)
        assert scenario.validate() == [], path.name


def test_validate_command_ok(capsys):
    assert main(["validate", str(SCENARIOS / "session_heavy.json")]) == 0
    assert "ok:" in capsys.readouterr().out


def test_dangling_realization_reports_path(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "session_heavy.json").read_text())
    doc["initial_placement"].append(["ghost-realization", "edge-1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "initial_placement" in err and "ghost-realization" in err


def test_attestation_above_claimed_trust_reports_path(tmp_path, capsys):
    # Candidate lookup relies on this rule: a node's effective trust never
    # exceeds the trust it claims.
    doc = json.loads((SCENARIOS / "trust_churn.json").read_text())
    attestation = doc["trust_script"]["attestations"][0]
    claimed = next(n["trust"] for n in doc["topology"]["nodes"] if n["node_id"] == attestation["node_id"])
    attestation["level"] = claimed + 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert "trust_script.attestations[0].level" in capsys.readouterr().err


def _set(path: str, value):
    """A mutation that sets the value at a dotted path ("[i]" indexes lists)."""

    def mutate(doc: dict) -> None:
        keys = [int(k) if k.isdigit() else k for k in path.replace("[", ".").replace("]", "").split(".")]
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return mutate


def _rename_region(doc: dict, old: str, new: str) -> None:
    for node in doc["topology"]["nodes"]:
        if node["region"] == old:
            node["region"] = new
    for link in doc["topology"]["links"]:
        for end in ("src", "dst"):
            if link[end] == f"region:{old}":
                link[end] = f"region:{new}"
    for region in doc["workload"]["regions"]:
        if region["region"] == old:
            region["region"] = new


def _add_request(request_id: str, session_id: str):
    def mutate(doc: dict) -> None:
        doc["requests"] = [
            {"request_id": request_id, "capability_class": "chat", "quality_target": 1, "origin_region": "metro",
             "input_tokens": 16, "output_tokens": 4, "session": {"session_id": session_id}}
        ]

    return mutate


# Each of these passed ``validate`` once and then failed, hung or was misread
# by ``run``; they are only ever validated here.
@pytest.mark.parametrize(
    "name, mutate, field",
    [
        ("audit", _set("weights.tie_epsilon", "-1/2"), "weights.tie_epsilon"),
        ("small_place", _set("deployment.local_search_rounds", "eight"), "deployment.local_search_rounds"),
        ("audit", _set("weights.alpha", "abc"), "weights.alpha"),
        ("small_place", _set("topology.domains[0].min_trust", 2), "topology.nodes[1].trust"),
        ("small_place", _set("deployment.epoch_us", 0), "deployment.epoch_us"),
        ("session_heavy", _set("routing.enable_split", "false"), "routing.enable_split"),
        ("session_heavy", _set("catalog.classes[0].quality", "high"), "catalog.classes[0]"),
        ("session_heavy", _set("workload.regions[0].policy_mix[0].budget", "cheap"), "workload.regions[0].policy_mix[0].budget"),
        ("session_heavy", _set("workload.regions[0].policy_mix[0].weight", 0), "workload.regions[0].policy_mix[0].weight"),
        ("session_heavy", _set("workload.regions[0].policy_mix[0].quality_target", 0),
         "workload.regions[0].policy_mix[0].quality_target"),
        ("session_heavy", _set("workload.regions[0].input_tokens.dist", "poisson"), "workload.regions[0].input_tokens.dist"),
        ("session_heavy", _set("workload.regions[0].policy_mix[0].min_trust", 9), "workload.regions[0].policy_mix[0].min_trust"),
    ],
    ids=[
        "tie_epsilon", "local_search_rounds", "alpha", "domain_min_trust", "epoch_us", "enable_split", "class_quality",
        "policy_budget", "policy_weights", "policy_quality_target", "token_dist", "policy_min_trust",
    ],
)
def test_validate_rejects_values_a_run_cannot_use(tmp_path, capsys, name, mutate, field):
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert f"{field}:" in capsys.readouterr().err


# trace.csv cells are unquoted, so an id with a comma or line break would
# split its row.
@pytest.mark.parametrize(
    "mutate, fields_named",
    [
        (lambda doc: _rename_region(doc, "metro", "metro,x"), ["topology.nodes[0].region", "workload.regions[0].region"]),
        (_set("topology.nodes[0].node_id", "edge\n1"), ["topology.nodes[0].node_id"]),
        (_set("catalog.classes[0].variants[0].realizations[0].realization_id", "chat,small"),
         ["catalog.realizations[0].realization_id"]),
        (_add_request("q,1", "s1"), ["requests[0].request_id"]),
        (_add_request("q1", "s\r1"), ["requests[0].session.session_id"]),
    ],
    ids=["region", "node_id", "realization_id", "request_id", "session_id"],
)
def test_validate_rejects_ids_that_split_trace_cells(tmp_path, capsys, mutate, fields_named):
    doc = json.loads((SCENARIOS / "session_heavy.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    for field in fields_named:
        assert f"{field}: must not contain ','" in err


def test_node_speed_factor_parses_exactly():
    doc = json.loads((SCENARIOS / "session_heavy.json").read_text())
    doc["topology"]["nodes"][0]["speed_factor"] = "3/2"
    scenario = Scenario.from_dict(doc)
    assert scenario.nodes[0].profile.hardware.speed_factor == Fraction(3, 2)
    assert scenario.validate() == []


def test_scenario_holds_no_raw_config_dicts():
    # Every section is converted at load; nothing downstream reads raw keys.
    assert not [f.name for f in fields(Scenario) if "dict" in str(f.type)]


def test_malformed_file_reports_line_position(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x",\n  "seed": }\n')
    with pytest.raises(ScenarioParseError) as exc:
        Scenario.load(bad)
    assert "line 2" in str(exc.value)
    assert main(["validate", str(bad)]) == 1


def test_missing_file_is_validation_failure(capsys):
    assert main(["validate", "/nonexistent/path.json"]) == 1


def test_run_writes_outputs_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(SCENARIOS / "session_heavy.json"), "--out", str(out), "--trace"])
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("requests=") and "p95_ttft_us=" in summary
    assert (out / "metrics.json").exists()
    assert (out / "receipts.jsonl").exists()
    assert (out / "trace.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7 and len(manifest["scenario_digest"]) == 64
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("timestamp_us,seq,kind")


def test_run_without_trace_flag_skips_trace(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(SCENARIOS / "session_heavy.json"), "--out", str(out)]) == 0
    assert not (out / "trace.csv").exists()


def test_same_seed_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", str(SCENARIOS / "session_heavy.json"), "--out", str(out1)])
    main(["run", str(SCENARIOS / "session_heavy.json"), "--out", str(out2)])
    assert (out1 / "receipts.jsonl").read_bytes() == (out2 / "receipts.jsonl").read_bytes()
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()


def test_seed_override_changes_arrivals(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", str(SCENARIOS / "session_heavy.json"), "--out", str(out1)])
    main(["run", str(SCENARIOS / "session_heavy.json"), "--seed", "99", "--out", str(out2)])
    assert (out1 / "receipts.jsonl").read_bytes() != (out2 / "receipts.jsonl").read_bytes()
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 99


def test_compare_reports_both_runs(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", str(SCENARIOS / "locality.json"), "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("hierarchical:") and lines[1].startswith("cloud_only:")
    report = json.loads((out / "compare.json").read_text())
    assert report["hierarchical"]["core_bytes"] < report["cloud_only"]["core_bytes"]


def test_compare_is_vacuous_without_edge_capacity(tmp_path, capsys):
    # With nothing placeable outside the cloud, the baseline restriction
    # changes nothing and both runs coincide.
    doc = json.loads((SCENARIOS / "locality.json").read_text())
    doc["initial_placement"] = [["assist-v1-gpu", "cloud-1"]]
    for node in doc["topology"]["nodes"]:
        if node["tier"] != "cloud":
            node["memory_budget_bytes"] = 0
    cloudy = tmp_path / "cloudy.json"
    cloudy.write_text(json.dumps(doc))
    out = tmp_path / "cmp"
    assert main(["compare", str(cloudy), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "compare.json").read_text())
    assert report["delta"] == {"p95_ttft_us": 0, "mean_ttft_us": 0, "core_bytes": 0}
    assert report["hierarchical"] == report["cloud_only"]


def test_oracle_place_prints_placement(capsys):
    code = main(["oracle-place", str(SCENARIOS / "small_place.json"), "--at", "20000000"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "placement" in doc and "objective" in doc
    assert doc["objective"].count(".") == 1  # fixed-precision decimal string


def test_oracle_place_matches_library_oracle(capsys):
    from capsim import deployment
    from capsim.engine import Simulation
    from capsim.workload import generate_arrivals
    from capsim.cli import frac_decimal

    scenario = Scenario.load(SCENARIOS / "small_place.json")
    at = 20_000_000
    sim = Simulation(scenario)
    arrivals = generate_arrivals(scenario.workload, at, sim.seed)
    cells = deployment.cells_from_requests(
        [a.request for a in arrivals], at - scenario.deployment.window_us, at
    )
    residency = {n: set(s.residency) for n, s in sim.broker.nodes.items()}
    problem = deployment.build_problem(sim.router, cells, scenario.placement_weights, residency, now=0)
    expected = deployment.solve_exact(problem)

    main(["oracle-place", str(SCENARIOS / "small_place.json"), "--at", str(at)])
    doc = json.loads(capsys.readouterr().out)
    assert {tuple(p) for p in doc["placement"]} == set(expected)
    assert doc["objective"] == frac_decimal(deployment.objective(problem, expected))


def test_oracle_place_rejects_oversized_instances(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "small_place.json").read_text())
    # Inflate the node count past the enumeration bound: 3 realizations x 7 gpu
    # nodes = 21 candidate pairs.
    nodes = doc["topology"]["nodes"]
    for i in range(4, 9):
        extra = json.loads(json.dumps(nodes[0]))
        extra["node_id"] = f"edge-extra-{i}"
        nodes.append(extra)
        doc["topology"]["links"].append(
            {"link_id": f"l-extra-{i}", "src": "region:east", "dst": extra["node_id"],
             "propagation_delay_us": 800, "bandwidth_bytes_per_us": "1000"}
        )
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    assert main(["oracle-place", str(big), "--at", "20000000"]) == 2
    assert "InstanceTooLarge" in capsys.readouterr().err


def test_zero_demand_oracle_is_empty(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "small_place.json").read_text())
    doc["workload"]["regions"][0]["rate_per_s"] = 0.0
    doc["initial_placement"] = []
    quiet = tmp_path / "quiet.json"
    quiet.write_text(json.dumps(doc))
    assert main(["oracle-place", str(quiet), "--at", "20000000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["placement"] == [] and out["objective"] == "0.000000"
