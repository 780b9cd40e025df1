import hashlib
import json
import shutil
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest

from capsim.cli import main
from capsim.engine import Simulation
from capsim.metrics import MetricsFrame
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


def _add_request(request_id: str, session_id: str, *more_ids: str):
    """A mutation that scripts one request per id, each in the given session."""

    def mutate(doc: dict) -> None:
        doc["requests"] = [
            {"request_id": rid, "capability_class": "chat", "quality_target": 1, "origin_region": "metro",
             "input_tokens": 16, "output_tokens": 4, "session": {"session_id": session_id}}
            for rid in (request_id, *more_ids)
        ]

    return mutate


def _with_request(path: str, value):
    def mutate(doc: dict) -> None:
        _add_request("q1", "s1")(doc)
        _set(path, value)(doc)

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
        ("session_heavy", _set("catalog.classes[0].variants[0].quality", "high"), "catalog.classes[0].variants[0].quality"),
        ("session_heavy", _set("workload.regions[0].policy_mix[0].budget", "cheap"), "workload.regions[0].policy_mix[0].budget"),
        ("session_heavy", _set("workload.regions[0].policy_mix[0].weight", 0), "workload.regions[0].policy_mix[0].weight"),
        ("session_heavy", _set("workload.regions[0].policy_mix[0].quality_target", 0),
         "workload.regions[0].policy_mix[0].quality_target"),
        ("session_heavy", _set("workload.regions[0].input_tokens.dist", "poisson"), "workload.regions[0].input_tokens.dist"),
        ("session_heavy", _set("workload.regions[0].policy_mix[0].min_trust", 9), "workload.regions[0].policy_mix[0].min_trust"),
        ("session_heavy", _set("workload.regions[0].output_tokens.value", -5), "workload.regions[0].output_tokens.value"),
        ("session_heavy", _set("workload.regions[0].input_tokens.sigma", -1), "workload.regions[0].input_tokens.sigma"),
        ("session_heavy", _set("workload.regions[0].policy_mix", []), "workload.regions[0].policy_mix"),
        # A negative weight would void the router's lower bound on split plans.
        ("session_heavy", _set("weights.alpha", "-1"), "weights.alpha"),
        ("session_heavy", _set("weights.kappa", "-5"), "weights.kappa"),
        ("session_heavy", _set("weights.pi_soft", -3), "weights.pi_soft"),
        ("session_heavy", _set("weights.lambda", "-1"), "weights.lambda"),
        ("session_heavy", _set("weights.p_miss_us", -1), "weights.p_miss_us"),
        ("session_heavy", _set("weights.storage_unit_cost", "-1/2"), "weights.storage_unit_cost"),
        ("session_heavy", _set("cache.window_us", -5), "cache.window_us"),
        ("session_heavy", _set("cache.storage_unit_cost", "-1"), "cache.storage_unit_cost"),
        # A negative demand window leaves every replan without demand.
        ("small_place", _set("deployment.window_us", -5), "deployment.window_us"),
        ("session_heavy", _set("topology.nodes[0].max_concurrent", 0), "topology.nodes[0].max_concurrent"),
        ("session_heavy", _set("topology.nodes[0].speed_factor", "-1"), "topology.nodes[0].speed_factor"),
        ("session_heavy", _set("topology.nodes[0].memory_budget_bytes", -1), "topology.nodes[0].memory_budget_bytes"),
        # A node that admits no reserved stage is never routed to.
        ("session_heavy", _set("topology.nodes[0].admission_cap", 0), "topology.nodes[0].admission_cap"),
        ("session_heavy", _set("topology.domains[0].min_trust", -1), "topology.domains[0].min_trust"),
        # The last of two entries used to win, and the nodes' trust was blamed.
        ("session_heavy", lambda doc: doc["topology"]["domains"].append({"domain_id": "d-metro", "min_trust": 3}),
         "topology.domains[2].domain_id"),
        # Routing never uses a node below its variant's floor; edge-1 has trust 2
        # (edge-2's placement is dropped, so only one entry is at fault).
        ("session_heavy", lambda doc: (
            doc["catalog"]["classes"][0].update(security={"min_trust": 3, "preferred_trust": 3}),
            doc["initial_placement"].pop(1),
        ), "initial_placement[0]"),
        # Request ids key the in-flight table and the receipts: a repeated
        # region or scripted id failed the run with a KeyError, and a scripted
        # id equal to a generated one gave two receipts one id.
        ("session_heavy", lambda doc: doc["workload"]["regions"].append(dict(doc["workload"]["regions"][0])),
         "workload.regions[1].region"),
        ("session_heavy", _add_request("q1", "s1", "q1"), "requests[1].request_id"),
        ("session_heavy", _add_request("metro-000001", "s1"), "requests[0].request_id"),
        # A class without lineage gives its receipts no capability version.
        ("session_heavy", _set("catalog.classes[0].lineage", []), "catalog.classes[0].lineage"),
        # The domain scope admits only the allowed domains, so it needs them.
        ("session_heavy", _set("workload.regions[0].policy_mix[0].locality_scope", "domain"),
         "workload.regions[0].policy_mix[0].allowed_domains"),
        ("session_heavy", _with_request("requests[0].policy", {"locality_scope": "domain"}),
         "requests[0].policy.allowed_domains"),
        # Each of these three ran to exit 0.
        ("session_heavy", lambda doc: doc.update(node_events=[{"node_id": "edge-1", "time_us": -1, "online": False}]),
         "node_events[0].time_us"),
        ("session_heavy", _with_request("requests[0].session.prefix_tokens", -1), "requests[0].session.prefix_tokens"),
        ("session_heavy", _set("workload.regions[0].input_tokens.value", 0), "workload.regions[0].input_tokens.value"),
        # A reference to what the file does not hold, or a second record of one id.
        ("session_heavy", lambda doc: doc["topology"]["nodes"].append(dict(doc["topology"]["nodes"][0])),
         "topology.nodes[3].node_id"),
        ("session_heavy", _set("topology.nodes[0].domain_id", "d-moon"), "topology.nodes[0].domain_id"),
        ("session_heavy", lambda doc: doc["topology"]["links"].append(dict(doc["topology"]["links"][0])),
         "topology.links[5].link_id"),
        ("session_heavy", _set("topology.artifact_repository", "ghost"), "topology.artifact_repository"),
        ("session_heavy", lambda doc: doc["catalog"]["classes"].append({"name": "chat", "lineage": [["base", "v1"]]}),
         "catalog.classes[1].name"),
        ("session_heavy", lambda doc: doc["catalog"]["classes"][0]["variants"].append(
            dict(doc["catalog"]["classes"][0]["variants"][0], realizations=[])
        ), "catalog.classes[0].variants[2].variant_id"),
        ("session_heavy", lambda doc: doc["catalog"]["classes"][0]["variants"][1]["realizations"].append(
            dict(doc["catalog"]["classes"][0]["variants"][0]["realizations"][0])
        ), "catalog.classes[0].variants[1].realizations[1].realization_id"),
        ("session_heavy", _set("topology.nodes[1].accelerator", "cpu"), "initial_placement[1]"),
        ("session_heavy", _set("topology.nodes[1].memory_budget_bytes", 1), "initial_placement[1]"),
        ("session_heavy", _set("workload.regions[0].classes", ["ghost"]), "workload.regions[0].classes"),
        ("session_heavy", _set("workload.regions[0].classes", []), "workload.regions[0].classes"),
        ("session_heavy", _with_request("requests[0].capability_class", "ghost"), "requests[0].capability_class"),
        ("session_heavy", lambda doc: doc.update(node_events=[{"node_id": "ghost", "time_us": 0, "online": False}]),
         "node_events[0].node_id"),
        ("trust_churn", _set("trust_script.attestations[0].node_id", "ghost"), "trust_script.attestations[0].node_id"),
        ("trust_churn", _set("trust_script.revocations[0].realization_id", "ghost"),
         "trust_script.revocations[0].realization_id"),
        # Rules between two fields of one record.
        ("session_heavy", _with_request("requests[0].session.turn_index", 2), "requests[0].session.turn_index"),
        ("session_heavy", _with_request("requests[0].session.prefix_tokens", 17), "requests[0].session.prefix_tokens"),
        ("trust_churn", _set("catalog.classes[0].security.preferred_trust", 0),
         "catalog.classes[0].security.preferred_trust"),
        # A repeated class name gave the second class's variant the first
        # class's path, catalog.classes[0].variants[2].
        ("small_place", lambda doc: (
            _set("catalog.classes[1].name", "translate")(doc),
            _set("catalog.classes[1].variants[0].quality", 0)(doc),
        ), ("catalog.classes[1].name", "catalog.classes[1].variants[0].quality", "workload.regions[0].classes")),
    ],
    ids=[
        "tie_epsilon", "local_search_rounds", "alpha", "domain_min_trust", "epoch_us", "enable_split", "variant_quality",
        "policy_budget", "policy_weights", "policy_quality_target", "token_dist", "policy_min_trust",
        "token_value", "token_sigma", "policy_mix_empty", "negative_alpha", "negative_kappa", "negative_pi_soft",
        "negative_lambda", "negative_p_miss_us", "negative_storage_unit_cost", "negative_cache_window_us",
        "negative_cache_storage_unit_cost", "negative_deployment_window_us", "node_max_concurrent",
        "node_speed_factor", "node_memory_budget_bytes", "node_admission_cap", "domain_min_trust_range",
        "duplicate_domain", "placement_below_variant_floor", "duplicate_workload_region", "duplicate_request_id",
        "request_id_of_workload", "empty_lineage", "policy_domain_scope", "request_domain_scope",
        "negative_node_event_time", "negative_request_prefix_tokens", "lognormal_value", "duplicate_node",
        "unknown_domain", "duplicate_link", "unknown_artifact_repository", "duplicate_class", "duplicate_variant",
        "duplicate_realization", "placement_accelerator", "placement_memory_budget", "unknown_region_class",
        "region_classes_required", "unknown_request_class", "node_event_unknown_node", "attestation_unknown_node",
        "revocation_unknown_realization", "turn_index_over_total_turns", "prefix_over_input_tokens",
        "preferred_below_min_trust", "variant_of_a_repeated_class",
    ],
)
def test_validate_rejects_values_a_run_cannot_use(tmp_path, capsys, name, mutate, field):
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    # Each bad value is reported once, at its document key, and nothing else is.
    paths = [line.split(" ", 1)[1].split(": ", 1)[0] for line in capsys.readouterr().err.splitlines()]
    assert paths == ([field] if isinstance(field, str) else list(field))


def bounds_base() -> dict:
    """session_heavy with a record of each kind it lacks (a variant's own
    label, an attestation, a revocation, a node event and a scripted request
    with every numeric key), every node at trust 3, the class label
    preferring 3, and edge-2 hosting nothing: a value at each bound of a
    field validates there."""
    doc = json.loads((SCENARIOS / "session_heavy.json").read_text())
    for node in doc["topology"]["nodes"]:
        node["trust"] = 3
    doc["initial_placement"] = [pair for pair in doc["initial_placement"] if pair[1] != "edge-2"]
    chat = doc["catalog"]["classes"][0]
    chat["security"]["preferred_trust"] = 3
    chat["variants"][0]["security"] = {"min_trust": 0, "preferred_trust": 3}
    doc["trust_script"] = {
        "attestations": [{"node_id": "edge-1", "level": 2, "issue_time_us": 0}],
        "revocations": [{"realization_id": "chat-large-gpu", "time_us": 0}],
    }
    doc["node_events"] = [{"node_id": "edge-2", "time_us": 0, "online": False}]
    doc["requests"] = [
        {"request_id": "q1", "capability_class": "chat", "quality_target": 1, "origin_region": "metro",
         "input_tokens": 16, "output_tokens": 4, "budget": 100, "arrival_time": 0, "policy": {"min_trust": 0},
         "session": {"session_id": "s1", "turn_index": 1, "total_turns": 1, "prefix_tokens": 0}}
    ]
    return doc


# Every field bound, on each of its sides: (id, path in bounds_base(), the
# value just outside, the value just inside). tests/test_schema.py checks
# that the rows name each bound the fields declare.
BOUND_EDGES = [
    ("duration_us", "duration_us", 0, 1),
    ("bytes_per_token", "bytes_per_token", -1, 0),
    ("domain_min_trust_low", "topology.domains[0].min_trust", -1, 0),
    ("domain_min_trust_high", "topology.domains[0].min_trust", 4, 3),
    ("node_speed_factor", "topology.nodes[1].speed_factor", "0", "1/1000"),
    ("node_max_concurrent", "topology.nodes[1].max_concurrent", 0, 1),
    ("node_memory_budget_bytes", "topology.nodes[1].memory_budget_bytes", -1, 0),
    ("node_admission_cap", "topology.nodes[1].admission_cap", 0, 1),
    ("node_cache_capacity_bytes", "topology.nodes[1].cache_capacity_bytes", -1, 0),
    ("node_trust_low", "topology.nodes[1].trust", -1, 0),
    ("node_trust_high", "topology.nodes[1].trust", 4, 3),
    ("link_delay", "topology.links[0].propagation_delay_us", -1, 0),
    ("link_bandwidth", "topology.links[0].bandwidth_bytes_per_us", "0", "1/1000"),
    ("class_min_trust_low", "catalog.classes[0].security.min_trust", -1, 0),
    ("class_min_trust_high", "catalog.classes[0].security.min_trust", 4, 3),
    ("class_preferred_trust_low", "catalog.classes[0].security.preferred_trust", -1, 0),
    ("preferred_trust", "catalog.classes[0].security.preferred_trust", 4, 3),
    ("variant_quality", "catalog.classes[0].variants[0].quality", 0, 1),
    ("variant_min_trust_low", "catalog.classes[0].variants[0].security.min_trust", -1, 0),
    ("variant_min_trust_high", "catalog.classes[0].variants[0].security.min_trust", 4, 3),
    ("variant_preferred_trust_low", "catalog.classes[0].variants[0].security.preferred_trust", -1, 0),
    ("variant_preferred_trust_high", "catalog.classes[0].variants[0].security.preferred_trust", 4, 3),
    ("artifact_size_bytes", "catalog.classes[0].variants[0].realizations[0].artifact_size_bytes", -1, 0),
    ("load_time_us", "catalog.classes[0].variants[0].realizations[0].load_time_us", -1, 0),
    ("prefill_time_per_token_us", "catalog.classes[0].variants[0].realizations[0].prefill_time_per_token_us", 0, 1),
    ("decode_time_per_token_us", "catalog.classes[0].variants[0].realizations[0].decode_time_per_token_us", 0, 1),
    ("setup_time_us", "catalog.classes[0].variants[0].realizations[0].setup_time_us", -1, 0),
    ("kv_bytes_per_token", "catalog.classes[0].variants[0].realizations[0].kv_bytes_per_token", -1, 0),
    ("alpha", "weights.alpha", "-1/1000000", "0"),
    ("beta", "weights.beta", "-1/1000000", "0"),
    ("gamma", "weights.gamma", "-1/1000000", "0"),
    ("delta", "weights.delta", "-1/1000000", "0"),
    ("epsilon", "weights.epsilon", "-1/1000000", "0"),
    ("zeta", "weights.zeta", "-1/1000000", "0"),
    ("kappa", "weights.kappa", "-1/1000000", "0"),
    ("pi_soft", "weights.pi_soft", -1, 0),
    ("tie_epsilon", "weights.tie_epsilon", "-1/1000000", "0"),
    ("lambda", "weights.lambda", "-1/1000000", "0"),
    ("mu", "weights.mu", "-1/1000000", "0"),
    ("nu", "weights.nu", "-1/1000000", "0"),
    ("p_miss_us", "weights.p_miss_us", -1, 0),
    ("placement_storage_unit_cost", "weights.storage_unit_cost", "-1/1000000", "0"),
    ("cache_window_us", "cache.window_us", -1, 0),
    ("cache_storage_unit_cost", "cache.storage_unit_cost", "-1/1000000", "0"),
    ("epoch_us", "deployment.epoch_us", 0, 1),
    ("deployment_window_us", "deployment.window_us", -1, 0),
    ("local_search_rounds", "deployment.local_search_rounds", -1, 0),
    ("rate_per_s", "workload.regions[0].rate_per_s", -0.001, 0),
    ("zipf_s", "workload.regions[0].zipf_s", -0.001, 0),
    ("turns_g_low", "workload.regions[0].session.turns_g", 0, 0.001),
    ("turns_g_high", "workload.regions[0].session.turns_g", 1.001, 1),
    ("region_prefix_tokens", "workload.regions[0].session.prefix_tokens", -1, 0),
    ("lognormal_value", "workload.regions[0].input_tokens.value", 0, 1),
    ("input_sigma", "workload.regions[0].input_tokens.sigma", -0.001, 0),
    ("fixed_value", "workload.regions[0].output_tokens.value", 0, 1),
    ("output_sigma", "workload.regions[0].output_tokens.sigma", -0.001, 0),
    ("policy_weight", "workload.regions[0].policy_mix[0].weight", 0, 0.001),
    ("policy_quality_target", "workload.regions[0].policy_mix[0].quality_target", 0, 1),
    ("policy_budget", "workload.regions[0].policy_mix[0].budget", -1, 0),
    ("policy_min_trust_low", "workload.regions[0].policy_mix[0].min_trust", -1, 0),
    ("policy_min_trust_high", "workload.regions[0].policy_mix[0].min_trust", 4, 3),
    ("request_quality_target", "requests[0].quality_target", 0, 1),
    ("request_input_tokens", "requests[0].input_tokens", -1, 0),
    ("request_output_tokens", "requests[0].output_tokens", 0, 1),
    ("request_budget", "requests[0].budget", -1, 0),
    ("request_arrival_time", "requests[0].arrival_time", -1, 0),
    ("request_min_trust_low", "requests[0].policy.min_trust", -1, 0),
    ("request_min_trust_high", "requests[0].policy.min_trust", 4, 3),
    ("request_turn_index", "requests[0].session.turn_index", 0, 1),
    ("request_total_turns", "requests[0].session.total_turns", 0, 1),
    ("request_prefix_tokens", "requests[0].session.prefix_tokens", -1, 0),
    ("attestation_level_low", "trust_script.attestations[0].level", -1, 0),
    ("attestation_level_high", "trust_script.attestations[0].level", 4, 3),
    ("attestation_issue_time", "trust_script.attestations[0].issue_time_us", -1, 0),
    ("attestation_validity_window", "trust_script.attestations[0].validity_window_us", 0, 1),
    ("revocation_time", "trust_script.revocations[0].time_us", -1, 0),
    ("node_event_time", "node_events[0].time_us", -1, 0),
]


# The value just outside each bound fails ``validate`` at its path alone,
# and the value just inside passes.
@pytest.mark.parametrize("path, outside, inside", [row[1:] for row in BOUND_EDGES], ids=[row[0] for row in BOUND_EDGES])
def test_validate_checks_each_bound_on_both_sides(tmp_path, capsys, path, outside, inside):
    for value, code in ((outside, 1), (inside, 0)):
        doc = bounds_base()
        _set(path, value)(doc)
        scenario = tmp_path / f"{code}.json"
        scenario.write_text(json.dumps(doc))
        assert main(["validate", str(scenario)]) == code
        captured = capsys.readouterr()
        if code:
            assert [line.split(" ", 1)[1].split(": ", 1)[0] for line in captured.err.splitlines()] == [path]
        else:
            assert captured.err == "" and captured.out.startswith("ok: ")


# A class's label is reported once, at its own path, whether or not the class
# has variants; a variant inherits it unchecked. A variant with its own label
# keeps its own check.
@pytest.mark.parametrize(
    "mutate, at",
    [
        (lambda doc: doc["catalog"]["classes"].append(
            {"name": "orphan", "lineage": [["base", "v1"]], "security": {"min_trust": 7, "preferred_trust": 9}}
        ), "catalog.classes[1].security"),
        (_set("catalog.classes[0].security", {"min_trust": 7, "preferred_trust": 9}), "catalog.classes[0].security"),
        (_set("catalog.classes[0].variants[1].security", {"min_trust": 7, "preferred_trust": 9}),
         "catalog.classes[0].variants[1].security"),
    ],
    ids=["class_without_variants", "inherited_by_two_variants", "variant_own_label"],
)
def test_a_security_label_is_checked_once_at_its_own_path(tmp_path, capsys, mutate, at):
    doc = json.loads((SCENARIOS / "trust_churn.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    paths = [line.split(" ", 1)[1].split(": ", 1)[0] for line in capsys.readouterr().err.splitlines()]
    # The placements onto nodes below the new floor fail too, at their own paths.
    assert [p for p in paths if ".security." in p] == [f"{at}.min_trust", f"{at}.preferred_trust"]


# A variant's and a realization's errors name the document's own nested path,
# as parse errors do, behind a class that has no variants too.
@pytest.mark.parametrize("empty_class_first", [False, True], ids=["shipped", "empty_class_first"])
@pytest.mark.parametrize("name", ["session_heavy", "small_place", "trust_churn"])
def test_catalog_errors_name_the_nested_document_path(name, empty_class_first):
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    if empty_class_first:
        doc["catalog"]["classes"].insert(0, {"name": "empty", "lineage": [["base", "v1"]]})
    paths = []
    for c, cls in enumerate(doc["catalog"]["classes"]):
        for v, var in enumerate(cls.get("variants", [])):
            paths.append((f"catalog.classes[{c}].variants[{v}]", "quality"))
            for r in range(len(var["realizations"])):
                paths.append((f"catalog.classes[{c}].variants[{v}].realizations[{r}]", "prefill_time_per_token_us"))
    assert len(paths) > 2
    for at, key in paths:
        bad = json.loads(json.dumps(doc))
        _set(f"{at}.{key}", 0)(bad)
        assert [e.split(": ", 1)[0] for e in Scenario.from_dict(bad).validate()] == [f"{at}.{key}"]


# The reader gives each variant and realization its parent's id, so only a
# record built by hand names a parent the scenario lacks; it is reported at
# its index in the flat list.
@pytest.mark.parametrize(
    "item, own_id, parent, field",
    [
        ("variants", "variant_id", "parent_class", "catalog.variants[2].parent_class"),
        ("realizations", "realization_id", "variant_id", "catalog.realizations[2].variant_id"),
    ],
)
def test_a_record_built_by_hand_names_its_unknown_parent(item, own_id, parent, field):
    scenario = Scenario.load(SCENARIOS / "session_heavy.json")
    records = getattr(scenario, item)
    orphan = replace(records[0], **{own_id: "orphan", parent: "ghost"})
    assert [e.split(": ", 1)[0] for e in replace(scenario, **{item: [*records, orphan]}).validate()] == [field]


# Each value has the wrong JSON type for its field; the error names the
# field's full path, not an enclosing section.
@pytest.mark.parametrize(
    "mutate, field",
    [
        (_set("workload.regions[0].policy_mix[0].degradable", "false"), "workload.regions[0].policy_mix[0].degradable"),
        (_set("workload.regions[0].policy_mix[0].locality_scope", "moon"),
         "workload.regions[0].policy_mix[0].locality_scope"),
        (_set("workload.regions[0].policy_mix[0].allowed_domains", "abc"),
         "workload.regions[0].policy_mix[0].allowed_domains"),
        (_set("workload.regions[0].policy_mix[0].budget", 5.5), "workload.regions[0].policy_mix[0].budget"),
        (_set("workload.regions[0].classes", "chat"), "workload.regions[0].classes"),
        (_set("workload.regions[0].session.turns_g", "x"), "workload.regions[0].session.turns_g"),
        (_set("catalog.classes[0].lineage", [["a"]]), "catalog.classes[0].lineage[0]"),
        (_set("catalog.classes[0].security.min_trust", "secret"), "catalog.classes[0].security.min_trust"),
        (_with_request("requests[0].degradable", "no"), "requests[0].degradable"),
        (_set("workload.regions[0].policy_mix[0].preferred_domains", [5]),
         "workload.regions[0].policy_mix[0].preferred_domains[0]"),
        (_set("topology.nodes[0].max_concurrent", "2"), "topology.nodes[0].max_concurrent"),
        (lambda doc: doc["topology"]["nodes"][0].pop("node_id"), "topology.nodes[0].node_id"),
        (_set("workload", []), "workload"),
        (_set("workload.regions", {}), "workload.regions"),
        (_set("topology.nodes[0].tier", "moon"), "topology.nodes[0].tier"),
        (_set("topology.nodes[0].accelerator", 5), "topology.nodes[0].accelerator"),
        (_set("topology.nodes[0].region", 5), "topology.nodes[0].region"),
        (_set("topology.nodes[0].cache_capacity_bytes", "big"), "topology.nodes[0].cache_capacity_bytes"),
        (_with_request("requests[0].session", 3), "requests[0].session"),
        (_with_request("requests[0].session.turn_index", "2"), "requests[0].session.turn_index"),
        (_with_request("requests[0].session.prefix_tokens", 1.5), "requests[0].session.prefix_tokens"),
    ],
    ids=["degradable", "locality_scope", "allowed_domains", "budget", "classes", "turns_g", "lineage",
         "security_min_trust", "request_degradable", "preferred_domains", "node_max_concurrent", "node_id_missing",
         "workload", "workload_regions", "node_tier", "node_accelerator", "node_region", "node_cache_capacity_bytes",
         "request_session", "request_turn_index", "request_prefix_tokens"],
)
def test_validate_names_the_exact_path_of_a_mistyped_value(tmp_path, capsys, mutate, field):
    doc = json.loads((SCENARIOS / "session_heavy.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    paths = [line.split(" ", 1)[1].split(": ", 1)[0] for line in capsys.readouterr().err.splitlines()]
    assert paths == [field]


# trace.csv cells are unquoted, so an id with a comma or line break would
# split its row.
@pytest.mark.parametrize(
    "mutate, fields_named",
    [
        (lambda doc: _rename_region(doc, "metro", "metro,x"), ["topology.nodes[0].region", "workload.regions[0].region"]),
        (_set("topology.nodes[0].node_id", "edge\n1"), ["topology.nodes[0].node_id"]),
        (_set("catalog.classes[0].variants[0].realizations[0].realization_id", "chat,small"),
         ["catalog.classes[0].variants[0].realizations[0].realization_id"]),
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
    assert scenario.nodes[0].speed_factor == Fraction(3, 2)
    assert scenario.validate() == []


def parse_walk(value, out: list[str]) -> None:
    """Append a canonical text of a parsed value to ``out``: each record's
    type and its fields by name, recursing into records, lists and tuples;
    an enum by its name, a ``Fraction`` as ``p/q``. Records print no
    ``repr``, so this stands in for one."""
    if is_dataclass(value):
        out.append(f"{type(value).__name__}(")
        for f in fields(value):
            out.append(f"{f.name}=")
            parse_walk(getattr(value, f.name), out)
            out.append(",")
        out.append(")")
    elif isinstance(value, (list, tuple)):
        out.append("[" if isinstance(value, list) else "(")
        for item in value:
            parse_walk(item, out)
            out.append(",")
        out.append("]" if isinstance(value, list) else ")")
    elif isinstance(value, Enum):
        out.append(f"{type(value).__name__}.{value.name}")
    elif isinstance(value, Fraction):
        out.append(f"{value.numerator}/{value.denominator}")
    elif value is None or isinstance(value, (bool, int, float, str)):
        out.append(repr(value))
    else:
        raise TypeError(f"no canonical text for {type(value).__name__}")


def parse_digest(scenario: Scenario) -> str:
    out: list[str] = []
    parse_walk(scenario, out)
    return hashlib.sha256("".join(out).encode()).hexdigest()


# The sha256 of each shipped scenario's parse walk. A change to the reader or
# to a record's fields that alters what a file parses to changes these.
PARSE_DIGESTS = {
    "audit": "5985ae800dab67987798eb6f677fa0c295f482a750271fef0280f926e2d1618f",
    "locality": "0c6625b8714adc63ab57ee744a20d1b7f1383420b6e391cdc70d9942a411f99a",
    "overload": "3d5cbf0ce0e1657ad4515f20b10792708859fea91b7b001b52f96f7996f8abc5",
    "session_heavy": "43bbdfa5902dbddb78ffaed4851d1029e83ba7f1853f1c7df40646acc5791bec",
    "small_place": "60ea810af76bf24c2917b8973293932a847b5f28941e0102e90440b0eb6a70c9",
    "trust_churn": "3c5c572855a002b9861b8ccc289da831bc610fa74ca84a78c65494453c539ac0",
}


def test_shipped_scenarios_parse_to_their_pinned_digests():
    assert set(PARSE_DIGESTS) == {path.stem for path in SCENARIOS.glob("*.json")}
    assert {name: parse_digest(Scenario.load(SCENARIOS / f"{name}.json")) for name in PARSE_DIGESTS} == PARSE_DIGESTS


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


def test_missing_file_is_validation_failure(tmp_path, capsys):
    assert main(["validate", "/nonexistent/path.json"]) == 1
    # A directory in the file's place is reported on one line, not as a traceback.
    out = tmp_path / "out"
    for argv in (["validate", str(tmp_path)], ["run", str(tmp_path), "--out", str(out)]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert not out.exists()


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


def test_run_builds_the_metrics_summary_once(tmp_path, capsys, monkeypatch):
    """metrics.json and the summary line come from one ``summary()``."""
    calls = []
    summary = MetricsFrame.summary

    def counted(frame):
        calls.append(frame)
        return summary(frame)

    monkeypatch.setattr(MetricsFrame, "summary", counted)
    out = tmp_path / "out"
    assert main(["run", str(SCENARIOS / "session_heavy.json"), "--out", str(out)]) == 0
    assert len(calls) == 1
    doc = json.loads((out / "metrics.json").read_text())
    assert capsys.readouterr().out.startswith(f"requests={doc['arrivals']} ")


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


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("duration", ["-5", "0"])
def test_a_duration_override_is_validated_before_anything_runs(tmp_path, capsys, command, duration):
    out = tmp_path / "out"
    assert main([command, str(SCENARIOS / "small_place.json"), "--duration-us", duration, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "invalid: duration_us: must be > 0\n"
    assert captured.out == "" and not out.exists()


def test_compare_reports_both_runs(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", str(SCENARIOS / "locality.json"), "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("hierarchical:") and lines[1].startswith("cloud_only:")
    report = json.loads((out / "compare.json").read_text())
    assert report["hierarchical"]["core_bytes"] < report["cloud_only"]["core_bytes"]


def test_compare_onto_an_existing_file_is_a_runtime_failure(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["compare", str(SCENARIOS / "locality.json"), "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 17] File exists: {str(taken)!r}\n"
    assert captured.out == ""
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("command", [["run"], ["run", "--trace"], ["compare"]], ids=["run", "run_trace", "compare"])
def test_an_out_that_is_a_file_fails_before_any_simulation_runs(tmp_path, capsys, monkeypatch, command):
    def never(sim):
        raise AssertionError("Simulation.run was called")

    monkeypatch.setattr(Simulation, "run", never)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    name, *flags = command
    assert main([name, str(SCENARIOS / "audit.json"), "--out", str(taken), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 17] File exists: {str(taken)!r}\n"
    assert captured.out == ""
    assert taken.read_text() == "kept\n"


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
    problem = deployment.build_problem(sim.router, cells, scenario.placement_weights, residency)
    expected = deployment.solve_exact(problem)

    main(["oracle-place", str(SCENARIOS / "small_place.json"), "--at", str(at)])
    doc = json.loads(capsys.readouterr().out)
    assert {tuple(p) for p in doc["placement"]} == set(expected)
    assert doc["objective"] == frac_decimal(deployment.objective(problem, expected))


def test_oracle_place_rejects_a_negative_window_end_before_anything_runs(capsys, monkeypatch):
    from capsim import cli

    def no_simulation(*args, **kwargs):
        raise AssertionError("a Simulation was built")

    monkeypatch.setattr(cli, "Simulation", no_simulation)
    assert main(["oracle-place", str(SCENARIOS / "small_place.json"), "--at", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "invalid: --at: must be >= 0\n"
    assert captured.out == ""


def test_a_node_the_artifact_repository_cannot_reach_is_never_a_placement_candidate(tmp_path, capsys, monkeypatch):
    # Routing runs a realization on such a node only warm, so placement may
    # not plan a load there either.
    from capsim import deployment

    doc = json.loads((SCENARIOS / "small_place.json").read_text())
    edge = next(n for n in doc["topology"]["nodes"] if n["node_id"] == "edge-east-2")
    doc["topology"]["nodes"].append(dict(edge, node_id="edge-island"))
    path = tmp_path / "island.json"
    path.write_text(json.dumps(doc))
    build_problem = deployment.build_problem
    problems = []

    def recorded_build(*args, **kwargs):
        problems.append(build_problem(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(deployment, "build_problem", recorded_build)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert main(["oracle-place", str(path), "--at", "20000000"]) == 0
    assert "error" not in capsys.readouterr().err
    assert len(problems) == 3  # two replans and the oracle
    assert all(p.pairs and all(pair.node_id != "edge-island" for pair in p.pairs) for p in problems)


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
