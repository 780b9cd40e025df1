"""Scenario files: one JSON document carries topology, catalog, placement,
workload, weights, cache/deployment config, and trust scripts.

``Scenario.from_dict`` is the one reader of that document: every section is
converted once, at load, into typed values, and a value that does not
convert raises ``ScenarioParseError`` naming its field path. ``load`` also
surfaces JSON syntax errors with line/position; ``validate`` returns
referential and range errors as field-path strings, so a scenario either
parses and validates or the CLI reports exactly what is wrong.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, TypeVar

from .deployment import PlacementWeights
from .descriptors import (
    Capacity,
    CapabilityDescriptor,
    CapabilityRealization,
    CapabilityVariant,
    Hardware,
    Locality,
    NodeDynamicState,
    RequestDescriptor,
    ResourceProfile,
    Tier,
    parse_fraction,
    validate_descriptor,
)
from .routing import RoutingWeights
from .topology import Domain, Link, Node, Topology, region_vertex
from .trust import AttestationRecord
from .workload import WorkloadSpec

T = TypeVar("T")

# Id characters that would split a trace.csv cell or row.
_ID_FORBIDDEN = (",", "\n", "\r")


class ScenarioParseError(Exception):
    pass


@dataclass(slots=True)
class ScenarioNode:
    profile: ResourceProfile
    cache_capacity_bytes: int


@dataclass(frozen=True, slots=True)
class CacheConfig:
    enabled: bool = True
    window_us: int = 300_000_000  # hit-probability window
    storage_unit_cost: Fraction = Fraction(0)  # per cached byte, in the admission benefit
    eviction_policy: str = "benefit"


@dataclass(frozen=True, slots=True)
class DeploymentConfig:
    epoch_us: int = 60_000_000
    window_us: int = 300_000_000  # demand window each replan aggregates
    replan_enabled: bool = False
    local_search_rounds: int = 8


@dataclass(frozen=True, slots=True)
class Revocation:
    realization_id: str
    time_us: int = 0


@dataclass(frozen=True, slots=True)
class NodeEvent:
    node_id: str
    time_us: int = 0
    online: bool = True


@dataclass(slots=True)
class ScriptedRequest:
    """A request pinned in the scenario file, with optional session metadata."""

    request: RequestDescriptor
    session_id: str
    turn_index: int = 1
    total_turns: int = 1
    prefix_tokens: int = 0

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ScriptedRequest":
        session = d.get("session", {})
        request = RequestDescriptor.from_dict(d)
        return cls(
            request=request,
            session_id=session.get("session_id", request.request_id),
            turn_index=int(session.get("turn_index", 1)),
            total_turns=int(session.get("total_turns", 1)),
            prefix_tokens=int(session.get("prefix_tokens", 0)),
        )


@dataclass(slots=True)
class Scenario:
    name: str
    seed: int
    duration_us: int
    bytes_per_token: int
    artifact_repository: str | None
    domains: list[Domain]
    nodes: list[ScenarioNode]
    links: list[Link]
    classes: list[CapabilityDescriptor]
    variants: list[CapabilityVariant]
    realizations: list[CapabilityRealization]
    initial_placement: list[tuple[str, str]]  # (realization_id, node_id)
    routing_weights: RoutingWeights
    placement_weights: PlacementWeights
    cache: CacheConfig
    deployment: DeploymentConfig
    enable_split: bool
    workload: WorkloadSpec
    scripted_requests: list[ScriptedRequest]
    attestations: tuple[AttestationRecord, ...]
    revocations: tuple[Revocation, ...]  # file order
    node_events: tuple[NodeEvent, ...]  # file order
    digest: str = ""

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict[str, Any], digest: str = "") -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioParseError("scenario: expected a JSON object")
        topo = _section(d, "topology")
        classes: list[CapabilityDescriptor] = []
        variants: list[CapabilityVariant] = []
        realizations: list[CapabilityRealization] = []
        for path, cls_d in _items(_section(d, "catalog"), "catalog.classes"):
            classes.append(_parse(path, CapabilityDescriptor.from_dict, cls_d))
            for var_path, var_d in _items(cls_d, f"{path}.variants"):
                var_d = {"parent_class": cls_d["name"], "security": cls_d.get("security", {}), **var_d}
                variants.append(_parse(var_path, CapabilityVariant.from_dict, var_d))
                for real_path, real_d in _items(var_d, f"{var_path}.realizations"):
                    real_d = {"variant_id": var_d["variant_id"], **real_d}
                    realizations.append(_parse(real_path, CapabilityRealization.from_dict, real_d))
        weights = _section(d, "weights")
        trust = _section(d, "trust_script")
        return cls(
            name=_parse("name", str, d.get("name", "scenario")),
            seed=_parse("seed", int, d.get("seed", 0)),
            duration_us=_parse("duration_us", int, d.get("duration_us", 1_000_000)),
            bytes_per_token=_parse("bytes_per_token", int, d.get("bytes_per_token", 4)),
            artifact_repository=_read(topo, "topology", "artifact_repository", _optional(str), None),
            domains=[_record(Domain, dd, p) for p, dd in _items(topo, "topology.domains")],
            nodes=[_parse_node(nd, p) for p, nd in _items(topo, "topology.nodes")],
            links=[_record(Link, ld, p) for p, ld in _items(topo, "topology.links")],
            classes=classes,
            variants=variants,
            realizations=realizations,
            initial_placement=[
                _parse(p, lambda pair: (str(pair[0]), str(pair[1])), pair)
                for p, pair in _items(d, "initial_placement", list)
            ],
            routing_weights=_record(RoutingWeights, weights, "weights", tie_eps="tie_epsilon"),
            placement_weights=_record(PlacementWeights, weights, "weights", lambda_deploy="lambda", mu_net="mu", nu_risk="nu"),
            cache=_record(CacheConfig, _section(d, "cache"), "cache"),
            deployment=_record(DeploymentConfig, _section(d, "deployment"), "deployment"),
            enable_split=_read(_section(d, "routing"), "routing", "enable_split", _bool, True),
            workload=_parse("workload", WorkloadSpec.from_dict, _section(d, "workload")),
            scripted_requests=[_parse(p, ScriptedRequest.from_dict, r) for p, r in _items(d, "requests")],
            attestations=tuple(_record(AttestationRecord, a, p) for p, a in _items(trust, "trust_script.attestations")),
            revocations=tuple(_record(Revocation, r, p) for p, r in _items(trust, "trust_script.revocations")),
            node_events=tuple(_record(NodeEvent, e, p) for p, e in _items(d, "node_events")),
            digest=digest,
        )

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        raw = Path(path).read_bytes()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        return cls.from_dict(data, digest=hashlib.sha256(raw).hexdigest())

    # -- validation ------------------------------------------------------------

    def validate(self) -> list[str]:
        errors: list[str] = []
        if self.duration_us <= 0:
            errors.append("duration_us: must be > 0")
        if self.bytes_per_token < 0:
            errors.append("bytes_per_token: must be >= 0")

        if self.cache.eviction_policy not in ("benefit", "lru"):
            errors.append(f"cache.eviction_policy: unknown policy {self.cache.eviction_policy!r}")
        if self.deployment.epoch_us <= 0:
            errors.append("deployment.epoch_us: must be > 0")
        if self.deployment.local_search_rounds < 0:
            errors.append("deployment.local_search_rounds: must be >= 0")
        if self.routing_weights.tie_eps < 0:
            errors.append("weights.tie_epsilon: must be >= 0")

        domains = {d.domain_id: d for d in self.domains}
        node_ids = set()
        regions = set()
        for i, snode in enumerate(self.nodes):
            prefix = f"topology.nodes[{i}]"
            profile = snode.profile
            if profile.node_id in node_ids:
                errors.append(f"{prefix}.node_id: duplicate {profile.node_id}")
            node_ids.add(profile.node_id)
            regions.add(profile.locality.region)
            _check_id(errors, f"{prefix}.node_id", profile.node_id)
            _check_id(errors, f"{prefix}.region", profile.locality.region)
            domain = domains.get(profile.domain_id)
            if domain is None:
                errors.append(f"{prefix}.domain_id: unknown domain {profile.domain_id}")
            elif profile.trust < domain.min_trust:
                errors.append(f"{prefix}.trust: below domain {domain.domain_id} min_trust {domain.min_trust}")
            if profile.hardware.speed_factor <= 0:
                errors.append(f"{prefix}.speed_factor: must be > 0")
            if snode.cache_capacity_bytes < 0:
                errors.append(f"{prefix}.cache_capacity_bytes: must be >= 0")
            for violation in validate_descriptor(profile):
                errors.append(f"{prefix}.{violation}")

        vertices = node_ids | {region_vertex(r) for r in regions}
        link_ids = set()
        for i, link in enumerate(self.links):
            prefix = f"topology.links[{i}]"
            if link.link_id in link_ids:
                errors.append(f"{prefix}.link_id: duplicate {link.link_id}")
            link_ids.add(link.link_id)
            for end, value in (("src", link.src), ("dst", link.dst)):
                if value not in vertices:
                    errors.append(f"{prefix}.{end}: unknown vertex {value}")
            if link.propagation_delay_us < 0:
                errors.append(f"{prefix}.propagation_delay_us: must be >= 0")
            if link.bandwidth_bytes_per_us <= 0:
                errors.append(f"{prefix}.bandwidth_bytes_per_us: must be > 0")

        if self.artifact_repository is not None and self.artifact_repository not in node_ids:
            errors.append(f"topology.artifact_repository: unknown node {self.artifact_repository}")

        class_names = set()
        for i, cd in enumerate(self.classes):
            if cd.name in class_names:
                errors.append(f"catalog.classes[{i}].name: duplicate {cd.name}")
            class_names.add(cd.name)
            for violation in validate_descriptor(cd):
                errors.append(f"catalog.classes[{i}].{violation}")
        variant_ids = set()
        for i, var in enumerate(self.variants):
            if var.variant_id in variant_ids:
                errors.append(f"catalog.variants[{i}].variant_id: duplicate {var.variant_id}")
            variant_ids.add(var.variant_id)
            if var.parent_class not in class_names:
                errors.append(f"catalog.variants[{i}].parent_class: unknown class {var.parent_class}")
            for violation in validate_descriptor(var):
                errors.append(f"catalog.variants[{i}].{violation}")
        realization_ids = set()
        for i, real in enumerate(self.realizations):
            if real.realization_id in realization_ids:
                errors.append(f"catalog.realizations[{i}].realization_id: duplicate {real.realization_id}")
            realization_ids.add(real.realization_id)
            _check_id(errors, f"catalog.realizations[{i}].realization_id", real.realization_id)
            if real.variant_id not in variant_ids:
                errors.append(f"catalog.realizations[{i}].variant_id: unknown variant {real.variant_id}")
            for violation in validate_descriptor(real):
                errors.append(f"catalog.realizations[{i}].{violation}")

        profiles = {s.profile.node_id: s.profile for s in self.nodes}
        placed: dict[str, int] = {}
        realization_by_id = {r.realization_id: r for r in self.realizations}
        for i, (rid, node_id) in enumerate(self.initial_placement):
            prefix = f"initial_placement[{i}]"
            if rid not in realization_ids:
                errors.append(f"{prefix}: unknown realization {rid}")
                continue
            if node_id not in node_ids:
                errors.append(f"{prefix}: unknown node {node_id}")
                continue
            profile = profiles[node_id]
            realization = realization_by_id[rid]
            if realization.accelerator != profile.hardware.accelerator:
                errors.append(f"{prefix}: accelerator mismatch {realization.accelerator} on {node_id}")
            placed[node_id] = placed.get(node_id, 0) + realization.artifact_size_bytes
            if placed[node_id] > profile.capacity.memory_budget_bytes:
                errors.append(f"{prefix}: memory budget exceeded on {node_id}")

        for i, region in enumerate(self.workload.regions):
            prefix = f"workload.regions[{i}]"
            _check_id(errors, f"{prefix}.region", region.region)
            if region.rate_per_s < 0:
                errors.append(f"{prefix}.rate_per_s: must be >= 0")
            if region.zipf_s < 0:
                errors.append(f"{prefix}.zipf_s: must be >= 0")
            if not 0 < region.session_turns_g <= 1:
                errors.append(f"{prefix}.session.turns_g: must be in (0, 1]")
            for cname in region.classes:
                if cname not in class_names:
                    errors.append(f"{prefix}.classes: unknown class {cname}")
            if region.rate_per_s > 0 and not region.classes:
                errors.append(f"{prefix}.classes: required when rate_per_s > 0")
            for key in ("input_tokens", "output_tokens"):
                if getattr(region, key).dist not in ("fixed", "lognormal"):
                    errors.append(f"{prefix}.{key}.dist: must be fixed or lognormal")
            for j, template in enumerate(region.policy_mix):
                path = f"{prefix}.policy_mix[{j}]"
                if not template.weight > 0:
                    errors.append(f"{path}.weight: must be > 0")
                if template.quality_target < 1:
                    errors.append(f"{path}.quality_target: must be >= 1")
                if template.budget is not None and not (type(template.budget) is int and template.budget >= 0):
                    errors.append(f"{path}.budget: must be an integer >= 0")
                for violation in validate_descriptor(template.policy):
                    errors.append(f"{path}.{violation}")

        for i, scripted in enumerate(self.scripted_requests):
            request = scripted.request
            _check_id(errors, f"requests[{i}].request_id", request.request_id)
            _check_id(errors, f"requests[{i}].origin_region", request.origin_region)
            _check_id(errors, f"requests[{i}].session.session_id", scripted.session_id)
            for violation in validate_descriptor(request):
                errors.append(f"requests[{i}].{violation}")
            if request.capability_class not in class_names:
                errors.append(f"requests[{i}].capability_class: unknown class {request.capability_class}")
            if not 1 <= scripted.turn_index <= scripted.total_turns:
                errors.append(f"requests[{i}].session.turn_index: outside 1..total_turns")
            if scripted.prefix_tokens > request.input_tokens:
                errors.append(f"requests[{i}].session.prefix_tokens: exceeds input_tokens")

        for i, att in enumerate(self.attestations):
            prefix = f"trust_script.attestations[{i}]"
            if att.node_id not in node_ids:
                errors.append(f"{prefix}.node_id: unknown node {att.node_id}")
            elif not 0 <= att.level <= 3:
                errors.append(f"{prefix}.level: must be in [0, 3]")
            elif att.level > profiles[att.node_id].trust:
                errors.append(f"{prefix}.level: exceeds node claimed trust {profiles[att.node_id].trust}")
        for i, rev in enumerate(self.revocations):
            if rev.realization_id not in realization_ids:
                errors.append(f"trust_script.revocations[{i}].realization_id: unknown realization")
        for i, ev in enumerate(self.node_events):
            if ev.node_id not in node_ids:
                errors.append(f"node_events[{i}].node_id: unknown node")

        return errors

    def build_topology(self) -> Topology:
        return Topology(
            nodes=[Node(profile=s.profile) for s in self.nodes],
            domains=self.domains,
            links=self.links,
        )


def _parse_node(nd: dict[str, Any], path: str) -> ScenarioNode:
    memory_budget = _read(nd, path, "memory_budget_bytes", int, 0)
    profile = ResourceProfile(
        node_id=_parse(path, lambda node: str(node["node_id"]), nd),
        domain_id=_read(nd, path, "domain_id", str, ""),
        hardware=Hardware(
            accelerator=_read(nd, path, "accelerator", str, "cpu"),
            speed_factor=_read(nd, path, "speed_factor", parse_fraction, Fraction(1)),
            memory_bytes=memory_budget,
            storage_bytes=_read(nd, path, "storage_bytes", int, 0),
        ),
        runtime=_read(nd, path, "runtimes", lambda r: tuple(sorted(r)), ("std",)),
        capacity=Capacity(
            max_concurrent=_read(nd, path, "max_concurrent", int, 1),
            memory_budget_bytes=memory_budget,
            admission_cap=_read(nd, path, "admission_cap", int, 16),
        ),
        state=NodeDynamicState(free_memory_bytes=memory_budget),
        locality=Locality(region=_read(nd, path, "region", str, ""), tier=_read(nd, path, "tier", Tier, Tier.CLOUD)),
        trust=_read(nd, path, "trust", int, 0),
    )
    return ScenarioNode(profile=profile, cache_capacity_bytes=_read(nd, path, "cache_capacity_bytes", int, 0))


def _parse(path: str, build: Callable[[Any], T], value: Any) -> T:
    """``build(value)``; a missing key or a value that does not convert
    raises ``ScenarioParseError`` naming ``path``."""
    try:
        return build(value)
    except KeyError as exc:
        raise ScenarioParseError(f"{path}.{exc.args[0]}: required") from exc
    except (AttributeError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc


def _read(section: dict, path: str, key: str, convert: Callable[[Any], T], default: T) -> T:
    """``convert(section[key])``, or ``default`` when the key is absent."""
    return _parse(f"{path}.{key}", convert, section[key]) if key in section else default


def _record(cls: Callable[..., T], section: dict, path: str, **keys: str) -> T:
    """The dataclass ``cls`` read from ``section``: each field from the key of
    its name, or the key ``keys`` gives for it, converted by its annotated
    type. An absent key keeps the field's default; a field without one is
    required."""
    values = {}
    for f in fields(cls):
        key = keys.get(f.name, f.name)
        if key in section:
            values[f.name] = _parse(f"{path}.{key}", _CONVERTERS[f.type], section[key])
        elif f.default is MISSING:
            raise ScenarioParseError(f"{path}.{key}: required")
    return cls(**values)


def _section(d: dict, key: str) -> dict:
    value = d.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{key}: expected an object")
    return value


def _items(section: dict, path: str, item_type: type = dict) -> list[tuple[str, Any]]:
    """(field path, item) for each item of the list at ``path``."""
    items = section.get(path.rsplit(".", 1)[-1], [])
    if not isinstance(items, list):
        raise ScenarioParseError(f"{path}: expected a list")
    for i, item in enumerate(items):
        if not isinstance(item, item_type):
            raise ScenarioParseError(f"{path}[{i}]: expected {'an object' if item_type is dict else 'a list'}")
    return [(f"{path}[{i}]", item) for i, item in enumerate(items)]


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _optional(convert: Callable[[Any], T]) -> Callable[[Any], T | None]:
    return lambda value: None if value is None else convert(value)


def _check_id(errors: list[str], path: str, value: Any) -> None:
    if any(c in str(value) for c in _ID_FORBIDDEN):
        errors.append(f"{path}: must not contain ',' or a line break")


# Converters by annotated field type, for ``_record``; the record modules
# postpone annotations, so each type is its source text.
_CONVERTERS = {"bool": _bool, "int": int, "int | None": _optional(int), "str": str, "Fraction": parse_fraction}
