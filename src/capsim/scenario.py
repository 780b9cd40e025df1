"""Scenario files: one JSON document carries topology, catalog, placement,
workload, weights, cache/deployment config, and trust scripts.

``_record`` is the one rule by which that document becomes typed values: it
reads each field of a dataclass from its key (``_KEYS`` names the keys that
differ from the field's name) and converts the value by the field's
annotation, recursing into nested records, enums, optionals and tuples. A
field's default is its dataclass default, and a value that does not convert
raises ``ScenarioParseError`` naming its field path, e.g.
``workload.regions[0].policy_mix[0].locality_scope``. ``Scenario.from_dict``
reads the whole document through it; only the catalog tree, whose variants
and realizations name their parents, is walked by hand, and each variant's
and realization's document path is kept for ``validate``. ``load`` also
surfaces JSON syntax errors with line/position; ``validate`` returns
referential and range errors as field-path strings, so a scenario either
parses and validates or the CLI reports exactly what is wrong.

A numeric range is declared once, on the record field it bounds
(``descriptors.bounded``). ``_fields`` keeps each type's bounds beside its
document keys, so ``_bounds`` checks every bounded field of a record by one
rule and reports it at the key the reader read it from. ``validate`` calls it
once per record and writes by hand only the rules a bound cannot state:
references between records, comparisons of two fields, non-empty lists, id
characters and the token distribution names.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Any, Callable, TypeVar, get_args, get_origin, get_type_hints

from .deployment import PlacementWeights
from .descriptors import (
    CapabilityDescriptor,
    CapabilityRealization,
    CapabilityVariant,
    LocalityScope,
    PolicyConstraint,
    ResourceProfile,
    SecurityLabel,
    bounded,
    parse_fraction,
)
from .routing import RoutingWeights
from .topology import Domain, Link, Topology, region_vertex
from .trust import AttestationRecord
from .workload import Arrival, PolicyTemplate, RegionWorkload

T = TypeVar("T")

# Id characters that would split a trace.csv cell or row.
_ID_FORBIDDEN = (",", "\n", "\r")


class ScenarioParseError(Exception):
    pass


@dataclass(slots=True, eq=False, repr=False)
class CacheConfig:
    """The scenario's ``cache`` section: whether session state is cached, its hit window and storage price."""

    enabled: bool = True
    window_us: int = bounded(300_000_000, 0)  # hit-probability window
    storage_unit_cost: Fraction = bounded(Fraction(0), 0)  # per cached byte, in the admission benefit


@dataclass(slots=True, eq=False, repr=False)
class DeploymentConfig:
    """The scenario's ``deployment`` section: the replan epoch, the demand window and the search rounds."""

    epoch_us: int = bounded(60_000_000, 0, above=True)
    window_us: int = bounded(300_000_000, 0)  # demand window each replan aggregates
    replan_enabled: bool = False
    local_search_rounds: int = bounded(8, 0)


@dataclass(slots=True, eq=False, repr=False)
class Revocation:
    """A scripted revocation of a realization's lineage at ``time_us``."""

    realization_id: str
    time_us: int = bounded(0, 0)


@dataclass(slots=True, eq=False, repr=False)
class NodeEvent:
    """A scripted change of a node's liveness at ``time_us``."""

    node_id: str
    time_us: int = bounded(0, 0)
    online: bool = True


@dataclass(slots=True, kw_only=True, eq=False, repr=False)
class Scenario:
    """A parsed scenario file: topology, catalog, placement, workload, weights, configuration and scripts."""

    name: str = "scenario"
    seed: int = 0
    duration_us: int = bounded(1_000_000, 0, above=True)
    bytes_per_token: int = bounded(4, 0)
    artifact_repository: str | None = None
    domains: list[Domain] = field(default_factory=list)
    nodes: list[ResourceProfile] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    classes: list[CapabilityDescriptor]
    variants: list[CapabilityVariant]
    realizations: list[CapabilityRealization]
    # Each variant's and realization's path in the document, for validate's reports.
    variant_paths: tuple[str, ...] = ()
    realization_paths: tuple[str, ...] = ()
    initial_placement: list[tuple[str, str]] = field(default_factory=list)  # (realization_id, node_id)
    routing_weights: RoutingWeights = RoutingWeights()
    placement_weights: PlacementWeights = PlacementWeights()
    cache: CacheConfig = CacheConfig()
    deployment: DeploymentConfig = DeploymentConfig()
    enable_split: bool = True
    workload: tuple[RegionWorkload, ...] = ()
    scripted_requests: list[Arrival] = field(default_factory=list)
    attestations: tuple[AttestationRecord, ...] = ()
    revocations: tuple[Revocation, ...] = ()  # file order
    node_events: tuple[NodeEvent, ...] = ()  # file order
    digest: str = ""

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict[str, Any], digest: str = "") -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioParseError("scenario: expected a JSON object")
        classes: list[CapabilityDescriptor] = []
        variants: list[CapabilityVariant] = []
        realizations: list[CapabilityRealization] = []
        variant_paths: list[str] = []
        realization_paths: list[str] = []
        for path, cls_d in _items(_object(d.get("catalog", {}), "catalog"), "catalog.classes"):
            classes.append(_record(CapabilityDescriptor, cls_d, path))
            # A variant without its own label takes its class's whole label.
            for var_path, var_d in _items(cls_d, f"{path}.variants"):
                inherited = {} if "security" in var_d else {"security": classes[-1].security}
                variants.append(
                    _record(CapabilityVariant, var_d, var_path, parent_class=classes[-1].name, **inherited)
                )
                variant_paths.append(var_path)
                for real_path, real_d in _items(var_d, f"{var_path}.realizations"):
                    realizations.append(
                        _record(CapabilityRealization, real_d, real_path, variant_id=variants[-1].variant_id)
                    )
                    realization_paths.append(real_path)
        return _record(
            cls,
            d,
            "",
            classes=classes,
            variants=variants,
            realizations=realizations,
            variant_paths=tuple(variant_paths),
            realization_paths=tuple(realization_paths),
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
        """Every error of the scenario, as ``path: what is wrong`` strings.
        Each value outside the bound its field declares is reported by
        ``_bounds``; the rules written here are referential and cross-field
        ones. A rule that compares two values runs only where both are
        inside their bounds, so that one bad value is reported once."""
        errors: list[str] = []
        for record, path in (
            (self, ""),
            (self.cache, "cache"),
            (self.deployment, "deployment"),
            (self.routing_weights, "weights"),
            (self.placement_weights, "weights"),
        ):
            _bounds(errors, record, path)

        domain_ids = set()
        floors: dict[str, int] = {}  # the trust floor of each domain inside its bounds
        for i, domain in enumerate(self.domains):
            prefix = f"topology.domains[{i}]"
            if domain.domain_id in domain_ids:
                errors.append(f"{prefix}.domain_id: duplicate {domain.domain_id}")
            domain_ids.add(domain.domain_id)
            if _bounds(errors, domain, prefix):
                floors.setdefault(domain.domain_id, domain.min_trust)
        node_ids = set()
        regions = set()
        sound_nodes = set()  # the nodes inside their bounds
        for i, profile in enumerate(self.nodes):
            prefix = f"topology.nodes[{i}]"
            if profile.node_id in node_ids:
                errors.append(f"{prefix}.node_id: duplicate {profile.node_id}")
            node_ids.add(profile.node_id)
            regions.add(profile.region)
            _check_id(errors, f"{prefix}.node_id", profile.node_id)
            _check_id(errors, f"{prefix}.region", profile.region)
            if profile.domain_id not in domain_ids:
                errors.append(f"{prefix}.domain_id: unknown domain {profile.domain_id}")
            if _bounds(errors, profile, prefix):
                sound_nodes.add(profile.node_id)
                floor = floors.get(profile.domain_id)
                if floor is not None and profile.trust < floor:
                    errors.append(f"{prefix}.trust: below domain {profile.domain_id} min_trust {floor}")

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
            _bounds(errors, link, prefix)

        if self.artifact_repository is not None and self.artifact_repository not in node_ids:
            errors.append(f"topology.artifact_repository: unknown node {self.artifact_repository}")

        class_names = set()
        sound_labels = set()  # the security labels inside their bounds
        for i, cd in enumerate(self.classes):
            prefix = f"catalog.classes[{i}]"
            if cd.name in class_names:
                errors.append(f"{prefix}.name: duplicate {cd.name}")
            class_names.add(cd.name)
            if not cd.lineage:
                errors.append(f"{prefix}.lineage: must not be empty")
            if _label(errors, cd.security, f"{prefix}.security"):
                sound_labels.add(cd.security)
        class_labels = {cd.name: cd.security for cd in self.classes}
        variant_ids = set()
        for var, prefix in zip(self.variants, _catalog_paths(self.variant_paths, self.variants, "variants")):
            if var.variant_id in variant_ids:
                errors.append(f"{prefix}.variant_id: duplicate {var.variant_id}")
            variant_ids.add(var.variant_id)
            if var.parent_class not in class_names:
                errors.append(f"{prefix}.parent_class: unknown class {var.parent_class}")
            _bounds(errors, var, prefix)
            # A label it takes from its class is its class's to report.
            if var.security is not class_labels.get(var.parent_class) and _label(
                errors, var.security, f"{prefix}.security"
            ):
                sound_labels.add(var.security)
        realization_ids = set()
        realization_paths = _catalog_paths(self.realization_paths, self.realizations, "realizations")
        for real, prefix in zip(self.realizations, realization_paths):
            if real.realization_id in realization_ids:
                errors.append(f"{prefix}.realization_id: duplicate {real.realization_id}")
            realization_ids.add(real.realization_id)
            _check_id(errors, f"{prefix}.realization_id", real.realization_id)
            if real.variant_id not in variant_ids:
                errors.append(f"{prefix}.variant_id: unknown variant {real.variant_id}")
            _bounds(errors, real, prefix)

        profiles = {p.node_id: p for p in self.nodes}
        placed: dict[str, int] = {}
        realization_by_id = {r.realization_id: r for r in self.realizations}
        variant_by_id = {v.variant_id: v for v in self.variants}
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
            if realization.accelerator != profile.accelerator:
                errors.append(f"{prefix}: accelerator mismatch {realization.accelerator} on {node_id}")
            if node_id not in sound_nodes:
                continue
            variant = variant_by_id.get(realization.variant_id)
            if variant is not None and variant.security in sound_labels and profile.trust < variant.security.min_trust:
                floor = variant.security.min_trust
                errors.append(f"{prefix}: trust {profile.trust} of {node_id} is below the floor {floor} of {rid}")
            placed[node_id] = placed.get(node_id, 0) + realization.artifact_size_bytes
            if placed[node_id] > profile.memory_budget_bytes:
                errors.append(f"{prefix}: memory budget exceeded on {node_id}")

        # Request ids key the run's in-flight table and its receipts, so no
        # two arrivals may share one.
        workload_regions = set()
        for i, region in enumerate(self.workload):
            prefix = f"workload.regions[{i}]"
            if region.region in workload_regions:
                errors.append(f"{prefix}.region: duplicate {region.region}")
            workload_regions.add(region.region)
            _check_id(errors, f"{prefix}.region", region.region)
            for cname in region.classes:
                if cname not in class_names:
                    errors.append(f"{prefix}.classes: unknown class {cname}")
            if _bounds(errors, region, prefix) and region.rate_per_s and not region.classes:
                errors.append(f"{prefix}.classes: required when rate_per_s > 0")
            for key in ("input_tokens", "output_tokens"):
                tokens = getattr(region, key)
                if tokens.dist not in ("fixed", "lognormal"):
                    errors.append(f"{prefix}.{key}.dist: must be fixed or lognormal")
                _bounds(errors, tokens, f"{prefix}.{key}")
            if not region.policy_mix:
                errors.append(f"{prefix}.policy_mix: must not be empty")
            for j, template in enumerate(region.policy_mix):
                path = f"{prefix}.policy_mix[{j}]"
                _bounds(errors, template, path)
                _policy(errors, template.policy, path)

        request_ids = set()
        for i, scripted in enumerate(self.scripted_requests):
            prefix = f"requests[{i}]"
            request = scripted.request
            if request.request_id in request_ids:
                errors.append(f"{prefix}.request_id: duplicate {request.request_id}")
            request_ids.add(request.request_id)
            # A generated id is its region's name, "-" and six or more digits.
            region, _, number = request.request_id.rpartition("-")
            if region in workload_regions and len(number) >= 6 and number.isdigit():
                errors.append(f"{prefix}.request_id: {request.request_id} is a workload id of region {region}")
            _check_id(errors, f"{prefix}.request_id", request.request_id)
            _check_id(errors, f"{prefix}.origin_region", request.origin_region)
            _check_id(errors, f"{prefix}.session.session_id", scripted.session_id)
            if request.capability_class not in class_names:
                errors.append(f"{prefix}.capability_class: unknown class {request.capability_class}")
            _policy(errors, request.policy, f"{prefix}.policy")
            if _bounds(errors, scripted, prefix) & _bounds(errors, request, prefix):
                if scripted.turn_index > scripted.total_turns:
                    errors.append(f"{prefix}.session.turn_index: exceeds total_turns")
                if scripted.prefix_tokens > request.input_tokens:
                    errors.append(f"{prefix}.session.prefix_tokens: exceeds input_tokens")
            # Routing finds cached state by the token's session part, and
            # admission and lookup by the session id, so the two must agree.
            if request.affinity_token and request.affinity_token.partition(":")[0] != scripted.session_id:
                errors.append(f"{prefix}.affinity_token: session part differs from session id {scripted.session_id}")

        for i, att in enumerate(self.attestations):
            prefix = f"trust_script.attestations[{i}]"
            sound = _bounds(errors, att, prefix)
            if att.node_id not in node_ids:
                errors.append(f"{prefix}.node_id: unknown node {att.node_id}")
            elif sound and att.node_id in sound_nodes and att.level > profiles[att.node_id].trust:
                errors.append(f"{prefix}.level: exceeds node claimed trust {profiles[att.node_id].trust}")
        for i, rev in enumerate(self.revocations):
            if rev.realization_id not in realization_ids:
                errors.append(f"trust_script.revocations[{i}].realization_id: unknown realization")
            _bounds(errors, rev, f"trust_script.revocations[{i}]")
        for i, ev in enumerate(self.node_events):
            if ev.node_id not in node_ids:
                errors.append(f"node_events[{i}].node_id: unknown node")
            _bounds(errors, ev, f"node_events[{i}]")

        return errors

    def build_topology(self) -> Topology:
        return Topology(nodes=[p.node_id for p in self.nodes], domains=self.domains, links=self.links)


def _parse(path: str, build: Callable[[Any], T], value: Any) -> T:
    """``build(value)``; a value that does not convert raises
    ``ScenarioParseError`` naming ``path``."""
    try:
        return build(value)
    except (AttributeError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc


def _record(cls: type[T], section: dict, path: str, **given: Any) -> T:
    """The dataclass ``cls`` read from ``section`` at field path ``path``:
    each field but the ``given`` ones from the first of its keys present,
    converted by its annotated type. An absent key keeps the field's
    default; a field without one is required."""
    values = dict(given)
    for name, keys, convert, required, _ in _fields(cls):
        if name in given:
            continue
        for key in keys:
            value = _lookup(section, path, key)
            if value is not MISSING:
                values[name] = convert(value, _join(path, key))
                break
        else:
            if required:
                raise ScenarioParseError(f"{_join(path, keys[0])}: required")
    return cls(**values)


@cache
def _fields(cls: type) -> tuple[tuple[str, tuple[str, ...], Callable[[Any, str], Any], bool, tuple | None], ...]:
    """(name, document keys, converter, required, bound) for each field of
    ``cls``; the bound is the ``(low, high, above)`` the field declares
    through ``descriptors.bounded``, or None."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        keys = _KEYS.get((cls, f.name), f.name)
        required = f.default is MISSING and f.default_factory is MISSING
        bound = f.metadata.get("bound")
        out.append((f.name, (keys,) if isinstance(keys, str) else keys, _converter(hints[f.name]), required, bound))
    return tuple(out)


def _bounds(errors: list[str], record: Any, path: str) -> bool:
    """Report each field of ``record`` whose value is outside the bound it
    declares, at its document key under ``path``; True when none is."""
    sound = True
    for name, keys, _, _, bound in _fields(type(record)):
        if bound is None:
            continue
        value = getattr(record, name)
        low, high, above = bound
        if value is not None and ((value <= low if above else value < low) or (high is not None and value > high)):
            sound = False
            if high is None:
                rule = f"{'>' if above else '>='} {low}"
            else:
                rule = f"in {'(' if above else '['}{low}, {high}]"
            errors.append(f"{_join(path, keys[0])}: must be {rule}")
    return sound


def _label(errors: list[str], label: SecurityLabel, path: str) -> bool:
    """``_bounds`` of a security label, and a preferred trust no lower than
    its floor; True when both hold."""
    if not _bounds(errors, label, path):
        return False
    if label.preferred_trust < label.min_trust:
        errors.append(f"{path}.preferred_trust: must be >= min_trust")
        return False
    return True


def _policy(errors: list[str], policy: PolicyConstraint, path: str) -> None:
    """``_bounds`` of a policy, and the allowed domains its domain scope needs."""
    _bounds(errors, policy, path)
    if policy.locality_scope is LocalityScope.DOMAIN and policy.allowed_domains is None:
        errors.append(f"{_join(path, 'allowed_domains')}: required by locality_scope domain")


@cache
def _converter(tp: Any) -> Callable[[Any, str], Any]:
    """The converter of a document value, and its field path, to the
    resolved annotation ``tp``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None
        convert = _converter(args[0])
        return lambda value, path: None if value is None else convert(value, path)
    if origin is list or (origin is tuple and args[-1] is Ellipsis):
        convert = _converter(args[0])
        return lambda value, path: origin(convert(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path)))
    if origin is tuple:
        converts = [_converter(arg) for arg in args]

        def fixed(value: Any, path: str) -> tuple:
            if len(_list(value, path)) != len(converts):
                raise ScenarioParseError(f"{path}: expected {len(converts)} items")
            return tuple(convert(v, f"{path}[{i}]") for i, (convert, v) in enumerate(zip(converts, value)))

        return fixed
    if is_dataclass(tp):
        return lambda value, path: _record(tp, _object(value, path), path)
    leaf = _LEAVES.get(tp, tp)  # an enum converts by its own constructor
    return lambda value, path: _parse(path, leaf, value)


def _lookup(section: dict, path: str, key: str) -> Any:
    """The value at the dotted ``key`` of ``section``, or ``MISSING``; the
    key "" is ``section`` itself."""
    if not key:
        return section
    *outer, last = key.split(".")
    for part in outer:
        if part not in section:
            return MISSING
        path = _join(path, part)
        section = _object(section[part], path)
    return section.get(last, MISSING)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path and key else path or key


def _catalog_paths(paths: tuple[str, ...], items: list, key: str) -> tuple[str, ...]:
    """The document path of each item of a flat catalog list: ``paths``, as
    ``from_dict`` recorded them, or for a list built by hand each item's
    index in it, ``catalog.<key>[i]``."""
    return paths if len(paths) == len(items) else tuple(f"catalog.{key}[{i}]" for i in range(len(items)))


def _items(section: dict, path: str) -> list[tuple[str, dict]]:
    """(field path, object) for each item of the list at ``path``."""
    items = _list(section.get(path.rsplit(".", 1)[-1], []), path)
    return [(f"{path}[{i}]", _object(item, f"{path}[{i}]")) for i, item in enumerate(items)]


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{path}: expected an object")
    return value


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioParseError(f"{path}: expected a list")
    return value


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _int(value: Any) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _float(value: Any) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _check_id(errors: list[str], path: str, value: Any) -> None:
    if any(c in str(value) for c in _ID_FORBIDDEN):
        errors.append(f"{path}: must not contain ',' or a line break")


# Converters of the leaf annotations; any other leaf is an enum.
_LEAVES = {bool: _bool, int: _int, float: _float, str: _str, Fraction: parse_fraction}

# Document keys of the fields not read from the key of their own name. A
# dotted key reaches into a nested object, "" is the record's own object,
# and of several keys the first one present is read.
_KEYS: dict[tuple[type, str], str | tuple[str, ...]] = {
    (Scenario, "artifact_repository"): "topology.artifact_repository",
    (Scenario, "domains"): "topology.domains",
    (Scenario, "nodes"): "topology.nodes",
    (Scenario, "links"): "topology.links",
    (Scenario, "routing_weights"): "weights",
    (Scenario, "placement_weights"): "weights",
    (Scenario, "enable_split"): "routing.enable_split",
    (Scenario, "workload"): "workload.regions",
    (Scenario, "scripted_requests"): "requests",
    (Scenario, "attestations"): "trust_script.attestations",
    (Scenario, "revocations"): "trust_script.revocations",
    (RoutingWeights, "tie_eps"): "tie_epsilon",
    (PlacementWeights, "lambda_deploy"): "lambda",
    (PlacementWeights, "mu_net"): "mu",
    (PlacementWeights, "nu_risk"): "nu",
    (SecurityLabel, "preferred_trust"): ("preferred_trust", "min_trust"),
    (RegionWorkload, "session_turns_g"): "session.turns_g",
    (RegionWorkload, "session_prefix_tokens"): "session.prefix_tokens",
    (PolicyTemplate, "policy"): "",  # a template's policy keys sit beside its own
    (Arrival, "request"): "",
    (Arrival, "session_id"): ("session.session_id", "request_id"),
    (Arrival, "turn_index"): "session.turn_index",
    (Arrival, "total_turns"): "session.total_turns",
    (Arrival, "prefix_tokens"): "session.prefix_tokens",
}
