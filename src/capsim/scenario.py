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

Each rule on a single field is declared once, on the record field: a
numeric range through ``descriptors.bounded``, and through
``descriptors.ident`` an id that is unique among the records of its kind
(``ResourceProfile.node_id``), a reference to such an id
(``AttestationRecord.node_id``, ``Scenario.artifact_repository``), and an id
that a ``trace.csv`` cell holds. ``validate`` walks every record once, at
the path the reader read it from (``_records``), checks each declared rule
there by one function (``_check``), and writes by hand only the rules that
compare two fields or read a derived set: link ends, placements, trust
floors, non-empty lists, the token distribution names, and the request-id,
affinity-token and policy rules. ``tests/strategies.py`` draws whole
scenario documents from the same declarations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Iterable, TypeVar, get_args, get_origin, get_type_hints

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
    ident,
    parse_fraction,
)
from .routing import RoutingWeights
from .topology import Domain, Link, Topology, region_vertex
from .trust import AttestationRecord
from .workload import Arrival, PolicyTemplate, RegionWorkload, TokenDist

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

    realization_id: str = ident(ref="realization")
    time_us: int = bounded(0, 0)


@dataclass(slots=True, eq=False, repr=False)
class NodeEvent:
    """A scripted change of a node's liveness at ``time_us``."""

    node_id: str = ident(ref="node")
    time_us: int = bounded(0, 0)
    online: bool = True


@dataclass(slots=True, kw_only=True, eq=False, repr=False)
class Scenario:
    """A parsed scenario file: topology, catalog, placement, workload, weights, configuration and scripts."""

    name: str = "scenario"
    seed: int = 0
    duration_us: int = bounded(1_000_000, 0, above=True)
    bytes_per_token: int = bounded(4, 0)
    artifact_repository: str | None = ident(None, ref="node")
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
        One walk (``_records``) reaches every record at its document path,
        and ``_check`` checks each rule its fields declare: bounds, unique
        ids, references and trace cells. The rules written here compare two
        fields or read a derived set. A rule that compares two values runs
        only where both are inside their bounds, so that one bad value is
        reported once."""
        errors: list[str] = []
        records = _records(self, "", {}, {
            "classes": _catalog_paths((), self.classes, "classes"),
            "variants": _catalog_paths(self.variant_paths, self.variants, "variants"),
            "realizations": _catalog_paths(self.realization_paths, self.realizations, "realizations"),
        }).values()
        unsound = _check(errors, records)
        walked: dict[type, list[tuple[Any, str]]] = {}
        for record, path in records:
            walked.setdefault(type(record), []).append((record, path))

        def each(cls: type[T]) -> list[tuple[T, str]]:
            return walked.get(cls, [])

        floors: dict[str, int] = {}  # the trust floor of each domain inside its bounds
        for domain, _ in each(Domain):
            if id(domain) not in unsound:
                floors.setdefault(domain.domain_id, domain.min_trust)
        sound_nodes = set()  # the nodes inside their bounds
        for profile, path in each(ResourceProfile):
            if id(profile) not in unsound:
                sound_nodes.add(profile.node_id)
                floor = floors.get(profile.domain_id)
                if floor is not None and profile.trust < floor:
                    errors.append(f"{path}.trust: below domain {profile.domain_id} min_trust {floor}")
        profiles = {p.node_id: p for p in self.nodes}
        vertices = set(profiles) | {region_vertex(p.region) for p in self.nodes}
        for link, path in each(Link):
            for end, value in (("src", link.src), ("dst", link.dst)):
                if value not in vertices:
                    errors.append(f"{path}.{end}: unknown vertex {value}")
        for cd, path in each(CapabilityDescriptor):
            if not cd.lineage:
                errors.append(f"{path}.lineage: must not be empty")
        for label, path in each(SecurityLabel):
            if id(label) not in unsound and label.preferred_trust < label.min_trust:
                errors.append(f"{path}.preferred_trust: must be >= min_trust")
                unsound.add(id(label))

        placed: dict[str, int] = {}
        realization_by_id = {r.realization_id: r for r in self.realizations}
        variant_by_id = {v.variant_id: v for v in self.variants}
        for i, (rid, node_id) in enumerate(self.initial_placement):
            prefix = f"initial_placement[{i}]"
            if rid not in realization_by_id:
                errors.append(f"{prefix}: unknown realization {rid}")
                continue
            if node_id not in profiles:
                errors.append(f"{prefix}: unknown node {node_id}")
                continue
            profile = profiles[node_id]
            realization = realization_by_id[rid]
            if realization.accelerator != profile.accelerator:
                errors.append(f"{prefix}: accelerator mismatch {realization.accelerator} on {node_id}")
            if node_id not in sound_nodes:
                continue
            variant = variant_by_id.get(realization.variant_id)
            if variant is not None and id(variant.security) not in unsound and profile.trust < variant.security.min_trust:
                floor = variant.security.min_trust
                errors.append(f"{prefix}: trust {profile.trust} of {node_id} is below the floor {floor} of {rid}")
            placed[node_id] = placed.get(node_id, 0) + realization.artifact_size_bytes
            if placed[node_id] > profile.memory_budget_bytes:
                errors.append(f"{prefix}: memory budget exceeded on {node_id}")

        for region, path in each(RegionWorkload):
            if id(region) not in unsound and region.rate_per_s and not region.classes:
                errors.append(f"{path}.classes: required when rate_per_s > 0")
            if not region.policy_mix:
                errors.append(f"{path}.policy_mix: must not be empty")
        for tokens, path in each(TokenDist):
            if tokens.dist not in ("fixed", "lognormal"):
                errors.append(f"{path}.dist: must be fixed or lognormal")
        for policy, path in each(PolicyConstraint):
            if policy.locality_scope is LocalityScope.DOMAIN and policy.allowed_domains is None:
                errors.append(f"{_join(path, 'allowed_domains')}: required by locality_scope domain")

        # Request ids key the run's in-flight table and its receipts, so no
        # scripted id may be one the workload generates: its region's name,
        # "-" and six or more digits.
        workload_regions = {region.region for region in self.workload}
        for scripted, path in each(Arrival):
            request = scripted.request
            region, _, number = request.request_id.rpartition("-")
            if region in workload_regions and len(number) >= 6 and number.isdigit():
                errors.append(f"{path}.request_id: {request.request_id} is a workload id of region {region}")
            if id(scripted) not in unsound and id(request) not in unsound:
                if scripted.turn_index > scripted.total_turns:
                    errors.append(f"{path}.session.turn_index: exceeds total_turns")
                if scripted.prefix_tokens > request.input_tokens:
                    errors.append(f"{path}.session.prefix_tokens: exceeds input_tokens")
            # Routing finds cached state by the token's session part, and
            # admission and lookup by the session id, so the two must agree.
            if request.affinity_token and request.affinity_token.partition(":")[0] != scripted.session_id:
                errors.append(f"{path}.affinity_token: session part differs from session id {scripted.session_id}")
        for att, path in each(AttestationRecord):
            if id(att) not in unsound and att.node_id in sound_nodes and att.level > profiles[att.node_id].trust:
                errors.append(f"{path}.level: exceeds node claimed trust {profiles[att.node_id].trust}")
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


def _records(record: Any, path: str, out: dict[int, tuple[Any, str]], paths: dict[str, tuple[str, ...]]) -> dict:
    """``out`` with ``(record, document path)`` for ``record`` and for each
    record its fields hold, depth first in field order, keyed by ``id``: a
    record held twice, as the label a variant takes from its class is, is
    walked once, at its first path. An item of a list field is at its index
    under the field's key, or at ``paths[field name]``'s item."""
    if id(record) not in out:
        out[id(record)] = (record, path)
        for name, keys, _, _, _ in _fields(type(record)):
            value = getattr(record, name)
            if hasattr(value, "__dataclass_fields__"):
                _records(value, _join(path, keys[0]), out, {})
            elif type(value) in (list, tuple) and value and hasattr(value[0], "__dataclass_fields__"):
                at = _join(path, keys[0])
                for i, item in enumerate(value):
                    _records(item, paths[name][i] if name in paths else f"{at}[{i}]", out, {})
    return out


@cache
def _rules(cls: type) -> tuple[tuple[str, str, tuple | None, tuple | None], ...]:
    """(name, document key, bound, id rule) of each field of ``cls`` that
    declares a bound (``descriptors.bounded``) or an id rule
    (``descriptors.ident``)."""
    return tuple(
        (name, keys[0], bound, f.metadata.get("id"))
        for f, (name, keys, _, _, bound) in zip(fields(cls), _fields(cls))
        if f.metadata
    )


def _check(errors: list[str], records: Iterable[tuple[Any, str]]) -> set[int]:
    """Report each value of ``records`` that breaks the rule its field
    declares, at its document key under the record's path: a value outside
    its bound, an id that an earlier record of its kind holds, a reference
    to an id no record holds, and a trace cell id with ``,`` or a line
    break. The ``id`` of each record with a value outside its bound."""
    ids: dict[str, set[str]] = {}  # every id of each kind
    for record, _ in records:
        for name, _, _, rule in _rules(type(record)):
            if rule is not None and rule[0]:
                ids.setdefault(rule[0], set()).add(getattr(record, name))
    seen: dict[str, set[str]] = {kind: set() for kind in ids}
    unsound: set[int] = set()
    for record, path in records:
        for name, key, bound, rule in _rules(type(record)):
            value = getattr(record, name)
            at = _join(path, key)
            if bound is not None:
                low, high, above = bound
                if value is not None and ((value <= low if above else value < low) or (high is not None and value > high)):
                    unsound.add(id(record))
                    if high is None:
                        errors.append(f"{at}: must be {'>' if above else '>='} {low}")
                    else:
                        errors.append(f"{at}: must be in {'(' if above else '['}{low}, {high}]")
                continue
            unique, ref, cell = rule
            if unique:
                if value in seen[unique]:
                    errors.append(f"{at}: duplicate {value}")
                seen[unique].add(value)
            if cell and any(c in value for c in _ID_FORBIDDEN):
                errors.append(f"{at}: must not contain ',' or a line break")
            for item in value if type(value) is tuple else (value,):
                if ref and item is not None and item not in ids.get(ref, ()):
                    errors.append(f"{at}: unknown {ref} {item}")
    return unsound


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
