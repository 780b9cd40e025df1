"""Architectural descriptors: the capability, resource, request, plan and
receipt records every other module consumes.

All times are integer microseconds, all sizes integer bytes. Trust is an
ordinal level in [0, 3]. The dataclass decorator ``exec``s every method it
generates when its module is imported, so a record is
``@dataclass(slots=True, eq=False, repr=False)`` with a docstring of its
own: it gets ``__init__`` only, and the decorator builds no docstring from
its signature. A record keeps ``__eq__`` only where something compares it,
and is frozen only where something hashes it by value: ``PlanStage`` here
(plan-cache keys), ``PolicyConstraint`` (a field default, which must hash)
and topology's ``Route`` (pricing-class keys). ``tests/test_records.py``
names each record that keeps either, with the code that needs it, and pins
the generated methods at 62 (190 when every record had the defaults).
Nothing writes to a record once it is built, frozen or not;
``tests/test_golden.py`` checks that over whole runs, for the records built
per request and for those built once and shared.
A field with a numeric range declares it where it is defined, through
``bounded``: its default and its bound, kept in the field's metadata. A
field that holds an id declares through ``ident`` the kind of record it
identifies, uniquely, or refers to, and whether a ``trace.csv`` cell holds
it. ``Scenario.validate`` checks every declared rule in one walk and reports
each error at its document path; docs/scenario.schema.json states the same
bounds, and ``tests/test_schema.py`` holds the two equal.

No record has a dict form. ``plan_items`` formats a plan's stages as
JSON, for a receipt's ``plan`` and for plan ids.
``ExecutionReceipt`` is the one record of a finished request:
``to_json_line`` writes its ``receipts.jsonl`` line, and ``metrics.json``'s
per-request item is read from it too (``metrics.per_request_item``), with the
few fields only that item carries. The scenario reader (``scenario._record``)
builds the node, request, policy and catalog types from the scenario file by
their field annotations, so a field's default here is also its default in the
file. Cached session state is ``caching.CacheEntry``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any

TRUST_MIN = 0
TRUST_MAX = 3


class Tier(str, Enum):
    CLOUD = "cloud"
    REGIONAL = "regional"
    EDGE = "edge"
    LOCAL = "local"


class LocalityScope(str, Enum):
    ANY = "any"
    REGION = "region"
    DOMAIN = "domain"
    NODE_LOCAL = "node-local"


class PlanPhase(str, Enum):
    FULL = "full"
    PREFILL = "prefill"
    DECODE = "decode"


class Verdict(str, Enum):
    ALLOWED = "allowed"
    DEGRADED = "degraded"
    REJECTED = "rejected"


# The JSON string of each phase and verdict, escaped once rather than through
# the enum's ``.value`` descriptor on every receipt line.
_PHASE_JSON = {p: _json_str(p.value) for p in PlanPhase}
_VERDICT_JSON = {v: _json_str(v.value) for v in Verdict}

# Reason codes carried on rejected receipts and cache decisions.
REASON_NO_FEASIBLE_PLAN = "NoFeasiblePlan"
REASON_BUDGET_EXCEEDED = "BudgetExceeded"
REASON_TRUST_EXPIRED = "TrustExpired"
REASON_LINEAGE_REVOKED = "LineageRevoked"
REASON_HORIZON_TRUNCATED = "HorizonTruncated"


def bounded(default: Any, low: Any, high: Any = None, *, above: bool = False) -> Any:
    """A dataclass field whose value must be at least ``low`` (above it when
    ``above``) and, when ``high`` is given, at most ``high``; ``None`` is in
    every bound. ``default`` is the field's default, ``MISSING`` for a
    required field. ``Scenario.validate`` reads the bound from the field's
    ``"bound"`` metadata, ``(low, high, above)``."""
    return field(default=default, metadata={"bound": (low, high, above)})


def ident(default: Any = MISSING, *, unique: str = "", ref: str = "", cell: bool = False) -> Any:
    """A dataclass field that holds an id: the id of a ``unique`` kind of
    record (``"node"``), which no two records of the kind share, or a
    reference to an id of the ``ref`` kind, each item's for a tuple of ids.
    ``cell`` marks an id written into a ``trace.csv`` cell, which is not
    quoted, so it must not hold ``,`` or a line break. ``default`` is the
    field's default, ``MISSING`` for a required field. ``Scenario.validate``
    reads the rule from the field's ``"id"`` metadata, ``(unique, ref, cell)``."""
    return field(default=default, metadata={"id": (unique, ref, cell)})


def parse_fraction(value: Any) -> Fraction:
    """Parse a scenario-file number into an exact rational.

    Accepts ints, "p/q" strings, and decimal strings/floats; floats go
    through ``str()`` so ``1.5`` means 3/2, not its binary expansion.
    """
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value))


@dataclass(frozen=True, slots=True, repr=False)
class PolicyConstraint:
    """A request's trust floor, locality scope and allowed domains, and the domains it prefers."""

    min_trust: int = bounded(0, TRUST_MIN, TRUST_MAX)
    locality_scope: LocalityScope = LocalityScope.ANY
    allowed_domains: tuple[str, ...] | None = None
    preferred_domains: tuple[str, ...] | None = None  # soft preference, priced not enforced


@dataclass(slots=True, repr=False)
class RequestDescriptor:
    """One intelligence request: what is asked for, under which constraints."""

    request_id: str = ident(unique="request", cell=True)
    capability_class: str = ident(ref="class")
    quality_target: int = bounded(MISSING, 1)
    policy: PolicyConstraint = PolicyConstraint()
    affinity_token: str | None = None
    budget: int | None = bounded(None, 0)
    origin_region: str = ident("", cell=True)
    input_tokens: int = bounded(0, 0)
    output_tokens: int = bounded(1, 1)
    arrival_time: int = bounded(0, 0)
    degradable: bool = False


@dataclass(slots=True, eq=False, repr=False)
class SecurityLabel:
    """A variant's trust floor for its hosts, and the trust it prefers."""

    min_trust: int = bounded(0, TRUST_MIN, TRUST_MAX)  # hard floor for hosting nodes
    preferred_trust: int = bounded(0, TRUST_MIN, TRUST_MAX)  # soft preference, priced as risk when missed; a file's default is min_trust


@dataclass(slots=True, eq=False, repr=False)
class CapabilityDescriptor:
    """A capability class: the top level of the class/variant/realization tree."""

    name: str = ident(unique="class")
    lineage: tuple[tuple[str, str], ...] = ()  # (parent model id, derivation tag)
    security: SecurityLabel = SecurityLabel()  # the label of each variant without its own


@dataclass(slots=True, eq=False, repr=False)
class CapabilityVariant:
    """A quality level of a capability class, and the security label its hosts must meet."""

    variant_id: str = ident(unique="variant")
    parent_class: str = ident(ref="class")
    quality: int = bounded(1, 1)
    security: SecurityLabel = SecurityLabel()


@dataclass(slots=True, eq=False, repr=False)
class CapabilityRealization:
    """A variant's deployable artifact for one accelerator: its size and its load and per-token times."""

    realization_id: str = ident(unique="realization", cell=True)
    variant_id: str = ident(ref="variant")
    accelerator: str = "cpu"
    artifact_size_bytes: int = bounded(0, 0)
    load_time_us: int = bounded(0, 0)
    prefill_time_per_token_us: int = bounded(1, 0, above=True)
    decode_time_per_token_us: int = bounded(1, 0, above=True)
    setup_time_us: int = bounded(0, 0)
    kv_bytes_per_token: int = bounded(0, 0)


@dataclass(slots=True, eq=False, repr=False)
class ResourceProfile:
    """What a node can execute, how much of it at once, and where."""

    node_id: str = ident(unique="node", cell=True)
    domain_id: str = ident("", ref="domain")
    accelerator: str = "cpu"
    speed_factor: Fraction = bounded(Fraction(1), 0, above=True)  # divides per-token times
    max_concurrent: int = bounded(1, 1)
    memory_budget_bytes: int = bounded(0, 0)
    admission_cap: int = bounded(16, 1)  # max reserved-not-started stages before routing excludes the node
    cache_capacity_bytes: int = bounded(0, 0)
    region: str = ident("", cell=True)
    tier: Tier = Tier.CLOUD
    trust: int = bounded(0, TRUST_MIN, TRUST_MAX)


@dataclass(frozen=True, slots=True, repr=False)
class PlanStage:
    """One stage of a plan: a realization on a node, in one phase."""

    node_id: str
    realization_id: str
    phase: PlanPhase


def plan_items(stages: tuple[PlanStage, ...]) -> str:
    """The stages as the items of a JSON list: the bytes ``json.dumps`` with
    ``sort_keys=True`` and ``separators=(",", ":")`` writes between its
    brackets. A receipt's ``plan`` holds them, and a plan id hashes them."""
    return ",".join(
        f'{{"node_id":{_json_str(s.node_id)},"phase":{_PHASE_JSON[s.phase]},'
        f'"realization_id":{_json_str(s.realization_id)}}}'
        for s in stages
    )


@dataclass(slots=True, eq=False, repr=False)
class ExecutionReceipt:
    """The one record of a finished request: how it was served, or why it was
    not. A rejection leaves the plan, its audit and its cost at their
    defaults; a truncated request keeps its plan."""

    request_id: str
    verdict: Verdict
    reason: str | None = None
    plan: tuple[PlanStage, ...] = ()
    capability_versions: tuple[tuple[str, str], ...] = ()  # (realization_id, lineage digest)
    node_attestations: tuple[tuple[str, int], ...] = ()    # (node_id, trust level at service time)
    cache_states_reused: tuple[str, ...] = ()
    cache_tokens_covered: int = 0
    t_net_us: int = 0
    t_queue_us: int = 0
    t_exec_us: int = 0
    t_state_us: int = 0
    c_load: int = 0
    p_policy: int = 0
    arrival_time: int = 0
    finish_time: int = 0
    # Read into metrics.json only, never written to receipts.jsonl; a served
    # request sets them.
    ttft_us: int = 0
    tpot_us: int = 0
    core_bytes: int = 0
    cache_lookup: bool = False
    occupancy_us: tuple[int, ...] = ()  # per plan stage

    def to_json_line(self, parts: dict[int, str] | None = None) -> str:
        """This receipt's line of ``receipts.jsonl``, without the newline: the
        bytes of ``json.dumps`` of its dict form with ``sort_keys=True`` and
        ``separators=(",", ":")``, written without building the dict. Its
        keys and the plan stages' and ``timing``'s are in sorted order, and
        strings are escaped as ``json.dumps`` escapes them (``ensure_ascii``).

        ``parts`` maps the ``id`` of a ``plan``, ``capability_versions`` or
        ``node_attestations`` tuple to its formatted list items, and is
        filled as they are formatted; a caller that writes many lines passes
        one dict to all of them and keeps each tuple alive while the dict is
        in use, so that no id names two tuples. The empty tuple is one
        object, and its items are empty in every field."""
        if parts is None:
            parts = {}
        plan = parts.get(id(self.plan))
        if plan is None:
            plan = parts[id(self.plan)] = plan_items(self.plan)
        versions = parts.get(id(self.capability_versions))
        if versions is None:
            versions = parts[id(self.capability_versions)] = ",".join(
                f"[{_json_str(rid)},{_json_str(digest)}]" for rid, digest in self.capability_versions
            )
        attestations = parts.get(id(self.node_attestations))
        if attestations is None:
            attestations = parts[id(self.node_attestations)] = ",".join(
                f"[{_json_str(node_id)},{level}]" for node_id, level in self.node_attestations
            )
        reused = ",".join(map(_json_str, self.cache_states_reused))
        reason = "null" if self.reason is None else _json_str(self.reason)
        return (
            f'{{"arrival_time":{self.arrival_time},"cache_states_reused":[{reused}],'
            f'"cache_tokens_covered":{self.cache_tokens_covered},"capability_versions":[{versions}],'
            f'"finish_time":{self.finish_time},"node_attestations":[{attestations}],"plan":[{plan}],'
            f'"reason":{reason},"request_id":{_json_str(self.request_id)},'
            f'"timing":{{"c_load":{self.c_load},"p_policy":{self.p_policy},"t_exec_us":{self.t_exec_us},'
            f'"t_net_us":{self.t_net_us},"t_queue_us":{self.t_queue_us},"t_state_us":{self.t_state_us}}},'
            f'"verdict":{_VERDICT_JSON[self.verdict]}}}'
        )
