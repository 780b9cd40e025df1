"""Architectural descriptors: the five record types every other module consumes.

All times are integer microseconds, all sizes integer bytes. Trust is an
ordinal level in [0, 3]. Descriptors are immutable value types with a
canonical dict serialization (``to_dict``/``from_dict``) used by scenario
files and receipt logs; ``validate_descriptor`` reports invariant violations
as data, never as exceptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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


class DataClass(str, Enum):
    PUBLIC = "public"
    TENANT = "tenant"
    PRIVATE = "private"


class StateType(str, Enum):
    ARTIFACT = "artifact"
    PREFIX = "prefix"
    TENSOR_STATE = "tensor_state"
    RESULT = "result"


class SharingScope(str, Enum):
    PUBLIC = "public"
    TENANT_SHARED = "tenant_shared"
    SESSION_PRIVATE = "session_private"
    HARDWARE_BOUND = "hardware_bound"


class PlanPhase(str, Enum):
    FULL = "full"
    PREFILL = "prefill"
    DECODE = "decode"


class Verdict(str, Enum):
    ALLOWED = "allowed"
    DEGRADED = "degraded"
    REJECTED = "rejected"


# Reason codes carried on rejected receipts and cache decisions.
REASON_NO_FEASIBLE_PLAN = "NoFeasiblePlan"
REASON_BUDGET_EXCEEDED = "BudgetExceeded"
REASON_TRUST_EXPIRED = "TrustExpired"
REASON_LINEAGE_REVOKED = "LineageRevoked"
REASON_HORIZON_TRUNCATED = "HorizonTruncated"


def parse_fraction(value: Any) -> Fraction:
    """Parse a scenario-file number into an exact rational.

    Accepts ints, "p/q" strings, and decimal strings/floats; floats go
    through ``str()`` so ``1.5`` means 3/2, not its binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value))


def fraction_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True, slots=True)
class PolicyConstraint:
    min_trust: int = 0
    locality_scope: LocalityScope = LocalityScope.ANY
    allowed_domains: tuple[str, ...] | None = None
    preferred_domains: tuple[str, ...] | None = None  # soft preference, priced not enforced
    data_class: DataClass = DataClass.PUBLIC

    def to_dict(self) -> dict[str, Any]:
        return {
            "min_trust": self.min_trust,
            "locality_scope": self.locality_scope.value,
            "allowed_domains": sorted(self.allowed_domains) if self.allowed_domains is not None else None,
            "preferred_domains": sorted(self.preferred_domains) if self.preferred_domains is not None else None,
            "data_class": self.data_class.value,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "PolicyConstraint":
        return cls(
            min_trust=d.get("min_trust", 0),
            locality_scope=LocalityScope(d.get("locality_scope", "any")),
            allowed_domains=tuple(sorted(d["allowed_domains"])) if d.get("allowed_domains") is not None else None,
            preferred_domains=tuple(sorted(d["preferred_domains"])) if d.get("preferred_domains") is not None else None,
            data_class=DataClass(d.get("data_class", "public")),
        )


@dataclass(frozen=True, slots=True)
class RequestDescriptor:
    """One intelligence request: what is asked for, under which constraints."""

    request_id: str
    capability_class: str
    quality_target: int
    policy: PolicyConstraint
    affinity_token: str | None = None
    budget: int | None = None
    origin_region: str = ""
    input_tokens: int = 0
    output_tokens: int = 1
    arrival_time: int = 0
    degradable: bool = False
    tenant: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "capability_class": self.capability_class,
            "quality_target": self.quality_target,
            "policy": self.policy.to_dict(),
            "affinity_token": self.affinity_token,
            "budget": self.budget,
            "origin_region": self.origin_region,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "arrival_time": self.arrival_time,
            "degradable": self.degradable,
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RequestDescriptor":
        return cls(
            request_id=d["request_id"],
            capability_class=d["capability_class"],
            quality_target=d["quality_target"],
            policy=PolicyConstraint.from_dict(d.get("policy", {})),
            affinity_token=d.get("affinity_token"),
            budget=d.get("budget"),
            origin_region=d.get("origin_region", ""),
            input_tokens=d.get("input_tokens", 0),
            output_tokens=d.get("output_tokens", 1),
            arrival_time=d.get("arrival_time", 0),
            degradable=d.get("degradable", False),
            tenant=d.get("tenant"),
        )


@dataclass(frozen=True, slots=True)
class SecurityLabel:
    min_trust: int = 0           # hard floor for hosting nodes
    preferred_trust: int = 0     # soft preference, priced as risk when missed
    data_class: DataClass = DataClass.PUBLIC

    def to_dict(self) -> dict[str, Any]:
        return {
            "min_trust": self.min_trust,
            "preferred_trust": self.preferred_trust,
            "data_class": self.data_class.value,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SecurityLabel":
        min_trust = d.get("min_trust", 0)
        return cls(
            min_trust=min_trust,
            preferred_trust=d.get("preferred_trust", min_trust),
            data_class=DataClass(d.get("data_class", "public")),
        )


@dataclass(frozen=True, slots=True)
class ResourceRequirement:
    memory_bytes: int = 0
    storage_bytes: int = 0
    accelerator: str = "cpu"
    load_time_us: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "memory_bytes": self.memory_bytes,
            "storage_bytes": self.storage_bytes,
            "accelerator": self.accelerator,
            "load_time_us": self.load_time_us,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ResourceRequirement":
        return cls(
            memory_bytes=d.get("memory_bytes", 0),
            storage_bytes=d.get("storage_bytes", 0),
            accelerator=d.get("accelerator", "cpu"),
            load_time_us=d.get("load_time_us", 0),
        )


@dataclass(frozen=True, slots=True)
class CapabilityDescriptor:
    """A capability class: the top level of the class/variant/realization tree."""

    name: str
    task: str
    quality: int
    latency_us: int
    security: SecurityLabel
    resource: ResourceRequirement
    lineage: tuple[tuple[str, str], ...]  # (parent model id, derivation tag)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "task": self.task,
            "quality": self.quality,
            "latency_us": self.latency_us,
            "security": self.security.to_dict(),
            "resource": self.resource.to_dict(),
            "lineage": [list(pair) for pair in self.lineage],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CapabilityDescriptor":
        return cls(
            name=d["name"],
            task=d.get("task", ""),
            quality=d.get("quality", 1),
            latency_us=d.get("latency_us", 0),
            security=SecurityLabel.from_dict(d.get("security", {})),
            resource=ResourceRequirement.from_dict(d.get("resource", {})),
            lineage=tuple((p[0], p[1]) for p in d.get("lineage", [])),
        )


@dataclass(frozen=True, slots=True)
class CapabilityVariant:
    variant_id: str
    parent_class: str
    quality: int
    latency_us: int
    security: SecurityLabel

    def to_dict(self) -> dict[str, Any]:
        return {
            "variant_id": self.variant_id,
            "parent_class": self.parent_class,
            "quality": self.quality,
            "latency_us": self.latency_us,
            "security": self.security.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CapabilityVariant":
        return cls(
            variant_id=d["variant_id"],
            parent_class=d["parent_class"],
            quality=d.get("quality", 1),
            latency_us=d.get("latency_us", 0),
            security=SecurityLabel.from_dict(d.get("security", {})),
        )


@dataclass(frozen=True, slots=True)
class CapabilityRealization:
    realization_id: str
    variant_id: str
    accelerator: str
    artifact_size_bytes: int
    load_time_us: int
    prefill_time_per_token_us: int
    decode_time_per_token_us: int
    setup_time_us: int
    kv_bytes_per_token: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "realization_id": self.realization_id,
            "variant_id": self.variant_id,
            "accelerator": self.accelerator,
            "artifact_size_bytes": self.artifact_size_bytes,
            "load_time_us": self.load_time_us,
            "prefill_time_per_token_us": self.prefill_time_per_token_us,
            "decode_time_per_token_us": self.decode_time_per_token_us,
            "setup_time_us": self.setup_time_us,
            "kv_bytes_per_token": self.kv_bytes_per_token,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CapabilityRealization":
        return cls(
            realization_id=d["realization_id"],
            variant_id=d["variant_id"],
            accelerator=d.get("accelerator", "cpu"),
            artifact_size_bytes=d.get("artifact_size_bytes", 0),
            load_time_us=d.get("load_time_us", 0),
            prefill_time_per_token_us=d.get("prefill_time_per_token_us", 1),
            decode_time_per_token_us=d.get("decode_time_per_token_us", 1),
            setup_time_us=d.get("setup_time_us", 0),
            kv_bytes_per_token=d.get("kv_bytes_per_token", 0),
        )


@dataclass(frozen=True, slots=True)
class Hardware:
    accelerator: str
    speed_factor: Fraction
    memory_bytes: int
    storage_bytes: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "accelerator": self.accelerator,
            "speed_factor": fraction_str(self.speed_factor),
            "memory_bytes": self.memory_bytes,
            "storage_bytes": self.storage_bytes,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Hardware":
        return cls(
            accelerator=d.get("accelerator", "cpu"),
            speed_factor=parse_fraction(d.get("speed_factor", 1)),
            memory_bytes=d.get("memory_bytes", 0),
            storage_bytes=d.get("storage_bytes", 0),
        )


@dataclass(frozen=True, slots=True)
class Capacity:
    max_concurrent: int = 1
    memory_budget_bytes: int = 0
    admission_cap: int = 16  # max reserved-not-started stages before routing excludes the node

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_concurrent": self.max_concurrent,
            "memory_budget_bytes": self.memory_budget_bytes,
            "admission_cap": self.admission_cap,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Capacity":
        return cls(
            max_concurrent=d.get("max_concurrent", 1),
            memory_budget_bytes=d.get("memory_budget_bytes", 0),
            admission_cap=d.get("admission_cap", 16),
        )


@dataclass(frozen=True, slots=True)
class NodeDynamicState:
    queued_work_us: int = 0
    resident_realizations: tuple[str, ...] = ()
    free_memory_bytes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "queued_work_us": self.queued_work_us,
            "resident_realizations": sorted(self.resident_realizations),
            "free_memory_bytes": self.free_memory_bytes,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "NodeDynamicState":
        return cls(
            queued_work_us=d.get("queued_work_us", 0),
            resident_realizations=tuple(sorted(d.get("resident_realizations", []))),
            free_memory_bytes=d.get("free_memory_bytes", 0),
        )


@dataclass(frozen=True, slots=True)
class Locality:
    region: str
    tier: Tier

    def to_dict(self) -> dict[str, Any]:
        return {"region": self.region, "tier": self.tier.value}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Locality":
        return cls(region=d.get("region", ""), tier=Tier(d.get("tier", "cloud")))


@dataclass(frozen=True, slots=True)
class ResourceProfile:
    """What a node can execute and under which live conditions."""

    node_id: str
    domain_id: str
    hardware: Hardware
    runtime: tuple[str, ...]
    capacity: Capacity
    state: NodeDynamicState
    locality: Locality
    trust: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "node_id": self.node_id,
            "domain_id": self.domain_id,
            "hardware": self.hardware.to_dict(),
            "runtime": sorted(self.runtime),
            "capacity": self.capacity.to_dict(),
            "state": self.state.to_dict(),
            "locality": self.locality.to_dict(),
            "trust": self.trust,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ResourceProfile":
        return cls(
            node_id=d["node_id"],
            domain_id=d["domain_id"],
            hardware=Hardware.from_dict(d.get("hardware", {})),
            runtime=tuple(sorted(d.get("runtime", []))),
            capacity=Capacity.from_dict(d.get("capacity", {})),
            state=NodeDynamicState.from_dict(d.get("state", {})),
            locality=Locality.from_dict(d.get("locality", {})),
            trust=d.get("trust", 0),
        )


@dataclass(frozen=True, slots=True)
class StateDescriptor:
    """A reusable cached object: artifact, prefix, tensor state, or result."""

    state_id: str
    state_type: StateType
    compatibility_hash: str
    sharing_scope: SharingScope
    size: int
    reuse_stats: tuple[int, int] = (0, 0)  # (lookups, hits) within the sliding window
    privacy_label: DataClass = DataClass.PUBLIC
    decoding_config: str | None = None
    migration_cost: int | None = None  # bytes; None marks non-migratable (hardware_bound)

    def to_dict(self) -> dict[str, Any]:
        return {
            "state_id": self.state_id,
            "state_type": self.state_type.value,
            "compatibility_hash": self.compatibility_hash,
            "sharing_scope": self.sharing_scope.value,
            "size": self.size,
            "reuse_stats": list(self.reuse_stats),
            "privacy_label": self.privacy_label.value,
            "decoding_config": self.decoding_config,
            "migration_cost": self.migration_cost,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "StateDescriptor":
        stats = d.get("reuse_stats", [0, 0])
        return cls(
            state_id=d["state_id"],
            state_type=StateType(d["state_type"]),
            compatibility_hash=d.get("compatibility_hash", ""),
            sharing_scope=SharingScope(d.get("sharing_scope", "public")),
            size=d.get("size", 0),
            reuse_stats=(stats[0], stats[1]),
            privacy_label=DataClass(d.get("privacy_label", "public")),
            decoding_config=d.get("decoding_config"),
            migration_cost=d.get("migration_cost"),
        )


@dataclass(frozen=True, slots=True)
class PlanStage:
    node_id: str
    realization_id: str
    phase: PlanPhase

    def to_dict(self) -> dict[str, Any]:
        return {
            "node_id": self.node_id,
            "realization_id": self.realization_id,
            "phase": self.phase.value,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "PlanStage":
        return cls(
            node_id=d["node_id"],
            realization_id=d["realization_id"],
            phase=PlanPhase(d.get("phase", "full")),
        )


@dataclass(frozen=True, slots=True)
class ExecutionReceipt:
    """Audited record of how one request was served (or why it was not)."""

    request_id: str
    plan: tuple[PlanStage, ...]
    capability_versions: tuple[tuple[str, str], ...]  # (realization_id, lineage digest)
    node_attestations: tuple[tuple[str, int], ...]    # (node_id, trust level at service time)
    cache_states_reused: tuple[str, ...]
    cache_tokens_covered: int
    verdict: Verdict
    reason: str | None
    t_net_us: int = 0
    t_queue_us: int = 0
    t_exec_us: int = 0
    t_state_us: int = 0
    c_load: int = 0
    p_policy: int = 0
    arrival_time: int = 0
    finish_time: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "plan": [s.to_dict() for s in self.plan],
            "capability_versions": [list(v) for v in self.capability_versions],
            "node_attestations": [list(a) for a in self.node_attestations],
            "cache_states_reused": list(self.cache_states_reused),
            "cache_tokens_covered": self.cache_tokens_covered,
            "verdict": self.verdict.value,
            "reason": self.reason,
            "timing": {
                "t_net_us": self.t_net_us,
                "t_queue_us": self.t_queue_us,
                "t_exec_us": self.t_exec_us,
                "t_state_us": self.t_state_us,
                "c_load": self.c_load,
                "p_policy": self.p_policy,
            },
            "arrival_time": self.arrival_time,
            "finish_time": self.finish_time,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ExecutionReceipt":
        timing = d.get("timing", {})
        return cls(
            request_id=d["request_id"],
            plan=tuple(PlanStage.from_dict(s) for s in d.get("plan", [])),
            capability_versions=tuple((v[0], v[1]) for v in d.get("capability_versions", [])),
            node_attestations=tuple((a[0], a[1]) for a in d.get("node_attestations", [])),
            cache_states_reused=tuple(d.get("cache_states_reused", [])),
            cache_tokens_covered=d.get("cache_tokens_covered", 0),
            verdict=Verdict(d["verdict"]),
            reason=d.get("reason"),
            t_net_us=timing.get("t_net_us", 0),
            t_queue_us=timing.get("t_queue_us", 0),
            t_exec_us=timing.get("t_exec_us", 0),
            t_state_us=timing.get("t_state_us", 0),
            c_load=timing.get("c_load", 0),
            p_policy=timing.get("p_policy", 0),
            arrival_time=d.get("arrival_time", 0),
            finish_time=d.get("finish_time", 0),
        )


Descriptor = (
    RequestDescriptor
    | CapabilityDescriptor
    | CapabilityVariant
    | CapabilityRealization
    | ResourceProfile
    | StateDescriptor
    | ExecutionReceipt
)


def _check(violations: list[str], ok: bool, path: str, rule: str) -> None:
    if not ok:
        violations.append(f"{path}: {rule}")


def validate_descriptor(d: Any) -> list[str]:
    """Return invariant violations as ``field_path: rule`` strings; empty means ok."""
    v: list[str] = []
    if isinstance(d, RequestDescriptor):
        _check(v, d.quality_target >= 1, "quality_target", "quality_target >= 1")
        _check(v, d.input_tokens >= 0, "input_tokens", "input_tokens >= 0")
        _check(v, d.output_tokens >= 1, "output_tokens", "output_tokens >= 1")
        _check(v, d.budget is None or d.budget >= 0, "budget", "budget >= 0 when present")
        _check(v, d.arrival_time >= 0, "arrival_time", "arrival_time >= 0")
        v.extend(f"policy.{p}" for p in _policy_violations(d.policy))
    elif isinstance(d, PolicyConstraint):
        v.extend(_policy_violations(d))
    elif isinstance(d, CapabilityDescriptor):
        _check(v, d.quality >= 1, "quality", "quality >= 1")
        _check(v, d.latency_us >= 0, "latency_us", "latency_us >= 0")
        _check(v, d.resource.memory_bytes >= 0, "resource.memory_bytes", "memory_bytes >= 0")
        _check(v, d.resource.storage_bytes >= 0, "resource.storage_bytes", "storage_bytes >= 0")
        _check(v, d.resource.load_time_us >= 0, "resource.load_time_us", "load_time_us >= 0")
        _check(v, len(d.lineage) >= 1, "lineage", "lineage non-empty")
        v.extend(f"security.{s}" for s in _security_violations(d.security))
    elif isinstance(d, CapabilityVariant):
        _check(v, d.quality >= 1, "quality", "quality >= 1")
        _check(v, d.latency_us >= 0, "latency_us", "latency_us >= 0")
        v.extend(f"security.{s}" for s in _security_violations(d.security))
    elif isinstance(d, CapabilityRealization):
        _check(v, d.prefill_time_per_token_us > 0, "prefill_time_per_token_us", "per-token times > 0")
        _check(v, d.decode_time_per_token_us > 0, "decode_time_per_token_us", "per-token times > 0")
        _check(v, d.kv_bytes_per_token >= 0, "kv_bytes_per_token", "kv_bytes_per_token >= 0")
        _check(v, d.artifact_size_bytes >= 0, "artifact_size_bytes", "artifact_size_bytes >= 0")
        _check(v, d.load_time_us >= 0, "load_time_us", "load_time_us >= 0")
        _check(v, d.setup_time_us >= 0, "setup_time_us", "setup_time_us >= 0")
    elif isinstance(d, ResourceProfile):
        _check(v, TRUST_MIN <= d.trust <= TRUST_MAX, "trust", f"trust in [{TRUST_MIN}, {TRUST_MAX}]")
        _check(v, d.hardware.speed_factor >= 0, "hardware.speed_factor", "speed_factor >= 0")
        _check(v, d.hardware.memory_bytes >= 0, "hardware.memory_bytes", "memory_bytes >= 0")
        _check(v, d.capacity.max_concurrent >= 1, "capacity.max_concurrent", "max_concurrent >= 1")
        _check(v, d.capacity.memory_budget_bytes >= 0, "capacity.memory_budget_bytes", "memory_budget_bytes >= 0")
        _check(v, d.state.queued_work_us >= 0, "state.queued_work_us", "queued_work >= 0")
        _check(
            v,
            d.state.free_memory_bytes <= d.capacity.memory_budget_bytes,
            "state.free_memory_bytes",
            "free memory <= memory budget",
        )
    elif isinstance(d, StateDescriptor):
        _check(v, d.size >= 0, "size", "size >= 0")
        _check(v, d.reuse_stats[0] >= 0 and d.reuse_stats[1] >= 0, "reuse_stats", "counters >= 0")
        _check(v, d.reuse_stats[1] <= d.reuse_stats[0], "reuse_stats", "hits <= lookups")
        if d.state_type is StateType.RESULT:
            _check(v, d.decoding_config is not None, "decoding_config", "result states carry a decoding_config")
        if d.sharing_scope is SharingScope.HARDWARE_BOUND:
            _check(v, d.migration_cost is None, "migration_cost", "hardware_bound states are non-migratable")
        else:
            _check(
                v,
                d.migration_cost is not None and d.migration_cost >= 0,
                "migration_cost",
                "migration_cost >= 0 for migratable states",
            )
    elif isinstance(d, ExecutionReceipt):
        for name in ("t_net_us", "t_queue_us", "t_exec_us", "t_state_us", "c_load", "p_policy"):
            _check(v, getattr(d, name) >= 0, name, "timing terms >= 0")
        if d.verdict is Verdict.REJECTED:
            _check(v, d.reason is not None, "reason", "rejected receipts carry a reason code")
    else:
        v.append(f"type: unknown descriptor type {type(d).__name__}")
    return v


def _policy_violations(p: PolicyConstraint) -> list[str]:
    v: list[str] = []
    _check(v, TRUST_MIN <= p.min_trust <= TRUST_MAX, "min_trust", f"min_trust in [{TRUST_MIN}, {TRUST_MAX}]")
    if p.locality_scope is LocalityScope.DOMAIN:
        _check(v, p.allowed_domains is not None, "allowed_domains", "domain scope requires allowed_domains")
    return v


def _security_violations(s: SecurityLabel) -> list[str]:
    v: list[str] = []
    _check(v, TRUST_MIN <= s.min_trust <= TRUST_MAX, "min_trust", f"min_trust in [{TRUST_MIN}, {TRUST_MAX}]")
    _check(v, s.preferred_trust >= s.min_trust, "preferred_trust", "preferred_trust >= min_trust")
    return v


def to_canonical_json(d: Descriptor) -> str:
    """Canonical single-line serialization used by receipt logs and tests."""
    return json.dumps(d.to_dict(), sort_keys=True, separators=(",", ":"))
