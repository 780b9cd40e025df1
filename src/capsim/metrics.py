"""Run metrics: per-request records plus aggregates recomputable from them.

Percentiles are nearest-rank over sorted integer values; ratios are emitted
as fixed 6-decimal strings so documents are bit-stable across runs.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TextIO

from .descriptors import StateType

OUTCOME_SERVED = "served"
OUTCOME_REJECTED = "rejected"
OUTCOME_TRUNCATED = "truncated"


def percentile(values: list[int], pct: int) -> int:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))  # ceil(pct/100 * n)
    return ordered[rank - 1]


def ratio_str(numerator: int, denominator: int) -> str:
    if denominator == 0:
        return "0.000000"
    scaled = (numerator * 1_000_000) // denominator
    return f"{scaled // 1_000_000}.{scaled % 1_000_000:06d}"


@dataclass(slots=True)
class RequestRecord:
    request_id: str
    outcome: str
    reason: str | None = None
    arrival_us: int = 0
    finish_us: int = 0
    ttft_us: int = 0
    tpot_us: int = 0
    latency_us: int = 0
    core_bytes: int = 0
    degraded: bool = False
    cache_lookup: bool = False
    cache_hit: bool = False
    cache_state_type: str | None = None
    tokens_covered: int = 0
    stages: list[tuple[str, int]] = field(default_factory=list)  # (node_id, occupancy_us)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "outcome": self.outcome,
            "reason": self.reason,
            "arrival_us": self.arrival_us,
            "finish_us": self.finish_us,
            "ttft_us": self.ttft_us,
            "tpot_us": self.tpot_us,
            "latency_us": self.latency_us,
            "core_bytes": self.core_bytes,
            "degraded": self.degraded,
            "cache_lookup": self.cache_lookup,
            "cache_hit": self.cache_hit,
            "cache_state_type": self.cache_state_type,
            "tokens_covered": self.tokens_covered,
            "stages": [list(s) for s in self.stages],
        }

    def to_json_item(self) -> str:
        """This record as an item of ``metrics.json``'s ``per_request`` list:
        ``json.dumps(self.to_dict(), sort_keys=True, indent=2)`` indented to
        nesting depth 2, without building the dict."""
        if self.stages:
            stages = ",\n".join(
                f"        [\n          {encode_basestring_ascii(node)},\n          {occupancy}\n        ]"
                for node, occupancy in self.stages
            )
            stages = f"[\n{stages}\n      ]"
        else:
            stages = "[]"
        return (
            "    {\n"
            f'      "arrival_us": {self.arrival_us},\n'
            f'      "cache_hit": {_json_bool(self.cache_hit)},\n'
            f'      "cache_lookup": {_json_bool(self.cache_lookup)},\n'
            f'      "cache_state_type": {_json_str_or_null(self.cache_state_type)},\n'
            f'      "core_bytes": {self.core_bytes},\n'
            f'      "degraded": {_json_bool(self.degraded)},\n'
            f'      "finish_us": {self.finish_us},\n'
            f'      "latency_us": {self.latency_us},\n'
            f'      "outcome": {encode_basestring_ascii(self.outcome)},\n'
            f'      "reason": {_json_str_or_null(self.reason)},\n'
            f'      "request_id": {encode_basestring_ascii(self.request_id)},\n'
            f'      "stages": {stages},\n'
            f'      "tokens_covered": {self.tokens_covered},\n'
            f'      "tpot_us": {self.tpot_us},\n'
            f'      "ttft_us": {self.ttft_us}\n'
            "    }"
        )


def _json_bool(value: bool) -> str:
    return "true" if value else "false"


def _json_str_or_null(value: str | None) -> str:
    return "null" if value is None else encode_basestring_ascii(value)


@dataclass(slots=True)
class MetricsFrame:
    duration_us: int
    records: list[RequestRecord] = field(default_factory=list)
    node_capacity: dict[str, int] = field(default_factory=dict)   # node -> max_concurrent
    node_busy_us: dict[str, int] = field(default_factory=dict)
    max_queue_length: dict[str, int] = field(default_factory=dict)
    cache_lookups: dict[str, int] = field(default_factory=dict)   # per state type
    cache_hits: dict[str, int] = field(default_factory=dict)
    core_bytes_requests: int = 0
    core_bytes_placement: int = 0
    placement_churn: int = 0
    model_load_overhead_us: int = 0

    def add_record(self, record: RequestRecord) -> None:
        self.records.append(record)

    def count_cache_lookup(self, state_type: StateType, hit: bool) -> None:
        key = state_type.value
        self.cache_lookups[key] = self.cache_lookups.get(key, 0) + 1
        if hit:
            self.cache_hits[key] = self.cache_hits.get(key, 0) + 1

    # -- aggregates ---------------------------------------------------------

    def outcome_counts(self) -> dict[str, int]:
        counts = {OUTCOME_SERVED: 0, OUTCOME_REJECTED: 0, OUTCOME_TRUNCATED: 0}
        for r in self.records:
            counts[r.outcome] += 1
        return counts

    def rejections_by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            if r.outcome == OUTCOME_REJECTED:
                out[r.reason or "unknown"] = out.get(r.reason or "unknown", 0) + 1
        return dict(sorted(out.items()))

    def served_records(self) -> list[RequestRecord]:
        return [r for r in self.records if r.outcome == OUTCOME_SERVED]

    def summary(self) -> dict:
        """Every aggregate of ``to_dict``, without the per-request records."""
        served = self.served_records()
        latencies = [r.latency_us for r in served]
        ttfts = [r.ttft_us for r in served]
        counts = self.outcome_counts()
        arrivals = len(self.records)
        admitted = arrivals - counts[OUTCOME_REJECTED]
        cache_ratios = {
            st.value: {
                "lookups": self.cache_lookups.get(st.value, 0),
                "hits": self.cache_hits.get(st.value, 0),
                "ratio": ratio_str(self.cache_hits.get(st.value, 0), self.cache_lookups.get(st.value, 0)),
            }
            for st in StateType
        }
        utilization = {
            node: ratio_str(self.node_busy_us.get(node, 0), self.duration_us * cap)
            for node, cap in sorted(self.node_capacity.items())
        }
        return {
            "duration_us": self.duration_us,
            "arrivals": arrivals,
            "served": counts[OUTCOME_SERVED],
            "rejected": counts[OUTCOME_REJECTED],
            "truncated": counts[OUTCOME_TRUNCATED],
            "completion_rate": ratio_str(counts[OUTCOME_SERVED], arrivals),
            "admitted_completion_rate": ratio_str(counts[OUTCOME_SERVED], admitted),
            "rejections_by_reason": self.rejections_by_reason(),
            "latency_us": {
                "p50": percentile(latencies, 50),
                "p95": percentile(latencies, 95),
                "p99": percentile(latencies, 99),
                "mean": sum(latencies) // len(latencies) if latencies else 0,
            },
            "ttft_us": {
                "p50": percentile(ttfts, 50),
                "p95": percentile(ttfts, 95),
                "mean": sum(ttfts) // len(ttfts) if ttfts else 0,
            },
            "tpot_us": {
                "mean": sum(r.tpot_us for r in served) // len(served) if served else 0,
            },
            "cache": cache_ratios,
            "node_utilization": utilization,
            "max_queue_length": dict(sorted(self.max_queue_length.items())),
            "core_bytes": {
                "requests": self.core_bytes_requests,
                "placement": self.core_bytes_placement,
                "total": self.core_bytes_requests + self.core_bytes_placement,
            },
            "placement_churn": self.placement_churn,
            "model_load_overhead_us": self.model_load_overhead_us,
        }

    def to_dict(self) -> dict:
        doc = self.summary()
        doc["per_request"] = [r.to_dict() for r in self.records]
        return doc

    def to_json(self, fp: TextIO | None = None) -> str | None:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\\n"``,
        written to ``fp`` one record at a time; returned as a string when
        ``fp`` is None."""
        if fp is None:
            buf = io.StringIO()
            self.to_json(buf)
            return buf.getvalue()
        doc = self.summary()
        doc["per_request"] = []
        # Only the top-level key can hold an empty list, so the split is exact.
        head, tail = json.dumps(doc, sort_keys=True, indent=2).split('"per_request": []')
        fp.write(head + '"per_request": [')
        for i, record in enumerate(self.records):
            fp.write(",\n" if i else "\n")
            fp.write(record.to_json_item())
        fp.write("\n  ]" if self.records else "]")
        fp.write(tail + "\n")
        return None
