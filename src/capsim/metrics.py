"""Run metrics: aggregates over the run's receipts, and one ``per_request``
item read from each receipt (``per_request_item``; the rules are in
docs/formats.md).

Percentiles are nearest-rank over sorted integer values; ratios are emitted
as fixed 6-decimal strings so documents are bit-stable across runs.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TextIO

from .descriptors import REASON_HORIZON_TRUNCATED, ExecutionReceipt, Verdict

OUTCOME_SERVED = "served"
OUTCOME_REJECTED = "rejected"
OUTCOME_TRUNCATED = "truncated"

# Enum members and values read once: each read through the class goes
# through the enum's descriptor.
_REJECTED = Verdict.REJECTED
_DEGRADED = Verdict.DEGRADED


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


def outcome_of(receipt: ExecutionReceipt) -> str:
    """``served``, ``rejected`` or ``truncated``: a rejected receipt cut off by
    the horizon is truncated."""
    if receipt.verdict is not _REJECTED:
        return OUTCOME_SERVED
    return OUTCOME_TRUNCATED if receipt.reason == REASON_HORIZON_TRUNCATED else OUTCOME_REJECTED


def per_request_item(receipt: ExecutionReceipt) -> dict:
    """The receipt's item of ``metrics.json``'s ``per_request`` list."""
    served = receipt.verdict is not _REJECTED
    covered = receipt.cache_tokens_covered
    return {
        "request_id": receipt.request_id,
        "outcome": outcome_of(receipt),
        "reason": None if served else receipt.reason,
        "arrival_us": receipt.arrival_time,
        "finish_us": receipt.finish_time,
        "ttft_us": receipt.ttft_us,
        "tpot_us": receipt.tpot_us,
        "latency_us": receipt.finish_time - receipt.arrival_time if served else 0,
        "core_bytes": receipt.core_bytes,
        "degraded": receipt.verdict is _DEGRADED,
        "cache_lookup": receipt.cache_lookup,
        "cache_hit": covered > 0,
        "tokens_covered": covered,
        "stages": [[stage.node_id, occupancy] for stage, occupancy in zip(receipt.plan, receipt.occupancy_us)],
    }


def _json_item(receipt: ExecutionReceipt) -> str:
    """``per_request_item(receipt)`` as ``json.dumps(..., sort_keys=True,
    indent=2)`` writes it at nesting depth 2, without building the dict."""
    stages = ",\n".join(
        f"        [\n          {encode_basestring_ascii(stage.node_id)},\n          {occupancy}\n        ]"
        for stage, occupancy in zip(receipt.plan, receipt.occupancy_us)
    )
    stages = f"[\n{stages}\n      ]" if stages else "[]"
    served = receipt.verdict is not _REJECTED
    covered = receipt.cache_tokens_covered
    return (
        "    {\n"
        f'      "arrival_us": {receipt.arrival_time},\n'
        f'      "cache_hit": {"true" if covered > 0 else "false"},\n'
        f'      "cache_lookup": {"true" if receipt.cache_lookup else "false"},\n'
        f'      "core_bytes": {receipt.core_bytes},\n'
        f'      "degraded": {"true" if receipt.verdict is _DEGRADED else "false"},\n'
        f'      "finish_us": {receipt.finish_time},\n'
        f'      "latency_us": {receipt.finish_time - receipt.arrival_time if served else 0},\n'
        f'      "outcome": "{outcome_of(receipt)}",\n'
        f'      "reason": {"null" if served or receipt.reason is None else encode_basestring_ascii(receipt.reason)},\n'
        f'      "request_id": {encode_basestring_ascii(receipt.request_id)},\n'
        f'      "stages": {stages},\n'
        f'      "tokens_covered": {covered},\n'
        f'      "tpot_us": {receipt.tpot_us},\n'
        f'      "ttft_us": {receipt.ttft_us}\n'
        "    }"
    )


@dataclass(slots=True, eq=False, repr=False)
class MetricsFrame:
    """A run's receipts and the per-node and placement tallies ``metrics.json`` is built from."""

    duration_us: int
    records: list[ExecutionReceipt] = field(default_factory=list)  # the run's ReceiptLog list
    node_capacity: dict[str, int] = field(default_factory=dict)   # node -> max_concurrent
    max_queue_length: dict[str, int] = field(default_factory=dict)
    core_bytes_placement: int = 0
    placement_churn: int = 0
    model_load_overhead_us: int = 0

    # -- aggregates ---------------------------------------------------------

    def summary(self) -> dict:
        """Every aggregate of ``to_dict``, without the per-request records,
        from one pass over the receipts: outcomes (``outcome_of``), rejections
        by reason, and the served receipts' latencies, TTFTs, TPOTs, core
        bytes, session-state lookups and hits, and per-node busy time. The
        latencies and TTFTs are sorted once, so each ``percentile`` of them
        re-sorts in linear time."""
        counts = {OUTCOME_SERVED: 0, OUTCOME_REJECTED: 0, OUTCOME_TRUNCATED: 0}
        by_reason: dict[str, int] = {}
        latencies: list[int] = []
        ttfts: list[int] = []
        tpot_total = core_bytes_requests = lookups = hits = 0
        busy_us: dict[str, int] = {}
        for r in self.records:
            outcome = outcome_of(r)
            counts[outcome] += 1
            if outcome != OUTCOME_SERVED:
                if outcome == OUTCOME_REJECTED:
                    reason = r.reason or "unknown"
                    by_reason[reason] = by_reason.get(reason, 0) + 1
                continue
            latencies.append(r.finish_time - r.arrival_time)
            ttfts.append(r.ttft_us)
            tpot_total += r.tpot_us
            core_bytes_requests += r.core_bytes
            lookups += r.cache_lookup
            hits += r.cache_tokens_covered > 0
            for stage, occupancy in zip(r.plan, r.occupancy_us):
                busy_us[stage.node_id] = busy_us.get(stage.node_id, 0) + occupancy
        latencies.sort()
        ttfts.sort()
        arrivals = len(self.records)
        served, rejected = counts[OUTCOME_SERVED], counts[OUTCOME_REJECTED]
        utilization = {
            node: ratio_str(busy_us.get(node, 0), self.duration_us * cap)
            for node, cap in sorted(self.node_capacity.items())
        }
        return {
            "duration_us": self.duration_us,
            "arrivals": arrivals,
            "served": served,
            "rejected": rejected,
            "truncated": counts[OUTCOME_TRUNCATED],
            "completion_rate": ratio_str(served, arrivals),
            "admitted_completion_rate": ratio_str(served, arrivals - rejected),
            "rejections_by_reason": dict(sorted(by_reason.items())),
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
                "mean": tpot_total // served if served else 0,
            },
            "cache": {"tensor_state": {"lookups": lookups, "hits": hits, "ratio": ratio_str(hits, lookups)}},
            "node_utilization": utilization,
            "max_queue_length": dict(sorted(self.max_queue_length.items())),
            "core_bytes": {
                "requests": core_bytes_requests,
                "placement": self.core_bytes_placement,
                "total": core_bytes_requests + self.core_bytes_placement,
            },
            "placement_churn": self.placement_churn,
            "model_load_overhead_us": self.model_load_overhead_us,
        }

    def to_dict(self) -> dict:
        doc = self.summary()
        doc["per_request"] = [per_request_item(r) for r in self.records]
        return doc

    def to_json(self, fp: TextIO | None = None, summary: dict | None = None) -> str | None:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\\n"``,
        written to ``fp`` one record at a time; returned as a string when
        ``fp`` is None. ``summary``, when given, is this frame's ``summary()``,
        built once by a caller that also needs it."""
        if fp is None:
            buf = io.StringIO()
            self.to_json(buf, summary)
            return buf.getvalue()
        doc = dict(self.summary() if summary is None else summary, per_request=[])
        # Only the top-level key can hold an empty list, so the split is exact.
        head, tail = json.dumps(doc, sort_keys=True, indent=2).split('"per_request": []')
        fp.write(head + '"per_request": [')
        for i, record in enumerate(self.records):
            fp.write(",\n" if i else "\n")
            fp.write(_json_item(record))
        fp.write("\n  ]" if self.records else "]")
        fp.write(tail + "\n")
        return None
