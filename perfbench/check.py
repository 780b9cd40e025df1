"""Output check applied to every run the benchmark makes.

A run passes when its outputs conserve requests (arrivals = served +
rejected + truncated = the number of requests the workload generated) and
its receipts map one-to-one onto the request ids in ``metrics.json``. The
digest covers the deterministic outputs; the caller requires it to be the
same for every run of one (workload, seed).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGEST_FILES = ("metrics.json", "receipts.jsonl", "trace.csv")


class CheckFailed(Exception):
    pass


def check_outputs(out_dir: Path, expected_arrivals: int, with_trace: bool) -> tuple[str, dict]:
    """Validate one run's outputs; returns (sha256 digest, simulated summary)."""
    metrics = json.loads((out_dir / "metrics.json").read_text())
    arrivals = metrics["arrivals"]
    outcomes = metrics["served"] + metrics["rejected"] + metrics["truncated"]
    if not arrivals == outcomes == expected_arrivals:
        raise CheckFailed(
            f"conservation: arrivals={arrivals} served+rejected+truncated={outcomes} generated={expected_arrivals}"
        )
    request_ids = [r["request_id"] for r in metrics["per_request"]]
    if len(request_ids) != arrivals or len(set(request_ids)) != arrivals:
        raise CheckFailed(f"metrics.json: {len(set(request_ids))} distinct request ids for {arrivals} arrivals")
    with (out_dir / "receipts.jsonl").open() as receipts:
        receipt_ids = [json.loads(line)["request_id"] for line in receipts]
    if len(receipt_ids) != len(set(receipt_ids)) or set(receipt_ids) != set(request_ids):
        raise CheckFailed(
            f"receipts: {len(receipt_ids)} receipts ({len(set(receipt_ids))} distinct) for {arrivals} requests"
        )
    if with_trace and not (out_dir / "trace.csv").is_file():
        raise CheckFailed("trace.csv missing")

    digest = hashlib.sha256()
    for name in DIGEST_FILES:
        path = out_dir / name
        if path.is_file():
            digest.update(name.encode() + b"\0" + path.read_bytes())
    summary = {
        "served": metrics["served"],
        "rejections_by_reason": metrics["rejections_by_reason"],
        "truncated": metrics["truncated"],
        "p95_ttft_us": metrics["ttft_us"]["p95"],
        "tensor_hit_ratio": metrics["cache"]["tensor_state"]["ratio"],
        "core_bytes": metrics["core_bytes"]["total"],
    }
    return digest.hexdigest(), summary
