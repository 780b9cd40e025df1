"""Trust management: attestation levels, lineage revocation, dispatch-time
verdicts, and the append-only execution receipt log.

Attestation is simulated: levels are asserted by the scenario and expire;
an expired attestation demotes the node's effective trust to 0 until renewed.
Verdicts re-validate trust at dispatch time because it may have changed
between plan selection and execution.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import TextIO

from .descriptors import (
    REASON_LINEAGE_REVOKED,
    REASON_TRUST_EXPIRED,
    TRUST_MAX,
    TRUST_MIN,
    ExecutionReceipt,
    PlanStage,
    RequestDescriptor,
    bounded,
    ident,
)


class UnknownRealization(Exception):
    pass


@dataclass(slots=True, eq=False, repr=False)
class AttestationRecord:
    """A node's attested trust level from ``issue_time_us``, for ``validity_window_us`` µs or for ever."""

    node_id: str = ident(ref="node")
    level: int = bounded(0, TRUST_MIN, TRUST_MAX)
    issue_time_us: int = bounded(0, 0)
    validity_window_us: int | None = bounded(None, 0, above=True)  # None = never expires

    def valid_at(self, now: int) -> bool:
        """Whether the record, issued at or before ``now``, has not yet expired."""
        return self.validity_window_us is None or now < self.issue_time_us + self.validity_window_us


def lineage_digest(lineage: tuple[tuple[str, str], ...]) -> str:
    payload = json.dumps([list(p) for p in lineage], separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class TrustManager:
    def __init__(self) -> None:
        self._attestations: dict[str, list[AttestationRecord]] = {}
        self._lineage: dict[str, str] = {}  # each realization's lineage digest
        self._revoked: set[str] = set()
        self.revocations = 0  # bumped by every revoke; readers that cache lineage state compare it
        self.attestations = 0  # bumped by every attest; readers that keep effective trust compare it

    def register_lineage(self, realization_id: str, lineage: tuple[tuple[str, str], ...]) -> None:
        self._lineage[realization_id] = lineage_digest(lineage)

    def attest(self, record: AttestationRecord) -> None:
        self._attestations.setdefault(record.node_id, []).append(record)
        self._attestations[record.node_id].sort(key=lambda a: a.issue_time_us)
        self.attestations += 1

    def effective_trust(self, node_id: str, now: int) -> int:
        """Trust level of the latest attestation valid at ``now``, else 0."""
        records = self._attestations.get(node_id, ())
        level = 0
        for rec in records:
            if rec.issue_time_us <= now:
                level = rec.level if rec.valid_at(now) else 0
        return level

    def next_change(self, node_id: str, now: int) -> int | None:
        """The first instant after ``now`` at which an attestation of the node
        starts or lapses, the only instants its effective trust can change;
        None when there is none."""
        return min((t for t in self._changes(node_id) if t > now), default=None)

    def last_change(self, node_id: str, now: int) -> int | None:
        """The last instant at or before ``now`` at which an attestation of
        the node starts or lapses; None when there is none. The node's
        effective trust is the same from it until ``next_change``."""
        return max((t for t in self._changes(node_id) if t <= now), default=None)

    def _changes(self, node_id: str) -> list[int]:
        records = self._attestations.get(node_id, ())
        starts = [rec.issue_time_us for rec in records]
        lapses = [rec.issue_time_us + rec.validity_window_us for rec in records if rec.validity_window_us is not None]
        return starts + lapses

    def lineage_for(self, realization_id: str) -> str | None:
        return self._lineage.get(realization_id)

    def is_revoked(self, realization_id: str) -> bool:
        return realization_id in self._revoked

    def revoke(self, realization_id: str) -> None:
        if realization_id not in self._lineage:
            raise UnknownRealization(realization_id)
        self._revoked.add(realization_id)
        self.revocations += 1

    def verdict(
        self,
        request: RequestDescriptor,
        plan: tuple[PlanStage, ...],
        now: int,
    ) -> tuple[str, str | None]:
        """Dispatch-time policy verdict: (allowed, None) or (rejected, reason).

        Hard constraints were filtered at selection; this re-checks them
        because attestations may have expired and lineage may have been
        revoked between selection and dispatch.
        """
        for stage in plan:
            if self.effective_trust(stage.node_id, now) < request.policy.min_trust:
                return ("rejected", REASON_TRUST_EXPIRED)
        for stage in plan:
            if self.is_revoked(stage.realization_id):
                return ("rejected", REASON_LINEAGE_REVOKED)
        return ("allowed", None)


@dataclass(slots=True, eq=False, repr=False)
class ReceiptLog:
    """Append-only, single-writer record of terminal request outcomes."""

    receipts: list[ExecutionReceipt] = field(default_factory=list)

    def emit(self, receipt: ExecutionReceipt) -> None:
        self.receipts.append(receipt)

    def __len__(self) -> int:
        return len(self.receipts)

    def to_jsonl(self, fp: TextIO | None = None) -> str | None:
        """One canonical JSON line per receipt, written to ``fp`` line by
        line; returned as a string when ``fp`` is None. The lines share one
        memo of formatted parts (``ExecutionReceipt.to_json_line``), so a
        plan, versions or attestations tuple that many receipts hold, as the
        engine's receipts of one plan do, is formatted once per call; the
        receipts keep every tuple alive for the whole call."""
        if fp is None:
            buf = io.StringIO()
            self.to_jsonl(buf)
            return buf.getvalue()
        parts: dict[int, str] = {}
        fp.writelines(f"{receipt.to_json_line(parts)}\n" for receipt in self.receipts)
        return None
