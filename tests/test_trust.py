import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsim.descriptors import (
    REASON_LINEAGE_REVOKED,
    REASON_TRUST_EXPIRED,
    PlanPhase,
    PlanStage,
    PolicyConstraint,
    RequestDescriptor,
)
from capsim.trust import AttestationRecord, ReceiptLog, TrustManager, UnknownRealization, lineage_digest


def manager_with_lineage():
    tm = TrustManager()
    tm.register_lineage("real-1", (("base", "distill"),))
    tm.register_lineage("real-2", (("base", "distill"), ("head", "adapter")))
    return tm


def request(min_trust=2):
    return RequestDescriptor(
        request_id="q1",
        capability_class="chat",
        quality_target=1,
        policy=PolicyConstraint(min_trust=min_trust),
        output_tokens=1,
    )


def plan(*node_ids, realization="real-1"):
    return tuple(PlanStage(n, realization, PlanPhase.FULL) for n in node_ids)


def test_effective_trust_follows_latest_attestation():
    tm = manager_with_lineage()
    tm.attest(AttestationRecord("n1", 2, issue_time_us=0, validity_window_us=None))
    assert tm.effective_trust("n1", 0) == 2
    assert tm.effective_trust("n1", 10**9) == 2


def test_expired_attestation_demotes_to_zero():
    tm = manager_with_lineage()
    tm.attest(AttestationRecord("n1", 3, issue_time_us=0, validity_window_us=1000))
    assert tm.effective_trust("n1", 999) == 3
    assert tm.effective_trust("n1", 1000) == 0


def test_renewal_restores_trust():
    tm = manager_with_lineage()
    tm.attest(AttestationRecord("n1", 3, issue_time_us=0, validity_window_us=1000))
    tm.attest(AttestationRecord("n1", 2, issue_time_us=5000, validity_window_us=None))
    assert tm.effective_trust("n1", 2000) == 0
    assert tm.effective_trust("n1", 5000) == 2


def test_unattested_node_has_zero_trust():
    tm = manager_with_lineage()
    assert tm.effective_trust("ghost", 0) == 0


_records = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 40), st.none() | st.integers(1, 30)), max_size=4
)


# last_change and next_change bound the span around a time in which the
# node's effective trust stays the same: each is an instant at which it may
# change, and no attestation starts or lapses strictly between them.
@settings(max_examples=200, deadline=None)
@given(_records, st.integers(0, 80))
def test_trust_is_constant_from_the_last_change_to_the_next(records, now):
    tm = TrustManager()
    for level, issue, window in records:
        tm.attest(AttestationRecord("n1", level, issue, window))
    level = tm.effective_trust("n1", now)
    first, end = tm.last_change("n1", now), tm.next_change("n1", now)
    assert first is None or first <= now
    assert end is None or end > now
    for t in range(0 if first is None else first, 90 if end is None else end):
        assert tm.effective_trust("n1", t) == level
    if first is not None:
        assert first in {issue for _, issue, _ in records} | {i + w for _, i, w in records if w is not None}


def test_verdict_allows_when_all_stages_trusted():
    tm = manager_with_lineage()
    tm.attest(AttestationRecord("n1", 3, 0, None))
    tm.attest(AttestationRecord("n2", 3, 0, None))
    verdict, reason = tm.verdict(request(min_trust=2), plan("n1", "n2"), now=100)
    assert (verdict, reason) == ("allowed", None)


def test_verdict_rejects_expired_attestation():
    tm = manager_with_lineage()
    tm.attest(AttestationRecord("n1", 3, 0, validity_window_us=50))
    verdict, reason = tm.verdict(request(min_trust=2), plan("n1"), now=100)
    assert verdict == "rejected" and reason == REASON_TRUST_EXPIRED


def test_verdict_rejects_revoked_lineage():
    tm = manager_with_lineage()
    tm.attest(AttestationRecord("n1", 3, 0, None))
    tm.revoke("real-1")
    verdict, reason = tm.verdict(request(min_trust=2), plan("n1"), now=100)
    assert verdict == "rejected" and reason == REASON_LINEAGE_REVOKED


def test_revoke_unknown_realization():
    tm = manager_with_lineage()
    with pytest.raises(UnknownRealization):
        tm.revoke("ghost")


def test_lineage_digest_chain_is_prefix_sensitive():
    """A realization keeps one digest of its whole lineage: a change to the
    parent or the tag of any step, a step dropped or a step added, changes it."""
    tm = manager_with_lineage()
    lineage = (("base", "distill"), ("head", "adapter"))
    digest = tm.lineage_for("real-2")
    assert digest == lineage_digest(lineage)
    changed = {lineage[:1], lineage[1:], lineage + (("head", "adapter"),)}
    for i, step in enumerate(lineage):
        for j in range(2):
            edited = tuple(part + "x" if k == j else part for k, part in enumerate(step))
            changed.add(lineage[:i] + (edited,) + lineage[i + 1 :])
    assert len(changed) == 7
    assert digest not in {lineage_digest(other) for other in changed}
    assert len({lineage_digest(other) for other in changed}) == 7


def test_receipt_log_appends_in_order():
    from capsim.descriptors import ExecutionReceipt, Verdict

    log = ReceiptLog()
    for i in range(3):
        log.emit(
            ExecutionReceipt(
                request_id=f"q{i}", plan=(), capability_versions=(), node_attestations=(),
                cache_states_reused=(), cache_tokens_covered=0,
                verdict=Verdict.REJECTED, reason="NoFeasiblePlan",
            )
        )
    import json

    lines = log.to_jsonl().strip().split("\n")
    assert len(lines) == len(log) == 3
    assert [json.loads(l)["request_id"] for l in lines] == ["q0", "q1", "q2"]
