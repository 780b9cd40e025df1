"""A run with every kept value bypassed writes the bytes of a run with them.

The run path keeps values between calls, each valid under an invalidation
rule of its own: the broker's hit lists (``CandidateTable.kept``), the
router's pricing-class leads (``_Classes.last``), the engine's receipt parts
(``Simulation._plan_parts`` and ``_attestation_values``) and the receipt-line
fragments that ``ReceiptLog.to_jsonl`` shares
(``ExecutionReceipt.to_json_line``'s ``parts``). An untraced run also leaves
out the completion events that nothing reads. Here every one of them is
bypassed from outside, on every shipped scenario, every golden variant and
every benchmark workload at seed 1, and the outputs must keep their pinned
digests. Each bypass also runs alone on the benchmark workloads, so that one
whose bytes hold only beside another's still shows.

Three per-request calls the engine leaves out cannot be bypassed from here,
since an inline guard skips them. Spies call them where they were left out
instead, and check that they return what the guard assumes: the
dispatch-time verdict of a request without a trust floor allows it, the
serving node's trust that an offer for such a request does not read passes
admission's scope check, and the offer a finishing session turn with a
prefix skips would store nothing. A turn without a session, or without a
prefix, has no state to offer, and the offer is not asked about it.
"""

import json
from collections import Counter
from collections.abc import Callable

import pytest

from capsim.caching import StateStore
from capsim.cli import main
from capsim.descriptors import ExecutionReceipt
from capsim.engine import Simulation
from capsim.registry import Broker
from capsim.routing import Router
from capsim.scenario import Scenario
from capsim.workload import generate_arrivals
from test_golden import GOLDEN, ROOT, SCENARIOS, VARIANTS, WORKLOAD_DIGESTS, check_outputs, output_digests, workloads


FILES = ("metrics.json", "receipts.jsonl", "trace.csv")


class _Forgetful(dict):
    """A memo that recalls nothing: every read misses."""

    def get(self, key, default=None):
        return default

    def setdefault(self, key, default=None):
        return default


def memo_bypasses(calls: Counter) -> dict[str, tuple[type, str, Callable]]:
    """Each bypass by the name it counts its calls under in ``calls``: the
    method it replaces, and the replacement."""
    lookup = Broker.lookup_candidates

    def fresh_lookup(self, table, now=0, min_trust=0):
        calls["lookup"] += 1
        table.kept.clear()
        return lookup(self, table, now, min_trust)

    price = Router._price_plans

    def fresh_price(self, request, classes, hits, now, limit):
        calls["price"] += 1
        classes.last[:] = [None, {}]
        return price(self, request, classes, hits, now, limit)

    init = Simulation.__init__

    def memo_free_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        calls["simulation"] += 1
        self._plan_parts = _Forgetful()
        self._attestation_values = _Forgetful()
        self._push_completions = True

    to_json_line = ExecutionReceipt.to_json_line

    def unshared_line(self, parts=None):
        calls["line"] += 1
        return to_json_line(self)

    return {
        "lookup": (Broker, "lookup_candidates", fresh_lookup),
        "price": (Router, "_price_plans", fresh_price),
        "simulation": (Simulation, "__init__", memo_free_init),
        "line": (ExecutionReceipt, "to_json_line", unshared_line),
    }


def bypass_every_memo(monkeypatch) -> Counter:
    """Bypass each kept value and push every completion; the returned
    counter counts the calls each bypass and spy saw."""
    calls: Counter = Counter()
    commit = Simulation._commit

    def judged_commit(self, now, arrival, scored):
        request = arrival.request
        if request.policy.min_trust <= 0:  # the engine left the verdict out
            calls["verdict_left_out"] += 1
            assert self.trust.verdict(request, scored.plan.stages, scored.stages[0].start_us) == ("allowed", None)
        commit(self, now, arrival, scored)

    admit = StateStore.admit

    def counted_admit(self, *args, **kwargs):
        calls["admit"] += 1
        return admit(self, *args, **kwargs)

    finishing: dict[int, list] = {}  # per simulation: the served turn finishing, its plan, whether it offered
    finish, offer, end_turn = Simulation._finish_served, Simulation._offer_session_state, Simulation._end_turn

    def finish_served(self, now, arrival, scored, pinned):
        finishing[id(self)] = [arrival, scored, False]
        finish(self, now, arrival, scored, pinned)
        del finishing[id(self)]

    def offered(self, now, arrival, scored):
        finishing[id(self)][2] = True
        min_trust = arrival.request.policy.min_trust
        if min_trust <= 0:  # the engine left the serving node's trust read out
            calls["trust_left_out"] += 1
            assert self.trust.effective_trust(scored.stages[-1].node_id, now) >= min_trust
        offer(self, now, arrival, scored)

    def checked_end_turn(self, now, arrival):
        served = finishing.get(id(self))
        request = arrival.request
        session_state = request.affinity_token and self.caches.enabled and arrival.prefix_tokens > 0
        if served is not None and not served[2] and session_state:  # the engine left the offer out
            calls["offer_left_out"] += 1
            admits = calls["admit"]
            offer(self, now, arrival, served[1])
            assert calls["admit"] == admits, request.request_id
        end_turn(self, now, arrival)

    for cls, name, patched in (
        *memo_bypasses(calls).values(),
        (Simulation, "_commit", judged_commit),
        (StateStore, "admit", counted_admit),
        (Simulation, "_finish_served", finish_served),
        (Simulation, "_offer_session_state", offered),
        (Simulation, "_end_turn", checked_end_turn),
    ):
        monkeypatch.setattr(cls, name, patched)
    return calls


def test_a_memo_free_run_writes_the_pinned_bytes(monkeypatch, tmp_path):
    calls = bypass_every_memo(monkeypatch)
    runs = {name: (json.loads((SCENARIOS / f"{name}.json").read_text()), digests) for name, digests in GOLDEN.items()}
    runs.update({name: (make(), digests) for name, (make, digests) in VARIANTS.items()})
    differ = []
    for name, (doc, digests) in sorted(runs.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for trace in (False, True):
            out = tmp_path / f"{name}-{trace}"
            assert main(["run", str(path), "--out", str(out)] + ["--trace"] * trace) == 0, name
            if output_digests(out, FILES[: 2 + trace]) != digests[: 2 + trace]:
                differ.append((name, trace))
    differ += workloads_that_differ(tmp_path)
    assert differ == []
    # Each bypass and each spy was reached.
    kinds = ("lookup", "price", "simulation", "line", "verdict_left_out", "trust_left_out", "offer_left_out")
    assert {kind: calls[kind] > 0 for kind in kinds} == dict.fromkeys(kinds, True)


def workloads_that_differ(tmp_path) -> list[tuple[str, bool]]:
    """(workload, traced) for each benchmark workload at seed 1 whose output
    digest is not its pinned one."""
    differ = []
    for name, (generate, with_trace) in sorted(workloads.WORKLOADS.items()):
        doc = generate(ROOT, 1)
        scenario = Scenario.from_dict(doc)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / name
        assert main(["run", str(path), "--out", str(out)] + ["--trace"] * with_trace) == 0, name
        arrivals = len(generate_arrivals(scenario.workload, scenario.duration_us, scenario.seed))
        digest, _ = check_outputs(out, arrivals + len(scenario.scripted_requests), with_trace)
        if digest != WORKLOAD_DIGESTS[name]:
            differ.append((name, with_trace))
    return differ


@pytest.mark.parametrize("bypass", sorted(memo_bypasses(Counter())))
def test_each_memo_bypassed_alone_keeps_the_workload_digests(monkeypatch, tmp_path, bypass):
    calls: Counter = Counter()
    monkeypatch.setattr(*memo_bypasses(calls)[bypass])
    assert workloads_that_differ(tmp_path) == []
    assert calls[bypass] > 0
