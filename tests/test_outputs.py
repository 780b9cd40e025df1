"""Output files and their formatters: metrics.json written one record at a
time, trace.csv one row at a time as the run produces it, receipts.jsonl one
canonical JSON line per receipt, and the run's failure contract for them."""

import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from capsim.cli import TRACE_COLUMNS, TraceWriter, main
from capsim.descriptors import REASON_HORIZON_TRUNCATED, ExecutionReceipt, PlanPhase, PlanStage, Verdict
from capsim.engine import Simulation
from capsim.metrics import MetricsFrame
from capsim.scenario import Scenario
from capsim.trust import ReceiptLog

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Characters JSON must escape, plus arbitrary unicode (escaped as \uXXXX).
texts = st.text(alphabet=st.one_of(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\r\t é☃'), st.characters()))
big_ints = st.integers(min_value=-(2**70), max_value=2**70)
counts = st.integers(min_value=0, max_value=2**64)

plan_stages = st.builds(PlanStage, node_id=texts, realization_id=texts, phase=st.sampled_from(PlanPhase))
receipts = st.builds(
    ExecutionReceipt,
    request_id=texts,
    plan=st.lists(plan_stages, max_size=2).map(tuple),
    capability_versions=st.lists(st.tuples(texts, texts), max_size=2).map(tuple),
    node_attestations=st.lists(st.tuples(texts, big_ints), max_size=2).map(tuple),
    cache_states_reused=st.lists(texts, max_size=2).map(tuple),
    cache_tokens_covered=big_ints,
    verdict=st.sampled_from(Verdict),
    reason=st.none() | st.just(REASON_HORIZON_TRUNCATED) | texts,
    t_net_us=big_ints,
    t_queue_us=big_ints,
    t_exec_us=big_ints,
    t_state_us=big_ints,
    c_load=big_ints,
    p_policy=big_ints,
    arrival_time=big_ints,
    finish_time=big_ints,
    ttft_us=big_ints,
    tpot_us=big_ints,
    core_bytes=big_ints,
    cache_lookup=st.booleans(),
    occupancy_us=st.lists(big_ints, max_size=3).map(tuple),
)

frames = st.builds(
    MetricsFrame,
    duration_us=counts,
    records=st.lists(receipts, max_size=6),
    node_capacity=st.dictionaries(texts, st.integers(min_value=1, max_value=64), max_size=3),
    max_queue_length=st.dictionaries(texts, counts, max_size=3),
    core_bytes_placement=counts,
    placement_churn=counts,
    model_load_overhead_us=counts,
)


@settings(max_examples=100, deadline=None)
@given(frames)
@example(MetricsFrame(duration_us=0))
def test_metrics_json_matches_json_dumps_of_the_dict(frame):
    expected = json.dumps(frame.to_dict(), sort_keys=True, indent=2) + "\n"
    assert frame.to_json() == expected
    streamed = io.StringIO()
    assert frame.to_json(streamed) is None
    assert streamed.getvalue() == expected


def reference_trace_csv(rows: list[dict]) -> str:
    """The whole-file trace formatter that TraceWriter replaced."""
    lines = [",".join(TRACE_COLUMNS)]
    for row in rows:
        known = {c: row.get(c, "") for c in TRACE_COLUMNS}
        detail = {k: v for k, v in row.items() if k not in TRACE_COLUMNS}
        known["detail"] = ";".join(f"{k}={detail[k]}" for k in sorted(detail))
        lines.append(",".join(str(known[c]) for c in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


values = st.one_of(
    st.integers(), st.text(max_size=8), st.none(), st.booleans(), st.tuples(st.text(max_size=3), st.text(max_size=3))
)
trace_rows = st.builds(
    lambda ts, kind, known, extra: {"timestamp_us": ts, "seq": 0, "kind": kind, **known, **extra},
    st.integers(min_value=0),
    st.sampled_from(["arrival", "dispatch", "cache_admit", "telemetry", "100%s"]),
    st.dictionaries(st.sampled_from(TRACE_COLUMNS[3:]), values, max_size=4),
    st.dictionaries(st.text(min_size=1, max_size=6).filter(lambda k: k not in TRACE_COLUMNS), values, max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(trace_rows, max_size=8))
# One key layout twice, with different values.
@example(
    [
        {"timestamp_us": 1, "seq": 0, "kind": "dispatch", "request_id": "r1", "node_id": "n1", "ready_us": 5},
        {"timestamp_us": 2, "seq": 0, "kind": "dispatch", "request_id": "r2", "node_id": "n2", "ready_us": 70},
    ]
)
# The same keys inserted in another order.
@example(
    [
        {"timestamp_us": 3, "seq": 0, "kind": "cache_evict", "state_id": "s1", "node_id": "n1", "reason": "a"},
        {"reason": "b", "node_id": "n2", "seq": 0, "kind": "cache_evict", "timestamp_us": 4, "state_id": "s2"},
        {"timestamp_us": 5, "seq": 0, "kind": "cache_evict", "state_id": "s3", "node_id": "n3", "reason": "c"},
    ]
)
# Detail keys and values that mean something to str.format, %-formatting or the detail syntax.
@example(
    [
        {"timestamp_us": 0, "seq": 0, "kind": "telemetry", "{": 1, "}": "}", "{0}": "{1}", "{{x}}": "{}"},
        {"timestamp_us": 0, "seq": 0, "kind": "telemetry", "%s": "%d", "a=b": "c=d", "e;f": "g;h", "{!r}": 2},
    ]
)
# A tuple value, as in state_entry, and the benefit strings cache rows carry.
@example(
    [
        {
            "timestamp_us": 6, "seq": 0, "kind": "transfer_complete", "transfer": "state_migration",
            "request_id": "r3", "state_entry": ("edge-1", "edge-2"),
        },
        {
            "timestamp_us": 6, "seq": 0, "kind": "cache_migrate", "state_id": "st-r3", "node_id": "edge-2",
            "src_node": "edge-1", "outcome": "rejected", "benefit": "-inf", "bytes": 4096,
        },
        {
            "timestamp_us": 7, "seq": 0, "kind": "cache_admit", "state_id": "st-r4", "node_id": "edge-2",
            "outcome": "admitted", "benefit": "-355/113", "bytes": 2048,
        },
    ]
)
def test_trace_writer_matches_whole_file_formatter(rows):
    buf = io.StringIO()
    writer = TraceWriter(buf)
    for seq, row in enumerate(rows):
        assert len(writer) == seq
        row["seq"] = seq
        # The row as the engine gives it: its layout in column order, and its
        # values. A "detail" key is left out, as the whole-file formatter drops it.
        names = [c for c in TRACE_COLUMNS[3:-1] if c in row] + sorted(k for k in row if k not in TRACE_COLUMNS)
        writer.row(row["timestamp_us"], (row["kind"], *names), tuple(row[name] for name in names))
    assert len(writer) == len(rows)
    assert buf.getvalue() == reference_trace_csv(rows)


@pytest.mark.parametrize(
    "layout",
    [
        ("dispatch", "node_id", "request_id"),  # named columns out of order
        ("cache_evict", "reason", "node_id"),  # a detail key before a named column
        ("telemetry", "b", "a"),  # detail keys not sorted
        ("telemetry", "a", "a"),  # a field twice
        ("arrival", "seq"),  # columns the writer fills
        ("arrival", "detail"),
    ],
)
def test_trace_writer_rejects_a_layout_out_of_column_order(layout):
    buf = io.StringIO()
    writer = TraceWriter(buf)
    with pytest.raises(ValueError, match="column order"):
        writer.row(0, layout, tuple(range(len(layout) - 1)))
    assert buf.getvalue() == ",".join(TRACE_COLUMNS) + "\n"
    assert len(writer) == 0


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda path: path.stem)
def test_in_memory_trace_matches_the_streamed_trace_csv(path, tmp_path, capsys):
    """The trace=True rows, formatted whole, are the bytes the run's writer streams."""
    rows = Simulation(Scenario.load(path), trace=True).run().trace
    assert main(["run", str(path), "--out", str(tmp_path), "--trace"]) == 0
    assert reference_trace_csv(rows).encode() == (tmp_path / "trace.csv").read_bytes()


def reference_receipt_dict(r: ExecutionReceipt) -> dict:
    """The dict whose canonical JSON is a receipt's line in receipts.jsonl."""
    return {
        "request_id": r.request_id,
        "plan": [
            {"node_id": s.node_id, "realization_id": s.realization_id, "phase": s.phase.value} for s in r.plan
        ],
        "capability_versions": [list(v) for v in r.capability_versions],
        "node_attestations": [list(a) for a in r.node_attestations],
        "cache_states_reused": list(r.cache_states_reused),
        "cache_tokens_covered": r.cache_tokens_covered,
        "verdict": r.verdict.value,
        "reason": r.reason,
        "timing": {
            "t_net_us": r.t_net_us,
            "t_queue_us": r.t_queue_us,
            "t_exec_us": r.t_exec_us,
            "t_state_us": r.t_state_us,
            "c_load": r.c_load,
            "p_policy": r.p_policy,
        },
        "arrival_time": r.arrival_time,
        "finish_time": r.finish_time,
    }


def reference_receipt_line(r: ExecutionReceipt) -> str:
    return json.dumps(reference_receipt_dict(r), sort_keys=True, separators=(",", ":"))


_two_stages = (
    PlanStage("edge-\u00e9", 'pre"fill\\', PlanPhase.PREFILL),
    PlanStage("cloud\u2603", "dec\x00ode\n", PlanPhase.DECODE),
)


_shared = (_two_stages, (("a", "b"), ("c", "d")), (("cloud\u2603", 1), ("edge-\u00e9", 2)))


@settings(max_examples=150, deadline=None)
@given(st.lists(receipts, max_size=4))
@example([])
@example(
    [
        ExecutionReceipt(
            request_id="q-\u00e9\x1f", plan=(), capability_versions=(), node_attestations=(),
            cache_states_reused=(), cache_tokens_covered=0, verdict=Verdict.REJECTED, reason="NoFeasiblePlan",
        ),
        ExecutionReceipt(
            request_id='q"1', plan=_two_stages[:1], capability_versions=(("r\\", "\u2603" * 3),),
            node_attestations=(("n\t", 2**70),), cache_states_reused=("st-\x7f",), cache_tokens_covered=2**64,
            verdict=Verdict.ALLOWED, reason=None, t_net_us=1, c_load=-(2**70), finish_time=2**70,
        ),
        ExecutionReceipt(
            request_id="q2", plan=_two_stages, capability_versions=(("a", "b"), ("c", "d")),
            node_attestations=(("n1", 0), ("n2", 3)), cache_states_reused=(), cache_tokens_covered=7,
            verdict=Verdict.DEGRADED, reason="quality-downgrade:1", t_queue_us=5, p_policy=9,
        ),
    ]
)
# Receipts that share their plan, versions and attestations tuples, as the
# engine's receipts of one plan do, and receipts whose tuples are equal but
# distinct objects: to_jsonl formats each tuple once per call, by identity.
@example(
    [
        ExecutionReceipt(
            request_id=f"q{i}", plan=_shared[0], capability_versions=_shared[1], node_attestations=_shared[2],
            verdict=Verdict.ALLOWED, finish_time=i,
        )
        for i in range(3)
    ]
)
@example(
    [
        ExecutionReceipt(
            request_id=f"q{i}", plan=tuple([*_two_stages][:: -1 if i % 2 else 1]),
            capability_versions=tuple([("r\\", f"d{i % 2}")]), node_attestations=tuple([("n\t", i % 2), ("n2", 3)]),
            verdict=Verdict.DEGRADED, reason="x",
        )
        for i in range(4)
    ]
)
def test_receipt_lines_match_canonical_json_dumps(entries):
    for receipt in entries:
        assert receipt.to_json_line() == reference_receipt_line(receipt)
    expected = "".join(reference_receipt_line(r) + "\n" for r in entries)
    log = ReceiptLog(receipts=list(entries))
    assert log.to_jsonl() == expected
    streamed = io.StringIO()
    assert log.to_jsonl(streamed) is None
    assert streamed.getvalue() == expected


def test_failed_run_leaves_no_partial_trace(tmp_path, monkeypatch, capsys):
    scenario = str(SCENARIOS / "session_heavy.json")
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out), "--trace"]) == 0
    complete = (out / "trace.csv").read_bytes()

    def fail(self, now, *args):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(Simulation, "_finish_served", fail)
    fresh = tmp_path / "fresh"
    assert main(["run", scenario, "--out", str(fresh), "--trace"]) == 2
    assert "injected failure" in capsys.readouterr().err
    assert list(fresh.iterdir()) == []
    # A failed run into a used directory leaves the earlier trace as it was.
    assert main(["run", scenario, "--out", str(out), "--trace"]) == 2
    assert (out / "trace.csv").read_bytes() == complete
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "metrics.json", "receipts.jsonl", "trace.csv"]


def test_trace_without_out_builds_no_trace(monkeypatch):
    traced = []
    run = Simulation.run

    def spy(self):
        traced.append(self.trace_enabled)
        return run(self)

    monkeypatch.setattr(Simulation, "run", spy)
    assert main(["run", str(SCENARIOS / "session_heavy.json"), "--trace"]) == 0
    assert traced == [False]
