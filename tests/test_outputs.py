"""Output files written as the data is produced: metrics.json one record at a
time, trace.csv one row at a time, and the run's failure contract for them."""

import io
import json
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from capsim.cli import TRACE_COLUMNS, TraceWriter, main
from capsim.engine import Simulation
from capsim.metrics import OUTCOME_REJECTED, OUTCOME_SERVED, OUTCOME_TRUNCATED, MetricsFrame, RequestRecord

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Characters JSON must escape, plus arbitrary unicode (escaped as \uXXXX).
texts = st.text(alphabet=st.one_of(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\r\t é☃'), st.characters()))
big_ints = st.integers(min_value=-(2**70), max_value=2**70)
counts = st.integers(min_value=0, max_value=2**64)

records = st.builds(
    RequestRecord,
    request_id=texts,
    outcome=st.sampled_from([OUTCOME_SERVED, OUTCOME_REJECTED, OUTCOME_TRUNCATED]),
    reason=st.none() | texts,
    arrival_us=big_ints,
    finish_us=big_ints,
    ttft_us=big_ints,
    tpot_us=big_ints,
    latency_us=big_ints,
    core_bytes=big_ints,
    degraded=st.booleans(),
    cache_lookup=st.booleans(),
    cache_hit=st.booleans(),
    cache_state_type=st.none() | texts,
    tokens_covered=big_ints,
    stages=st.lists(st.tuples(texts, big_ints), max_size=3),
)

frames = st.builds(
    MetricsFrame,
    duration_us=counts,
    records=st.lists(records, max_size=6),
    node_capacity=st.dictionaries(texts, st.integers(min_value=1, max_value=64), max_size=3),
    node_busy_us=st.dictionaries(texts, counts, max_size=3),
    max_queue_length=st.dictionaries(texts, counts, max_size=3),
    cache_lookups=st.dictionaries(st.sampled_from(["tensor_state", "prefix"]), counts, max_size=2),
    cache_hits=st.dictionaries(st.sampled_from(["tensor_state", "prefix"]), counts, max_size=2),
    core_bytes_requests=counts,
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


values = st.one_of(st.integers(), st.text(max_size=8), st.none(), st.booleans())
trace_rows = st.builds(
    lambda ts, kind, known, extra: {"timestamp_us": ts, "seq": 0, "kind": kind, **known, **extra},
    st.integers(min_value=0),
    st.sampled_from(["arrival", "dispatch", "cache_admit", "telemetry"]),
    st.dictionaries(st.sampled_from(TRACE_COLUMNS[3:]), values, max_size=4),
    st.dictionaries(st.text(min_size=1, max_size=6).filter(lambda k: k not in TRACE_COLUMNS), values, max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(trace_rows, max_size=8))
def test_trace_writer_matches_whole_file_formatter(rows):
    buf = io.StringIO()
    writer = TraceWriter(buf)
    for seq, row in enumerate(rows):
        assert len(writer) == seq
        row["seq"] = seq
        writer.append(row)
    assert len(writer) == len(rows)
    assert buf.getvalue() == reference_trace_csv(rows)


def test_failed_run_leaves_no_partial_trace(tmp_path, monkeypatch, capsys):
    scenario = str(SCENARIOS / "session_heavy.json")
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out), "--trace"]) == 0
    complete = (out / "trace.csv").read_bytes()

    def fail(self, now, request_id):
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
