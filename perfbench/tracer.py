"""Per-layer spans recorded from outside the program.

``install`` wraps the public entry points of each capsim module (class
methods and module functions) in place, inside the benchmark's own child
process. Spans are kept in memory as ``(name, start_ns, end_ns, parent)``
tuples and written out once, after the run; counters record calls too
cheap to span (about 1 µs each) and quantities read off arguments and
results. Nothing under ``src/`` is modified.

``layer_metrics`` turns a dump into the per-layer metrics of BENCHMARK.json.
A span's self time is its duration minus the durations of its direct child
spans; calls are strictly nested because the simulator is single-threaded.
"""

from __future__ import annotations

import heapq
import itertools
import json
import sys
import time
import types
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._counters: dict[str, itertools.count] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``on_result(tracer, args, result)`` runs after the span closes, so
        bookkeeping is not charged to the layer.
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        # A C-level counter: about half the cost of a Counter increment on
        # calls that themselves take about 1 µs.
        bump = self._counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            bump()
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        # Every span is closed by now (the wrappers fill their slot in
        # ``finally``), and parents are list indices, so dump the list as is.
        counts = self.counts + Counter({name: next(c) for name, c in self._counters.items()})
        doc = {"names": self.names, "spans": self.spans, "counts": counts}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _add(key, amount_of):
    def on_result(tracer, args, result):
        tracer.counts[key] += amount_of(args, result)

    return on_result


def _admit_result(tracer, args, decision):
    tracer.counts["caching.admitted"] += 1 if decision.admitted else 0
    tracer.counts["caching.evictions"] += len(decision.evicted)


def _wrap_method(cls, attr: str, wrap) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


def _wrap_function(module, attr: str, wrap) -> None:
    """Replace ``module.attr`` and every capsim module's imported alias of it."""
    original = getattr(module, attr)
    wrapped = wrap(original)
    for name, mod in list(sys.modules.items()):
        if (name == "capsim" or name.startswith("capsim.")) and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def install() -> Tracer:
    """Wrap capsim's layer entry points; returns the tracer collecting them."""
    from capsim import caching, cli, deployment, engine, metrics, registry, routing, scenario, topology, trust, workload

    t = Tracer()
    rejection = routing.Rejection
    spans = [
        (scenario.Scenario, "load", "scenario.load", None),
        (scenario.Scenario, "validate", "scenario.validate", None),
        (engine.Simulation, "__init__", "engine.init", None),
        (engine.Simulation, "run", "engine.run", _add("engine.trace_rows", lambda a, r: len(r.trace))),
        (routing.Router, "select", "routing.select",
         _add("routing.rejected", lambda a, r: isinstance(r, rejection))),
        (routing.Router, "score", "routing.score", None),
        (registry.Broker, "lookup_candidates", "registry.lookup", _add("registry.candidates", lambda a, r: len(r))),
        (registry.Broker, "refresh_queue_telemetry", "registry.telemetry", None),
        (caching.CacheSystem, "holders", "caching.holders", None),
        (caching.CacheSystem, "drop_session", "caching.drop_session", None),
        (caching.StateStore, "admit", "caching.admit", _admit_result),
        (trust.TrustManager, "verdict", "trust.verdict", _add("trust.rejected", lambda a, r: r[0] == "rejected")),
        (trust.ReceiptLog, "emit", "trust.emit", None),
        (metrics.MetricsFrame, "to_json", "metrics.to_json", _add("metrics.records", lambda a, r: len(a[0].records))),
    ]
    for cls, attr, name, on_result in spans:
        _wrap_method(cls, attr, lambda fn, n=name, cb=on_result: t.span(n, fn, cb))
    functions = [
        (workload, "generate_arrivals", "workload.generate", _add("workload.arrivals", lambda a, r: len(r))),
        (deployment, "cells_from_requests", "deployment.cells",
         _add("deployment.requests_scanned", lambda a, r: len(a[0]))),
        (deployment, "build_problem", "deployment.build_problem", _add("deployment.pairs", lambda a, r: len(r.pairs))),
        (deployment, "solve", "deployment.solve", None),
        (cli, "_write_outputs", "cli.write", None),
    ]
    for module, attr, name, on_result in functions:
        _wrap_function(module, attr, lambda fn, n=name, cb=on_result: t.span(n, fn, cb))
    for cls, attr, name in [
        (topology.Topology, "transfer_between", "topology.transfer_calls"),
        (topology.Topology, "path", "topology.path_searches"),
        (caching.StateStore, "peek", "caching.peek_calls"),
    ]:
        _wrap_method(cls, attr, lambda fn, n=name: t.counted(n, fn))
    # The engine's event heap: each pop is one event handled.
    engine.heapq = types.SimpleNamespace(
        heappush=heapq.heappush, heappop=t.counted("engine.events", heapq.heappop)
    )
    return t


# -- analysis (parent process) ------------------------------------------------


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if "_us_" in name:
        return "us"
    if name.endswith(("_ratio", "_share", ".overhead")) or "_per_" in name:
        return "ratio"
    return "count"


def _quantile_us(durations_ns: list[int], q: float) -> float:
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1000


def layer_metrics(doc: dict, metrics_doc: dict) -> dict[str, float]:
    """Per-layer metrics from one traced run's span dump and its metrics.json."""
    names = doc["names"]
    spans = doc["spans"]
    counts = Counter(doc["counts"])
    child_ns = Counter()
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total_ns: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    durations: dict[str, list[int]] = {}
    score_under_select = score_under_select_ns = 0
    for idx, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        dur = end - start
        total_ns[name] += dur
        self_ns[name] += dur - child_ns[idx]
        calls[name] += 1
        durations.setdefault(name, []).append(dur)
        if name == "routing.score" and parent >= 0 and names[spans[parent][0]] == "routing.select":
            score_under_select += 1
            score_under_select_ns += dur

    def s(name: str) -> float:
        return total_ns[name] / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    selects = calls["routing.select"]
    cache = metrics_doc["cache"]["tensor_state"]
    arrivals = metrics_doc["arrivals"]
    run_s = s("engine.run")
    return {
        "routing.select_calls": selects,
        "routing.select_self_s": self_ns["routing.select"] / 1e9,
        "routing.select_us_p50": _quantile_us(durations.get("routing.select", []), 0.50),
        "routing.select_us_p99": _quantile_us(durations.get("routing.select", []), 0.99),
        "routing.select_share": ratio(s("routing.select"), run_s),
        "routing.score_s": score_under_select_ns / 1e9,
        "routing.plans_scored": score_under_select,
        "routing.plans_per_select": ratio(score_under_select, selects),
        "routing.ladder_steps": calls["registry.lookup"] - selects,
        "routing.rejected": counts["routing.rejected"],
        "topology.transfer_calls": counts["topology.transfer_calls"],
        "topology.path_searches": counts["topology.path_searches"],
        "caching.holders_calls": calls["caching.holders"],
        "caching.holders_s": s("caching.holders"),
        "caching.peek_calls": counts["caching.peek_calls"],
        "caching.lookups": cache["lookups"],
        "caching.hit_ratio": ratio(cache["hits"], cache["lookups"]),
        "caching.admit_calls": calls["caching.admit"],
        "caching.admit_ratio": ratio(counts["caching.admitted"], calls["caching.admit"]),
        "caching.evictions": counts["caching.evictions"],
        "caching.admit_s": s("caching.admit"),
        "caching.drop_session_s": s("caching.drop_session"),
        "registry.lookup_calls": calls["registry.lookup"],
        "registry.lookup_s": s("registry.lookup"),
        "registry.candidates_per_lookup": ratio(counts["registry.candidates"], calls["registry.lookup"]),
        "registry.telemetry_calls": calls["registry.telemetry"],
        "registry.telemetry_s": s("registry.telemetry"),
        "deployment.replans": calls["deployment.solve"],
        "deployment.solve_s": s("deployment.solve"),
        "deployment.build_problem_s": s("deployment.build_problem"),
        "deployment.cells_s": s("deployment.cells"),
        "deployment.requests_scanned": counts["deployment.requests_scanned"],
        "deployment.pairs": counts["deployment.pairs"],
        "trust.verdict_calls": calls["trust.verdict"],
        "trust.verdict_s": s("trust.verdict"),
        "trust.rejected": counts["trust.rejected"],
        "trust.receipts": calls["trust.emit"],
        "trust.emit_s": s("trust.emit"),
        "workload.generate_s": s("workload.generate"),
        "workload.arrivals": counts["workload.arrivals"],
        "engine.run_s": run_s,
        "engine.self_s": self_ns["engine.run"] / 1e9,
        "engine.events": counts["engine.events"],
        "engine.events_per_request": ratio(counts["engine.events"], arrivals),
        "engine.trace_rows": counts["engine.trace_rows"],
        "engine.init_s": s("engine.init"),
        "scenario.load_s": s("scenario.load"),
        "scenario.validate_s": s("scenario.validate"),
        "metrics.to_json_s": s("metrics.to_json"),
        "metrics.records": counts["metrics.records"],
        "cli.write_s": s("cli.write"),
    }
