"""Host-time benchmark for capsim.

    python3 perfbench/run.py --workload fanout17 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --node-table

Each measured run is one fresh ``python3`` process that does what
``capsim run <scenario> --out <dir>`` does (see child.py), one at a time:
module-level caches start cold and ``ru_maxrss`` belongs to that run alone.
The workload's scenario is generated from ``--seed`` (workloads.py). Runs
repeat until ``--seconds`` have passed and the medians are reported. Every
run's outputs are checked (check.py) and must hash the same.

``--trace 0`` reports the end-to-end metrics:

- ``requests_per_s``: simulated requests of every outcome over the host
  seconds from the start of ``Simulation.run()`` until every output file is
  written;
- ``setup_s``: from spawning a fresh process to a constructed
  ``Simulation`` (interpreter, ``import capsim``, ``Scenario.load``,
  ``validate``, ``Simulation(...)``), the median of several processes;
- ``peak_rss_mb``: peak resident memory of a run's process, in MiB.

``--trace 1`` alternates untraced and traced runs and reports per-layer
metrics (tracer.py) plus ``trace.overhead``. ``--node-table`` prints, once,
plans per select and host µs per request for the fanout scenario at 3, 5, 9
and 17 nodes. The last line of stdout is the JSON result; the lines before it
name the simulated outputs, which a change that only speeds the simulator up
must leave identical.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from check import CheckFailed, check_outputs  # noqa: E402
from tracer import layer_metrics, unit_of  # noqa: E402

SETUP_PROBES = 7  # set-up-only processes per run, on top of the measured runs
MIN_RUNS = 3  # measured runs made even when --seconds is already used up
CHILD_TIMEOUT_S = 120
NODE_TABLE_NODES = (3, 5, 9, 17)
NODE_TABLE_DURATION_US = 1_000_000
END_TO_END_UNITS = {"requests_per_s": "requests/s", "setup_s": "s", "peak_rss_mb": "MiB"}


class RunFailed(Exception):
    pass


class Bench:
    """Runs of one generated scenario in fresh processes, with the output check."""

    def __init__(self, doc: dict, work: Path, trace_csv: bool):
        from capsim.scenario import Scenario
        from capsim.workload import generate_arrivals

        scenario = Scenario.from_dict(doc)
        errors = scenario.validate()
        if errors:
            raise RunFailed(f"generated scenario {doc['name']} is invalid: {errors}")
        self.expected_arrivals = len(
            generate_arrivals(scenario.workload, scenario.duration_us, scenario.seed)
        ) + len(scenario.scripted_requests)
        self.work = work
        self.trace_csv = trace_csv
        self.scenario_path = work / f"{doc['name']}.json"
        self.scenario_path.write_text(json.dumps(doc))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ))
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.summary: dict | None = None

    def _spawn(self, mode: str, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(self.scenario_path), str(out),
               "1" if self.trace_csv else "0", repr(spawned)]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RunFailed(f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def attempt(self, mode: str) -> dict | None:
        """One fresh process; ``None`` when it failed (counted and reported)."""
        self.attempted += 1
        out = self.work / f"{mode}-{self.attempted}"
        try:
            marks = self._spawn(mode, out)
            if mode != "setup":
                digest, summary = check_outputs(out, self.expected_arrivals, self.trace_csv)
                self.digests.add(digest)
                self.summary = summary
                if len(self.digests) > 1:
                    raise CheckFailed(f"outputs differ between runs of one seed: {sorted(self.digests)}")
                marks["requests_per_s"] = self.expected_arrivals / marks["run_s"]
                marks["raw_requests_per_s"] = self.expected_arrivals / marks["run_raw_s"]
                if mode == "traced":
                    marks["spans"] = json.loads((out / "spans.json").read_text())
                    marks["metrics_doc"] = json.loads((out / "metrics.json").read_text())
            return marks
        except (RunFailed, CheckFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            print(f"run {self.attempted} ({mode}) failed: {exc}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.digests) == 1

    def describe(self) -> str:
        s = self.summary or {}
        return (
            "simulated (model outputs; unvalidated, no reference measurements exist): "
            f"arrivals={self.expected_arrivals} served={s.get('served')} truncated={s.get('truncated')} "
            f"rejections={json.dumps(s.get('rejections_by_reason'), sort_keys=True)} "
            f"p95_ttft_us={s.get('p95_ttft_us')} tensor_hit_ratio={s.get('tensor_hit_ratio')} "
            f"core_bytes={s.get('core_bytes')} sha256={','.join(sorted(self.digests))}"
        )


def _until(deadline: float, bench: Bench, modes: tuple[str, ...]) -> dict[str, list[dict]]:
    """Cycle through ``modes`` until the deadline, and at least MIN_RUNS cycles."""
    done: dict[str, list[dict]] = {m: [] for m in modes}
    cycles = 0
    while cycles < MIN_RUNS or time.monotonic() < deadline:
        for mode in modes:
            marks = bench.attempt(mode)
            if marks is not None:
                done[mode].append(marks)
        cycles += 1
    return done


def _spread(values: list[float]) -> str:
    return f"median {statistics.median(values):.6g} of {len(values)}: " + " ".join(f"{v:.4g}" for v in values)


def end_to_end(bench: Bench, seconds: int) -> dict | None:
    bench.attempt("setup")  # warm-up: fills the OS file cache, and the byte-code cache where Python writes one
    setups = [m["setup_s"] for m in (bench.attempt("setup") for _ in range(SETUP_PROBES)) if m]
    runs = _until(time.monotonic() + seconds, bench, ("run",))["run"]
    if not runs:
        return None
    setups += [m["setup_s"] for m in runs]
    values = {
        "requests_per_s": [m["requests_per_s"] for m in runs],
        "setup_s": setups,
        "peak_rss_mb": [m["maxrss_kib"] / 1024 for m in runs],
    }
    for name, vals in values.items():
        print(f"{name} [{END_TO_END_UNITS[name]}]: {_spread(vals)}")
    print(f"not normalised for host speed: requests_per_s {_spread([m['raw_requests_per_s'] for m in runs])}; "
          f"setup_s {_spread([m['setup_raw_s'] for m in runs])}")
    return {name: {"value": statistics.median(vals), "unit": END_TO_END_UNITS[name]}
            for name, vals in values.items()}


def per_layer(bench: Bench, seconds: int) -> dict | None:
    runs = _until(time.monotonic() + seconds, bench, ("run", "traced"))
    if not runs["run"] or not runs["traced"]:
        return None
    layers = [layer_metrics(m["spans"], m["metrics_doc"]) for m in runs["traced"]]
    values = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    values["trace.overhead"] = statistics.median(m["run_raw_s"] for m in runs["traced"]) / statistics.median(
        m["run_raw_s"] for m in runs["run"]
    )
    out = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    for name, metric in out.items():
        print(f"{name} [{metric['unit']}]: {metric['value']:.6g}")
    return out


def node_table(work: Path, seed: int) -> int:
    print("| nodes | plans per select | host µs per request (normalised) | host µs per request (raw) "
          "| select share of traced run |")
    print("|---|---|---|---|---|")
    failed = 0
    for nodes in NODE_TABLE_NODES:
        doc = workloads.fanout(ROOT, seed, nodes, duration_us=NODE_TABLE_DURATION_US)
        sub = work / f"nodes{nodes}"
        sub.mkdir()
        bench = Bench(doc, sub, trace_csv=False)
        plain, traced = bench.attempt("run"), bench.attempt("traced")
        failed += bench.failed
        if plain is None or traced is None:
            continue
        layers = layer_metrics(traced["spans"], traced["metrics_doc"])
        per_request = [plain[k] * 1e6 / bench.expected_arrivals for k in ("run_s", "run_raw_s")]
        print(f"| {nodes} | {layers['routing.plans_per_select']:.0f} | {per_request[0]:.0f} | {per_request[1]:.0f} "
              f"| {layers['routing.select_share']:.3f} |")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--node-table", action="store_true", help="print the one-off node-count table")
    args = parser.parse_args(argv)
    if not args.node_table and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "capsim" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} holds no capsim source tree (src/capsim, scenarios/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.node_table:
            return node_table(work, args.seed)
        generate, trace_csv = workloads.WORKLOADS[args.workload]
        bench = Bench(generate(ROOT, args.seed), work, trace_csv)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(bench, args.seconds)
        if metrics is None:
            print("error: no run succeeded", file=sys.stderr)
            return 1
        print(f"workload={args.workload} seed={args.seed} runs in fresh processes: "
              f"attempted={bench.attempted} failed={bench.failed}")
        print(bench.describe())
        print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                          "failed": bench.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it


if __name__ == "__main__":
    sys.exit(main())
