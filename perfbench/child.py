"""One fresh process: the path a ``capsim run --out`` user takes, timed.

    python3 child.py setup|run|traced <scenario.json> <out_dir> <trace:0|1> <spawned>

``setup`` loads, validates and constructs the ``Simulation`` the way
``capsim run`` does, then exits. ``run`` calls ``capsim.cli.main`` itself.
``traced`` does the same with per-layer spans installed (tracer.py) and
writes them to ``<out_dir>/spans.json``. ``spawned`` is the parent's
``time.monotonic()`` just before it started this process; the clock is
system-wide, so set-up time includes interpreter start. The process prints
one JSON line of durations and its ``ru_maxrss`` in KiB.

Host speed on a shared machine drifts by tens of percent within seconds, so
``setup`` and ``run`` carry a speed probe: every PROBE_INTERVAL_S a signal
handler times a fixed piece of interpreter work. A duration is reported raw
(probe time excluded) and normalised, i.e. scaled to a host on which the
probe work takes PROBE_REFERENCE_S, using the probe's mean over the same
interval. Traced runs carry no probe, so that spans hold only capsim's time.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

PROBE_INTERVAL_S = 0.01
PROBE_REFERENCE_S = 500e-6


def _probe_work() -> Fraction:
    # Dict updates, small-object allocation and rational arithmetic: the
    # operations capsim's hot paths are made of.
    counts: dict[int, int] = {}
    total = Fraction(0)
    for i in range(200):
        counts[i % 17] = counts.get(i % 17, 0) + i
        total += Fraction(i % 7 + 1, i % 5 + 1)
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _sample(self, signum, frame) -> None:
        start = time.monotonic()
        _probe_work()
        self.samples.append((start, time.monotonic() - start))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def duration(self, start: float, end: float) -> tuple[float, float]:
        """(normalised, raw) seconds between two ``time.monotonic()`` marks."""
        inside = [d for t, d in self.samples if start <= t < end]
        raw = end - start - sum(inside)
        speed = inside or [d for _, d in self.samples]
        if not speed:
            return raw, raw
        return raw * PROBE_REFERENCE_S * len(speed) / sum(speed), raw


def main(argv: list[str]) -> int:
    mode, scenario_path, out_dir, trace, spawned = argv
    trace, spawned = trace == "1", float(spawned)
    probe = SpeedProbe() if mode != "traced" else None
    marks: dict[str, float] = {}

    from capsim import cli
    from capsim.engine import Simulation

    if mode == "setup":
        scenario = cli._load_scenario(scenario_path)
        if scenario is None or not cli._validate_or_report(scenario):
            return 1
        Simulation(scenario, trace=trace)
        marks["setup_end"] = time.monotonic()
    else:
        tracer = None
        if mode == "traced":
            import tracer as spans

            tracer = spans.install()
        init, run = Simulation.__init__, Simulation.run

        def timed_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            marks["setup_end"] = time.monotonic()

        def timed_run(self):
            marks["run_start"] = time.monotonic()
            return run(self)

        Simulation.__init__, Simulation.run = timed_init, timed_run
        args = ["run", scenario_path, "--out", out_dir] + (["--trace"] if trace else [])
        with redirect_stdout(io.StringIO()):  # the one-line run summary
            code = cli.main(args)
        marks["end"] = time.monotonic()
        if code != 0:
            return code
        if tracer is not None:
            tracer.dump(Path(out_dir) / "spans.json")
    if probe is not None:
        probe.stop()

    def duration(start: float, end: float) -> tuple[float, float]:
        return probe.duration(start, end) if probe is not None else (end - start, end - start)

    report = {"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    report["setup_s"], report["setup_raw_s"] = duration(spawned, marks["setup_end"])
    if "run_start" in marks:
        report["run_s"], report["run_raw_s"] = duration(marks["run_start"], marks["end"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
