"""Command-line surface: validate scenarios, run simulations, compare against
a cloud-only baseline, and query the exact placement oracle.

Exit codes: 0 success, 1 scenario validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from . import __version__, deployment
from .descriptors import Tier
from .engine import Simulation
from .scenario import Scenario, ScenarioParseError
from .workload import generate_arrivals

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

TRACE_COLUMNS = [
    "timestamp_us",
    "seq",
    "kind",
    "request_id",
    "node_id",
    "realization_id",
    "state_id",
    "bytes",
    "detail",
]
_TRACE_COLUMN_SET = frozenset(TRACE_COLUMNS)
_ROW_COLUMNS = TRACE_COLUMNS[:-1]  # every column but detail


class TraceWriter:
    """``trace.csv``, written one row at a time as the engine produces them.

    A row's known columns are its values under those names, converted by
    ``str()`` (empty when absent); every other key goes into ``detail`` as
    sorted ``key=value`` pairs joined by ``;``, each value converted by
    ``str()`` too. Rows come in a few key layouts, about one per event kind,
    so the writer compiles one ``%`` template per layout, with a getter of
    the row's values in the template's order. Every row the engine writes
    has at least a time, a ``seq`` and a kind, so the getter returns a tuple.
    """

    def __init__(self, fp: TextIO) -> None:
        self._fp = fp
        self._rows = 0
        self._formats: dict[tuple[str, ...], tuple[str, Callable[[dict], tuple]]] = {}
        fp.write(",".join(TRACE_COLUMNS) + "\n")

    def append(self, row: dict) -> None:
        layout = tuple(row)
        fmt = self._formats.get(layout)
        if fmt is None:
            fmt = self._formats[layout] = _row_format(layout)
        template, get = fmt
        self._fp.write(template % get(row))
        self._rows += 1

    def __len__(self) -> int:
        return self._rows


def _row_format(layout: tuple[str, ...]) -> tuple[str, Callable[[dict], tuple]]:
    """The ``%`` template of the line for rows whose keys are ``layout``, and
    the getter of the values it takes, in column order: the known columns',
    then the detail keys' in sorted order."""
    known = [c for c in _ROW_COLUMNS if c in layout]
    detail = sorted(key for key in layout if key not in _TRACE_COLUMN_SET)
    cells = ["%s" if c in layout else "" for c in _ROW_COLUMNS]
    cells.append(";".join(f"{key.replace('%', '%%')}=%s" for key in detail))
    return ",".join(cells) + "\n", itemgetter(*known, *detail)


@contextmanager
def _trace_writer(out_dir: Path | None) -> Iterator[TraceWriter | bool]:
    """A ``TraceWriter`` for ``out_dir/trace.csv``, or False when ``out_dir`` is None.

    Rows go to ``trace.csv.partial``, which becomes ``trace.csv`` only when
    the block completes, so a failed run leaves no partial trace behind.
    """
    if out_dir is None:
        yield False
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = out_dir / "trace.csv.partial"
    try:
        with partial.open("w") as fp:
            yield TraceWriter(fp)
        partial.replace(out_dir / "trace.csv")
    finally:
        partial.unlink(missing_ok=True)


def frac_decimal(value: Fraction, places: int = 6) -> str:
    scale = 10**places
    sign = "-" if value < 0 else ""
    scaled = abs(value.numerator) * scale // value.denominator
    return f"{sign}{scaled // scale}.{scaled % scale:0{places}d}"


def _load_scenario(path: str) -> Scenario | None:
    try:
        scenario = Scenario.load(path)
    except FileNotFoundError:
        print(f"error: scenario file not found: {path}", file=sys.stderr)
        return None
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return scenario


def _validate_or_report(scenario: Scenario) -> bool:
    errors = scenario.validate()
    for err in errors:
        print(f"invalid: {err}", file=sys.stderr)
    return not errors


def _checked_scenario(args: argparse.Namespace) -> Scenario | None:
    """The scenario ``args`` names, with its ``--seed`` and ``--duration-us``
    in place of the file's, once it parses and validates; None once the
    reason it does not is reported."""
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return None
    overrides = {name: value for name in ("seed", "duration_us") if (value := getattr(args, name, None)) is not None}
    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario if _validate_or_report(scenario) else None


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = _checked_scenario(args)
    if scenario is None:
        return EXIT_VALIDATION
    print(f"ok: {scenario.name}")
    return EXIT_OK


def _write_outputs(out_dir: Path, sim: Simulation, summary: dict | None = None) -> None:
    """Write ``metrics.json``, ``receipts.jsonl`` and ``manifest.json``; the
    trace, if any, was streamed to ``trace.csv`` during the run. ``summary``
    is the metrics' summary when the caller has built it already."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "metrics.json").open("w") as fp:
        sim.metrics.to_json(fp, summary)
    with (out_dir / "receipts.jsonl").open("w") as fp:
        sim.receipts.to_jsonl(fp)
    manifest = {
        "scenario": sim.scenario.name,
        "scenario_digest": sim.scenario.digest,
        "seed": sim.seed,
        "duration_us": sim.duration_us,
        "tool_version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _summary_line(metrics_doc: dict) -> str:
    cache = metrics_doc["cache"]["tensor_state"]
    return (
        f"requests={metrics_doc['arrivals']} "
        f"completion_rate={metrics_doc['completion_rate']} "
        f"p95_ttft_us={metrics_doc['ttft_us']['p95']} "
        f"cache_hit_ratio={cache['ratio']} "
        f"core_bytes={metrics_doc['core_bytes']['total']}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _checked_scenario(args)
    if scenario is None:
        return EXIT_VALIDATION
    out_dir = Path(args.out) if args.out else None
    try:
        # Without --out there is nowhere to write a trace, so none is built.
        with _trace_writer(out_dir if args.trace else None) as trace:
            sim = Simulation(scenario, trace=trace).run()
            summary = sim.metrics.summary()
            if out_dir is not None:
                _write_outputs(out_dir, sim, summary)
    except Exception as exc:  # runtime failure contract
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(_summary_line(summary))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _checked_scenario(args)
    if scenario is None:
        return EXIT_VALIDATION
    try:
        full = Simulation(scenario).run().metrics.summary()
        base = Simulation(scenario, placement_tiers={Tier.CLOUD}).run().metrics.summary()
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    def pick(doc: dict) -> dict:
        return {
            "served": doc["served"],
            "completion_rate": doc["completion_rate"],
            "p95_ttft_us": doc["ttft_us"]["p95"],
            "mean_ttft_us": doc["ttft_us"]["mean"],
            "core_bytes": doc["core_bytes"]["total"],
            "cache_hit_ratio": doc["cache"]["tensor_state"]["ratio"],
        }

    report = {
        "hierarchical": pick(full),
        "cloud_only": pick(base),
        "delta": {
            "p95_ttft_us": full["ttft_us"]["p95"] - base["ttft_us"]["p95"],
            "mean_ttft_us": full["ttft_us"]["mean"] - base["ttft_us"]["mean"],
            "core_bytes": full["core_bytes"]["total"] - base["core_bytes"]["total"],
        },
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "compare.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(
        "hierarchical: "
        f"p95_ttft_us={report['hierarchical']['p95_ttft_us']} core_bytes={report['hierarchical']['core_bytes']}"
    )
    print(
        "cloud_only:   "
        f"p95_ttft_us={report['cloud_only']['p95_ttft_us']} core_bytes={report['cloud_only']['core_bytes']}"
    )
    print(
        "delta:        "
        f"p95_ttft_us={report['delta']['p95_ttft_us']} core_bytes={report['delta']['core_bytes']}"
    )
    return EXIT_OK


def cmd_oracle_place(args: argparse.Namespace) -> int:
    scenario = _checked_scenario(args)
    if scenario is None:
        return EXIT_VALIDATION
    if args.at is not None and args.at < 0:
        print("invalid: --at: must be >= 0", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        sim = Simulation(scenario)
        at = args.at if args.at is not None else scenario.deployment.epoch_us
        arrivals = generate_arrivals(scenario.workload, min(at, sim.duration_us), sim.seed)
        requests = [a.request for a in arrivals] + [s.request for s in scenario.scripted_requests]
        cells = deployment.cells_from_requests(requests, max(0, at - scenario.deployment.window_us), at)
        residency = {
            node_id: set(state.residency) for node_id, state in sim.broker.nodes.items()
        }
        problem = deployment.build_problem(sim.router, cells, scenario.placement_weights, residency)
        placement = deployment.solve_exact(problem)
        objective = deployment.objective(problem, placement)
    except deployment.InstanceTooLarge as exc:
        print(f"error: InstanceTooLarge: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    doc = {
        "at_us": at,
        "demand_cells": len(cells),
        "placement": sorted([rid, node] for rid, node in placement),
        "objective": frac_decimal(objective),
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsim",
        description="Deterministic simulator for hierarchical AI capability serving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a scenario file")
    p_validate.add_argument("scenario")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run a scenario and write metrics/receipts")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--duration-us", type=int, default=None, help="override the scenario duration")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument(
        "--trace", action="store_true", help="also write the event trace table, as it occurs, to --out/trace.csv"
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="paired run against a cloud-only placement baseline")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--duration-us", type=int, default=None)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_oracle = sub.add_parser(
        "oracle-place",
        help="exact placement for the demand window ending at --at, against initial residency",
    )
    p_oracle.add_argument("scenario")
    p_oracle.add_argument("--at", type=int, default=None, help="window end, microseconds (default: one epoch)")
    p_oracle.set_defaults(func=cmd_oracle_place)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
