"""Command-line surface: validate scenarios, run simulations, compare against
a cloud-only baseline, and query the exact placement oracle.

Exit codes: 0 success, 1 scenario validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
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
_FIELD_COLUMNS = TRACE_COLUMNS[3:-1]  # the named columns a row's fields fill


class TraceWriter:
    """``trace.csv``, written one row at a time as the engine produces them.

    A row's named columns hold its values under those names, converted by
    ``str()`` (empty when absent); every other field goes into ``detail`` as
    sorted ``key=value`` pairs joined by ``;``, each value converted by
    ``str()`` too. A layout names the columns it fills in column order, then
    its detail keys sorted, or the writer raises ``ValueError``; so its values
    are in line order, and the writer compiles one ``%`` template per layout
    the first time it sees it, then writes each row with one format call.
    """

    def __init__(self, fp: TextIO) -> None:
        self._fp = fp
        self._rows = 0
        self._templates: dict[tuple[str, ...], str] = {}
        fp.write(",".join(TRACE_COLUMNS) + "\n")

    def row(self, time_us: int, layout: tuple[str, ...], values: tuple) -> None:
        template = self._templates.get(layout)
        if template is None:
            template = self._templates[layout] = _row_template(layout)
        self._fp.write(template % (time_us, self._rows, *values))
        self._rows += 1

    def __len__(self) -> int:
        return self._rows


def _row_template(layout: tuple[str, ...]) -> str:
    """The ``%`` template of a line of ``layout``: it takes the time, the
    ``seq``, then the row's values."""
    kind, *names = layout
    known = [c for c in _FIELD_COLUMNS if c in names]
    detail = sorted({name for name in names if name not in TRACE_COLUMNS})
    if names != known + detail:
        raise ValueError(f"trace layout {layout!r} is not in column order {(kind, *known, *detail)!r}")
    cells = ["%s", "%s", kind.replace("%", "%%"), *("%s" if c in names else "" for c in _FIELD_COLUMNS)]
    cells.append(";".join(f"{name.replace('%', '%%')}=%s" for name in detail))
    return ",".join(cells) + "\n"


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
    except (OSError, ScenarioParseError) as exc:
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
        if out_dir is not None:  # before the run, so an --out that cannot be a directory costs none
            out_dir.mkdir(parents=True, exist_ok=True)
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

    def pick(doc: dict) -> dict:
        return {
            "served": doc["served"],
            "completion_rate": doc["completion_rate"],
            "p95_ttft_us": doc["ttft_us"]["p95"],
            "mean_ttft_us": doc["ttft_us"]["mean"],
            "core_bytes": doc["core_bytes"]["total"],
            "cache_hit_ratio": doc["cache"]["tensor_state"]["ratio"],
        }

    out_dir = Path(args.out) if args.out else None
    try:
        if out_dir is not None:  # before the runs, so an --out that cannot be a directory costs none
            out_dir.mkdir(parents=True, exist_ok=True)
        full = Simulation(scenario).run().metrics.summary()
        base = Simulation(scenario, placement_tiers={Tier.CLOUD}).run().metrics.summary()
        report = {
            "hierarchical": pick(full),
            "cloud_only": pick(base),
            "delta": {
                "p95_ttft_us": full["ttft_us"]["p95"] - base["ttft_us"]["p95"],
                "mean_ttft_us": full["ttft_us"]["mean"] - base["ttft_us"]["mean"],
                "core_bytes": full["core_bytes"]["total"] - base["core_bytes"]["total"],
            },
        }
        if out_dir is not None:
            (out_dir / "compare.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    except Exception as exc:  # runtime failure contract
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
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
