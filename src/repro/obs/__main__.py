"""Metrics CLI: run an instrumented instance and report, export, or diff.

Usage::

    python -m repro.obs report                     # default Table-1 instance
    python -m repro.obs report --graph cycle --graph-args 6 --homes 0 2 4
    python -m repro.obs export --out metrics.json  # JSON snapshot
    python -m repro.obs export --out metrics.prom --format prom
    python -m repro.obs diff before.json after.json

    # flight recorder: record a quick campaign, export + validate traces
    python -m repro.obs flight record --out flight.json --ledger runs.db
    python -m repro.obs flight export --jsonl spans.jsonl --out flight.json
    python -m repro.obs flight summary spans.jsonl
    python -m repro.obs flight assert-valid flight.json

    # run ledger queries
    python -m repro.obs ledger summary --db runs.db
    python -m repro.obs ledger query --db runs.db --outcome recovered

    # perf-regression sentinel (CI gate)
    python -m repro.obs regress benchmarks/baselines/BENCH_flight.json \\
        fresh.json --limit disabled_overhead_ratio=1.05

``report`` and ``export`` run one registered instance (default: ELECT on
the 3-hypercube with homes 0 3 5 — a Table 1 cell) against a fresh
enabled registry, so the numbers cover exactly that run.  ``report``
prints per-phase wall time, per-agent move/access counters, the
Theorem 3.1 budget gauges and the memo-cache counters, then
cross-checks the registry's move total against the trace summary —
a mismatch means an instrumentation bug and exits non-zero.

``flight record`` runs a quick fault campaign under the flight recorder,
writes the Chrome-trace export (and optionally a JSONL span sink and a
run ledger), validates the export, and cross-checks ledger rows against
the case count — any inconsistency exits non-zero.  ``regress`` compares
a fresh pytest-benchmark JSON document against a committed baseline and
exits 1 on any regression finding (2 on malformed input), which is the
CI perf gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..perf.parallel import worker_count
from . import instrument_whiteboards
from .budget import ACCESSES, MOVES
from .exporters import (
    FORMATS,
    diff_snapshots,
    load_snapshot,
    render_diff,
    write_snapshot,
)
from .registry import (
    MetricsRegistry,
    collect_snapshot,
    set_registry,
)
from .spans import ELECT_PHASES, SPAN_METRIC


def _run_instrumented(
    args: argparse.Namespace,
) -> Tuple[MetricsRegistry, Dict[str, Any], Any, Any]:
    """Run the requested instance against a fresh enabled registry.

    Returns ``(registry, merged_snapshot, outcome, trace_summary)``.
    """
    from ..perf import cache as perf_cache
    from ..trace import record_run, summarize

    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    restore_boards = instrument_whiteboards()
    perf_cache.reset()
    try:
        outcome, sink = record_run(
            args.graph,
            list(args.graph_args),
            list(args.homes),
            protocol=args.protocol,
            seed=args.seed,
        )
        summary = summarize(sink.events, header=sink.header)
        snapshot = collect_snapshot()
    finally:
        restore_boards()
        set_registry(previous)
    return registry, snapshot, outcome, summary


def _phase_rows(registry: MetricsRegistry) -> List[List[Any]]:
    """Aggregate ``span_seconds`` across agents into one row per phase."""
    metric = registry.get(SPAN_METRIC)
    if metric is None:
        return []
    totals: Dict[str, List[float]] = {}  # span -> [count, seconds]
    for series in metric.snapshot_series():
        name = series["labels"].get("span", "?")
        slot = totals.setdefault(name, [0.0, 0.0])
        slot[0] += series["value"]["count"]
        slot[1] += series["value"]["sum"]
    grand = sum(slot[1] for slot in totals.values()) or 1.0
    order = {name: i for i, name in enumerate(ELECT_PHASES)}
    rows = []
    for name in sorted(totals, key=lambda n: (order.get(n, len(order)), n)):
        count, seconds = totals[name]
        rows.append(
            [name, int(count), f"{seconds:.4f}", f"{seconds / grand:.0%}"]
        )
    return rows


def _agent_rows(registry: MetricsRegistry) -> List[List[Any]]:
    moves = registry.get("agent_moves_total")
    accesses = registry.get("agent_accesses_total")
    by_agent: Dict[str, List[int]] = {}
    for metric, column in ((moves, 0), (accesses, 1)):
        if metric is None:
            continue
        for series in metric.snapshot_series():
            agent = series["labels"].get("agent", "?")
            by_agent.setdefault(agent, [0, 0])[column] = int(series["value"])
    return [
        [agent, counts[0], counts[1]]
        for agent, counts in sorted(by_agent.items())
    ]


def _gauge(registry: MetricsRegistry, name: str, resource: str) -> float:
    metric = registry.get(name)
    value = metric.value(resource=resource) if metric is not None else None
    return 0.0 if value is None else value


def _cmd_report(args: argparse.Namespace) -> int:
    from ..analysis.report import render_kv, render_table
    from ..perf import stats_rows

    registry, snapshot, outcome, summary = _run_instrumented(args)

    print(
        render_kv(
            "instance",
            [
                ("graph", f"{args.graph} {list(args.graph_args)}"),
                ("homes", list(args.homes)),
                ("protocol", args.protocol),
                ("seed", args.seed),
                ("elected", getattr(outcome, "elected", None)),
                ("steps", summary.steps),
            ],
        )
    )
    phase_rows = _phase_rows(registry)
    if phase_rows:
        print()
        print(render_table(["phase", "spans", "wall s", "share"], phase_rows))
    agent_rows = _agent_rows(registry)
    if agent_rows:
        print()
        print(render_table(["agent", "moves", "accesses"], agent_rows))

    budget = _gauge(registry, "theorem31_budget", MOVES)
    used_moves = _gauge(registry, "theorem31_used", MOVES)
    used_accesses = _gauge(registry, "theorem31_used", ACCESSES)
    print()
    print(
        render_kv(
            "theorem 3.1 budget (C·r·|E|)",
            [
                ("budget", f"{budget:.0f}"),
                ("moves used", f"{used_moves:.0f}"),
                ("accesses used", f"{used_accesses:.0f}"),
                (
                    "headroom (moves)",
                    f"{_gauge(registry, 'theorem31_headroom', MOVES):.0f}",
                ),
                (
                    "overrun",
                    bool(
                        _gauge(registry, "theorem31_overrun", MOVES)
                        or _gauge(registry, "theorem31_overrun", ACCESSES)
                    ),
                ),
            ],
        )
    )
    cache_rows = stats_rows()
    if cache_rows:
        print()
        print(
            render_table(["cache kind", "hits", "misses", "hit rate"], cache_rows)
        )
    findings = [f.to_dict() for f in registry.findings] + list(
        snapshot.get("findings", [])
    )
    if findings:
        print()
        for finding in findings:
            detail = finding.get("detail", "")
            print(f"finding: {finding['name']}" + (f" — {detail}" if detail else ""))

    counter = registry.get("agent_moves_total")
    counter_moves = int(counter.total()) if counter is not None else 0
    print()
    ok = counter_moves == int(used_moves) == summary.total_moves
    print(
        f"move accounting: registry={counter_moves} "
        f"budget={int(used_moves)} trace={summary.total_moves} "
        f"-> {'consistent' if ok else 'MISMATCH'}"
    )
    if args.export is not None:
        write_snapshot(snapshot, args.export, format=args.format)
        print(f"snapshot written to {args.export} ({args.format})")
    return 0 if ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    _, snapshot, _, _ = _run_instrumented(args)
    write_snapshot(snapshot, args.out, format=args.format)
    print(f"snapshot written to {args.out} ({args.format})")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    rows = diff_snapshots(load_snapshot(args.before), load_snapshot(args.after))
    print(render_diff(rows, only_changed=not args.all))
    return 0


# ---------------------------------------------------------------------------
# flight subcommands
# ---------------------------------------------------------------------------


def _cmd_flight_record(args: argparse.Namespace) -> int:
    import json

    from ..fault.campaign import CampaignConfig, run_campaign
    from . import flight
    from .ledger import RunLedger

    recorder = flight.enable_flight(flight.FlightRecorder())
    try:
        result = run_campaign(
            pairs=args.pairs,
            config=CampaignConfig(seed=args.seed),
            workers=args.workers,
            quick=True,
            ledger=args.ledger,
        )
    finally:
        flight.disable_flight()
    spans = recorder.spans()
    doc = flight.write_chrome(spans, args.out)
    problems = flight.validate_chrome(doc)
    if args.jsonl:
        flight.write_jsonl(spans, args.jsonl)

    ledger_rows = None
    if args.ledger:
        with RunLedger(args.ledger) as ledger:
            ledger_rows = ledger.count(kind="fault")
    cases = result.processed
    summary = flight.summarize(spans)
    summary.update(
        {
            "cases": cases,
            "ledger_rows": ledger_rows,
            "validation_problems": problems,
            "out": args.out,
        }
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    ok = not problems and (ledger_rows is None or ledger_rows == cases)
    if problems:
        print(f"invalid chrome trace: {problems[0]}", file=sys.stderr)
    if ledger_rows is not None and ledger_rows != cases:
        print(
            f"ledger row count {ledger_rows} != case count {cases}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def _cmd_flight_export(args: argparse.Namespace) -> int:
    from . import flight

    spans = flight.read_jsonl(args.jsonl)
    doc = flight.write_chrome(spans, args.out)
    flight.assert_valid_chrome(doc)
    print(f"{len(spans)} spans -> {args.out}")
    return 0


def _cmd_flight_summary(args: argparse.Namespace) -> int:
    import json

    from . import flight

    spans = flight.read_jsonl(args.path)
    print(json.dumps(flight.summarize(spans), indent=2, sort_keys=True))
    return 0


def _cmd_flight_assert_valid(args: argparse.Namespace) -> int:
    from . import flight

    doc = flight.load_chrome(args.path)
    problems = flight.validate_chrome(doc)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    events = doc.get("traceEvents", [])
    print(f"{args.path}: valid ({len(events)} events)")
    return 0


# ---------------------------------------------------------------------------
# ledger subcommands
# ---------------------------------------------------------------------------


def _cmd_ledger_summary(args: argparse.Namespace) -> int:
    import json

    from .ledger import RunLedger

    with RunLedger(args.db) as ledger:
        payload = {
            "stats": ledger.stats(),
            "campaigns": ledger.campaigns(),
        }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_ledger_query(args: argparse.Namespace) -> int:
    import json

    from .ledger import RunLedger

    with RunLedger(args.db) as ledger:
        rows = ledger.rows(
            kind=args.kind,
            campaign=args.campaign,
            outcome=args.outcome,
            limit=args.limit,
        )
        digest = ledger.digest(kind=args.kind, campaign=args.campaign)
    print(
        json.dumps(
            {"rows": rows, "count": len(rows), "digest": digest},
            indent=2,
            sort_keys=True,
        )
    )
    return 0


# ---------------------------------------------------------------------------
# regress subcommand
# ---------------------------------------------------------------------------


def _cmd_regress(args: argparse.Namespace) -> int:
    from .regress import parse_limits, run_regress

    findings = run_regress(
        args.baseline,
        args.fresh,
        time_tolerance=args.time_tolerance,
        info_tolerance=args.info_tolerance,
        limits=parse_limits(args.limit),
    )
    if not findings:
        print(f"no regressions: {args.fresh} vs baseline {args.baseline}")
        return 0
    for finding in findings:
        print(finding.render())
    print(f"{len(findings)} regression finding(s)")
    return 0 if args.warn_only else 1


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    from ..trace import GRAPH_BUILDERS, PROTOCOL_RUNNERS

    parser.add_argument(
        "--graph",
        default="hypercube",
        choices=sorted(GRAPH_BUILDERS),
        help="graph family (default: hypercube)",
    )
    parser.add_argument(
        "--graph-args",
        type=int,
        nargs="*",
        default=[3],
        help="builder arguments (default: 3)",
    )
    parser.add_argument(
        "--homes",
        type=int,
        nargs="+",
        default=[0, 3, 5],
        help="home-base nodes (default: 0 3 5)",
    )
    parser.add_argument(
        "--protocol",
        default="elect",
        choices=sorted(PROTOCOL_RUNNERS),
        help="protocol to run (default: elect)",
    )
    parser.add_argument("--seed", type=int, default=11)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Metrics reports, exports and diffs for recorded runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="run one instance and print its metrics report"
    )
    _add_instance_args(p_report)
    p_report.add_argument(
        "--export", default=None, help="also write the snapshot to this path"
    )
    p_report.add_argument("--format", default="json", choices=FORMATS)
    p_report.set_defaults(func=_cmd_report)

    p_export = sub.add_parser(
        "export", help="run one instance and write its metrics snapshot"
    )
    _add_instance_args(p_export)
    p_export.add_argument("--out", required=True, help="output path")
    p_export.add_argument("--format", default="json", choices=FORMATS)
    p_export.set_defaults(func=_cmd_export)

    p_diff = sub.add_parser("diff", help="compare two JSON snapshots")
    p_diff.add_argument("before")
    p_diff.add_argument("after")
    p_diff.add_argument(
        "--all", action="store_true", help="include unchanged series"
    )
    p_diff.set_defaults(func=_cmd_diff)

    p_flight = sub.add_parser(
        "flight", help="flight-recorder capture, export and validation"
    )
    flight_sub = p_flight.add_subparsers(dest="flight_command", required=True)

    f_record = flight_sub.add_parser(
        "record",
        help="run a quick fault campaign under the recorder and export",
    )
    f_record.add_argument("--out", required=True, help="Chrome-trace JSON path")
    f_record.add_argument(
        "--jsonl", default=None, help="also write the compact JSONL span sink"
    )
    f_record.add_argument(
        "--ledger", default=None, help="also append rows to this run ledger"
    )
    f_record.add_argument("--pairs", type=int, default=12)
    f_record.add_argument("--seed", type=int, default=0)
    f_record.add_argument("--workers", type=worker_count, default=1)
    f_record.set_defaults(func=_cmd_flight_record)

    f_export = flight_sub.add_parser(
        "export", help="convert a JSONL span sink to Chrome-trace JSON"
    )
    f_export.add_argument("--jsonl", required=True, help="JSONL span input")
    f_export.add_argument("--out", required=True, help="Chrome-trace output")
    f_export.set_defaults(func=_cmd_flight_export)

    f_summary = flight_sub.add_parser(
        "summary", help="summarize a JSONL span sink"
    )
    f_summary.add_argument("path", help="JSONL span file")
    f_summary.set_defaults(func=_cmd_flight_summary)

    f_valid = flight_sub.add_parser(
        "assert-valid", help="validate a Chrome-trace JSON export"
    )
    f_valid.add_argument("path", help="Chrome-trace JSON file")
    f_valid.set_defaults(func=_cmd_flight_assert_valid)

    p_ledger = sub.add_parser("ledger", help="query a persistent run ledger")
    ledger_sub = p_ledger.add_subparsers(dest="ledger_command", required=True)

    l_summary = ledger_sub.add_parser(
        "summary", help="stats and per-campaign roll-up"
    )
    l_summary.add_argument("--db", required=True, help="ledger SQLite path")
    l_summary.set_defaults(func=_cmd_ledger_summary)

    l_query = ledger_sub.add_parser("query", help="row-level queries")
    l_query.add_argument("--db", required=True, help="ledger SQLite path")
    l_query.add_argument("--kind", default=None)
    l_query.add_argument("--campaign", default=None)
    l_query.add_argument("--outcome", default=None)
    l_query.add_argument("--limit", type=int, default=20)
    l_query.set_defaults(func=_cmd_ledger_query)

    p_regress = sub.add_parser(
        "regress", help="perf-regression sentinel over pytest-benchmark JSON"
    )
    p_regress.add_argument("baseline", help="committed baseline JSON")
    p_regress.add_argument("fresh", help="freshly generated benchmark JSON")
    p_regress.add_argument(
        "--time-tolerance",
        type=float,
        default=3.0,
        help="max fresh/baseline mean-time ratio (default: 3.0 — timings "
        "are machine-dependent, so the band is wide)",
    )
    p_regress.add_argument(
        "--info-tolerance",
        type=float,
        default=1.25,
        help="max ratio for numeric extra_info metrics (default: 1.25 — "
        "ratios are machine-independent, so the band is tight)",
    )
    p_regress.add_argument(
        "--limit",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="absolute ceiling on a fresh extra_info metric (repeatable)",
    )
    p_regress.add_argument(
        "--warn-only",
        action="store_true",
        help="report findings but exit 0",
    )
    p_regress.set_defaults(func=_cmd_regress)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
