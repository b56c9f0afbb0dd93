"""Run the full experiment suite from the command line.

Usage::

    python -m repro.analysis             # everything (a few seconds)
    python -m repro.analysis --quick     # trimmed batteries
    python -m repro.analysis table1 complexity   # selected experiments
    python -m repro.analysis --workers 4 --perf-stats table1

Prints each experiment's reproduced artifact next to the paper's claim.
``--workers N`` fans the instance batteries out over a process pool
(deterministic: the artifacts are identical to the serial run);
``--perf-stats`` appends one line of JSON — the memo-cache hit/miss
counters plus the merged metrics snapshot — so scripts can pipe the tail
of the output straight into ``json.loads`` / ``jq``.
The same code paths back the pytest benchmarks in ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List

from ..obs.registry import collect_snapshot
from ..perf import ParallelBatteryRunner, cache_stats
from ..perf.parallel import worker_count
from .complexity import complexity_sweep, max_ratio, ratio_table
from .instances import (
    cayley_effectualness_instances,
    evaluate_battery,
    petersen_duel_instances,
)
from .matrix import (
    _eval_cayley_effectualness,
    _eval_petersen_duel,
    reproduce_table1,
)
from .report import render_kv

#: Worker count for the current invocation (set by ``main`` from --workers).
_WORKERS = 1


def _experiment_table1(quick: bool) -> None:
    result = reproduce_table1(quick=quick, workers=_WORKERS)
    print(result.render())
    print(f"\nall cells match the paper: {result.all_match}")


def _experiment_complexity(quick: bool) -> None:
    counts = (1, 2) if quick else (1, 2, 3, 4)
    points = complexity_sweep(agent_counts=counts)
    print(ratio_table(points))
    print(f"\nmax moves/(r|E|) ratio: {max_ratio(points):.2f}  (Theorem 3.1: O(r|E|))")


def _experiment_effectual(quick: bool) -> None:
    instances = cayley_effectualness_instances(
        agent_counts=(1, 2) if quick else (1, 2, 3),
        max_per_count=3 if quick else 6,
    )
    outcomes = evaluate_battery(
        [(inst, 0) for inst in instances],
        _eval_cayley_effectualness,
        workers=_WORKERS,
    )
    feasible = sum(possible for (_, possible, _) in outcomes)
    violations = sum(
        elected != possible for (_, possible, elected) in outcomes
    )
    print(
        render_kv(
            "Theorem 4.1 — effectual election on Cayley graphs",
            [
                ("instances", len(instances)),
                ("feasible", feasible),
                ("impossible", len(instances) - feasible),
                ("effectualness violations", violations),
            ],
        )
    )


def _experiment_petersen(quick: bool) -> None:
    duels = petersen_duel_instances()
    duels = duels[:3] if quick else duels
    outcomes = evaluate_battery(
        [(inst, 0) for inst in duels], _eval_petersen_duel, workers=_WORKERS
    )
    elect_failures = sum(failed for (_, failed, _) in outcomes)
    duel_wins = sum(elected for (_, _, elected) in outcomes)
    print(
        render_kv(
            "Figure 5 — the Petersen counterexample",
            [
                ("adjacent placements", len(duels)),
                ("ELECT failures (expected: all)", elect_failures),
                ("bespoke-protocol elections (expected: all)", duel_wins),
            ],
        )
    )


def _experiment_trace(quick: bool) -> None:
    from ..trace import audit_trace, record_run, render_summary, replay_trace, summarize

    spec = ("cycle", [5], [0, 1]) if quick else ("hypercube", [3], [0, 3, 5])
    graph, graph_args, homes = spec
    outcome, sink = record_run(
        graph, graph_args, homes, protocol="elect", seed=1
    )
    print(render_summary(summarize(sink.events, header=sink.header),
                         header=sink.header))
    print()
    reports = audit_trace(sink.events, header=sink.header)
    for report in reports:
        print(report)
    replayed = replay_trace((sink.header, sink.events))
    print(
        render_kv(
            "deterministic replay",
            [
                ("recorded events", len(sink.events)),
                ("replayed events", len(replayed.events)),
                ("streams identical", replayed.matches),
                ("same outcome", replayed.outcome.elected == outcome.elected),
            ],
        )
    )


def _experiment_faults(quick: bool) -> None:
    from ..fault.campaign import IMPOSSIBLE, run_campaign

    result = run_campaign(
        pairs=40 if quick else 208, workers=_WORKERS, quick=quick
    )
    print(result.render())
    print(
        "\nno-silent-wrong-answer oracle holds: "
        f"{result.counts[IMPOSSIBLE] == 0}"
    )


def _experiment_adversary(quick: bool) -> None:
    from ..adversary import fuzz_stats, run_fuzz

    result = run_fuzz(
        runs=60 if quick else 500, workers=_WORKERS, quick=quick
    )
    print(result.render())
    stats = fuzz_stats()
    print(
        render_kv(
            "schedule-space coverage",
            [
                ("distinct interleavings", result.extras["distinct_schedules"]),
                ("dedup hits", result.extras["duplicate_schedules"]),
                ("silent wrong answers", result.counts["silent-wrong-answer"]),
                ("schedule failures", result.counts["schedule-failure"]),
                ("runs counted", sum(stats["runs"].values())),
            ],
        )
    )


def _experiment_campaign(quick: bool) -> None:
    from .campaign import run_battery_campaign

    result = run_battery_campaign(
        battery="quantitative" if quick else "cayley-effectualness",
        repetitions=1 if quick else 2,
        workers=_WORKERS,
    )
    print(result.render())
    print(
        "\nstreamed battery sweep on the campaign engine "
        "(see python -m repro.campaign for sharded/resumable runs)"
    )


EXPERIMENTS: Dict[str, Callable[[bool], None]] = {
    "table1": _experiment_table1,
    "complexity": _experiment_complexity,
    "effectual": _experiment_effectual,
    "petersen": _experiment_petersen,
    "trace": _experiment_trace,
    "faults": _experiment_faults,
    "adversary": _experiment_adversary,
    "campaign": _experiment_campaign,
}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Reproduce the SPAA'03 qualitative-election experiments.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"which experiments to run: {', '.join(EXPERIMENTS)}, all (default)",
    )
    parser.add_argument("--quick", action="store_true", help="trim batteries")
    parser.add_argument(
        "--workers",
        type=worker_count,
        default=1,
        help="process-pool size for the instance batteries (1 = serial; "
        "results are identical for any value)",
    )
    parser.add_argument(
        "--perf-stats",
        action="store_true",
        help="print one JSON line of cache counters and the merged metrics "
        "snapshot after the experiments",
    )
    args = parser.parse_args(argv)
    global _WORKERS
    _WORKERS = args.workers

    requested = args.experiments or ["all"]
    unknown = [x for x in requested if x != "all" and x not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiments {unknown}; choose from "
            f"{', '.join(EXPERIMENTS)}, all"
        )
    chosen = list(EXPERIMENTS) if "all" in requested else requested
    for name in chosen:
        print("=" * 68)
        print(f"experiment: {name}")
        print("=" * 68)
        t0 = time.perf_counter()
        EXPERIMENTS[name](args.quick)
        print(f"\n[{name} done in {time.perf_counter() - t0:.1f}s]\n")
    if args.perf_stats:
        # One line, valid JSON: earlier versions printed an ASCII table
        # here, which broke every consumer that piped the stats onward.
        print(
            json.dumps(
                {"cache": cache_stats(), "metrics": collect_snapshot()},
                sort_keys=True,
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
