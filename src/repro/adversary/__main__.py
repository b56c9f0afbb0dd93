"""Command-line adversary: ``python -m repro.adversary``.

Three subcommands:

* ``fuzz`` — sweep the interleaving grid over the Table-1 instance set,
  print the classified result, optionally write it as JSON and minimize
  any failures into reproducer artifacts; exits non-zero if any case
  lands in ``silent-wrong-answer`` or ``schedule-failure`` — the CI
  contract of the adversarial suite.
* ``minimize <result.json>`` — re-run ddmin on the failing rows of a fuzz
  result written with ``fuzz --out`` and save the reproducers.
* ``repro <artifact.json>`` — load a reproducer artifact, re-execute it,
  and exit non-zero unless the recorded failure signature fires again.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from ..errors import AdversaryError, CampaignError
from ..perf.parallel import worker_count
from .artifact import Reproducer
from .fuzz import FuzzConfig, FuzzRow, run_fuzz
from .minimize import minimize_row, replay_reproducer
from .specs import table1_battery


def _minimize_and_save(
    rows, config: FuzzConfig, out_dir: str, budget: int
) -> int:
    os.makedirs(out_dir, exist_ok=True)
    saved = 0
    for row in rows:
        result = minimize_row(row, config=config, budget=budget)
        path = os.path.join(out_dir, f"repro-{row.index:04d}.json")
        result.reproducer.save(path)
        saved += 1
        print(
            f"minimized #{row.index}: {result.minimized_len}/"
            f"{result.original_len} decisions "
            f"({100 * result.reduction:.1f}%), "
            f"{result.probes} probes, "
            f"verified={result.verified} -> {path}"
        )
    return saved


def _cmd_fuzz(args: argparse.Namespace) -> int:
    config = FuzzConfig(
        seed=args.seed,
        fault_every=args.fault_every,
        max_steps=args.max_steps,
    )
    result = run_fuzz(
        runs=args.runs,
        config=config,
        workers=args.workers,
        quick=args.quick,
        ledger=args.ledger,
        shard=args.shard,
        resume=args.resume,
        max_cases=args.max_cases,
    )
    print(result.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    if args.artifacts and result.failures:
        _minimize_and_save(
            result.failures, config, args.artifacts, args.budget
        )
    return 0 if result.ok else 1


def _rows_from_report(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    agent_kwargs = tuple(sorted(data.get("agent_kwargs", {}).items()))
    rows = []
    # Instance specs are keyed by label in the Table-1 battery.
    by_label = {s.label: s for s in table1_battery()}
    for entry in data.get("failures", []):
        if "choices" not in entry:
            continue
        label = entry["instance"]
        if label not in by_label:
            continue
        rows.append(
            FuzzRow(
                index=entry["index"],
                spec=by_label[label],
                scheduler=entry["scheduler"],
                plan=None,
                case_seed=entry["case_seed"],
                predicted=entry["predicted"],
                outcome=entry["outcome"],
                detail=entry["detail"],
                steps=entry["steps"],
                schedule_len=entry["schedule_len"],
                signature=entry["signature"],
                choices=tuple(entry["choices"]),
            )
        )
    return rows, agent_kwargs


def _cmd_minimize(args: argparse.Namespace) -> int:
    rows, agent_kwargs = _rows_from_report(args.report)
    if not rows:
        print(f"no failing rows with recorded schedules in {args.report}")
        return 1
    config = FuzzConfig(
        seed=args.seed, agent_kwargs=agent_kwargs, max_steps=args.max_steps
    )
    _minimize_and_save(rows, config, args.artifacts, args.budget)
    return 0


def _cmd_repro(args: argparse.Namespace) -> int:
    rep = Reproducer.load(args.artifact)
    print(rep.describe())
    result = replay_reproducer(rep)
    reproduced = result.signature == rep.failure
    print(
        f"replayed {len(result.choices)} steps; failure "
        f"{'reproduced' if reproduced else 'DID NOT reproduce'}"
    )
    if not reproduced:
        print(f"  expected: {rep.failure}")
        print(f"  observed: {result.signature!r}")
    return 0 if reproduced else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.adversary",
        description="Adversarial schedule exploration: fuzz interleavings, "
        "minimize failures, replay reproducers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="sweep the interleaving grid")
    fuzz.add_argument("--runs", type=int, default=200)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--workers", type=worker_count, default=1)
    fuzz.add_argument(
        "--quick", action="store_true", help="small instance slice"
    )
    fuzz.add_argument(
        "--fault-every",
        type=int,
        default=0,
        help="pair every Nth case with a random fault plan (0: none)",
    )
    fuzz.add_argument("--max-steps", type=int, default=None)
    fuzz.add_argument("--out", type=str, default=None, help="JSON result path")
    fuzz.add_argument(
        "--artifacts",
        type=str,
        default=None,
        help="minimize failures and save reproducers into this directory",
    )
    fuzz.add_argument("--budget", type=int, default=2000)
    fuzz.add_argument(
        "--ledger",
        type=str,
        default=None,
        help="append one run-ledger row per case to this SQLite database "
        "(see python -m repro.obs ledger)",
    )
    fuzz.add_argument(
        "--shard",
        type=str,
        default=None,
        metavar="i/N",
        help="run only case indices ≡ i (mod N) — see python -m repro.campaign",
    )
    fuzz.add_argument(
        "--resume",
        action="store_true",
        help="continue from the ledger's checkpoint for this shard",
    )
    fuzz.add_argument(
        "--max-cases",
        type=int,
        default=None,
        help="truncate the grid to its first N indices (before sharding)",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    minimize = sub.add_parser(
        "minimize", help="shrink the failing rows of a fuzz result"
    )
    minimize.add_argument("report", help="JSON result from fuzz --out")
    minimize.add_argument("--artifacts", type=str, default="reproducers")
    minimize.add_argument("--seed", type=int, default=0)
    minimize.add_argument("--max-steps", type=int, default=None)
    minimize.add_argument("--budget", type=int, default=2000)
    minimize.set_defaults(func=_cmd_minimize)

    repro = sub.add_parser("repro", help="re-execute a reproducer artifact")
    repro.add_argument("artifact", help="reproducer JSON path")
    repro.set_defaults(func=_cmd_repro)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdversaryError, CampaignError, OSError, json.JSONDecodeError) as exc:
        # Misconfiguration (bad paths, malformed artifacts, bad specs)
        # exits 2, like the trace CLI; discovered failures exit 1.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
