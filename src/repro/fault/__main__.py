"""Command-line fault campaign: ``python -m repro.fault``.

Sweeps the fault matrix across the standard instance battery, prints the
classification counts, optionally writes the JSON result (counts, totals,
failing rows; every row lands in ``--ledger``), and exits non-zero if any
pair lands in the ``silent-wrong-answer`` bucket (or fails its structural
trace audit) — the CI contract of the robustness suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..errors import CampaignError
from ..perf.parallel import worker_count
from .campaign import CampaignConfig, run_campaign


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fault",
        description="Run the fault-injection campaign over the instance "
        "battery and classify every (instance, plan) pair.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small instance slice for smoke runs",
    )
    parser.add_argument(
        "--pairs",
        type=int,
        default=208,
        help="number of (instance, plan) pairs to sweep (default: 208)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    parser.add_argument(
        "--workers",
        type=worker_count,
        default=1,
        help="parallel worker processes (default: 1 = serial)",
    )
    parser.add_argument(
        "--timeout",
        type=int,
        default=400,
        help="watchdog stall timeout in steps (default: 400)",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        help="per-agent checkpoint-restart budget (default: 2)",
    )
    parser.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the per-run structural trace audit",
    )
    parser.add_argument(
        "--byzantine",
        type=int,
        default=0,
        metavar="N",
        help="mix N Byzantine-augmented plans into each instance's battery "
        "(0 = pure crash/stall/board faults; default)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        help="write the JSON result (counts, totals, failing rows) here",
    )
    parser.add_argument(
        "--ledger",
        type=str,
        default=None,
        help="append one run-ledger row per (instance, plan) pair to this "
        "SQLite database (see python -m repro.obs ledger)",
    )
    parser.add_argument(
        "--shard",
        type=str,
        default=None,
        metavar="i/N",
        help="run only case indices ≡ i (mod N) — see python -m repro.campaign",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from the ledger's checkpoint for this shard",
    )
    parser.add_argument(
        "--max-cases",
        type=int,
        default=None,
        help="truncate the matrix to its first N indices (before sharding)",
    )
    args = parser.parse_args(argv)

    config = CampaignConfig(
        seed=args.seed,
        timeout=args.timeout,
        max_restarts=args.max_restarts,
        audit=not args.no_audit,
        byzantine=args.byzantine,
    )
    try:
        result = run_campaign(
            pairs=args.pairs,
            config=config,
            workers=args.workers,
            quick=args.quick,
            ledger=args.ledger,
            shard=args.shard,
            resume=args.resume,
            max_cases=args.max_cases,
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
