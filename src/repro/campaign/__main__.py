"""Run, resume, shard, merge and inspect campaigns from the command line.

Usage::

    # one shard of a sharded fuzz sweep, checkpointed into its own ledger
    python -m repro.campaign run fuzz --runs 100000 --ledger shard0.db \
        --shard 0/4 --workers 4 --checkpoint-every 256

    # the same invocation again after a crash: continues where it stopped
    python -m repro.campaign run fuzz --runs 100000 --ledger shard0.db \
        --shard 0/4 --workers 4 --checkpoint-every 256 --resume

    # merge the shard ledgers and check the union digest
    python -m repro.campaign merge merged.db shard0.db shard1.db ...
    python -m repro.campaign digest merged.db --kind fuzz

    # what lives in a ledger, including per-shard resume checkpoints
    python -m repro.campaign status shard0.db

Exit codes: 0 — sweep ok; 1 — sweep completed with failing cases
(silent wrong answers, schedule failures, audit failures); 2 — campaign
misconfiguration (bad shard spec, a grid size below 1, an unknown
battery, checkpoint/fingerprint mismatch, re-run without ``--resume``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from ..errors import CampaignError, ReproError
from ..obs.ledger import RunLedger
from ..perf.parallel import worker_count
from .engine import CampaignEngine, CampaignSpec

#: The frontends ``run`` can drive, by name.
FRONTENDS = ("fault", "fuzz", "battery", "byzantine")


def _parse_powers(text: str) -> tuple:
    try:
        powers = tuple(int(p) for p in str(text).split(",") if p != "")
    except ValueError:
        raise CampaignError(
            f"--powers must be comma-separated ints (e.g. 0,1,2,3), "
            f"got {text!r}"
        ) from None
    if not powers or any(p < 0 for p in powers):
        raise CampaignError(f"--powers needs non-negative powers, got {text!r}")
    return powers


def _build_spec(args: argparse.Namespace) -> CampaignSpec:
    """Build the chosen frontend's spec."""
    if args.frontend == "fault":
        from ..fault.campaign import CampaignConfig, FaultCampaignSpec

        return FaultCampaignSpec(
            pairs=args.pairs,
            config=CampaignConfig(seed=args.seed),
            quick=args.quick,
        )
    if args.frontend == "byzantine":
        from ..fault.byzantine_campaign import (
            ByzantineCampaignSpec,
            ByzantineConfig,
        )

        return ByzantineCampaignSpec(
            cases=args.cases,
            powers=_parse_powers(args.powers),
            config=ByzantineConfig(
                seed=args.seed,
                strictness=args.strictness,
                abort=args.abort_on_detect,
            ),
            quick=args.quick,
        )
    if args.frontend == "fuzz":
        from ..adversary.fuzz import FuzzCampaignSpec, FuzzConfig

        return FuzzCampaignSpec(
            runs=args.runs,
            config=FuzzConfig(seed=args.seed, fault_every=args.fault_every),
            quick=args.quick,
        )
    from ..analysis.campaign import BatteryCampaignSpec

    return BatteryCampaignSpec(
        battery=args.battery,
        repetitions=args.reps,
        seed=args.seed,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = _build_spec(args)
    except ValueError as exc:
        # A frontend refusing its arguments (an unknown battery, zero
        # repetitions) is a misconfiguration, not a failing sweep.
        raise CampaignError(str(exc)) from exc
    engine = CampaignEngine(
        spec,
        ledger=args.ledger,
        workers=args.workers,
        shard=args.shard,
        checkpoint_every=args.checkpoint_every,
        max_cases=args.max_cases,
        spill=args.spill,
    )
    result = engine.run(resume=args.resume)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    return 0 if result.ok else 1


def _cmd_merge(args: argparse.Namespace) -> int:
    dest = RunLedger(args.dest)
    try:
        total = 0
        for source in args.sources:
            copied = dest.merge_from(source)
            total += copied
            print(f"merged {copied} rows from {source}")
        print(f"{args.dest}: {dest.count()} rows total (+{total})")
    finally:
        dest.close()
    return 0


def _cmd_digest(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger)
    try:
        digest = ledger.digest(kind=args.kind, campaign=args.campaign)
        rows = ledger.count(kind=args.kind, campaign=args.campaign)
        print(f"{digest}  rows={rows}")
    finally:
        ledger.close()
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger)
    try:
        payload = {
            "stats": ledger.stats(),
            "checkpoints": ledger.checkpoints(),
        }
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"{args.ledger}: {payload['stats']['rows']} rows")
        for group in payload["stats"]["campaigns"]:
            print(
                f"  {group['kind']}/{group['campaign']}: {group['rows']} rows"
                f"  outcomes={group['outcomes']}"
            )
        if not payload["checkpoints"]:
            print("  no checkpoints")
        for cp in payload["checkpoints"]:
            print(
                f"  checkpoint {cp['kind']}/{cp['campaign']} shard "
                f"{cp['shard_index']}/{cp['shard_count']}: "
                f"{cp['done']} cases committed "
                f"(fingerprint {cp['fingerprint'][:12]}…)"
            )
    finally:
        ledger.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Streaming, checkpointed, resumable campaign sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one shard of a campaign into a ledger"
    )
    run.add_argument(
        "frontend", choices=FRONTENDS, help="which sweep family to run"
    )
    run.add_argument(
        "--ledger",
        required=True,
        help="SQLite ledger path (rows + resume checkpoint live here)",
    )
    run.add_argument("--seed", type=int, default=0, help="campaign seed")
    run.add_argument(
        "--workers",
        type=worker_count,
        default=1,
        help="parallel worker processes",
    )
    run.add_argument(
        "--shard",
        default="0/1",
        metavar="i/N",
        help="this process's shard: it owns case indices ≡ i (mod N)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="continue from the ledger's checkpoint for this shard",
    )
    run.add_argument(
        "--max-cases",
        type=int,
        default=None,
        help="truncate the grid to its first N indices (before sharding)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        metavar="N",
        help="cases per durable commit (also the max re-done work on kill)",
    )
    run.add_argument(
        "--spill",
        default=None,
        metavar="PATH",
        help="also append one JSONL record per case to PATH",
    )
    run.add_argument(
        "--quick",
        action="store_true",
        help="trimmed instance battery (fault, fuzz and byzantine frontends)",
    )
    run.add_argument(
        "--json", action="store_true", help="machine-readable result"
    )
    run.add_argument(
        "--pairs", type=int, default=208, help="fault frontend: matrix size"
    )
    run.add_argument(
        "--runs", type=int, default=200, help="fuzz frontend: grid size"
    )
    run.add_argument(
        "--fault-every",
        type=int,
        default=0,
        help="fuzz frontend: pair a fault plan with every Nth case",
    )
    run.add_argument(
        "--battery",
        default="quantitative",
        help="battery frontend: named instance battery",
    )
    run.add_argument(
        "--cases",
        type=int,
        default=512,
        help="byzantine frontend: grid size",
    )
    run.add_argument(
        "--powers",
        default="0,1,2,3",
        metavar="P,P,...",
        help="byzantine frontend: adversary powers to sweep",
    )
    run.add_argument(
        "--strictness",
        type=int,
        default=2,
        choices=(1, 2, 3),
        help="byzantine frontend: cheat-detector strictness",
    )
    run.add_argument(
        "--abort-on-detect",
        action="store_true",
        help="byzantine frontend: abort runs on fresh cheat evidence",
    )
    run.add_argument(
        "--reps",
        type=int,
        default=1,
        help="battery frontend: schedule seeds per instance",
    )
    run.set_defaults(func=_cmd_run)

    merge = sub.add_parser(
        "merge", help="merge shard ledgers into one (rows only)"
    )
    merge.add_argument("dest", help="destination ledger (created if absent)")
    merge.add_argument("sources", nargs="+", help="shard ledgers to copy in")
    merge.set_defaults(func=_cmd_merge)

    digest = sub.add_parser(
        "digest", help="print a ledger's deterministic content digest"
    )
    digest.add_argument("ledger")
    digest.add_argument("--kind", default=None)
    digest.add_argument("--campaign", default=None)
    digest.set_defaults(func=_cmd_digest)

    status = sub.add_parser(
        "status", help="rows, campaigns and resume checkpoints in a ledger"
    )
    status.add_argument("ledger")
    status.add_argument("--json", action="store_true")
    status.set_defaults(func=_cmd_status)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
