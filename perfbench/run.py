"""The repo's end-to-end benchmark: campaign throughput and serve latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fuzz|byzantine|serve|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in one fresh process with ``workers=1`` and the
process-default refinement kernel (neither ``REPRO_REFINEMENT_KERNEL``
nor ``set_default_kernel`` is touched).  The metrics are printed by name
with unit and sample counts; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced
pass with ``--trace 1``.  ``--workload all`` runs the three workloads one
after another, each in its own process.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fuzz", "byzantine", "serve")
#: Set-ups timed per run: the run's own, and fresh processes that set up
#: the same way and stop.  ``setup_s`` is the fastest, for the reason the
#: other times are (see NOTES.md, Noise).
SETUP_SAMPLES = 5


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path):
    """Everything before the first timed sweep or pass: the workload's
    spec and ledger, or its stream and booted server."""
    if workload == "serve":
        import serveload

        return serveload.Stream(seed), serveload.Session(workdir / "pass0.db")
    import campaigns

    return campaigns.Sweep(workload, seed, workdir, "sweep0")


def setup_only(workload: str, seed: int) -> int:
    """Set up as a run does, print the process's age, and stop."""
    import harness

    harness.metadata(seed)
    with harness.Scratch(f"setup-{workload}") as workdir:
        first = set_up(workload, seed, workdir)
        try:
            print(repr(harness.process_age()), flush=True)
        finally:
            if workload == "serve":
                first[1].close()
            else:
                first.ledger.close()
    return 0


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import harness

    result = harness.Result(workload=workload, seed=seed)
    result.reported = harness.contract_metrics(trace)
    # Imports numpy, scipy and the kernel selector: part of set-up.
    result.meta = harness.metadata(seed, workload=workload, seconds=seconds)
    with harness.Scratch(workload) as workdir:
        first = set_up(workload, seed, workdir)
        setup = [harness.process_age()]
        if workload == "serve":
            import serveload

            serveload.run_serve(*first, seconds, trace, workdir, result)
        else:
            import campaigns

            campaigns.run_campaign(workload, seed, first, seconds, trace, workdir, result)
    result.put("peak_rss_mib", harness.peak_rss_mib(), "MiB")
    setup += harness.time_setups(workload, seed, SETUP_SAMPLES - 1)
    result.put("setup_s", min(setup), "s", f"fastest of {len(setup)} processes")
    harness.emit(result, trace)
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; a combined JSON line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        try:
            line = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {workload} printed no result", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, metric in line["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    started = time.perf_counter()
    code = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"wall {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
