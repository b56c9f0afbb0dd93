"""Byzantine sweep throughput: incremental cheat detection vs a full scan.

``CheatDetector.sweep`` rebuilds the evidence of only the boards that
changed since the previous sweep and reruns the cross-board checks over
those per-board records.  The reference detector below sweeps the parent
way: a full ``scan()`` of every board, minus what was already reported.
Both legs run the same 256-case grid under the perfbench byzantine policy
(strictness 2, abort on detection, a sweep after every step), interleaved,
best of three, with caches dropped before every leg.

The legs must agree exactly: equal outcome counts and equal ledger
digests.  ``incremental_over_full`` is the best incremental sweep time
over the best full-scan sweep time; it is gated by the ``python -m
repro.obs regress`` sentinel against
``benchmarks/baselines/BENCH_detect.json``.  The cases/s of each leg are
recorded as strings, out of the sentinel's reach: absolute rates differ
between machines.
"""

import time

from repro.errors import CheatDetected
from repro.fault import byzantine_campaign
from repro.fault.byzantine_campaign import ByzantineConfig, run_byzantine_campaign
from repro.fault.detect import CheatDetector
from repro.fault.metrics import count_detection
from repro.perf import invalidate
from repro.trace.events import DETECT

CASES = 256
REPEATS = 3
CONFIG = ByzantineConfig(
    seed=7, strictness=2, audit=True, abort=True, check_every=1
)


class FullScanDetector(CheatDetector):
    """The reference: every sweep scans every board."""

    def sweep(self, sim, steps):
        fresh = []
        for finding in self.scan(sim.boards):
            if finding in self._reported:
                continue
            self._reported.add(finding)
            self.findings.append(finding)
            fresh.append(finding)
            count_detection(finding.kind)
            sim.emit_system(
                DETECT, node=max(finding.node, 0), step=steps, detail=finding.message
            )
        if fresh and self.abort:
            raise CheatDetected(
                f"cheat detected at step {steps}: {fresh[0].message}"
            )
        return fresh


def timed_sweep(detector, ledger_path, monkeypatch):
    monkeypatch.setattr(byzantine_campaign, "CheatDetector", detector)
    invalidate()
    start = time.perf_counter()
    result = run_byzantine_campaign(
        cases=CASES, config=CONFIG, workers=1, ledger=str(ledger_path)
    )
    elapsed = time.perf_counter() - start
    monkeypatch.undo()
    return elapsed, result


def test_bench_byzantine_detect(benchmark, tmp_path, monkeypatch):
    best = {CheatDetector: float("inf"), FullScanDetector: float("inf")}
    answers = {}
    for rep in range(REPEATS):
        for detector in (CheatDetector, FullScanDetector):
            path = tmp_path / f"{detector.__name__}-{rep}.db"
            elapsed, result = timed_sweep(detector, path, monkeypatch)
            best[detector] = min(best[detector], elapsed)
            answers.setdefault(detector, (dict(result.counts), result.digest))
            assert answers[detector] == (dict(result.counts), result.digest)
            assert result.processed == CASES and result.failed == 0
    assert answers[CheatDetector] == answers[FullScanDetector]
    incremental, full = best[CheatDetector], best[FullScanDetector]
    print(
        f"\nincremental {CASES / incremental:.0f} cases/s, "
        f"full scan {CASES / full:.0f} cases/s"
    )
    benchmark.extra_info["incremental_over_full"] = incremental / full
    benchmark.extra_info["incremental_cases_per_s"] = f"{CASES / incremental:.1f}"
    benchmark.extra_info["full_scan_cases_per_s"] = f"{CASES / full:.1f}"
    benchmark.pedantic(
        timed_sweep,
        args=(CheatDetector, tmp_path / "benched.db", monkeypatch),
        rounds=1,
        iterations=1,
    )
