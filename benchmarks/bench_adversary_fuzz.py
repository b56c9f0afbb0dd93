"""E12 — adversarial schedule exploration: fuzz throughput and coverage.

DESIGN.md §8.5: the interleaving fuzzer sweeps (instance × scheduler ×
optional fault plan) cases and deduplicates explored interleavings by
schedule signature.  The benchmark measures sweep wall-time while the
assertions check the coverage shape: a seeded full-battery sweep reaches
hundreds of distinct interleavings with zero silent wrong answers, and the
ddmin minimizer shrinks an injected-regression schedule to a small pinned
core that replays byte-identically.
"""

import resource
import sys

from repro.adversary import (
    FuzzConfig,
    InstanceSpec,
    minimize_row,
    run_fuzz,
)

K23 = InstanceSpec("complete_bipartite", (2, 3), (0, 1, 2, 3, 4), "K_2,3")


def _max_rss_mib() -> float:
    """Peak RSS of this process so far, in MiB (ru_maxrss is KiB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return peak / divisor


def run_sweep():
    return run_fuzz(runs=400, workers=4)


def run_regression_hunt():
    config = FuzzConfig(seed=1, agent_kwargs=(("matching", "toctou"),))
    report = run_fuzz(instances=[K23], runs=120, config=config, workers=4)
    results = [
        minimize_row(row, config=config) for row in report.failures[:2]
    ]
    return report, results


def test_bench_fuzz_sweep_coverage(once):
    result = once(run_sweep)
    assert result.ok
    assert result.counts["silent-wrong-answer"] == 0
    assert result.extras["distinct_schedules"] >= 250
    print(
        f"\nfuzz sweep: {result.processed} cases, "
        f"{result.extras['distinct_schedules']} distinct interleavings "
        f"({result.extras['duplicate_schedules']} dedup hits)"
    )


STREAM_CHILD = r"""
import json, resource, sys
from repro.adversary.fuzz import FuzzConfig, run_fuzz

result = run_fuzz(runs=int(sys.argv[1]), config=FuzzConfig(seed=2), quick=True)
print(json.dumps({
    "rows": len(result.failures),
    "total": result.processed,
    "ok": result.ok,
    "peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def run_streamed_sweeps():
    import json
    import os
    import subprocess

    out = {}
    for runs in (600, 60):
        proc = subprocess.run(
            [sys.executable, "-c", STREAM_CHILD, str(runs)],
            capture_output=True,
            text=True,
            env=os.environ.copy(),
            check=True,
        )
        out[runs] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_bench_streamed_sweep_max_rss(once):
    """The memory contract of the streaming engine: a sweep retains no
    rows, so its peak RSS does not grow with the grid — a 600-run sweep
    peaks within 10% of a 60-run one.  Each runs in a fresh subprocess so
    other benchmarks' high-water marks don't pollute ``ru_maxrss``."""
    out = once(run_streamed_sweeps)
    big, small = out[600], out[60]
    assert big["ok"] and small["ok"]
    assert (big["total"], small["total"]) == (600, 60)
    assert big["rows"] == 0  # only failures are retained, and there are none
    peak_mib = big["peak_kib"] / 1024.0
    assert peak_mib < 256.0, f"600-run sweep peaked at {peak_mib:.0f} MiB"
    assert big["peak_kib"] <= small["peak_kib"] * 1.10
    print(
        f"\nstreamed sweep peak RSS {peak_mib:.0f} MiB at 600 runs "
        f"({small['peak_kib'] / 1024.0:.0f} MiB at 60 runs)"
    )


def test_bench_regression_hunt_and_minimize(once):
    report, results = once(run_regression_hunt)
    assert not report.ok and report.failures
    for result in results:
        assert result.verified
        assert result.reduction <= 0.25
    best = min(results, key=lambda r: r.minimized_len)
    print(
        f"\nregression hunt: {len(report.failures)} failures in "
        f"{report.processed} cases; best reproducer "
        f"{best.minimized_len}/{best.original_len} pins "
        f"({100 * best.reduction:.1f}%)"
    )
