"""E12 — metrics overhead: what an enabled registry costs a run.

Every metric a run produces goes to the process registry, which ships
disabled.  The runtime's step loop carries no metrics code: the agent
records are the run's only live count, and an enabled registry is fed
once from them when the run ends.  The enabled leg installs a fresh
enabled registry with ``set_registry`` for each measured run and restores
the previous one afterwards; the base leg is the default (disabled) run.
Methodology mirrors E11 (bench_trace_overhead): interleave the two legs,
compare best-of-N minima, re-measure before declaring a regression.

The enabled-registry ratio is recorded as extra info with a loose bound:
phase spans, the run-end counters and the budget gauges have a real
cost, but it must stay the same order of magnitude as the bare run.  CI
holds the ratio against ``benchmarks/baselines/BENCH_obs.json``, so
per-step work that creeps back into the loop fails the build.
"""

import time

from repro.core import Placement, run_elect
from repro.graphs import hypercube_cayley
from repro.obs.registry import MetricsRegistry, set_registry
from repro.sim import RandomScheduler

HOMES = [0, 3, 5]
REPEATS = 12


def run_measured(seed=9):
    net = hypercube_cayley(3).network
    return run_elect(
        net,
        Placement.of(HOMES),
        scheduler=RandomScheduler(seed=seed),
        seed=seed,
    )


def run_metered(seed=9):
    """One run against a fresh enabled process registry."""
    previous = set_registry(MetricsRegistry(enabled=True))
    try:
        return run_measured(seed)
    finally:
        set_registry(previous)


def measure_overhead(repeats=REPEATS):
    """Interleaved best-of-N ratio of metered over default wall time."""
    base = float("inf")
    measured = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_measured()  # default registry (ships disabled)
        base = min(base, time.perf_counter() - start)
        start = time.perf_counter()
        run_metered()
        measured = min(measured, time.perf_counter() - start)
    return measured / base


def test_bench_unmetered_run(benchmark):
    outcome = benchmark(run_measured)
    assert outcome.elected


def test_bench_enabled_registry_recording(benchmark):
    # Full instrumentation (phase spans while the run goes; per-agent
    # counters, steps and budget gauges published once when it ends) may
    # cost more than the bare run but must stay the same order of magnitude.
    ratio = None
    for _ in range(3):
        ratio = measure_overhead()
        if ratio < 2.0:
            break
    benchmark.extra_info["enabled_overhead_ratio"] = ratio
    outcome = benchmark.pedantic(run_metered, rounds=3, iterations=1)
    assert outcome.elected
    assert ratio < 2.0, f"enabled-registry overhead {ratio:.3f}x"
