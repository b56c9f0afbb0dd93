"""E11 — tracing overhead: the default (untraced) path stays zero-cost.

Every emit site in the runtime is guarded by ``if self._sink is not None``,
so ``trace=None``, the one untraced run, costs the same as before the
trace subsystem existed, and recording into memory stays the same order
of magnitude.  Methodology: interleave baseline/traced timings (so clock
drift and cache effects hit both alike) and compare the *minima*, which
strips scheduler noise; re-measure a few times before declaring a
regression.
"""

import time

from repro.core import Placement, run_elect
from repro.graphs import hypercube_cayley
from repro.sim import RandomScheduler
from repro.trace import MemorySink

HOMES = [0, 3, 5]
REPEATS = 12


def run_traced(trace, seed=9):
    net = hypercube_cayley(3).network
    return run_elect(
        net,
        Placement.of(HOMES),
        scheduler=RandomScheduler(seed=seed),
        seed=seed,
        trace=trace,
    )


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_overhead(make_sink, repeats=REPEATS):
    """Interleaved best-of-N ratio of traced over untraced wall time."""
    base = float("inf")
    traced = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_traced(None)
        base = min(base, time.perf_counter() - start)
        start = time.perf_counter()
        run_traced(make_sink())
        traced = min(traced, time.perf_counter() - start)
    return traced / base


def test_bench_untraced_run(benchmark):
    outcome = benchmark(run_traced, None)
    assert outcome.elected


def test_bench_memory_sink_recording(benchmark):
    # Recording into memory is the common debugging configuration; it may
    # cost more than the untraced run but must stay the same order of
    # magnitude.
    ratio = None
    for _ in range(3):
        ratio = measure_overhead(MemorySink)
        if ratio < 2.0:
            break
    benchmark.extra_info["memory_overhead_ratio"] = ratio
    outcome = benchmark.pedantic(
        run_traced, args=(MemorySink(),), rounds=3, iterations=1
    )
    assert outcome.elected
    assert ratio < 2.0, f"memory sink overhead {ratio:.3f}x"
