"""Table 1 wall time: the serial loop against a process pool.

``reproduce_table1(workers=N)`` is byte-identical to the serial loop for
any N; the test suite pins that (``tests/perf/test_parallel.py``).
Whether the pool is also *faster* depends on the cores of the machine
and on how much the one in-process memo saves the serial loop (COMPUTE
& ORDER runs once per isomorphism class there, but once per class per
worker in the pool), so the comparison is a benchmark, not a test.

``parallel_over_serial`` is the best pool wall time over the best serial
wall time, caches dropped before every leg.  It is recorded as extra
info and gated by the ``python -m repro.obs regress`` sentinel against
``benchmarks/baselines/BENCH_parallel.json``.
"""

import os
import time

import pytest

from repro.analysis.matrix import reproduce_table1
from repro.perf import invalidate

REPEATS = 2


def timed_table1(workers):
    invalidate()
    start = time.perf_counter()
    result = reproduce_table1(quick=False, workers=workers)
    return time.perf_counter() - start, result


def cells_as_tuples(result):
    return {
        key: (cell.verdict, cell.evidence, cell.instances_checked)
        for key, cell in result.cells.items()
    }


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="a process pool needs more than one CPU",
)
def test_bench_table1_parallel_wall_time(benchmark):
    workers = os.cpu_count()
    serial_s = parallel_s = float("inf")
    for _ in range(REPEATS):
        elapsed, serial = timed_table1(1)
        serial_s = min(serial_s, elapsed)
        elapsed, parallel = timed_table1(workers)
        parallel_s = min(parallel_s, elapsed)
        assert cells_as_tuples(serial) == cells_as_tuples(parallel)
    print(f"\nserial {serial_s:.2f}s, {workers} workers {parallel_s:.2f}s")
    benchmark.extra_info["parallel_over_serial"] = parallel_s / serial_s
    benchmark.extra_info["workers"] = str(workers)
    benchmark.pedantic(timed_table1, args=(workers,), rounds=1, iterations=1)
