"""Parallel evaluation of independent election instances.

The Table 1 batteries, the effectualness sweeps and the E-series benchmarks
all share one shape: a list of independent instances, one pure function
applied to each, results reduced in order.  :class:`ParallelBatteryRunner`
fans that shape out over ``concurrent.futures`` while keeping the results
**deterministic**: outputs come back in input order regardless of worker
scheduling, so a parallel battery is byte-identical to the serial one.

Process pools are the default executor because the work is CPU-bound pure
Python (partition refinement, canonical forms, protocol simulation); thread
pools are available for callables that release the GIL or for environments
where forking is undesirable.  ``workers <= 1`` short-circuits to a plain
serial loop with zero executor overhead — the default, so nothing changes
for existing callers until they opt in.

The evaluation function and items must be picklable for the process
executor (module-level functions over :class:`~repro.analysis.instances`
batteries are; see ``repro.analysis.matrix``).

Big-network batteries should use :meth:`ParallelBatteryRunner.map_on_network`:
the network crosses into the workers **once** as shared-memory flat buffers
(see :mod:`repro.perf.shm`) instead of being re-pickled with every task
chunk, and each per-item payload shrinks to the item plus a handle of a few
dozen bytes.  Results remain byte-identical to the serial loop for any
worker count.
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..obs.registry import get_registry
from . import shm as _shm

T = TypeVar("T")
R = TypeVar("R")

_EXECUTORS = ("process", "thread")


def worker_count(text: str) -> int:
    """``argparse`` type of every ``--workers`` flag: a count >= 0.

    A negative count is a usage error (argparse exits 2 before any work
    starts) rather than the :class:`ParallelBatteryRunner` ``ValueError``
    a library caller gets; ``0`` and ``1`` both mean serial.
    """
    workers = int(text)
    if workers < 0:
        raise argparse.ArgumentTypeError(f"workers must be >= 0, got {workers}")
    return workers


class ParallelBatteryRunner:
    """Ordered fan-out of a pure function over independent instances.

    Parameters
    ----------
    workers:
        Degree of parallelism.  ``None`` means "one per CPU, capped at 8";
        ``0``/``1`` mean serial (no executor is created at all).
    executor:
        ``"process"`` (default) or ``"thread"``.
    chunksize:
        Items per task submission for the process pool (amortizes IPC for
        large batteries of small instances).  ``None`` (default) picks
        ``ceil(len(items) / (4 * workers))`` per call: contiguous chunks
        keep instances of the same network in the same worker, so that
        worker's per-network memo cache is shared across them.

    The underlying pool is created lazily on the first parallel ``map``
    and **reused** across calls (worker start-up would otherwise dominate
    short batteries); call :meth:`close` — or use the runner as a context
    manager — to release it.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        executor: str = "process",
        chunksize: Optional[int] = None,
    ):
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        if workers is None:
            workers = min(os.cpu_count() or 1, 8)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.executor = executor
        self.chunksize = chunksize
        self._pool: Optional[Any] = None
        self._pool_lock = threading.Lock()
        #: Shared-memory exports made by :meth:`map_on_network`, keyed by
        #: network identity (the network is pinned so ids cannot recycle).
        self._exports: Dict[int, Tuple[Any, _shm.NetworkExport]] = {}

    @property
    def is_serial(self) -> bool:
        return self.workers <= 1

    def _ensure_pool(self) -> Any:
        # Guarded: the serve layer maps batches from concurrent executor
        # threads, and two first calls racing here would each spawn (and
        # one would leak) a pool.
        with self._pool_lock:
            if self._pool is None:
                if self.executor == "thread":
                    self._pool = ThreadPoolExecutor(max_workers=self.workers)
                else:
                    self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def close(self) -> None:
        """Shut the pool down and release shared-memory exports (the runner
        can be reused; a new pool spawns and networks re-export lazily)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            exports, self._exports = self._exports, {}
        if pool is not None:
            pool.shutdown()
        for _, export in exports.values():
            export.release()

    def __enter__(self) -> "ParallelBatteryRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item; results in input order.

        Exceptions raised by ``fn`` propagate to the caller (the first one
        in input order, matching serial semantics as closely as the pool
        allows).

        When the default metrics registry is enabled, each call records a
        ``parallel_map_seconds`` observation and bumps
        ``parallel_items_total`` (label ``mode`` ∈ serial/thread/process).
        """
        items = list(items)
        registry = get_registry()
        if not registry.enabled:
            return self._map(fn, items)
        start = time.perf_counter()
        try:
            return self._map(fn, items)
        finally:
            mode = (
                "serial"
                if self.is_serial or len(items) <= 1
                else self.executor
            )
            registry.histogram(
                "parallel_map_seconds",
                help="wall-time of battery map calls, by execution mode",
            ).observe(time.perf_counter() - start, mode=mode)
            registry.counter(
                "parallel_items_total",
                help="instances evaluated by battery maps, by execution mode",
            ).inc(len(items), mode=mode)

    def _map(self, fn: Callable[[T], R], items: List[T]) -> List[R]:
        if self.is_serial or len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        if self.executor == "thread":
            return list(pool.map(fn, items))
        chunk = self.chunksize
        if chunk is None:
            chunk = max(1, -(-len(items) // (4 * self.workers)))
        return list(pool.map(fn, items, chunksize=chunk))

    def starmap(
        self, fn: Callable[..., R], items: Sequence[Iterable[Any]]
    ) -> List[R]:
        """Like :meth:`map` but unpacks each item as ``fn(*item)``."""
        return self.map(_Star(fn), list(map(tuple, items)))

    def map_on_network(
        self, fn: Callable[[Any, T], R], network: Any, items: Sequence[T]
    ) -> List[R]:
        """Apply ``fn(network, item)`` to every item; results in input order.

        On the process executor the network is exported once into shared
        memory (per runner, per network — reused across calls) and workers
        rebuild it once per process from the flat buffers, so the per-task
        pickle payload is the item plus a handle instead of the network
        object graph.  Serial and thread executions call ``fn`` directly on
        the original network.  Every path evaluates the same pure function
        on an identical network, so results are byte-identical to serial
        for any worker count.
        """
        items = list(items)
        if self.is_serial or len(items) <= 1 or self.executor == "thread":
            return self.map(_Bound(fn, network), items)
        return self.map(_Attached(fn, self._export(network).handle), items)

    def _export(self, network: Any) -> _shm.NetworkExport:
        with self._pool_lock:
            entry = self._exports.get(id(network))
            if entry is None or entry[0] is not network:
                entry = (network, _shm.export_network(network))
                self._exports[id(network)] = entry
            return entry[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "serial" if self.is_serial else self.executor
        return f"ParallelBatteryRunner(workers={self.workers}, {mode})"


class _Star:
    """Picklable ``fn(*args)`` adapter (lambdas cannot cross process pools)."""

    def __init__(self, fn: Callable[..., Any]):
        self.fn = fn

    def __call__(self, args: Sequence[Any]) -> Any:
        return self.fn(*args)


class _Bound:
    """``fn(network, item)`` with the network bound in-process (serial and
    thread paths of :meth:`ParallelBatteryRunner.map_on_network`)."""

    def __init__(self, fn: Callable[[Any, Any], Any], network: Any):
        self.fn = fn
        self.network = network

    def __call__(self, item: Any) -> Any:
        return self.fn(self.network, item)


class _Attached:
    """``fn(network, item)`` with the network re-attached from shared memory
    in the worker (cached per process, so the rebuild happens once)."""

    def __init__(self, fn: Callable[[Any, Any], Any], handle: _shm.SharedNetworkHandle):
        self.fn = fn
        self.handle = handle

    def __call__(self, item: Any) -> Any:
        return self.fn(_shm.attach_network(self.handle), item)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = 1,
    executor: str = "process",
    chunksize: Optional[int] = None,
) -> List[R]:
    """One-shot convenience wrapper around :class:`ParallelBatteryRunner`."""
    with ParallelBatteryRunner(
        workers=workers, executor=executor, chunksize=chunksize
    ) as runner:
        return runner.map(fn, items)
