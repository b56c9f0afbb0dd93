"""Per-network memoization with observable hit counters.

The analysis layer asks the same questions about the same network over and
over: ``theorem21_certificate`` needs the view partition that
``symmetricity_of_labeling`` just computed, ``order_equivalence_classes``
re-derives surrounding keys that ``class_signature`` already produced, and
every ``views_equal`` call inside a loop used to re-run the full refinement.
This module provides the shared memo those callers route through.

Keying rules
------------
* The primary key is the **network object identity** (held weakly, so caches
  die with their networks).  :class:`~repro.graphs.network.AnonymousNetwork`
  is immutable after construction — every transformation
  (``with_ports_relabeled``, ``with_nodes_permuted``) returns a new object —
  which is what makes identity keying sound.
* The secondary key is ``(kind, key)`` where ``kind`` names the computation
  (``"view_refinement"``, ``"surrounding_key"``, …) and ``key`` carries the
  remaining arguments (normalised node-coloring tuple, root node, …).
* Non-network-keyed values go through :func:`memo_value`, a bounded FIFO
  table: canonical searches of hashable
  :class:`~repro.graphs.canonical.Digraph` objects (kind
  ``"canonical_key"``), and COMPUTE & ORDER results stored by canonical
  position under the canonical form bytes of the bi-colored map (kind
  ``"class_structure"``), shared by every isomorphic copy.

Escape hatches
--------------
* ``with uncached(): ...`` disables both lookup and insertion in the dynamic
  extent (re-entrant; used by the parity property tests and benchmarks).
* ``invalidate(network)`` drops one network's memo; ``invalidate()`` drops
  everything including the bounded value table.

Observability
-------------
Counters live in a dedicated **always-enabled**
:class:`~repro.obs.registry.MetricsRegistry` (metrics ``cache_hits_total``
/ ``cache_misses_total``, label ``kind``), registered as the
``"perf.cache"`` collector so they appear in
:func:`repro.obs.collect_snapshot` without the default registry being
switched on — the regression tests count misses regardless of global
metrics state.  ``cache_stats()`` keeps its historical return shape
``{kind: {"hits": h, "misses": m}}``; misses equal the number of *actual*
computations.  ``stats_rows()`` renders the same data as table rows for
the analysis/trace reporting machinery, and :func:`reset` zeroes the
counters explicitly.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from ..obs.registry import MetricsRegistry, register_collector

#: network -> {(kind, key): value}.  Weak keys: a cache entry must never
#: keep a network alive.
_network_store: "weakref.WeakKeyDictionary[Any, Dict[Tuple[str, Hashable], Any]]" = (
    weakref.WeakKeyDictionary()
)
#: (kind, key) -> value for non-network-keyed computations, FIFO-bounded.
_value_store: Dict[Tuple[str, Hashable], Any] = {}
_VALUE_STORE_LIMIT = 8192

#: The cache's own registry — always enabled, independent of the global
#: default (hit/miss accounting is part of the cache's contract, not an
#: opt-in diagnostic).
_metrics = MetricsRegistry(enabled=True)
_hits = _metrics.counter(
    "cache_hits_total", help="memo hits, by computation kind"
)
_misses = _metrics.counter(
    "cache_misses_total",
    help="memo misses (actual computations), by computation kind",
)
register_collector("perf.cache", _metrics)

_lock = threading.RLock()
_disabled_depth = 0
#: Bumped by every full :func:`invalidate`.  Computations snapshot it
#: before running and skip insertion when it moved: a ``memo_value``
#: compute that was in flight while everything was invalidated must not
#: resurrect its (now stale) entry into the live table.  Network-keyed
#: entries get this for free — ``clear()`` detaches their per-network
#: dict, so the late insert lands in an orphan — but ``_value_store`` is
#: one module-level dict, cleared in place.
_generation = 0


def cache_enabled() -> bool:
    """Whether memoization is active (False inside :func:`uncached`)."""
    return _disabled_depth == 0


@contextmanager
def uncached() -> Iterator[None]:
    """Disable the cache (lookup *and* insertion) in this dynamic extent.

    Re-entrant.  Counters are not touched while disabled, so benchmark
    baselines measured under ``uncached()`` stay comparable.
    """
    global _disabled_depth
    with _lock:
        _disabled_depth += 1
    try:
        yield
    finally:
        with _lock:
            _disabled_depth -= 1


def _count(kind: str, hit: bool) -> None:
    (_hits if hit else _misses).inc(kind=kind)


def memo(
    network: Any, kind: str, key: Hashable, compute: Callable[[], Any]
) -> Any:
    """Memoize ``compute()`` under ``(network, kind, key)``.

    The cached value is returned as-is; callers that hand out mutable
    results must copy before returning (the views layer caches tuples).
    """
    if _disabled_depth:
        return compute()
    with _lock:
        per_net = _network_store.get(network)
        if per_net is None:
            per_net = _network_store.setdefault(network, {})
        full_key = (kind, key)
        if full_key in per_net:
            _count(kind, hit=True)
            return per_net[full_key]
        _count(kind, hit=False)
    value = compute()
    with _lock:
        if not _disabled_depth:
            per_net[full_key] = value
    return value


def memo_value(kind: str, key: Hashable, compute: Callable[[], Any]) -> Any:
    """Memoize ``compute()`` under ``(kind, key)`` in the bounded table.

    Used for canonical keys of hashable digraphs, which have no owning
    network.  Eviction is FIFO once the table exceeds its limit.
    """
    if _disabled_depth:
        return compute()
    full_key = (kind, key)
    with _lock:
        if full_key in _value_store:
            _count(kind, hit=True)
            return _value_store[full_key]
        _count(kind, hit=False)
        generation = _generation
    value = compute()
    with _lock:
        if not _disabled_depth and generation == _generation:
            while len(_value_store) >= _VALUE_STORE_LIMIT:
                _value_store.pop(next(iter(_value_store)))
            _value_store[full_key] = value
    return value


def invalidate(network: Optional[Any] = None) -> None:
    """Drop one network's memo, or everything when ``network`` is None.

    A full invalidation clears the network-keyed store *and* the
    non-network-keyed value table (digraph canonical keys), and bumps the
    generation counter so computations already in flight cannot re-insert
    stale entries afterwards.
    """
    global _generation
    with _lock:
        if network is None:
            _generation += 1
            _network_store.clear()
            _value_store.clear()
        else:
            _network_store.pop(network, None)


def metrics_registry() -> MetricsRegistry:
    """The cache's own always-enabled registry (the ``perf.cache`` collector)."""
    return _metrics


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Snapshot of hit/miss counters per computation kind."""
    hits = {dict(key).get("kind", "?"): int(v) for key, v in _hits.series().items()}
    misses = {
        dict(key).get("kind", "?"): int(v) for key, v in _misses.series().items()
    }
    return {
        kind: {"hits": hits.get(kind, 0), "misses": misses.get(kind, 0)}
        for kind in sorted(set(hits) | set(misses))
    }


def reset() -> None:
    """Zero all counters (does not drop cached values)."""
    _metrics.reset()


def reset_cache_stats() -> None:
    """Historical alias of :func:`reset`."""
    reset()


def stats_rows() -> List[List[Any]]:
    """Counter table rows ``[kind, hits, misses, hit-rate]`` for reporting."""
    rows: List[List[Any]] = []
    for kind, stat in cache_stats().items():
        total = stat["hits"] + stat["misses"]
        rate = f"{stat['hits'] / total:.0%}" if total else "-"
        rows.append([kind, stat["hits"], stat["misses"], rate])
    return rows
