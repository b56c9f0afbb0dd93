"""The per-network memo cache: hits, invalidation, escape hatch, counters.

Includes the regression tests pinning the "refinement runs once" contract:
``views_equal`` in a loop, ``theorem21_certificate`` after ``classify``,
and ``compute_class_structure`` must not recompute partitions that the
cache already holds.
"""

import gc

import pytest

from repro.core.feasibility import classify, theorem21_certificate
from repro.core.ordering import compute_class_structure
from repro.core.placement import Placement
from repro.graphs.builders import cycle_graph, path_graph, petersen_graph
from repro.graphs.views import view_refinement, views_equal
from repro.perf import (
    cache_enabled,
    cache_stats,
    invalidate,
    memo,
    memo_value,
    reset,
    stats_rows,
    uncached,
)
from repro.perf import cache as cache_module


@pytest.fixture(autouse=True)
def clean_cache():
    """Each test sees an empty cache and zeroed counters."""
    invalidate()
    reset()
    yield
    invalidate()
    reset()


def refinement_runs():
    """Number of actual refinement computations since the last reset."""
    return cache_stats().get("view_refinement", {"misses": 0})["misses"]


def test_memo_caches_per_network_and_key():
    net_a, net_b = cycle_graph(4), cycle_graph(4)
    calls = []

    def compute(tag):
        def inner():
            calls.append(tag)
            return tag
        return inner

    assert memo(net_a, "k", None, compute("a")) == "a"
    assert memo(net_a, "k", None, compute("a2")) == "a"  # hit: not recomputed
    # Identity keying: an equal-but-distinct network is a different entry.
    assert memo(net_b, "k", None, compute("b")) == "b"
    assert calls == ["a", "b"]
    stats = cache_stats()["k"]
    assert stats == {"hits": 1, "misses": 2}


def test_uncached_disables_lookup_and_insert():
    net = cycle_graph(4)
    memo(net, "k", None, lambda: "cached")
    with uncached():
        assert not cache_enabled()
        assert memo(net, "k", None, lambda: "fresh") == "fresh"
        assert memo(net, "other", None, lambda: "x") == "x"
    assert cache_enabled()
    # The cached entry survived; the uncached insert did not happen.
    assert memo(net, "k", None, lambda: "wrong") == "cached"
    assert memo(net, "other", None, lambda: "recomputed") == "recomputed"


def test_uncached_is_reentrant():
    with uncached():
        with uncached():
            assert not cache_enabled()
        assert not cache_enabled()
    assert cache_enabled()


def test_invalidate_single_network():
    net_a, net_b = cycle_graph(4), cycle_graph(5)
    memo(net_a, "k", None, lambda: "a")
    memo(net_b, "k", None, lambda: "b")
    invalidate(net_a)
    assert memo(net_a, "k", None, lambda: "a-new") == "a-new"
    assert memo(net_b, "k", None, lambda: "b-new") == "b"


def test_invalidate_everything():
    net = cycle_graph(4)
    memo(net, "k", None, lambda: "old")
    memo_value("vk", 1, lambda: "old")
    invalidate()
    assert memo(net, "k", None, lambda: "new") == "new"
    assert memo_value("vk", 1, lambda: "new") == "new"


def test_invalidate_clears_the_value_store_table():
    """``invalidate()`` drops digraph canonical-key entries, not just
    network-keyed ones (regression guard for the serve-layer contract)."""
    from repro.graphs.canonical import Digraph, canonical_key

    g = Digraph.build(3, [(0, 1), (1, 2), (2, 0)])
    canonical_key(g)
    assert ("canonical_key", g) in cache_module._value_store
    invalidate()
    assert len(cache_module._value_store) == 0
    reset()
    canonical_key(g)
    assert cache_stats()["canonical_key"]["misses"] == 1  # recomputed


def test_invalidate_during_compute_does_not_resurrect_value():
    """A full invalidate() racing an in-flight memo_value compute wins.

    Before the generation guard, the late insert landed in the live (but
    just-cleared) module-level table, resurrecting a stale canonical-key
    entry that ``invalidate()`` had promised to drop; network-keyed
    entries never had the bug because ``clear()`` detaches their dict.
    """
    def compute():
        invalidate()  # e.g. another thread invalidates mid-compute
        return "stale"

    assert memo_value("vk", 1, compute) == "stale"
    calls = []

    def recompute():
        calls.append(1)
        return "fresh"

    assert memo_value("vk", 1, recompute) == "fresh"
    assert calls, "stale value survived invalidate()"

    # The network-keyed side keeps its (already correct) behavior.
    net = cycle_graph(4)

    def net_compute():
        invalidate()
        return "stale"

    assert memo(net, "k", None, net_compute) == "stale"
    assert memo(net, "k", None, lambda: "fresh") == "fresh"


def test_cache_entries_die_with_their_network():
    net = cycle_graph(4)
    memo(net, "k", None, lambda: "v")
    store = cache_module._network_store
    assert net in store
    del net
    gc.collect()
    assert len(store) == 0


def test_memo_value_is_bounded():
    limit = cache_module._VALUE_STORE_LIMIT
    for i in range(limit + 10):
        memo_value("bounded", i, lambda i=i: i)
    assert len(cache_module._value_store) <= limit


def test_stats_rows_render_shape():
    net = cycle_graph(4)
    memo(net, "k", None, lambda: 1)
    memo(net, "k", None, lambda: 1)
    (row,) = [r for r in stats_rows() if r[0] == "k"]
    assert row == ["k", 1, 1, "50%"]


def test_counters_live_in_the_perf_cache_collector():
    from repro.obs.registry import collectors

    net = cycle_graph(4)
    memo(net, "k", None, lambda: 1)
    registry = collectors()["perf.cache"]
    assert registry is cache_module._metrics
    assert registry.counter("cache_misses_total").value(kind="k") == 1.0


def test_reset_zeroes_counters_but_keeps_cached_values():
    net = cycle_graph(4)
    memo(net, "k", None, lambda: "v")
    assert cache_stats()["k"]["misses"] == 1
    cache_module.reset()
    assert cache_stats() == {}
    # The memoized value survived: the next lookup is a hit, not a miss.
    assert memo(net, "k", None, lambda: "recomputed") == "v"
    assert cache_stats()["k"] == {"hits": 1, "misses": 0}


# ----------------------------------------------------------------------
# Regression tests: the analysis layer must not recompute partitions
# ----------------------------------------------------------------------


def test_views_equal_loop_runs_one_refinement():
    net = cycle_graph(8)
    for x in range(net.num_nodes):
        for y in range(net.num_nodes):
            views_equal(net, x, y)
    assert refinement_runs() == 1


def test_view_refinement_cache_returns_fresh_lists():
    net = cycle_graph(6)
    first = view_refinement(net)
    first[0] = 99  # mutating the returned list must not poison the cache
    assert view_refinement(net)[0] != 99


def test_theorem21_after_classify_reuses_partitions():
    net = petersen_graph()
    placement = Placement.of([0, 1])
    classify(net, placement)
    after_classify = cache_stats()
    theorem21_certificate(net, placement)
    after_certificate = cache_stats()
    # The certificate's label classes and symmetricity were already cached.
    for kind in ("label_automorphisms", "view_refinement"):
        if kind in after_classify:
            assert (
                after_certificate[kind]["misses"]
                == after_classify[kind]["misses"]
            ), f"{kind} recomputed by theorem21_certificate"


def test_class_structure_recompute_is_all_hits():
    net = path_graph(6)
    bicolor = [1, 0, 0, 0, 0, 1]
    compute_class_structure(net, bicolor)
    baseline = {
        kind: stat["misses"] for kind, stat in cache_stats().items()
    }
    compute_class_structure(net, bicolor)
    for kind, stat in cache_stats().items():
        assert stat["misses"] == baseline.get(kind, 0), (
            f"{kind} recomputed on identical re-run"
        )
