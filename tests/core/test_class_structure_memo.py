"""COMPUTE & ORDER once per isomorphism class: the ``class_structure`` memo.

``compute_class_structure`` stores each result by canonical position under
the canonical form of the bi-colored underlying graph, and carries it into
every isomorphic copy's numbering.  Pinned here:

* the memoized result equals the direct (``uncached()``) computation
  exactly, on relabeled and port-shuffled copies, whichever copy warmed
  the cache (Hypothesis);
* one ``class_structure`` miss per isomorphism class;
* non-simple maps keep the direct path and its errors;
* ELECT runs with the memo on and off are indistinguishable: identical
  trace event streams, moves and accesses (Theorem 3.1 accounting).
"""

import json
import random

import numpy
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.specs import table1_battery
from repro.core import run_elect
from repro.core.ordering import compute_class_structure
from repro.errors import GraphError
from repro.graphs.canonical import canonical_hash
from repro.graphs.labelings import random_integer_labeling, relabeled_randomly
from repro.graphs.network import AnonymousNetwork
from repro.perf import cache_stats, invalidate, uncached
from repro.sim import RandomScheduler
from repro.trace.sinks import MemorySink

TABLE1 = [spec.build() for spec in table1_battery()]


def permuted_copy(network, colors, perm):
    """The same bi-colored graph with node ``v`` renamed ``perm[v]``."""
    copy = network.with_nodes_permuted(perm)
    moved = [0] * network.num_nodes
    for node, color in enumerate(colors):
        moved[perm[node]] = color
    return copy, moved


def direct(network, colors):
    with uncached():
        return compute_class_structure(network, colors)


def class_structure_stats():
    return cache_stats().get("class_structure", {"hits": 0, "misses": 0})


@st.composite
def random_graph(draw, max_nodes=9):
    """A connected simple network with integer port labels."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    rng = random.Random(draw(st.integers(0, 2**30)))
    pairs = [(rng.randrange(v), v) for v in range(1, n)]  # spanning tree
    extra = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs
    ]
    rng.shuffle(extra)
    pairs.extend(extra[: draw(st.integers(0, n))])
    return random_integer_labeling(n, pairs, rng=rng)


@st.composite
def bicolored_copies(draw):
    """An instance, a relabeled and port-shuffled copy, and a warm order."""
    if draw(st.booleans()):
        network = draw(random_graph())
    else:
        network, _ = draw(st.sampled_from(TABLE1))
    n = network.num_nodes
    colors = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    copy, copy_colors = permuted_copy(network, colors, perm)
    shuffled = relabeled_randomly(copy, rng=random.Random(draw(st.integers(0, 99))))
    copies = [(network, colors), (shuffled, copy_colors)]
    if draw(st.booleans()):
        copies.reverse()
    return copies


@settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(bicolored_copies())
def test_memoized_equals_direct_whichever_copy_warms(copies):
    invalidate()
    before = class_structure_stats()
    for network, colors in copies:
        assert compute_class_structure(network, colors) == direct(network, colors)
    after = class_structure_stats()
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 1


def test_one_miss_per_isomorphism_class():
    invalidate()
    before = class_structure_stats()
    rng = random.Random(5)
    hashes, calls = set(), 0
    for network, placement in TABLE1:
        colors = placement.bicoloring(network)
        hashes.add(canonical_hash(network, colors))
        for _ in range(3):
            perm = list(range(network.num_nodes))
            rng.shuffle(perm)
            copy, copy_colors = permuted_copy(network, colors, perm)
            copy = relabeled_randomly(copy, rng=rng)
            assert compute_class_structure(copy, copy_colors) == direct(
                copy, copy_colors
            )
            calls += 1
    after = class_structure_stats()
    misses = after["misses"] - before["misses"]
    assert misses == len(hashes)
    assert after["hits"] - before["hits"] == calls - misses


def test_uncached_calls_bypass_the_memo():
    network, placement = TABLE1[0]
    before = class_structure_stats()
    direct(network, placement.bicoloring(network))
    assert class_structure_stats() == before


def test_non_integer_colorings_bypass_the_memo():
    # The canonical form ranks a palette that is not all ``int`` by
    # ``repr``, so its key would not keep the color values the direct
    # path reads (only 1 is a home-base).
    network, placement = TABLE1[7]
    colors = placement.bicoloring(network)
    before = class_structure_stats()
    structure = compute_class_structure(network, numpy.array(colors))
    assert class_structure_stats() == before
    assert structure == direct(network, colors)


# ----------------------------------------------------------------------
# Non-simple maps keep the direct path (a lying agent can draw one)
# ----------------------------------------------------------------------

NON_SIMPLE = [
    (
        AnonymousNetwork(3, [(0, 0, 1, 0), (0, 1, 1, 1), (1, 2, 2, 0)]),
        [1, 0, 0],
        "surroundings are defined for simple networks",
    ),
    (
        AnonymousNetwork(2, [(0, 0, 1, 0), (0, 1, 1, 1)]),
        [1, 1],
        "automorphism search requires a simple network",
    ),
    (
        AnonymousNetwork(3, [(0, 0, 0, 1), (0, 2, 1, 0), (1, 1, 2, 0)]),
        [1, 0, 0],
        "surroundings are defined for simple networks",
    ),
    (
        AnonymousNetwork(
            4,
            [(0, 0, 1, 0), (1, 1, 2, 0), (2, 1, 3, 0), (3, 1, 0, 1), (0, 2, 0, 3)],
        ),
        [1, 0, 1, 0],
        "automorphism search requires a simple network",
    ),
]


@pytest.mark.parametrize(
    "network,colors,message",
    NON_SIMPLE,
    ids=["parallel", "parallel-symmetric", "loop", "loop-on-cycle"],
)
def test_non_simple_maps_raise_the_direct_path_error(network, colors, message):
    assert not network.is_simple
    before = class_structure_stats()
    with pytest.raises(GraphError) as excinfo:
        compute_class_structure(network, colors)
    assert type(excinfo.value) is GraphError
    assert str(excinfo.value) == message
    assert class_structure_stats() == before


# ----------------------------------------------------------------------
# Behaviour identity: the memo is invisible to the election
# ----------------------------------------------------------------------


def elect_record(network, placement, colors, seed=7):
    sink = MemorySink()
    outcome = run_elect(
        network,
        placement,
        scheduler=RandomScheduler(seed=seed),
        seed=seed,
        colors=colors,
        trace=sink,
    )
    stream = "\n".join(
        json.dumps(event.to_dict(), sort_keys=True) for event in sink.events
    )
    reports = [(r.verdict, r.leader_color) for r in outcome.reports]
    return (
        stream.encode(),
        outcome.total_moves,
        outcome.total_accesses,
        outcome.steps,
        reports,
    )


@pytest.mark.parametrize(
    "index", range(len(TABLE1)), ids=[s.label for s in table1_battery()]
)
def test_elect_is_identical_with_the_memo_on_or_off(index):
    network, placement = TABLE1[index]
    colors = placement.fresh_colors()
    with uncached():
        reference = elect_record(network, placement, colors)
    invalidate()
    before = class_structure_stats()
    cold = elect_record(network, placement, colors)
    warm = elect_record(network, placement, colors)
    after = class_structure_stats()
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] > before["hits"]
    assert cold == reference
    assert warm == reference
