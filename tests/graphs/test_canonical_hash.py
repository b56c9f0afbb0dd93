"""``canonical_hash``: the serve layer's content address for instances.

Property-tested invariants (hypothesis):

* invariant under node relabeling (with the coloring permuted along);
* invariant under arbitrary per-node port shuffles — answers never depend
  on port labels, so neither may the cache key;
* stable across the wire round-trip (network → edge-list spec → network);
* separating for different colorings and different structures.

Plus a pinned golden hash: the encoding is a persistent-store key, so any
change to it must come with a ``CANONICAL_HASH_VERSION`` bump (the store
refuses mismatched stamps instead of serving wrong answers).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.builders import (
    complete_bipartite_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from repro.graphs.canonical import (
    CANONICAL_HASH_VERSION,
    canonical_form_bytes,
    canonical_hash,
    underlying_digraph,
)
from repro.graphs.cayley import hypercube_cayley
from repro.graphs.labelings import random_integer_labeling, relabeled_randomly
from repro.graphs.network import AnonymousNetwork
from repro.perf import uncached

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def colored_instance(draw, max_nodes=8):
    """A connected labeled network plus a node coloring and an RNG seed."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(0, 2**30))
    rng = random.Random(seed)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]  # spanning tree
    extra = draw(st.integers(0, n))
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in pairs
    ]
    rng.shuffle(candidates)
    pairs.extend(candidates[:extra])
    network = random_integer_labeling(n, pairs, rng=rng)
    colors = draw(
        st.lists(st.integers(0, 2), min_size=n, max_size=n)
    )
    return network, colors, seed


def permuted_copy(network, colors, perm):
    """The same colored graph with nodes renamed through ``perm``."""
    edges = [
        (perm[u], pu, perm[v], pv) for (u, pu, v, pv) in network.edges()
    ]
    new_colors = [0] * network.num_nodes
    for node, color in enumerate(colors):
        new_colors[perm[node]] = color
    return AnonymousNetwork(network.num_nodes, edges), new_colors


# ----------------------------------------------------------------------
# Invariance properties
# ----------------------------------------------------------------------


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(colored_instance())
def test_hash_invariant_under_node_relabeling(data):
    network, colors, seed = data
    perm = list(range(network.num_nodes))
    random.Random(seed + 1).shuffle(perm)
    copy, copy_colors = permuted_copy(network, colors, perm)
    assert canonical_hash(network, colors) == canonical_hash(copy, copy_colors)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(colored_instance())
def test_hash_invariant_under_port_shuffles(data):
    network, colors, seed = data
    shuffled = relabeled_randomly(network, rng=random.Random(seed + 2))
    assert canonical_hash(network, colors) == canonical_hash(shuffled, colors)
    # Even fresh label *values* (not just attachments) leave the hash alone.
    renamed = AnonymousNetwork(
        network.num_nodes,
        [
            (u, f"a{u}:{pu}", v, f"b{v}:{pv}")
            for (u, pu, v, pv) in network.edges()
        ],
    )
    assert canonical_hash(network, colors) == canonical_hash(renamed, colors)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(colored_instance())
def test_hash_stable_across_wire_round_trip(data):
    from repro.serve.wire import build_network, network_payload

    network, colors, _ = data
    rebuilt = build_network(network_payload(network))
    assert canonical_hash(network, colors) == canonical_hash(rebuilt, colors)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(colored_instance())
def test_hash_is_deterministic(data):
    network, colors, _ = data
    assert canonical_hash(network, colors) == canonical_hash(network, colors)


# ----------------------------------------------------------------------
# Separation
# ----------------------------------------------------------------------


def test_different_colorings_hash_differently():
    net = cycle_graph(6)
    assert canonical_hash(net, [1, 0, 0, 1, 0, 0]) != canonical_hash(
        net, [1, 0, 0, 0, 1, 0]
    )
    assert canonical_hash(net, [1, 0, 0, 1, 0, 0]) != canonical_hash(net)


def test_different_structures_hash_differently():
    assert canonical_hash(cycle_graph(6)) != canonical_hash(path_graph(6))
    assert canonical_hash(cycle_graph(6)) != canonical_hash(cycle_graph(5))
    assert canonical_hash(petersen_graph()) != canonical_hash(cycle_graph(10))


def test_isomorphic_colorings_collide_by_design():
    # Antipodal homes on C_6: any rotation is the same instance, same key.
    net = cycle_graph(6)
    assert canonical_hash(net, [1, 0, 0, 1, 0, 0]) == canonical_hash(
        net, [0, 1, 0, 0, 1, 0]
    )


# ----------------------------------------------------------------------
# Encoding contract
# ----------------------------------------------------------------------


def test_form_bytes_carry_the_version_stamp():
    blob = canonical_form_bytes(cycle_graph(4))
    assert blob.startswith(f"repro-canonical-v{CANONICAL_HASH_VERSION}|".encode())


def test_golden_hash_pins_the_encoding():
    """Changing the encoding must bump CANONICAL_HASH_VERSION (the
    persistent store refuses mismatched stamps); this pin catches silent
    drift."""
    assert CANONICAL_HASH_VERSION == 1
    assert canonical_hash(cycle_graph(4), [1, 0, 1, 0]) == (
        "085d2d74f41372dcec337c52fff60ae6c862c086ac5d3185c545e185d80e1093"
    )


@pytest.mark.parametrize(
    "network,homes,digest",
    [
        (
            complete_bipartite_graph(5, 5),
            (0, 5),
            "9abe294d68a250189c5d1c76621fdd509c8f89062d33b8715c7a91cf5daafa99",
        ),
        (
            hypercube_cayley(4).network,
            (0, 3, 5),
            "d6f4f00c50f885ab76e6ff57ade52f2895b5c3cc5ef5b372516cf0e0897e6d89",
        ),
        (
            petersen_graph(),
            (0, 1),
            "43fcbb7de105f0d817bcb479e61a9c9f2337ff3973c288cf1dc60c83fba93af6",
        ),
    ],
    ids=["K5,5{0,5}", "Q4{0,3,5}", "Petersen{0,1}"],
)
def test_golden_hashes_of_symmetric_instances(network, homes, digest):
    """Symmetric instances, where the canonical search prunes hardest,
    keep the hashes the unpruned search produced."""
    colors = [1 if v in homes else 0 for v in network.nodes()]
    with uncached():
        assert canonical_hash(network, colors) == digest


def test_color_row_length_is_validated():
    with pytest.raises(GraphError):
        canonical_hash(cycle_graph(4), [1, 0])


def test_underlying_digraph_shape():
    g = underlying_digraph(cycle_graph(4), [1, 0, 1, 0])
    assert g.num_nodes == 4
    assert g.colors == (1, 0, 1, 0)
    # Each undirected edge shows up as a symmetric arc pair.
    for u in range(4):
        for v in g.out_edges[u]:
            assert u in g.out_edges[v]
