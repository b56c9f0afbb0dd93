"""The automorphism-pruned canonical search against the unpruned reference.

``canonical_search`` skips every child that an automorphism fixing the
current prefix maps onto an explored sibling.  That must change neither
the minimum encoding (``canonical_key``) nor the first ordering reaching
it (``canonical_node_order``): the reference below is the plain
individualization–refinement recursion that visits every leaf, and both
results are compared on symmetric families under relabeling, where the
pruning does the most work.
"""

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.graphs import (
    circulant_cayley,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_cayley,
    petersen_graph,
    torus_cayley,
)
from repro.graphs import canonical as canonical_module
from repro.graphs.canonical import (
    Digraph,
    _digraph_refinement_python,
    _encode_ordering,
    _normalize_palette,
    canonical_key,
    canonical_node_order,
    underlying_digraph,
)
from repro.perf import uncached


def unpruned_search(g: Digraph) -> Tuple[Tuple, List[int], int]:
    """Minimum encoding, first minimal order and leaf count, no pruning."""
    best: List[Optional[Tuple]] = [None]
    leaves = [0]

    def recurse(classes: List[int]) -> None:
        classes = _digraph_refinement_python(g, classes)
        cells: Dict[int, List[int]] = {}
        for node, cid in enumerate(classes):
            cells.setdefault(cid, []).append(node)
        target_cell = None
        for cid in sorted(cells):
            if len(cells[cid]) > 1:
                target_cell = cells[cid]
                break
        if target_cell is None:
            order = sorted(range(g.num_nodes), key=lambda x: classes[x])
            enc = _encode_ordering(g, order)
            leaves[0] += 1
            if best[0] is None or enc < best[0][0]:
                best[0] = (enc, order)
            return
        for node in target_cell:
            child = list(classes)
            child[node] = g.num_nodes
            recurse(child)

    recurse(_normalize_palette(g.colors))
    enc, order = best[0]
    return (g.num_nodes, *enc), order, leaves[0]


def colored(network, homes=()):
    return underlying_digraph(
        network, [1 if v in homes else 0 for v in network.nodes()]
    )


FAMILIES = {
    "K4": colored(complete_graph(4)),
    "K5": colored(complete_graph(5)),
    "K5-home": colored(complete_graph(5), {0}),
    "K2,3": colored(complete_bipartite_graph(2, 3)),
    "K3,3": colored(complete_bipartite_graph(3, 3)),
    "K3,4-home": colored(complete_bipartite_graph(3, 4), {0}),
    "Q3": colored(hypercube_cayley(3).network),
    "Q3-antipodal": colored(hypercube_cayley(3).network, {0, 7}),
    "Q4-homes": colored(hypercube_cayley(4).network, {0, 3, 5}),
    "Petersen": colored(petersen_graph()),
    "Petersen-adjacent": colored(petersen_graph(), {0, 1}),
    "T3x3": colored(torus_cayley([3, 3]).network),
    "T4x4-home": colored(torus_cayley([4, 4]).network, {0}),
    "T3x4-homes": colored(torus_cayley([3, 4]).network, {0, 5}),
    "Circ8(1,3)": colored(circulant_cayley(8, [1, 3]).network),
    "Circ10(1,2)": colored(circulant_cayley(10, [1, 2]).network),
    "Circ9(1,3)-home": colored(circulant_cayley(9, [1, 3]).network, {0}),
    "C6": colored(cycle_graph(6)),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pruned_search_matches_unpruned_under_relabeling(name):
    g = FAMILIES[name]
    rng = random.Random(name)
    copies = [g]
    for _ in range(2):
        perm = list(range(g.num_nodes))
        rng.shuffle(perm)
        copies.append(g.relabeled(perm))
    keys = set()
    for copy in copies:
        key, order, _ = unpruned_search(copy)
        with uncached():
            assert canonical_key(copy) == key
            assert canonical_node_order(copy) == order
        keys.add(key)
    assert len(keys) == 1


def test_pruned_search_matches_unpruned_on_random_digraphs():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 8)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.35
        ]
        if rng.random() < 0.5:  # symmetric: an undirected graph's arcs
            arcs += [(v, u) for (u, v) in arcs]
        g = Digraph.build(n, arcs, [rng.randrange(2) for _ in range(n)])
        key, order, _ = unpruned_search(g)
        with uncached():
            assert canonical_key(g) == key
            assert canonical_node_order(g) == order


def count_leaves(monkeypatch):
    """Count the leaves a search encodes (one ``_encode_ordering`` each)."""
    calls = [0]

    def counting(g, order):
        calls[0] += 1
        return _encode_ordering(g, order)

    monkeypatch.setattr(canonical_module, "_encode_ordering", counting)
    return calls


@pytest.mark.parametrize(
    "network,homes,bound",
    [
        # 4!·4!·2 = 1152 colored automorphisms: the unpruned search
        # encodes 1152 leaves.
        (complete_bipartite_graph(5, 5), {0, 5}, 16),
        (hypercube_cayley(5).network, {14, 17}, 16),
    ],
    ids=["K5,5{0,5}", "Q5{14,17}"],
)
def test_pruning_bounds_the_leaf_count(monkeypatch, network, homes, bound):
    g = colored(network, homes)
    calls = count_leaves(monkeypatch)
    with uncached():
        canonical_key(g)
    assert 0 < calls[0] <= bound


def test_unpruned_reference_visits_every_automorphic_leaf():
    # The reference really is unpruned: on K3,3 every one of the
    # 3!·3!·2 = 72 automorphisms yields its own leaf.
    *_, leaves = unpruned_search(FAMILIES["K3,3"])
    assert leaves == 72
