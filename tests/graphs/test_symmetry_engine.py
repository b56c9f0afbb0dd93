"""The symmetry engine against the witness-search oracle.

Definition 2.1 orbits, the automorphism group's order and elements, and the
free-automorphism certificate are all read off the generators of one
canonical search and a stabilizer chain over them.  The oracle is the
independent machinery that preceded it (``tests/symmetry_oracle.py``):
1-WL refinement with one witness automorphism per node pair, whole-group
enumeration by backtracking, and breadth-first closure.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Feasibility, Placement, classify
from repro.errors import GraphError
from repro.graphs import (
    circulant_cayley,
    color_preserving_automorphisms,
    complete_bipartite_graph,
    cycle_graph,
    cyclic_group_acts_freely,
    equivalence_classes,
    find_free_automorphism,
    grid_graph,
    hypercube_cayley,
    petersen_graph,
    star_graph,
)
from repro.graphs.automorphisms import automorphism_group_order
from repro.graphs.labelings import random_integer_labeling
from repro.groups import GeneratedPermutationGroup
from repro.groups.symmetric import identity_permutation
from tests.symmetry_oracle import (
    bfs_closure,
    enumerated_automorphisms,
    witness_equivalence_classes,
)

#: Groups up to this order are enumerated by the oracle.
ENUMERABLE = 5040

SYMMETRIC = [
    lambda: cycle_graph(6),
    lambda: cycle_graph(9),
    lambda: complete_bipartite_graph(3, 3),
    lambda: complete_bipartite_graph(2, 4),
    lambda: hypercube_cayley(3).network,
    lambda: petersen_graph(),
    lambda: circulant_cayley(8, [1, 3]).network,
    lambda: star_graph(5),
]


@st.composite
def instances(draw):
    """A connected simple network (n <= 10), 0-3 homes, relabeled."""
    if draw(st.booleans()):
        network = draw(st.sampled_from(SYMMETRIC))()
    else:
        n = draw(st.integers(min_value=2, max_value=10))
        rng = random.Random(draw(st.integers(0, 2**30)))
        pairs = [(rng.randrange(v), v) for v in range(1, n)]  # spanning tree
        extra = [
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs
        ]
        rng.shuffle(extra)
        pairs.extend(extra[: draw(st.integers(0, n))])
        network = random_integer_labeling(n, pairs, rng=rng)
    n = network.num_nodes
    homes = draw(st.sets(st.integers(0, n - 1), max_size=3))
    perm = draw(st.permutations(range(n)))
    copy = network.with_nodes_permuted(perm)
    colors = [1 if v in homes else 0 for v in range(n)]
    moved = [0] * n
    for node, color in enumerate(colors):
        moved[perm[node]] = color
    return copy, moved


def is_color_preserving_automorphism(network, colors, phi):
    adjacency = network.adjacency_sets()
    return all(colors[phi[v]] == colors[v] for v in network.nodes()) and all(
        {phi[w] for w in adjacency[v]} == adjacency[phi[v]] for v in network.nodes()
    )


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(instances())
def test_orbits_and_elements_match_the_oracle(instance):
    network, colors = instance
    assert equivalence_classes(network, colors) == witness_equivalence_classes(
        network, colors
    )
    order = automorphism_group_order(network, colors)
    if order <= ENUMERABLE:
        assert color_preserving_automorphisms(network, colors) == (
            enumerated_automorphisms(network, colors, order + 1)
        )
    else:
        with pytest.raises(GraphError):
            enumerated_automorphisms(network, colors, ENUMERABLE + 1)


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(instances())
def test_free_automorphism_search_is_exact(instance):
    network, colors = instance
    if automorphism_group_order(network, colors) > ENUMERABLE:
        return
    identity = identity_permutation(network.num_nodes)
    exists = any(
        phi != identity and cyclic_group_acts_freely(phi)
        for phi in enumerated_automorphisms(network, colors, ENUMERABLE + 1)
    )
    phi = find_free_automorphism(network, colors)
    assert (phi is not None) == exists
    if phi is not None:
        assert phi != identity and cyclic_group_acts_freely(phi)
        assert is_color_preserving_automorphism(network, colors, phi)


@st.composite
def generator_sets(draw):
    """Random generators of a subgroup of S_n, n <= 7, and a base seed."""
    n = draw(st.integers(min_value=1, max_value=7))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    base = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return n, [tuple(g) for g in gens], base


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_chain_order_and_elements_match_the_closure(case):
    n, gens, base = case
    group = GeneratedPermutationGroup(n, gens, max_order=None, base=base)
    closure = bfs_closure(n, gens, math.factorial(n))
    assert group.order == len(closure)
    assert list(group.elements()) == closure
    members = set(closure)
    rng = random.Random(len(closure))
    for _ in range(10):
        candidate = list(range(n))
        rng.shuffle(candidate)
        assert group.contains(tuple(candidate)) == (tuple(candidate) in members)


# ----------------------------------------------------------------------
# Inputs the witness search and whole-group enumeration could not answer
# ----------------------------------------------------------------------


def bicoloring(network, homes):
    return Placement.of(homes).bicoloring(network)


def test_grid_32x32_antipodal_classes():
    # The witness search recursed once per node here (RecursionError).
    net = grid_graph(32, 32)
    classes = equivalence_classes(net, bicoloring(net, [0, 1023]))
    assert len(classes) == 272
    assert sorted({len(c) for c in classes}) == [2, 4]


@pytest.mark.parametrize(
    "network,homes",
    [
        (hypercube_cayley(5).network, [0, 3]),
        (complete_bipartite_graph(5, 5), [0, 5]),
        (complete_bipartite_graph(16, 16), [13, 24]),
    ],
    ids=["Q5{0,3}", "K5,5{0,5}", "K16,16{13,24}"],
)
def test_classify_settles_large_groups(network, homes):
    result = classify(network, Placement.of(homes))
    assert result.verdict is Feasibility.IMPOSSIBLE
    assert "acts freely" in result.reason


def test_group_order_of_k16_16_without_enumeration():
    net = complete_bipartite_graph(16, 16)
    assert automorphism_group_order(net) == 2 * math.factorial(16) ** 2
    with pytest.raises(GraphError, match=r"more than limit=1000000 automorphisms"):
        color_preserving_automorphisms(net)
