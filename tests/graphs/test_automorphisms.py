"""Tests for automorphism groups and the two equivalence notions."""

import pytest

from repro.errors import GraphError
from repro.graphs import (
    color_preserving_automorphisms,
    complete_graph,
    cycle_cayley,
    cycle_graph,
    equivalence_classes,
    figure2c_view_counterexample,
    hypercube_cayley,
    is_vertex_transitive,
    label_equivalence_classes,
    label_preserving_automorphisms,
    path_graph,
    petersen_graph,
    star_graph,
)
from repro.graphs.automorphisms import (
    automorphism_group_order,
    label_classes_all_same_size,
)
from tests.symmetry_oracle import equitable_refinement, find_automorphism_mapping


class TestAutomorphismGroups:
    def test_cycle_group_is_dihedral(self):
        assert automorphism_group_order(cycle_graph(6)) == 12

    def test_path_group_is_z2(self):
        assert automorphism_group_order(path_graph(5)) == 2

    def test_complete_graph_group_is_symmetric(self):
        assert automorphism_group_order(complete_graph(4)) == 24

    def test_petersen_group_order(self):
        assert automorphism_group_order(petersen_graph()) == 120

    def test_hypercube_group_order(self):
        # |Aut(Q_3)| = 2^3 * 3! = 48
        assert automorphism_group_order(hypercube_cayley(3).network) == 48

    def test_star_group(self):
        assert automorphism_group_order(star_graph(4)) == 24

    def test_coloring_restricts_group(self):
        net = cycle_graph(6)
        full = automorphism_group_order(net)
        colored = automorphism_group_order(net, [1, 0, 0, 0, 0, 0])
        assert full == 12 and colored == 2  # only the reflection through 0

    def test_every_result_is_an_automorphism(self):
        net = petersen_graph()
        adj = net.adjacency_sets()
        for phi in color_preserving_automorphisms(net)[:30]:
            for u in net.nodes():
                assert {phi[v] for v in adj[u]} == adj[phi[u]]

    def test_limit_enforced(self):
        with pytest.raises(GraphError):
            color_preserving_automorphisms(complete_graph(5), limit=10)

    def test_multigraph_rejected(self):
        with pytest.raises(GraphError):
            color_preserving_automorphisms(figure2c_view_counterexample())


class TestEquivalenceClasses:
    def test_vertex_transitive_graphs_have_one_class(self):
        for net in (cycle_graph(7), petersen_graph(), complete_graph(5)):
            assert equivalence_classes(net) == [list(net.nodes())]
            assert is_vertex_transitive(net)

    def test_path_classes_pair_up(self):
        classes = equivalence_classes(path_graph(5))
        assert sorted(map(sorted, classes)) == [[0, 4], [1, 3], [2]]

    def test_star_center_is_singleton(self):
        classes = equivalence_classes(star_graph(5))
        assert [0] in classes
        assert sorted(len(c) for c in classes) == [1, 5]

    def test_bicolored_cycle_classes(self):
        net = cycle_graph(6)
        colors = [1, 0, 0, 1, 0, 0]
        classes = equivalence_classes(net, colors)
        assert sorted(map(len, classes)) == [2, 4]

    def test_petersen_paper_classes(self):
        # Figure 5: two adjacent agents give classes of sizes 2, 4, 4.
        net = petersen_graph()
        colors = [1 if v in (0, 1) else 0 for v in net.nodes()]
        classes = equivalence_classes(net, colors)
        assert sorted(map(len, classes)) == [2, 4, 4]
        assert sorted(classes[0]) != [0, 1] or [0, 1] in [sorted(c) for c in classes]

    def test_fast_path_agrees_with_enumeration(self):
        # The generator-orbit computation must agree with orbits of the
        # fully enumerated group.
        from repro.groups import orbits_of

        cases = [
            (cycle_graph(8), [1, 0, 0, 0, 1, 0, 0, 0]),
            (path_graph(6), None),
            (petersen_graph(), [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
            (complete_graph(5), [1, 1, 0, 0, 0]),
        ]
        for net, colors in cases:
            fast = equivalence_classes(net, colors)
            full = orbits_of(
                color_preserving_automorphisms(net, colors), net.num_nodes
            )
            assert fast == full


class TestWitnessSearch:
    def test_witness_found_for_equivalent_nodes(self):
        net = cycle_graph(6)
        phi = find_automorphism_mapping(net, None, 0, 3)
        assert phi is not None
        assert phi[0] == 3

    def test_no_witness_for_inequivalent_nodes(self):
        net = star_graph(4)
        assert find_automorphism_mapping(net, None, 0, 1) is None

    def test_witness_respects_coloring(self):
        net = cycle_graph(6)
        colors = [1, 0, 0, 0, 0, 0]
        assert find_automorphism_mapping(net, colors, 1, 5) is not None
        assert find_automorphism_mapping(net, colors, 1, 2) is None


class TestLabelEquivalence:
    def test_natural_cycle_labeling_label_classes(self):
        net = cycle_cayley(6).network
        assert label_equivalence_classes(net) == [[0, 1, 2, 3, 4, 5]]

    def test_bicolored_natural_cycle(self):
        net = cycle_cayley(6).network
        colors = [1, 0, 0, 1, 0, 0]
        classes = label_equivalence_classes(net, colors)
        assert classes == [[0, 3], [1, 4], [2, 5]]

    def test_integer_labeled_path_has_trivial_label_group(self):
        net = path_graph(5)
        assert label_preserving_automorphisms(net) == [tuple(range(5))]

    def test_lemma_2_1_equal_class_sizes(self):
        import random

        from repro.graphs import relabeled_randomly

        for base in (cycle_graph(6), complete_graph(4), petersen_graph()):
            for seed in range(4):
                net = relabeled_randomly(base, rng=random.Random(seed))
                ok, sizes = label_classes_all_same_size(net)
                assert ok, f"{base.name} seed {seed}: unequal sizes {sizes}"

    def test_label_automorphisms_work_on_multigraphs(self):
        net = figure2c_view_counterexample()
        autos = label_preserving_automorphisms(net)
        assert autos == [(0, 1, 2)]

    def test_at_most_n_label_automorphisms(self):
        net = cycle_cayley(8).network
        assert len(label_preserving_automorphisms(net)) == 8


class TestRefinement:
    def test_refinement_fixpoint_is_equitable(self):
        net = petersen_graph()
        adj = net.adjacency_sets()
        refined = equitable_refinement(adj, [0] * 10)
        assert len(set(refined)) == 1  # vertex-transitive: stays one cell

    def test_refinement_separates_degrees(self):
        net = star_graph(3)
        adj = net.adjacency_sets()
        refined = equitable_refinement(adj, [0] * 4)
        assert refined[0] != refined[1]
        assert refined[1] == refined[2] == refined[3]

    def test_refinement_respects_initial_colors(self):
        net = cycle_graph(4)
        adj = net.adjacency_sets()
        refined = equitable_refinement(adj, [1, 0, 0, 0])
        assert refined[0] != refined[1]
        assert refined[1] == refined[3]  # the two neighbors of node 0
