"""Tests for the feasibility theory (Theorems 2.1, 3.1, 4.1 criteria)."""

import pytest

from repro.core import (
    Feasibility,
    Placement,
    cayley_election_possible,
    classify,
    elect_prediction,
    gcd_of_sizes,
    natural_labeling_certificate,
    theorem21_certificate,
    translation_certificates,
)
from repro.errors import RecognitionError
from repro.graphs import (
    AnonymousNetwork,
    complete_graph,
    cycle_cayley,
    cycle_graph,
    hypercube_cayley,
    path_graph,
    petersen_graph,
)
from repro.colors import ColorSpace


class TestElectPrediction:
    def test_feasible_case(self):
        pred = elect_prediction(cycle_graph(5), Placement.of([0, 1]))
        assert pred.succeeds and pred.gcd == 1

    def test_infeasible_case(self):
        pred = elect_prediction(cycle_graph(6), Placement.of([0, 3]))
        assert not pred.succeeds and pred.gcd == 2

    def test_single_agent_always_feasible(self):
        for net in (cycle_graph(7), petersen_graph(), complete_graph(4)):
            assert elect_prediction(net, Placement.of([0])).succeeds


class TestTranslationCertificates:
    def test_c6_antipodal_impossible(self):
        net = cycle_cayley(6).network
        certs = translation_certificates(net, Placement.of([0, 3]))
        assert any(c.proves_impossible for c in certs)
        assert not cayley_election_possible(net, Placement.of([0, 3]))

    def test_c6_adjacent_pair_impossible_via_s3_subgroup(self):
        # Two *adjacent* agents on an even cycle cannot elect: labeling the
        # edges alternately a,b,a,b,… makes the mirror through their shared
        # edge label-preserving.  Algebraically: C_6 is also Cay(S_3,
        # {two involutions}), and that regular subgroup contains the
        # black-preserving mirror, so its certificate has d = 2.
        net = cycle_cayley(6).network
        certs = translation_certificates(net, Placement.of([0, 1]))
        assert sorted(c.stabilizer_size for c in certs) == [1, 2]
        assert not cayley_election_possible(net, Placement.of([0, 1]))

    def test_c6_three_consecutive_agents_possible(self):
        net = cycle_cayley(6).network
        assert cayley_election_possible(net, Placement.of([0, 1, 2]))

    def test_c4_adjacent_agents_klein_certificate(self):
        # The reproduction finding: Z4 gives d=1 but the Klein regular
        # subgroup gives d=2, so the instance is impossible.
        net = cycle_cayley(4).network
        certs = translation_certificates(net, Placement.of([0, 1]))
        ds = sorted(c.stabilizer_size for c in certs)
        assert ds == [1, 2]
        assert not cayley_election_possible(net, Placement.of([0, 1]))

    def test_translation_classes_all_same_size(self):
        net = cycle_cayley(8).network
        for cert in translation_certificates(net, Placement.of([0, 4])):
            sizes = {len(c) for c in cert.classes}
            assert sizes == {cert.stabilizer_size}

    def test_non_cayley_raises(self):
        with pytest.raises(RecognitionError):
            translation_certificates(petersen_graph(), Placement.of([0, 1]))

    def test_hypercube_two_agents_always_impossible(self):
        net = hypercube_cayley(3).network
        for other in (1, 3, 7):
            assert not cayley_election_possible(net, Placement.of([0, other]))

    def test_hypercube_three_agents_sometimes_possible(self):
        net = hypercube_cayley(3).network
        feasible = [
            homes
            for homes in [(0, 1, 2), (0, 1, 3), (0, 3, 5), (0, 1, 7)]
            if cayley_election_possible(net, Placement.of(homes))
        ]
        assert feasible  # at least one 3-agent placement is solvable


class TestClassification:
    def test_possible_via_elect(self):
        c = classify(cycle_graph(5), Placement.of([0, 1]))
        assert c.verdict is Feasibility.POSSIBLE

    def test_impossible_via_cayley(self):
        c = classify(cycle_graph(6), Placement.of([0, 3]))
        assert c.verdict is Feasibility.IMPOSSIBLE
        assert "automorphism acts freely" in c.reason

    def test_unknown_on_petersen(self):
        c = classify(petersen_graph(), Placement.of([0, 1]))
        assert c.verdict is Feasibility.UNKNOWN

    def test_possible_on_asymmetric_path(self):
        c = classify(path_graph(6), Placement.of([0, 1]))
        assert c.verdict is Feasibility.POSSIBLE


class TestTheorem21:
    def test_symmetric_k2_certificate(self):
        space = ColorSpace()
        sym = space.fresh()
        net = AnonymousNetwork(2, [(0, sym, 1, sym)])
        cert = theorem21_certificate(net, Placement.of([0, 1]))
        assert cert.proves_impossible
        assert cert.label_class_size == 2
        assert cert.symmetricity >= 2

    def test_asymmetric_k2_not_certified(self):
        net = AnonymousNetwork(2, [(0, 1, 1, 2)])
        cert = theorem21_certificate(net, Placement.of([0, 1]))
        assert not cert.proves_impossible

    def test_equation_1_symmetricity_at_least_label_class_size(self):
        # Equation (1): x ~lab y => x ~view y, so σ_ℓ >= label class size.
        for cg, homes in [
            (cycle_cayley(6), [0, 3]),
            (cycle_cayley(8), [0, 4]),
            (hypercube_cayley(3), [0, 7]),
        ]:
            cert = theorem21_certificate(cg.network, Placement.of(homes))
            assert cert.symmetricity >= cert.label_class_size

    def test_natural_labeling_certificate_matches_stabilizer(self):
        # Theorem 4.1's construction: the natural labeling's label classes
        # have exactly the stabilizer size of the defining group.
        for cg, homes in [
            (cycle_cayley(6), [0, 3]),
            (cycle_cayley(6), [0, 2]),
            (cycle_cayley(8), [0, 4]),
            (hypercube_cayley(3), [0, 7]),
        ]:
            placement = Placement.of(homes)
            cert = natural_labeling_certificate(cg, placement)
            blacks = set(homes)
            group = cg.group
            stab = sum(
                1
                for gamma in group.elements()
                if {group.operate(gamma, cg.element_of(b)) for b in blacks}
                == {cg.element_of(b) for b in blacks}
            )
            assert cert.label_class_size == stab


class TestHelpers:
    def test_gcd_of_sizes(self):
        assert gcd_of_sizes([6, 10, 15]) == 1
        assert gcd_of_sizes([4, 6]) == 2
        assert gcd_of_sizes([7]) == 7
        with pytest.raises(ValueError):
            gcd_of_sizes([])
