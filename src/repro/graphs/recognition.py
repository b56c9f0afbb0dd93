"""Cayley-graph recognition and translation-equivalence classes (Theorem 4.1).

By Sabidussi's theorem a connected graph ``G`` is a Cayley graph iff
``Aut(G)`` contains a **regular** subgroup ``R`` (transitive, trivial point
stabilizers); the elements of ``R`` then play the role of the translations
``φ_γ : a ↦ γ·a``.  The paper's effectual protocol has each agent, after
MAP-DRAWING, (1) decide whether its map is Cayley ("time-consuming, but
decidable"), and (2) if so run ELECT with *translation*-equivalence classes.

Agreement across agents: the paper argues agents "select isomorphic groups"
and hence agree on the classes.  We make this concrete by always selecting
the :func:`~repro.groups.permgroup.canonical_regular_subgroup` — the
lexicographically least regular subgroup — which is a function of the graph
alone, so all agents (whose maps are isomorphic copies of the same graph)
compute the same node partition.

Translation-equivalence (Section 4): ``x ~ y`` iff some translation that
*preserves the bi-coloring* maps ``x`` to ``y``; the classes are the orbits
of the color-preserving subgroup of ``R``.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from ..errors import RecognitionError
from ..groups.permgroup import canonical_regular_subgroup, orbits_of
from ..groups.symmetric import Permutation
from .automorphisms import color_preserving_automorphisms
from .cayley import CayleyGraph
from .network import AnonymousNetwork
from .views import _normalize_colors

NodeColoring = Sequence[Hashable]


def find_translations(network: AnonymousNetwork) -> Optional[List[Permutation]]:
    """The canonical regular subgroup of ``Aut(G)``, or None if not Cayley.

    This is the generic (agent-runnable) path: it enumerates the full
    automorphism group of the *uncolored* graph and searches it for regular
    subgroups.  Exponential in the worst case, exactly as the paper warns;
    fine at laptop scale.
    """
    autos = color_preserving_automorphisms(network)
    return canonical_regular_subgroup(autos, network.num_nodes)


def is_cayley_graph(network: AnonymousNetwork) -> bool:
    """Whether the network is a Cayley graph (Sabidussi criterion)."""
    return find_translations(network) is not None


def color_preserving_translations(
    translations: Sequence[Permutation],
    node_colors: NodeColoring,
) -> List[Permutation]:
    """The subgroup of translations preserving a node coloring.

    Closure under composition is automatic: color-preserving permutations
    form a subgroup of any group they are drawn from.
    """
    colors = list(node_colors)
    return [
        phi
        for phi in translations
        if all(colors[phi[i]] == colors[i] for i in range(len(phi)))
    ]


def translation_equivalence_classes(
    network: AnonymousNetwork,
    node_colors: NodeColoring,
    translations: Optional[Sequence[Permutation]] = None,
) -> List[List[int]]:
    """Translation-equivalence classes of a bi-colored Cayley graph.

    Parameters
    ----------
    translations:
        The regular subgroup to use.  When omitted it is recomputed via
        :func:`find_translations`; pass
        :meth:`repro.graphs.cayley.CayleyGraph.translations` for the fast
        path when the algebraic structure is known.

    Raises
    ------
    RecognitionError
        If the network is not a Cayley graph (no regular subgroup).
    """
    colors = _normalize_colors(network, node_colors)
    if translations is None:
        translations = find_translations(network)
        if translations is None:
            raise RecognitionError(
                f"{network!r} is not a Cayley graph: no regular subgroup of Aut(G)"
            )
    preserving = color_preserving_translations(translations, colors)
    return orbits_of(preserving, network.num_nodes)


class SabidussiRepresentation:
    """A vertex-transitive graph as a quotient of a Cayley graph.

    Paper, Section 4 closing remark (Sabidussi's characterization):
    ``G ≅ Cay(Γ, S)/H`` with ``Γ = Aut(G)``, ``H = stab(u₀)`` and
    ``S = {φ ∈ Γ : d(φ(u₀), u₀) = 1}``.  Nodes of the quotient are the
    left cosets ``φH`` — equivalently the images ``φ(u₀)``, which is how
    this class indexes them — and ``{φH, φ'H}`` is an edge iff
    ``φ⁻¹φ' ∈ H·S·H``.

    :meth:`coset_adjacency` derives the quotient's edges *from the
    algebra alone*; the tests verify they coincide with the original
    graph's adjacency (the content of the characterization), including on
    the Petersen graph — the paper's example of a vertex-transitive
    non-Cayley graph, where the quotient is proper (|H| > 1).
    """

    def __init__(self, network: AnonymousNetwork, base_point: int = 0):
        from ..errors import RecognitionError

        self.network = network
        self.base_point = base_point
        self.automorphisms = color_preserving_automorphisms(network)
        n = network.num_nodes
        images = {phi[base_point] for phi in self.automorphisms}
        if images != set(range(n)):
            raise RecognitionError(
                "Sabidussi representation requires a vertex-transitive graph"
            )
        self.stabilizer = [
            phi for phi in self.automorphisms if phi[base_point] == base_point
        ]
        dist = network.distances_from(base_point)
        self.connection_set = [
            phi for phi in self.automorphisms if dist[phi[base_point]] == 1
        ]
        # Coset representatives, indexed by the image of the base point.
        self.representatives = {}
        for phi in self.automorphisms:
            self.representatives.setdefault(phi[base_point], phi)

    @property
    def group_order(self) -> int:
        return len(self.automorphisms)

    @property
    def stabilizer_order(self) -> int:
        return len(self.stabilizer)

    @property
    def is_proper_quotient(self) -> bool:
        """Whether |H| > 1 (G is vertex-transitive but the representation
        genuinely quotients — e.g. Petersen; false iff G is itself Cayley
        *via this group*, i.e. Γ acts regularly)."""
        return self.stabilizer_order > 1

    def coset_adjacency(self) -> List[List[int]]:
        """Adjacency of the coset graph, computed from H, S alone."""
        from ..groups.symmetric import compose, invert

        hsh = set()
        for h1 in self.stabilizer:
            for s in self.connection_set:
                h1s = compose(h1, s)
                for h2 in self.stabilizer:
                    hsh.add(compose(h1s, h2))
        n = self.network.num_nodes
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for v in range(n):
            rep_v = self.representatives[v]
            inv_v = invert(rep_v)
            for w in range(v + 1, n):
                if compose(inv_v, self.representatives[w]) in hsh:
                    adjacency[v].append(w)
                    adjacency[w].append(v)
        return adjacency


def sabidussi_representation(
    network: AnonymousNetwork, base_point: int = 0
) -> SabidussiRepresentation:
    """Build the Cayley-quotient representation of a vertex-transitive graph."""
    return SabidussiRepresentation(network, base_point)


def translation_classes_of_cayley(
    cayley: CayleyGraph,
    node_colors: NodeColoring,
) -> List[List[int]]:
    """Fast path: translation classes using the known group structure.

    Note this uses the *construction's* translations rather than the
    canonical regular subgroup an agent would select; on graphs with several
    regular subgroups the partitions can differ, but the gcd feasibility
    threshold of Theorem 4.1 is the same (the tests compare both paths).
    """
    return translation_equivalence_classes(
        cayley.network, node_colors, translations=cayley.translations()
    )
