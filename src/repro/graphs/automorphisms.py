"""Automorphism groups of bi-colored networks; node equivalence classes.

Two notions from the paper, Section 2:

* **Equivalence** (Definition 2.1): ``x ~ y`` iff some *color-preserving*
  automorphism of the bi-colored graph ``(G, p)`` maps ``x`` to ``y``.
  Equivalence classes are orbits of the color-preserving automorphism group
  — the classes ``C_1, …, C_k`` that protocol ELECT reduces over.  The
  group is generated by the automorphisms the canonical search of the
  colored underlying graph finds (:func:`repro.graphs.canonical.canonical_search`,
  simple graphs); its order, membership and elements come from a
  stabilizer chain over them
  (:class:`repro.groups.permgroup.GeneratedPermutationGroup`).

* **Label-equivalence** (Definition 2.2): ``x ~lab y`` iff some automorphism
  preserving both node colors and *port labels at both edge-ends* maps ``x``
  to ``y``.  A label-preserving automorphism is **fully determined by the
  image of a single node**: once ``φ(x)`` is fixed, following equal port
  labels propagates the map across the (connected) graph.  This yields an
  O(n·m) enumeration that also handles loops and parallel edges, and
  directly verifies Lemma 2.1 (all ``~lab`` classes are equal-sized).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from ..errors import GraphError
from ..groups.permgroup import GeneratedPermutationGroup, orbits_of
from ..groups.symmetric import Permutation
from ..perf import cache as _cache
from .canonical import Digraph, canonical_search, digraph_refinement, underlying_digraph
from .network import AnonymousNetwork
from .views import _colors_key, _normalize_colors

NodeColoring = Sequence[Hashable]


def automorphism_group(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> GeneratedPermutationGroup:
    """The automorphism group of the simple graph preserving ``node_colors``.

    Port labels are ignored (this is Definition 2.1 — automorphisms of the
    underlying bi-colored graph).  Generated by the automorphisms of the
    canonical search of the colored underlying graph, on a stabilizer
    chain whose base starts with that search's first path; the group is
    never enumerated unless :meth:`~GeneratedPermutationGroup.elements` is
    asked for.

    Raises :class:`GraphError` on non-simple networks.  Memoized per
    ``(network, coloring)``.
    """
    return _cache.memo(
        network,
        "automorphism_group",
        _colors_key(node_colors),
        lambda: _automorphism_group(network, node_colors),
    )


def _automorphism_group(
    network: AnonymousNetwork, node_colors: Optional[NodeColoring]
) -> GeneratedPermutationGroup:
    if not network.is_simple:
        raise GraphError("automorphism search requires a simple network")
    search = canonical_search(underlying_digraph(network, node_colors))
    return GeneratedPermutationGroup(
        network.num_nodes, search.generators, max_order=None, base=search.base
    )


def color_preserving_automorphisms(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
    limit: int = 1_000_000,
) -> List[Permutation]:
    """All automorphisms of the simple graph preserving ``node_colors``, sorted.

    Raises :class:`GraphError` on non-simple networks, or if more than
    ``limit`` automorphisms exist (read off the stabilizer chain's order,
    before anything is enumerated).
    """
    group = automorphism_group(network, node_colors)
    if group.order > limit:
        raise GraphError(f"more than limit={limit} automorphisms")
    return list(group.elements())


def equivalence_classes(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> List[List[int]]:
    """Definition 2.1 classes: orbits of the color-preserving automorphisms.

    The orbits of the generators the canonical search of the colored
    underlying graph finds; the search is memoized, so after
    :func:`~repro.core.ordering.compute_class_structure` has keyed the
    same map this is a memo hit.  A non-simple map has classes only when
    its simple underlying graph (loops ignored) is rigid, that is, its
    equitable refinement is discrete: they are singletons.  Otherwise
    :class:`GraphError` is raised.
    """
    if not network.is_simple:
        return _rigid_classes(network, node_colors)
    search = canonical_search(underlying_digraph(network, node_colors))
    return orbits_of(search.generators, network.num_nodes)


def _rigid_classes(
    network: AnonymousNetwork, node_colors: Optional[NodeColoring]
) -> List[List[int]]:
    n = network.num_nodes
    colors = _normalize_colors(network, node_colors)
    simple = Digraph(
        n, tuple(colors), tuple(frozenset(adj) for adj in network.adjacency_sets())
    )
    if len(set(digraph_refinement(simple, colors))) < n:
        raise GraphError("automorphism search requires a simple network")
    return [[v] for v in range(n)]


# ----------------------------------------------------------------------
# Label-preserving automorphisms (Definition 2.2)
# ----------------------------------------------------------------------


def _propagate_label_map(
    network: AnonymousNetwork,
    colors: Sequence[int],
    source: int,
    target: int,
) -> Optional[Permutation]:
    """The unique label-preserving map sending ``source → target``, if any.

    Because port labels are pairwise distinct at each node, fixing one image
    forces all others along labeled walks (connectivity makes the forcing
    total).  Checks node colors, degree, exact port-label sets, and the
    back-labels of every edge; returns ``None`` on any inconsistency.
    """
    n = network.num_nodes
    image = [-1] * n
    pre = [-1] * n
    image[source] = target
    pre[target] = source
    stack = [source]
    while stack:
        x = stack.pop()
        fx = image[x]
        if colors[x] != colors[fx]:
            return None
        px = set(network.ports(x))
        if px != set(network.ports(fx)):
            return None
        for port in px:
            y, back = network.traverse(x, port)
            fy, fback = network.traverse(fx, port)
            if fback != back:
                return None
            if image[y] == -1 and pre[fy] == -1:
                image[y] = fy
                pre[fy] = y
                stack.append(y)
            elif image[y] != fy:
                return None
    if -1 in image:  # disconnected network: map is partial
        return None
    return tuple(image)


def label_preserving_automorphisms(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> List[Permutation]:
    """All automorphisms preserving node colors and port labels.

    Works on multigraphs; at most ``n`` automorphisms exist (one candidate
    per image of node 0), so enumeration is O(n·m).  Memoized per
    ``(network, coloring)`` — ``theorem21_certificate`` needs the orbits
    right after ``classify`` enumerated the same group.
    """
    cached = _cache.memo(
        network,
        "label_automorphisms",
        _colors_key(node_colors),
        lambda: tuple(_label_preserving_automorphisms(network, node_colors)),
    )
    return list(cached)


def _label_preserving_automorphisms(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring],
) -> List[Permutation]:
    colors = _normalize_colors(network, node_colors)
    result: List[Permutation] = []
    for target in network.nodes():
        phi = _propagate_label_map(network, colors, 0, target)
        if phi is not None:
            result.append(phi)
    return sorted(result)


def label_equivalence_classes(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> List[List[int]]:
    """Definition 2.2 classes: orbits of label-preserving automorphisms."""
    autos = label_preserving_automorphisms(network, node_colors)
    return orbits_of(autos, network.num_nodes)


def label_classes_all_same_size(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> Tuple[bool, List[int]]:
    """Check Lemma 2.1 on a concrete labeling; returns (ok, class sizes)."""
    classes = label_equivalence_classes(network, node_colors)
    sizes = sorted(len(c) for c in classes)
    return (len(set(sizes)) == 1, sizes)


def is_vertex_transitive(network: AnonymousNetwork) -> bool:
    """Whether the (uncolored) automorphism group acts transitively.

    Reads the orbits of the canonical search's generators, so the group
    is never enumerated.
    """
    return len(equivalence_classes(network)) == 1


def automorphism_group_order(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> int:
    """Order of the color-preserving automorphism group (from its chain)."""
    return automorphism_group(network, node_colors).order
