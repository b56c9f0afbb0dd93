"""Surroundings (Definition 3.1) and the class ordering of COMPUTE & ORDER.

The *surrounding* of node ``u`` in a bi-colored network ``(G, p)`` is the
digraph ``S(u)`` on the same nodes and coloring with arcs

    ``(x, y)``  iff  ``{x, y} ∈ E`` and ``d(u, x) ≤ d(u, y)``.

Equidistant neighbors get arcs in both directions; ``u`` is the unique node
of in-degree 0.  Lemma 3.1's pivotal facts, both verified by the test suite:

* ``u ~ v``  (Definition 2.1)  ⇔  ``S(u)`` and ``S(v)`` are isomorphic as
  colored digraphs;
* canonical keys of surroundings therefore yield a **total order on the
  equivalence classes** that every agent computes identically from its own
  map — the order protocol ELECT reduces classes in.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from ..errors import GraphError
from ..perf import cache as _cache
from ..perf.kernel import surrounding_arcs_numpy, use_digraph_kernel
from .canonical import CanonicalKey, Digraph, canonical_key, digraph_refinement
from .network import AnonymousNetwork
from .views import _colors_key, _normalize_colors

NodeColoring = Sequence[Hashable]


def surrounding(
    network: AnonymousNetwork,
    u: int,
    node_colors: Optional[NodeColoring] = None,
) -> Digraph:
    """The surrounding ``S(u)`` as a colored :class:`Digraph`.

    Requires a simple network (Definition 3.1 is stated for simple graphs;
    the surrounding of a multigraph would need arc multiplicities).
    Memoized per ``(network, u, coloring)``: :func:`surrounding_profile`
    and :func:`surrounding_key` both start from this digraph, and the
    returned :class:`Digraph` is immutable so sharing is safe.  The arc
    list comes from the flat-array BFS or the per-edge Python loop by the
    digraph size rule (:func:`repro.perf.kernel.use_digraph_kernel`); both
    build the same digraph.
    """
    return _cache.memo(
        network,
        "surrounding",
        (u, _colors_key(node_colors)),
        lambda: _surrounding(network, u, node_colors),
    )


def _surrounding(
    network: AnonymousNetwork,
    u: int,
    node_colors: Optional[NodeColoring],
) -> Digraph:
    if not network.is_simple:
        raise GraphError("surroundings are defined for simple networks")
    colors = _normalize_colors(network, node_colors)
    if use_digraph_kernel(network.num_nodes):
        arcs = surrounding_arcs_numpy(network, u)
    else:
        dist = network.distances_from(u)
        arcs = []
        for (x, _, y, _) in network.edges():
            if dist[x] <= dist[y]:
                arcs.append((x, y))
            if dist[y] <= dist[x]:
                arcs.append((y, x))
    return Digraph.build(network.num_nodes, arcs, colors)


def surrounding_key(
    network: AnonymousNetwork,
    u: int,
    node_colors: Optional[NodeColoring] = None,
) -> CanonicalKey:
    """Canonical key of ``S(u)`` — the per-node sort key of Lemma 3.1.

    Memoized per ``(network, u, coloring)``; the underlying
    :func:`canonical_key` is additionally memoized on the digraph, so even
    a cold per-node entry is cheap when an isomorphic surrounding was
    keyed before.
    """
    return _cache.memo(
        network,
        "surrounding_key",
        (u, _colors_key(node_colors)),
        lambda: canonical_key(surrounding(network, u, node_colors)),
    )


def in_degree_zero_nodes(g: Digraph) -> List[int]:
    """Nodes of in-degree zero (for ``S(u)`` this is exactly ``[u]``)."""
    preds = g.in_edges()
    return [x for x in range(g.num_nodes) if not preds[x]]


def surrounding_profile(
    network: AnonymousNetwork,
    u: int,
    node_colors: Optional[NodeColoring] = None,
) -> Tuple:
    """A cheap isomorphism-invariant of ``S(u)`` (refinement fingerprint).

    Distinct profiles certify non-isomorphic surroundings; equal profiles
    are inconclusive.  Used to avoid the expensive canonical form when the
    fingerprint already separates two classes.  Memoized per
    ``(network, u, coloring)`` alongside :func:`surrounding_key`.
    """
    return _cache.memo(
        network,
        "surrounding_profile",
        (u, _colors_key(node_colors)),
        lambda: _surrounding_profile(network, u, node_colors),
    )


def _surrounding_profile(
    network: AnonymousNetwork,
    u: int,
    node_colors: Optional[NodeColoring],
) -> Tuple:
    g = surrounding(network, u, node_colors)
    palette = _normalize_colors(network, node_colors)
    refined = digraph_refinement(g, palette)
    return (g.num_nodes, tuple(sorted(refined)))


def order_equivalence_classes(
    network: AnonymousNetwork,
    classes: Sequence[Sequence[int]],
    node_colors: Optional[NodeColoring] = None,
) -> List[List[int]]:
    """Sort equivalence classes by the canonical key of their surroundings.

    ``classes`` must be the Definition 2.1 equivalence classes of
    ``(network, node_colors)``.  All members of a class have isomorphic
    surroundings (Lemma 3.1), hence identical keys; a representative's key
    orders the class.  A duplicate key across two *distinct* classes would
    contradict Lemma 3.1 and raises :class:`GraphError`.

    Two-tier comparison for speed: classes are first separated by the cheap
    refinement fingerprint of their surroundings; the expensive canonical
    form is computed only among fingerprint ties.  The resulting order is
    deterministic and isomorphism-invariant either way.

    Returns a new list of classes (each sorted internally) in ``≺`` order.
    """
    reps: List[Tuple[Tuple, List[int]]] = []
    for cls in classes:
        members = sorted(cls)
        if not members:
            raise GraphError("empty equivalence class")
        profile = surrounding_profile(network, members[0], node_colors)
        reps.append((profile, members))

    profile_counts: dict = {}
    for profile, _ in reps:
        profile_counts[profile] = profile_counts.get(profile, 0) + 1

    keyed: List[Tuple[Tuple, CanonicalKey, List[int]]] = []
    empty_key: CanonicalKey = (0, (), b"")
    for profile, members in reps:
        if profile_counts[profile] > 1:
            key = surrounding_key(network, members[0], node_colors)
        else:
            key = empty_key  # never compared against an equal profile
        keyed.append((profile, key, members))
    keyed.sort(key=lambda item: (item[0], item[1]))
    for (p1, k1, c1), (p2, k2, c2) in zip(keyed, keyed[1:]):
        if p1 == p2 and k1 == k2:
            raise GraphError(
                f"two distinct classes {c1} and {c2} share a surrounding key; "
                "input classes are not the Definition 2.1 classes"
            )
    return [members for (_, _, members) in keyed]


def class_signature(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> List[CanonicalKey]:
    """Per-node surrounding keys (diagnostic: nodes sharing a key *may* be
    equivalent; nodes with distinct keys are certainly not)."""
    return [
        surrounding_key(network, u, node_colors) for u in network.nodes()
    ]
