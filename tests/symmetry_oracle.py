"""Reference symmetry code: the witness search the library used to run.

The library computes every automorphism question from the generators of
one canonical search (``repro.graphs.canonical``) and a stabilizer chain
over them (``repro.groups.permgroup.GeneratedPermutationGroup``).  This
module keeps
the independent machinery that preceded it, as the oracle the property
tests compare against: a 1-WL ``equitable_refinement``, a witness
backtracking ``find_automorphism_mapping``, the union-find orbit
computation built on it, the whole-group enumeration backtracking, and a
breadth-first group closure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.errors import GraphError, GroupError
from repro.graphs.network import AnonymousNetwork
from repro.graphs.views import _normalize_colors
from repro.groups.symmetric import Permutation, compose, identity_permutation, invert

NodeColoring = Sequence


def equitable_refinement(
    adjacency: Sequence[Set[int]], initial: Sequence[int]
) -> List[int]:
    """Coarsest equitable partition refining ``initial`` (1-WL fixpoint).

    Signature of a node = (its class, sorted multiset of neighbor classes).
    Any automorphism preserving ``initial`` preserves the result, so classes
    of the refinement are unions of automorphism orbits — the pruning
    invariant used by the backtracking search.
    """
    classes = list(initial)
    n = len(adjacency)
    while True:
        sigs = [
            (classes[x], tuple(sorted(classes[y] for y in adjacency[x])))
            for x in range(n)
        ]
        # Ids assigned by *sorted* signature so that isomorphic inputs get
        # structurally identical id vectors (required by the witness search).
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new_classes = [palette[sig] for sig in sigs]
        if new_classes == classes:
            return classes
        classes = new_classes


def find_automorphism_mapping(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring],
    source: int,
    target: int,
) -> Optional[Permutation]:
    """Some color-preserving automorphism with ``φ(source) = target``.

    Returns ``None`` if none exists.  Used by the orbit computation to
    avoid enumerating the full (possibly huge) automorphism group: a single
    witness per node pair suffices.
    """
    if not network.is_simple:
        raise GraphError("automorphism search requires a simple network")
    n = network.num_nodes
    adjacency = network.adjacency_sets()
    colors = _normalize_colors(network, node_colors)
    # Individualize source/target consistently, then refine: classes must
    # align or no such automorphism exists.
    base_s = list(colors)
    base_t = list(colors)
    marker = max(colors) + 1
    base_s[source] = marker
    base_t[target] = marker
    refined_s = equitable_refinement(adjacency, base_s)
    refined_t = equitable_refinement(adjacency, base_t)
    if sorted(refined_s) != sorted(refined_t):
        return None

    order = sorted(range(n), key=lambda x: (refined_s[x], x))
    candidates: Dict[int, List[int]] = {
        x: [y for y in range(n) if refined_t[y] == refined_s[x]] for x in range(n)
    }
    image = [-1] * n
    used = [False] * n
    found: List[Optional[Permutation]] = [None]

    def backtrack(pos: int) -> bool:
        if pos == n:
            found[0] = tuple(image)
            return True
        x = order[pos]
        placed = [order[i] for i in range(pos)]
        placed_neighbors = [w for w in placed if w in adjacency[x]]
        placed_non_neighbors = [w for w in placed if w not in adjacency[x]]
        for y in candidates[x]:
            if used[y]:
                continue
            if any(image[w] not in adjacency[y] for w in placed_neighbors):
                continue
            if any(image[w] in adjacency[y] for w in placed_non_neighbors):
                continue
            image[x] = y
            used[y] = True
            if backtrack(pos + 1):
                return True
            image[x] = -1
            used[y] = False
        return False

    backtrack(0)
    return found[0]


def witness_equivalence_classes(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring],
) -> List[List[int]]:
    """Definition 2.1 classes: one witness automorphism per node pair of a
    refinement cell merges union-find cells."""
    n = network.num_nodes
    adjacency = network.adjacency_sets()
    colors = _normalize_colors(network, node_colors)
    refined = equitable_refinement(adjacency, colors)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cells: Dict[int, List[int]] = {}
    for v in range(n):
        cells.setdefault(refined[v], []).append(v)
    for members in cells.values():
        rep = members[0]
        for v in members[1:]:
            if find(v) == find(rep):
                continue
            witness = find_automorphism_mapping(network, node_colors, rep, v)
            if witness is not None:
                # The witness merges entire orbits at once — exploit it.
                for i in range(n):
                    ri, rj = find(i), find(witness[i])
                    if ri != rj:
                        parent[rj] = ri
    buckets: Dict[int, List[int]] = {}
    for v in range(n):
        buckets.setdefault(find(v), []).append(v)
    return sorted(buckets.values())


def enumerated_automorphisms(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring],
    limit: int,
) -> List[Permutation]:
    """Every color-preserving automorphism by refinement-pruned
    backtracking, sorted; :class:`GraphError` past ``limit``."""
    if not network.is_simple:
        raise GraphError("automorphism search requires a simple network")
    n = network.num_nodes
    adjacency = network.adjacency_sets()
    colors = _normalize_colors(network, node_colors)
    refined = equitable_refinement(adjacency, colors)

    cell_size: Dict[int, int] = {}
    for c in refined:
        cell_size[c] = cell_size.get(c, 0) + 1
    # BFS order from a most-constrained anchor: every later node has a
    # placed neighbor, so candidate images come from that neighbor's
    # image's adjacency instead of a whole refinement cell — the pruning
    # that makes 20+-node vertex-transitive graphs tractable.
    anchor = min(range(n), key=lambda x: (cell_size[refined[x]], x))
    order: List[int] = [anchor]
    seen = {anchor}
    head = 0
    while head < len(order):
        for y in sorted(adjacency[order[head]]):
            if y not in seen:
                seen.add(y)
                order.append(y)
        head += 1
    if len(order) != n:  # disconnected (builders forbid it; be safe)
        order.extend(x for x in range(n) if x not in seen)

    # A placed neighbor with the smallest position, per node (BFS parent).
    position = {x: i for i, x in enumerate(order)}
    parent: Dict[int, Optional[int]] = {anchor: None}
    for x in order[1:]:
        placed = [w for w in adjacency[x] if position[w] < position[x]]
        parent[x] = min(placed, key=lambda w: position[w]) if placed else None

    anchor_candidates = [
        y for y in range(n) if refined[y] == refined[anchor]
    ]

    results: List[Permutation] = []
    image = [-1] * n
    used = [False] * n

    def backtrack(pos: int) -> None:
        if len(results) >= limit:
            raise GraphError(f"more than limit={limit} automorphisms")
        if pos == n:
            results.append(tuple(image))
            return
        x = order[pos]
        par = parent[x]
        if par is None:
            pool = anchor_candidates
        else:
            pool = sorted(adjacency[image[par]])
        placed_neighbors = [w for w in adjacency[x] if image[w] >= 0]
        placed_non_neighbors = [
            order[i] for i in range(pos) if order[i] not in adjacency[x]
        ]
        for y in pool:
            if used[y] or refined[y] != refined[x]:
                continue
            if any(image[w] not in adjacency[y] for w in placed_neighbors):
                continue
            if any(image[w] in adjacency[y] for w in placed_non_neighbors):
                continue
            image[x] = y
            used[y] = True
            backtrack(pos + 1)
            image[x] = -1
            used[y] = False

    backtrack(0)
    return sorted(results)


def bfs_closure(
    degree: int, generators: Sequence[Permutation], max_order: int
) -> List[Permutation]:
    """Breadth-first closure of ``generators`` in S_degree (sorted output)."""
    identity = identity_permutation(degree)
    seen: Set[Permutation] = {identity}
    frontier: List[Permutation] = [identity]
    step = list(generators) + [invert(g) for g in generators]
    while frontier:
        x = frontier.pop()
        for g in step:
            y = compose(g, x)
            if y not in seen:
                if len(seen) >= max_order:
                    raise GroupError(
                        f"group closure exceeded max_order={max_order}"
                    )
                seen.add(y)
                frontier.append(y)
    return sorted(seen)


def is_closed_under_composition(perms: Set[Permutation]) -> bool:
    """Whether a finite set of permutations is closed under composition.

    For finite sets, closure under composition implies the set is a group
    (every element has finite order, so inverses are powers).
    """
    return all(compose(a, b) in perms for a in perms for b in perms)
