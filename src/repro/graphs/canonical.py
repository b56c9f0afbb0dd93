"""Canonical forms and a total order for bi-colored digraphs (Lemma 3.1).

Lemma 3.1 needs a deterministic total order ``≺`` on (isomorphism classes
of) bi-colored digraphs: the paper sketches a brute-force minimum over all
``n!`` adjacency-matrix permutations.  We implement the equivalent but
practical *individualization–refinement* canonical form:

1. compute the coarsest **equitable partition** of the digraph refining the
   node coloring (signatures use both out- and in-neighbor class multisets);
2. while some cell is non-singleton, individualize each member of the first
   such cell in turn and recurse;
3. every leaf yields a discrete ordering and hence a matrix encoding; the
   canonical encoding is the minimum over leaves;
4. two leaves with equal encodings reveal an automorphism, and a child that
   the automorphisms fixing the current prefix map onto an explored sibling
   is skipped — the minimum, and the first ordering reaching it, stay put.

The automorphisms the search finds generate the whole color-preserving
group, and its first path is a base of that group: this search is the
repository's only automorphism code (Definition 2.1 orbits, the stabilizer
chain of :mod:`repro.groups.permgroup` and everything built on it).

The encoding is invariant under digraph isomorphism and distinguishes
non-isomorphic digraphs, so the lexicographic order on encodings induces the
required total order ``≺``.  Keys returned by :func:`canonical_key` sort
first by node count (as the paper's order does), then by encoding.

Nothing here is agent-visible magic: protocol ELECT's agents each run this
deterministic procedure on their own locally-drawn map, and because the maps
are isomorphic the computed *class order* is identical for all agents.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..errors import GraphError
from ..groups.permgroup import orbits_of
from ..perf import cache as _cache
from ..perf.kernel import DigraphKernel, use_digraph_kernel

if False:  # pragma: no cover - typing only
    from .network import AnonymousNetwork

CanonicalKey = Tuple[int, Tuple[int, ...], bytes]
Encoding = Tuple[Tuple[int, ...], bytes]

#: Version tag mixed into :func:`canonical_hash`.  Bump whenever the
#: canonical encoding changes shape: persisted stores keyed by the hash
#: (``repro.serve.store``) must never serve values computed under a
#: different encoding.
CANONICAL_HASH_VERSION = 1


@dataclass(frozen=True)
class Digraph:
    """A small directed graph with hashable node colors.

    ``out_edges[i]`` is the set of successors of node ``i``.  Parallel arcs
    are not modeled (Definition 3.1 surroundings never produce them); a
    2-cycle ``x → y → x`` represents the "equidistant" double arc.
    """

    num_nodes: int
    colors: Tuple[Hashable, ...]
    out_edges: Tuple[FrozenSet[int], ...]

    def __post_init__(self) -> None:
        if len(self.colors) != self.num_nodes:
            raise GraphError("color count must equal node count")
        if len(self.out_edges) != self.num_nodes:
            raise GraphError("out_edges count must equal node count")
        for i, succ in enumerate(self.out_edges):
            for j in succ:
                if not 0 <= j < self.num_nodes:
                    raise GraphError(f"arc {i}->{j} out of range")

    @staticmethod
    def build(
        num_nodes: int,
        arcs: Sequence[Tuple[int, int]],
        colors: Optional[Sequence[Hashable]] = None,
    ) -> "Digraph":
        """Construct from an arc list (duplicates collapse)."""
        out: List[Set[int]] = [set() for _ in range(num_nodes)]
        for u, v in arcs:
            out[u].add(v)
        palette = tuple(colors) if colors is not None else tuple([0] * num_nodes)
        return Digraph(num_nodes, palette, tuple(frozenset(s) for s in out))

    def in_edges(self) -> Tuple[FrozenSet[int], ...]:
        """Predecessor sets (computed on demand)."""
        preds: List[Set[int]] = [set() for _ in range(self.num_nodes)]
        for u, succ in enumerate(self.out_edges):
            for v in succ:
                preds[v].add(u)
        return tuple(frozenset(s) for s in preds)

    def relabeled(self, perm: Sequence[int]) -> "Digraph":
        """Digraph with node ``i`` renamed ``perm[i]``."""
        if sorted(perm) != list(range(self.num_nodes)):
            raise GraphError("relabeling must be a bijection")
        colors: List[Hashable] = [None] * self.num_nodes
        out: List[Set[int]] = [set() for _ in range(self.num_nodes)]
        for i in range(self.num_nodes):
            colors[perm[i]] = self.colors[i]
            out[perm[i]] = {perm[j] for j in self.out_edges[i]}
        return Digraph(
            self.num_nodes, tuple(colors), tuple(frozenset(s) for s in out)
        )


def _normalize_palette(colors: Sequence[Hashable]) -> List[int]:
    """Map node colors to dense ints in an isomorphism-invariant way.

    Integer colors (the bi-colored 0/1 palette of the paper) are used as-is.
    Other hashable palettes are ranked by ``repr`` string, which is
    deterministic across processes for value-like colors; callers that need
    full rigor should pre-normalize to ints.
    """
    if all(isinstance(c, int) for c in colors):
        return [int(c) for c in colors]
    palette = set(colors)
    by_repr: Dict[str, Hashable] = {}
    for c in palette:
        other = by_repr.setdefault(repr(c), c)
        if other is not c:
            raise GraphError(
                f"ambiguous digraph color palette: distinct colors {other!r} "
                f"and {c!r} share a repr; pre-normalize the palette to ints"
            )
    ranked = {c: i for i, c in enumerate(sorted(palette, key=repr))}
    return [ranked[c] for c in colors]


def digraph_refinement(g: Digraph, initial: Sequence[int]) -> List[int]:
    """Coarsest equitable partition of a digraph refining ``initial``.

    Node signature = (class, sorted out-neighbor classes, sorted in-neighbor
    classes).  New class ids are assigned by sorted signature so the result
    is isomorphism-invariant: isomorphic digraphs (with matching initial
    colorings) receive identical class-id structures.

    The backend follows the size rule
    (:func:`repro.perf.kernel.use_digraph_kernel`): the Python reference
    below the crossover, :class:`~repro.perf.kernel.DigraphKernel` from it
    on.  The two number classes identically, so canonical encodings — and
    the pinned ``canonical_hash`` goldens — do not depend on the backend.
    """
    if use_digraph_kernel(g.num_nodes):
        return DigraphKernel(g).refine(initial)
    return _digraph_refinement_python(g, initial)


def _digraph_refinement_python(g: Digraph, initial: Sequence[int]) -> List[int]:
    """The per-node tuple/sort reference implementation (parity oracle)."""
    return _refine_python(g, g.in_edges(), initial)


def _refine_python(
    g: Digraph, preds: Sequence[FrozenSet[int]], initial: Sequence[int]
) -> List[int]:
    """:func:`_digraph_refinement_python` on precomputed predecessor sets."""
    classes = list(initial)
    while True:
        sigs = []
        for x in range(g.num_nodes):
            sigs.append(
                (
                    classes[x],
                    tuple(sorted(classes[y] for y in g.out_edges[x])),
                    tuple(sorted(classes[y] for y in preds[x])),
                )
            )
        ordered = sorted(set(sigs))
        palette = {sig: i for i, sig in enumerate(ordered)}
        new_classes = [palette[sig] for sig in sigs]
        if new_classes == classes:
            return classes
        classes = new_classes


def _encode_ordering(g: Digraph, order: Sequence[int]) -> Encoding:
    """Encoding of g under a node ordering: (colors row, adjacency bitstring).

    ``order[i]`` = node placed at position i.  The adjacency component packs
    the row-major boolean matrix into bytes (the paper's w(M) word).
    """
    n = g.num_nodes
    palette = _normalize_palette(g.colors)
    colors_row = tuple(palette[order[i]] for i in range(n))
    bits = bytearray((n * n + 7) // 8)
    position = {node: i for i, node in enumerate(order)}
    for u in range(n):
        pu = position[u]
        base = pu * n
        for v in g.out_edges[u]:
            idx = base + position[v]
            bits[idx >> 3] |= 1 << (idx & 7)
    return colors_row, bytes(bits)


def _make_refiner(g: Digraph):
    """One refinement callable for a whole individualization–refinement
    search, by the same size rule as :func:`digraph_refinement`: either
    backend builds what it needs of the digraph once (numpy its flat
    buffers, Python the predecessor sets) and reuses it across the
    hundreds of re-refinements the recursion makes.
    """
    if use_digraph_kernel(g.num_nodes):
        return DigraphKernel(g).refine
    preds = g.in_edges()
    return lambda classes: _refine_python(g, preds, classes)


class SearchResult(NamedTuple):
    """What one canonical search of a digraph finds."""

    #: Total-order key: (node count, canonical colors row, canonical matrix).
    key: CanonicalKey
    #: The first minimal leaf ordering: ``order[i]`` is the node at
    #: canonical position ``i``.
    order: Tuple[int, ...]
    #: Automorphisms found on the way; they generate the whole
    #: color-preserving automorphism group.
    generators: Tuple[Tuple[int, ...], ...]
    #: The first leaf's path: individualizing these nodes makes the
    #: partition discrete, so they form a base of that group.
    base: Tuple[int, ...]


def _search(
    g: Digraph,
    refine: Callable[[List[int]], List[int]],
    root: Optional[Sequence[int]] = None,
) -> SearchResult:
    """One individualization–refinement search, pruned by automorphisms.

    ``refine`` is the equitable refinement of ``g`` (from
    :func:`_make_refiner`; either backend gives the same result).  The
    search starts from ``refine(palette)``; a caller that already holds
    that partition passes it as ``root`` (the same class ids, not just the
    same cells: the search picks cells and orders leaves by them).

    Returns the canonical key and the *first* leaf ordering (in search
    order) whose encoding is minimal.  Two leaves with equal encodings
    reveal an automorphism ``γ`` (``γ(order₁[i]) = order₂[i]``).  A child
    that the automorphisms fixing the current prefix pointwise map onto
    an explored sibling roots a subtree that is the image of that
    sibling's subtree: the same encodings, all later in search order.  So
    such children are skipped, and a subtree whose root is shown to be
    one after the fact is abandoned.  Neither the minimum encoding nor the
    first ordering reaching it can change, since every skipped leaf has
    an equal-encoding twin earlier in the unpruned search order.

    The automorphisms found generate the whole color-preserving group
    (McKay, *Practical Graph Isomorphism*, 1981).  Every element ``α``
    sends the first leaf to a leaf with the first leaf's encoding.  If
    that leaf was visited it yields ``α`` itself; if it was skipped, it
    is the image under found automorphisms ``β`` of a visited leaf, which
    yields ``β⁻¹α``.  The first leaf's path is a base of the group: an
    automorphism fixing it pointwise fixes the discrete partition it
    refines to, hence every node.
    """
    n = g.num_nodes
    generators: List[Tuple[int, ...]] = []
    base: Tuple[int, ...] = ()
    path: List[int] = []  # individualized nodes, root first
    explored: List[List[int]] = []  # per depth: children finished so far
    orbits: List[Tuple[int, List[int]]] = []  # per depth: (#generators, orbit ids)
    first: Optional[Tuple[Encoding, Tuple[int, ...]]] = None
    best: Optional[Tuple[Encoding, Tuple[int, ...]]] = None
    unwind_to: Optional[int] = None  # depth whose current child is redundant

    def redundant(depth: int, node: int) -> bool:
        """Whether automorphisms fixing ``path[:depth]`` map ``node`` onto
        a finished child of the depth-``depth`` node."""
        done = explored[depth]
        if not done or not generators:
            return False
        if orbits[depth][0] != len(generators):
            prefix = path[:depth]
            fixers = [gm for gm in generators if all(gm[v] == v for v in prefix)]
            label = [0] * n
            for i, orbit in enumerate(orbits_of(fixers, n)):
                for v in orbit:
                    label[v] = i
            orbits[depth] = (len(generators), label)
        label = orbits[depth][1]
        return any(label[node] == label[e] for e in done)

    def found(gamma: Tuple[int, ...]) -> Optional[int]:
        """Record an automorphism; the shallowest depth it prunes, if any."""
        generators.append(gamma)
        for depth in range(len(path)):
            if depth and gamma[path[depth - 1]] != path[depth - 1]:
                break  # deeper prefixes are not fixed by gamma either
            if redundant(depth, path[depth]):
                return depth
        return None

    def leaf(order: Tuple[int, ...]) -> None:
        nonlocal first, best, unwind_to, base
        enc = _encode_ordering(g, order)
        if best is None:
            first = best = (enc, order)
            base = tuple(path)
            return
        for ref_enc, ref_order in (first, best):
            if enc == ref_enc:
                if order != ref_order:
                    gamma = [0] * n
                    for a, b in zip(ref_order, order):
                        gamma[a] = b
                    unwind_to = found(tuple(gamma))
                break
        if enc < best[0]:
            best = (enc, order)

    def recurse(classes: List[int]) -> None:
        """Search below the equitable partition ``classes``."""
        nonlocal unwind_to
        cells: Dict[int, List[int]] = {}
        for node, cid in enumerate(classes):
            cells.setdefault(cid, []).append(node)
        target_cell = None
        for cid in sorted(cells):
            if len(cells[cid]) > 1:
                target_cell = cells[cid]
                break
        if target_cell is None:
            # Discrete: class ids are a permutation of 0..n-1; order by id.
            leaf(tuple(sorted(range(n), key=lambda x: classes[x])))
            return
        depth = len(path)
        explored.append([])
        orbits.append((0, []))
        for node in target_cell:
            if redundant(depth, node):
                continue
            child = list(classes)
            child[node] = n  # a fresh class id, strictly above existing ones
            path.append(node)
            recurse(refine(child))
            path.pop()
            if unwind_to is not None:
                if unwind_to < depth:
                    break
                unwind_to = None
            explored[depth].append(node)
        explored.pop()
        orbits.pop()

    recurse(refine(_normalize_palette(g.colors)) if root is None else list(root))
    assert best is not None
    return SearchResult((n, *best[0]), best[1], tuple(generators), base)


def canonical_search(
    g: Digraph, root: Optional[Sequence[int]] = None
) -> SearchResult:
    """Canonical key, canonical node order and automorphism group
    generators of ``g``, from one search.

    Memoized on the (hashable, immutable) digraph under the
    ``canonical_key`` kind: the individualization–refinement search is by
    far the most expensive step of the Lemma 3.1 ordering, and the
    batteries ask for the same surrounding digraphs repeatedly — as do
    the equivalence classes and the automorphism group of a map whose
    class structure was just computed.  ``root``, if given, must be
    ``digraph_refinement(g, palette)`` of ``g``'s own int palette: the
    search then starts from it instead of refining the palette again, and
    returns what it would have returned without it.
    """
    return _cache.memo_value(
        "canonical_key", g, lambda: _search(g, _make_refiner(g), root)
    )


def canonical_encoding(g: Digraph) -> Encoding:
    """Minimum encoding over all refinement-consistent orderings.

    Implements individualization–refinement; leaves are discrete partitions,
    each giving a candidate encoding, and the minimum is canonical.
    """
    _, colors_row, bits = canonical_search(g).key
    return colors_row, bits


def canonical_key(g: Digraph) -> CanonicalKey:
    """Total-order key: (node count, canonical colors row, canonical matrix).

    ``canonical_key(g1) == canonical_key(g2)`` iff the colored digraphs are
    isomorphic; keys of non-isomorphic digraphs compare consistently in
    every process, giving the ``≺`` of Lemma 3.1.
    """
    return canonical_search(g).key


def canonical_node_order(g: Digraph) -> List[int]:
    """A canonical ordering of the nodes (the argmin ordering).

    Ties across automorphic nodes are broken arbitrarily but consistently:
    any two runs on isomorphic inputs produce orderings related by an
    isomorphism, and ``order[i]`` is the node at position ``i`` of the
    canonical encoding.  Used to pick canonical representatives
    deterministically and to carry per-class results between numberings.
    """
    return list(canonical_search(g).order)


def digraphs_isomorphic(a: Digraph, b: Digraph) -> bool:
    """Colored-digraph isomorphism via canonical keys."""
    if a.num_nodes != b.num_nodes:
        return False
    return canonical_key(a) == canonical_key(b)


# ----------------------------------------------------------------------
# Content-addressed network hashing (the persistent-cache key)
# ----------------------------------------------------------------------


def underlying_digraph(network: "AnonymousNetwork", node_colors: Optional[Sequence[Hashable]] = None) -> Digraph:
    """The node-colored underlying graph of a network, as a :class:`Digraph`.

    Every undirected edge becomes a 2-cycle of arcs; port labels are
    dropped.  This is exactly the object Definition 2.1 quantifies over:
    equivalence classes, surroundings, free-automorphism certificates and
    the Theorem 4.1 regular-subgroup criterion are all functions of it, so
    its isomorphism class determines every feasibility-layer answer.

    Simple networks only (as everywhere in the canonical machinery).
    """
    if not network.is_simple:
        raise GraphError("underlying_digraph requires a simple network")
    colors: Sequence[Hashable]
    if node_colors is None:
        colors = tuple([0] * network.num_nodes)
    else:
        if len(node_colors) != network.num_nodes:
            raise GraphError(
                f"node coloring has {len(node_colors)} entries for "
                f"{network.num_nodes} nodes"
            )
        colors = tuple(node_colors)
    arcs: List[Tuple[int, int]] = []
    for (u, _, v, _) in network.edges():
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph.build(network.num_nodes, arcs, colors)


def _form_bytes(key: CanonicalKey) -> bytes:
    n, colors_row, bits = key
    head = f"repro-canonical-v{CANONICAL_HASH_VERSION}|{n}|".encode("ascii")
    palette = ",".join(map(str, colors_row)).encode("ascii")
    return head + str(len(palette)).encode("ascii") + b"|" + palette + b"|" + bits


def canonical_labeling(
    network: "AnonymousNetwork", node_colors: Optional[Sequence[Hashable]] = None
) -> Tuple[bytes, Tuple[int, ...]]:
    """The canonical form bytes and the canonical node order, from one search.

    ``order[i]`` is the network node at canonical position ``i``, so a
    result computed on one copy of an instance and stored by canonical
    position can be carried into any isomorphic copy's numbering.
    """
    search = canonical_search(underlying_digraph(network, node_colors))
    return _form_bytes(search.key), search.order


def canonical_form_bytes(
    network: "AnonymousNetwork", node_colors: Optional[Sequence[Hashable]] = None
) -> bytes:
    """Deterministic byte serialization of the canonical form.

    The layout is ``version | n | canonical colors row | canonical
    adjacency bits``, each length-prefixed, so distinct canonical forms
    never serialize to the same bytes.
    """
    return canonical_labeling(network, node_colors)[0]


def canonical_hash(
    network: "AnonymousNetwork", node_colors: Optional[Sequence[Hashable]] = None
) -> str:
    """SHA-256 content address of the colored underlying graph.

    Two networks share a hash iff their node-colored underlying graphs are
    isomorphic — the hash is invariant under node relabeling
    (``with_nodes_permuted``, with the coloring permuted alongside) and
    under arbitrary port relabelings (``with_ports_relabeled``), and stable
    across processes and machines (no ``PYTHONHASHSEED`` dependence).

    This is the cache key of :mod:`repro.serve.store`: every query the
    service answers is a pure function of exactly this isomorphism class
    (pass the placement's bicoloring as ``node_colors``), so persisted
    answers can be shared between all isomorphic copies of an instance.
    """
    return hashlib.sha256(canonical_form_bytes(network, node_colors)).hexdigest()
