"""Views and symmetricity (Yamashita–Kameda) for port-labeled networks.

The *view* of an edge-labeled (bi-colored) graph from node ``v`` is the
infinite labeled rooted tree of all label-preserving walks out of ``v``
(paper, proof of Theorem 2.1).  Two nodes are view-equivalent,
``x ~view y``, when their views are label-isomorphic; by Norris's theorem it
suffices to compare views truncated at depth ``n - 1``.

Implementation notes
--------------------
* View equivalence is computed by **partition refinement**: start from the
  partition by node color, then split classes by the multiset of
  ``(exit-port, entry-port, neighbor's class)`` triples until stable.  The
  production path (:func:`view_refinement`) runs the flat-array numpy
  kernel (:func:`repro.perf.kernel.refine_numpy`).  The pure-Python
  Paige–Tarjan style *worklist* refinement (:func:`_refine_worklist`)
  queues each newly created class as a splitter and re-signs only the
  nodes with an edge into it — the "process all but the largest part"
  rule keeps the total work near ``O(m log n)`` instead of the reference
  implementation's all-nodes-every-round ``O(n·m)``; the kernel delegates
  to it on hub-dominated graphs.  The round-based reference
  (:func:`view_refinement_baseline`) is kept verbatim: it is the Norris
  bound made executable, the oracle for the parity property tests, and the
  baseline the scaling benchmarks measure against.  Both handle loops and
  parallel edges, so the Figure 2(c) counterexample works unmodified.
* Class ids are **canonical**: every ordering decision in the worklist uses
  only (class id, sorted signature, part size) — never node indices — so
  isomorphic copies (with corresponding symbol encodings) receive
  structurally identical class-id vectors, making id-based view orders
  equivariant.  The worklist's numbering differs from the reference
  implementation's (both are canonical; only the induced *partition* is
  part of the contract, and the property tests pin the partitions equal).
* Port labels may be incomparable :class:`~repro.colors.Color` symbols.
  Analysis code is allowed to index them arbitrarily (this is the outside
  observer's view, not an agent's): a deterministic *symbol index* built
  from edge-insertion order serves as the encoding.  Label-preserving
  isomorphism requires exact label equality, so any injective indexing is
  sound.
* Results are memoized per network in :mod:`repro.perf.cache` (networks
  are immutable after construction).  ``view_classes``, ``views_equal``,
  ``symmetricity_of_labeling`` and :class:`QuotientStructure` all share the
  one cached partition; ``repro.perf.uncached()`` bypasses the memo and
  ``repro.perf.cache_stats()`` exposes the hit counters.
* :func:`view_tree` additionally materialises truncated views as explicit
  trees for the Figure 2 demonstrations and for property tests
  cross-checking the refinement fixpoint.

The paper's symmetricity results reproduced here:

* all view classes of a connected network have the same size
  ``σ_ℓ(G)`` (checked by :func:`symmetricity_of_labeling`);
* ``x ~lab y ⇒ x ~view y`` (Equation (1); property-tested);
* election is impossible in a network whose symmetricity exceeds 1
  (Theorem 2.1 via the Figure 1 transformation).
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import GraphError
from ..perf import cache as _cache
from ..perf.kernel import refine_numpy
from .network import AnonymousNetwork, PortLabel

NodeColoring = Sequence[Hashable]

#: Per-node adjacency record: (exit symbol, entry symbol, neighbor node).
AdjacencyEntry = Tuple[int, int, int]


def _colors_key(node_colors: Optional[NodeColoring]) -> Optional[Tuple]:
    """Hashable cache key for a node coloring (None = uncolored)."""
    return None if node_colors is None else tuple(node_colors)


def symbol_index(network: AnonymousNetwork) -> Dict[PortLabel, int]:
    """Deterministic injective indexing of all port symbols in the network.

    Integer labels index as themselves — in the quantitative world the
    labels *are* the agreed encoding, which makes downstream orderings
    (e.g. :func:`view_order_leader`) equivariant across isomorphic copies.
    Incomparable symbols are numbered in order of first appearance scanning
    edge records: any injection yields the same *equivalences*, and no
    cross-copy order exists for them anyway (that is the paper's point).

    Memoized per network (the index is pure construction-order data).
    """
    return _cache.memo(network, "symbol_index", None, lambda: _symbol_index(network))


def _symbol_index(network: AnonymousNetwork) -> Dict[PortLabel, int]:
    symbols: List[PortLabel] = []
    seen = set()
    for (u, pu, v, pv) in network.edges():
        for s in (pu, pv):
            if s not in seen:
                seen.add(s)
                symbols.append(s)
    if all(isinstance(s, int) for s in symbols):
        return {s: s for s in symbols}
    return {s: i for i, s in enumerate(symbols)}


def _normalize_colors(
    network: AnonymousNetwork, node_colors: Optional[NodeColoring]
) -> List[int]:
    """Convert arbitrary hashable node colors to ints (None = uncolored).

    Integer colorings (the paper's black/white 0/1) pass through unchanged —
    this matters for cross-graph comparisons (surrounding keys must agree on
    isomorphic copies with different node numberings, so the palette cannot
    depend on node order).  Non-integer palettes are ranked by ``repr``.
    """
    if node_colors is None:
        return [0] * network.num_nodes
    if len(node_colors) != network.num_nodes:
        raise GraphError(
            f"node coloring has {len(node_colors)} entries for "
            f"{network.num_nodes} nodes"
        )
    if all(isinstance(c, int) for c in node_colors):
        return [int(c) for c in node_colors]
    palette = set(node_colors)
    by_repr: Dict[str, Hashable] = {}
    for c in palette:
        other = by_repr.setdefault(repr(c), c)
        if other is not c:
            # Two distinct colors with one repr would silently merge under
            # the repr ranking — reject instead of corrupting the partition.
            raise GraphError(
                f"ambiguous node-color palette: distinct colors {other!r} and "
                f"{c!r} share a repr; pre-normalize the palette to ints"
            )
    ranked: Dict[Hashable, int] = {
        c: i for i, c in enumerate(sorted(palette, key=repr))
    }
    return [ranked[c] for c in node_colors]


def refinement_adjacency(network: AnonymousNetwork) -> List[List[AdjacencyEntry]]:
    """Per-node ``(exit symbol, entry symbol, neighbor)`` lists, memoized.

    Hoists the ``symbol_index`` lookups and port traversals that the seed
    implementation re-did on every call out of the refinement hot path.
    """
    return _cache.memo(network, "adjacency", None, lambda: _build_adjacency(network))


def _build_adjacency(network: AnonymousNetwork) -> List[List[AdjacencyEntry]]:
    sym = symbol_index(network)
    adjacency: List[List[AdjacencyEntry]] = []
    for x in network.nodes():
        row: List[AdjacencyEntry] = []
        for port in network.ports(x):
            y, back = network.traverse(x, port)
            row.append((sym[port], sym[back], y))
        adjacency.append(row)
    return adjacency


# ----------------------------------------------------------------------
# Reference implementation: synchronized rounds (the Norris bound, literal)
# ----------------------------------------------------------------------


def view_refinement_baseline(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
    max_rounds: Optional[int] = None,
) -> List[int]:
    """The seed all-nodes-every-round refinement, kept as the reference.

    Runs partition refinement to fixpoint (at most ``n - 1`` rounds by
    Norris's theorem; ``max_rounds`` can truncate earlier to obtain the
    depth-``max_rounds`` view classes).  Quadratic on long-diameter
    instances; retained as the parity oracle and benchmark baseline —
    production callers go through :func:`view_refinement`.
    """
    n = network.num_nodes
    sym = symbol_index(network)
    classes = _normalize_colors(network, node_colors)
    rounds = (n - 1) if max_rounds is None else max_rounds
    for _ in range(max(rounds, 0)):
        signatures: List[Tuple] = []
        for x in network.nodes():
            triples = []
            for port in network.ports(x):
                y, back = network.traverse(x, port)
                triples.append((sym[port], sym[back], classes[y]))
            triples.sort()
            signatures.append((classes[x], tuple(triples)))
        # Ids assigned by *sorted* signature: isomorphic copies (with
        # corresponding symbol encodings) receive structurally identical
        # class-id vectors, making id-based view orders equivariant.
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_classes = [palette[sig] for sig in signatures]
        if new_classes == classes:
            break
        classes = new_classes
    return classes


# ----------------------------------------------------------------------
# Pure-Python Paige–Tarjan worklist refinement
# ----------------------------------------------------------------------


def _refine_worklist(
    network: AnonymousNetwork, colors: Sequence[int]
) -> List[int]:
    """Coarsest signature-stable partition refining ``colors``.

    Splitter-queue refinement: pop a class S, re-sign only the nodes with
    an edge into S by their ``(exit, entry)`` symbol multiset relative to
    S, and split each touched class; the part keeping the old id is always
    the largest (stability w.r.t. the parent and all other parts implies
    stability w.r.t. it — Hopcroft's rule), so singleton splitters cost
    O(degree) instead of a full pass.

    Every ordering decision uses (class id, sorted signature, part size)
    only, so ids are equivariant across isomorphic copies; the final ids
    are the dense rank of the (equivariant) internal ids.
    """
    n = network.num_nodes
    adjacency = refinement_adjacency(network)
    # Pre-swapped (entry, exit) pairs: the relative signature a neighbor y
    # acquires from its edge into a splitter member.
    rev = [[((si, so), y) for (so, si, y) in row] for row in adjacency]

    # Initial partition: colors refined by the whole-neighborhood symbol
    # profile.  This establishes stability w.r.t. the universe, which the
    # all-but-largest initial queueing below relies on.
    profile = [
        (colors[x], tuple(sorted((so, si) for (so, si, _) in adjacency[x])))
        for x in range(n)
    ]
    rank = {p: i for i, p in enumerate(sorted(set(profile)))}
    classes = [rank[profile[x]] for x in range(n)]
    members: Dict[int, Dict[int, None]] = {}
    for x in range(n):
        members.setdefault(classes[x], {})[x] = None
    if len(members) == 1:
        return classes
    next_id = len(rank)

    largest = max(sorted(members), key=lambda cid: len(members[cid]))
    pending = [cid for cid in sorted(members) if cid != largest]
    heapq.heapify(pending)
    in_pending = set(pending)

    while pending and len(members) < n:  # a discrete partition cannot split
        splitter = heapq.heappop(pending)
        in_pending.discard(splitter)
        # Relative signatures: for each node y with an edge into the
        # splitter, the multiset of (exit symbol at y, entry symbol at the
        # splitter end).  Snapshot the member list first — a class may have
        # edges into itself and split during its own processing.
        touched: Dict[int, List[Tuple[int, int]]] = {}
        for v in list(members[splitter]):
            for (pair, y) in rev[v]:
                if y in touched:
                    touched[y].append(pair)
                else:
                    touched[y] = [pair]
        by_class: Dict[int, List[int]] = {}
        for y in touched:
            by_class.setdefault(classes[y], []).append(y)
        for cid in sorted(by_class):
            group = by_class[cid]
            cmembers = members[cid]
            remainder_size = len(cmembers) - len(group)
            sig_groups: Dict[Tuple, List[int]] = {}
            for y in group:
                sig_groups.setdefault(tuple(sorted(touched[y])), []).append(y)
            if remainder_size == 0 and len(sig_groups) == 1:
                continue  # class is stable w.r.t. this splitter
            for y in group:
                del cmembers[y]  # cmembers is now the untouched remainder
            # Parts in canonical order: the remainder (empty signature)
            # first, then touched groups by ascending signature.
            parts: List[Tuple[Tuple, Optional[List[int]], int]] = []
            if remainder_size:
                parts.append(((), None, remainder_size))
            for sig in sorted(sig_groups):
                parts.append((sig, sig_groups[sig], len(sig_groups[sig])))
            # The largest part keeps the old id (first in canonical order
            # on ties); it is never queued unless the parent already was.
            survivor = max(range(len(parts)), key=lambda i: parts[i][2])
            new_ids: List[int] = []
            for i, (_, nodes_of_part, _) in enumerate(parts):
                if i == survivor:
                    continue
                nid = next_id
                next_id += 1
                new_ids.append(nid)
                if nodes_of_part is None:
                    # The remainder moves out under a fresh id; this scan
                    # is bounded by the survivor's size (smaller half).
                    members[nid] = cmembers
                    for y in cmembers:
                        classes[y] = nid
                else:
                    part_dict: Dict[int, None] = {}
                    for y in nodes_of_part:
                        classes[y] = nid
                        part_dict[y] = None
                    members[nid] = part_dict
            survivor_nodes = parts[survivor][1]
            if survivor_nodes is not None:
                # A touched group keeps the old id (their class ids are
                # already ``cid``); rebind the member table.
                members[cid] = {y: None for y in survivor_nodes}
            # else: the remainder kept both the id and the member dict.
            for nid in new_ids:
                heapq.heappush(pending, nid)
                in_pending.add(nid)
    remap = {cid: i for i, cid in enumerate(sorted(members))}
    return [remap[classes[x]] for x in range(n)]


def view_refinement(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
    max_rounds: Optional[int] = None,
) -> List[int]:
    """The view-equivalence partition, as a class id per node.

    The fixpoint partition is computed by the flat-array numpy kernel
    (:func:`repro.perf.kernel.refine_numpy`) and memoized per
    ``(network, coloring)``; the cache-miss count in
    ``repro.perf.cache_stats()["view_refinement"]`` is the number of actual
    refinement runs.  The worklist (:func:`_refine_worklist`) and the
    round-based reference (:func:`view_refinement_baseline`) induce the
    same partition with equivariant ids of their own numbering; the parity
    tests and the scaling benchmark call them directly.  ``max_rounds``
    requests the depth-limited classes instead, which only the round-based
    reference defines — those calls bypass the cache.
    """
    if max_rounds is not None:
        return view_refinement_baseline(network, node_colors, max_rounds)
    ids = _cache.memo(
        network,
        "view_refinement",
        _colors_key(node_colors),
        lambda: tuple(refine_numpy(network, _normalize_colors(network, node_colors))),
    )
    return list(ids)


def view_classes(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> List[List[int]]:
    """View-equivalence classes as sorted lists of node indices."""
    ids = view_refinement(network, node_colors)
    buckets: Dict[int, List[int]] = {}
    for node, cid in enumerate(ids):
        buckets.setdefault(cid, []).append(node)
    return sorted(buckets.values())


def views_equal(
    network: AnonymousNetwork,
    x: int,
    y: int,
    node_colors: Optional[NodeColoring] = None,
) -> bool:
    """Whether ``x ~view y`` (label-isomorphic infinite views).

    Routed through the shared partition memo: calling this in a loop costs
    one refinement for the whole loop, not one per call.
    """
    ids = view_refinement(network, node_colors)
    return ids[x] == ids[y]


def symmetricity_of_labeling(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> int:
    """``σ_ℓ(G)`` — the common size of the view classes of this labeling.

    The paper (after [33]) notes all view classes have the same size; this
    function verifies that invariant and returns the size.
    """
    classes = view_classes(network, node_colors)
    sizes = {len(c) for c in classes}
    if len(sizes) != 1:
        raise GraphError(
            f"view classes have unequal sizes {sorted(len(c) for c in classes)}; "
            "this contradicts the Yamashita-Kameda equal-fiber property"
        )
    return sizes.pop()


def election_feasible_by_views(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> bool:
    """Yamashita–Kameda feasibility for *this* labeling: ``σ_ℓ(G) == 1``.

    Election in the processor-network model with complete knowledge is
    possible under labeling ℓ iff the symmetricity of ℓ is 1.  (Theorem 2.1
    transfers the impossibility side to mobile agents.)
    """
    return symmetricity_of_labeling(network, node_colors) == 1


# ----------------------------------------------------------------------
# Explicit truncated view trees (Figure 2 demonstrations, cross-checks)
# ----------------------------------------------------------------------


class ViewTree:
    """A truncated view ``V^(k)(v)``: rooted tree of label-preserving walks.

    ``encoding`` is a canonical nested tuple; two truncated views are
    label-isomorphic iff their encodings are equal.  Port symbols are
    encoded through the supplied symbol index (exact-label comparison).
    """

    __slots__ = ("root", "depth", "encoding")

    def __init__(self, root: int, depth: int, encoding: Tuple):
        self.root = root
        self.depth = depth
        self.encoding = encoding

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ViewTree):
            return self.encoding == other.encoding
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.encoding)

    def __repr__(self) -> str:
        return f"ViewTree(root={self.root}, depth={self.depth})"


def view_tree(
    network: AnonymousNetwork,
    root: int,
    depth: int,
    node_colors: Optional[NodeColoring] = None,
) -> ViewTree:
    """Materialise the depth-``depth`` view from ``root``.

    Cost is O(Δ^depth); intended for small demos and property tests.  The
    child order inside the encoding is sorted, making the encoding canonical
    under label-preserving isomorphism.
    """
    sym = symbol_index(network)
    colors = _normalize_colors(network, node_colors)

    def encode(v: int, d: int) -> Tuple:
        if d == 0:
            return (colors[v],)
        children = []
        for port in network.ports(v):
            w, back = network.traverse(v, port)
            children.append((sym[port], sym[back], encode(w, d - 1)))
        children.sort()
        return (colors[v], tuple(children))

    return ViewTree(root, depth, encode(root, depth))


def view_order_leader(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> Optional[int]:
    """The quantitative world's view-ordering election (converse of Thm 2.1).

    The paper notes that in *quantitative* computing the Theorem 2.1
    condition is also sufficient: when ``σ_ℓ(G) = 1`` all views are
    distinct, an a-priori total order on integer-encoded views exists, and
    everyone elects the minimum view.  This function returns that leader
    node, or ``None`` when ``σ_ℓ(G) > 1`` (no labeling-only election).

    The order used is the refinement's canonical class numbering, which is
    a total order on (distinct) views that every party computes identically
    — the "fix an arbitrary ordering of the views" step of the paper.
    Qualitative labelings admit no such shared order; this function is the
    quantitative baseline the paper contrasts against.
    """
    ids = view_refinement(network, node_colors)
    if len(set(ids)) != network.num_nodes:
        return None  # some views coincide: σ_ℓ > 1
    return min(network.nodes(), key=lambda v: ids[v])


class QuotientStructure:
    """The minimum base of the view covering (Yamashita–Kameda quotient).

    Nodes are the view classes; each class keeps the port set of one
    representative, and ``links`` records, for every (class, port) end,
    the (class, port) end it is glued to.  Unlike a plain graph, a
    quotient may contain *half-edges* — an end glued to itself (e.g. the
    quotient of symmetric ``K_2`` is one node with a half-edge) — which is
    why this is its own structure rather than an
    :class:`AnonymousNetwork`.

    The defining property (validated by :meth:`check_covering`): the map
    "node ↦ its class" is a covering: it is a local bijection on ports
    that commutes with traversal.  All fibers have equal size σ_ℓ(G).

    Construction shares the memoized view partition; building a quotient
    after any other view query costs only the O(n + m) assembly.
    """

    def __init__(
        self,
        network: AnonymousNetwork,
        node_colors: Optional[NodeColoring] = None,
    ):
        self.network = network
        self.class_ids = view_refinement(network, node_colors)
        buckets: Dict[int, List[int]] = {}
        for node, cid in enumerate(self.class_ids):
            buckets.setdefault(cid, []).append(node)
        self.classes: List[List[int]] = [
            sorted(buckets[cid]) for cid in sorted(buckets)
        ]
        self._cid_index = {cid: i for i, cid in enumerate(sorted(buckets))}
        self.representatives = [cls[0] for cls in self.classes]
        #: links[(class index, port)] = (class index, port) of the glued end.
        self.links: Dict[Tuple[int, PortLabel], Tuple[int, PortLabel]] = {}
        for qi, rep in enumerate(self.representatives):
            for port in network.ports(rep):
                w, back = network.traverse(rep, port)
                qj = self._cid_index[self.class_ids[w]]
                self.links[(qi, port)] = (qj, back)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def fiber_size(self) -> int:
        """σ_ℓ(G): the common size of all fibers."""
        sizes = {len(c) for c in self.classes}
        if len(sizes) != 1:
            raise GraphError("unequal fibers: not a covering quotient")
        return sizes.pop()

    def class_of(self, node: int) -> int:
        """Quotient node (class index) of a network node."""
        return self._cid_index[self.class_ids[node]]

    def ports_of(self, qnode: int) -> Tuple[PortLabel, ...]:
        """Port labels of a quotient node (= its representative's ports)."""
        return self.network.ports(self.representatives[qnode])

    def half_edges(self) -> List[Tuple[int, PortLabel]]:
        """Ends glued to themselves (self-paired half-edges)."""
        return [end for end, other in self.links.items() if other == end]

    def check_covering(self) -> None:
        """Validate the covering property for *every* node, not just reps.

        For each network node v and port λ: the quotient link of
        (class(v), λ) must equal (class(traverse(v, λ)), entry port).
        Raises :class:`GraphError` on any violation.
        """
        for v in self.network.nodes():
            qv = self.class_of(v)
            if set(self.network.ports(v)) != set(self.ports_of(qv)):
                raise GraphError(f"port mismatch between node {v} and class {qv}")
            for port in self.network.ports(v):
                w, back = self.network.traverse(v, port)
                expected = (self.class_of(w), back)
                if self.links[(qv, port)] != expected:
                    raise GraphError(
                        f"covering violated at node {v}, port {port!r}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuotientStructure(classes={self.num_classes}, "
            f"fiber={self.fiber_size})"
        )


def view_quotient(
    network: AnonymousNetwork,
    node_colors: Optional[NodeColoring] = None,
) -> QuotientStructure:
    """Build (and validate) the minimum base of the view covering."""
    quotient = QuotientStructure(network, node_colors)
    quotient.check_covering()
    return quotient


def walk_symbol_sequence(
    network: AnonymousNetwork,
    start: int,
    ports: Sequence[PortLabel],
) -> List[PortLabel]:
    """The symbols an agent *sees* along a walk (Figure 2(b) demonstration).

    Starting at ``start`` and leaving through each listed port in turn, the
    agent observes, alternately, the exit symbol and the entry symbol of
    each traversed edge.  The paper's example: walking the Fig. 2(b) path
    from x to z reads ``*, ∘, •, *`` while the reverse walk reads
    ``*, •, ∘, *`` — distinct sequences whose first-seen integer encodings
    coincide.
    """
    seen: List[PortLabel] = []
    current = start
    for port in ports:
        if port not in network.ports(current):
            raise GraphError(
                f"walk leaves node {current} through missing port {port!r}"
            )
        seen.append(port)
        current, entry = network.traverse(current, port)
        seen.append(entry)
    return seen
