"""Anonymous port-labeled networks — the paper's spatial universe.

An :class:`AnonymousNetwork` is a connected graph whose nodes carry **no
identifiers visible to agents**; the only navigational structure is that the
``deg(x)`` edge-ends incident to each node ``x`` are labeled with pairwise
distinct symbols (paper Section 1.2).  Each edge therefore carries **two**
labels, one per extremity: ``ℓ_x(e)`` and ``ℓ_y(e)``.

Port labels may be:

* integers (the *quantitative* labeling of classical anonymous-network
  theory),
* :class:`repro.colors.Color` symbols (the *qualitative* labeling this paper
  introduces), or
* any other hashable values.

Internally nodes are indexed ``0..n-1`` for the benefit of *analysis* code
(automorphisms, views, feasibility); the **simulation layer never exposes
node indices to agents** — agents perceive only the current node's degree,
its whiteboard, and the set of port labels.

The structure is stored as a port map ``port(x, λ) = (y, μ)`` meaning "the
edge-end labeled λ at x belongs to an edge whose other end is at y and is
labeled μ there".  This representation naturally supports **multi-edges and
self-loops** (needed to reproduce the Figure 2(c) counterexample, where all
views coincide although the label-equivalence classes are singletons); most
builders produce simple graphs, and the automorphism/canonical machinery
requires simple graphs.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx

from ..errors import GraphError

PortLabel = Hashable
#: An edge record: (u, port at u, v, port at v).  For loops u == v and the
#: two port labels differ (a loop consumes two ports of its node).
EdgeRecord = Tuple[int, PortLabel, int, PortLabel]


class AnonymousNetwork:
    """A connected anonymous network with locally-distinct port labels.

    Parameters
    ----------
    num_nodes:
        Number of nodes; nodes are internally indexed ``0..num_nodes-1``.
    edges:
        Edge records ``(u, port_u, v, port_v)``.  Port labels must be
        pairwise distinct *per node* (two ends of a loop count as two ports
        of the same node).
    name:
        Optional display name (e.g. ``"C_6"``, ``"Q_3"``).
    require_connected:
        The paper assumes connected graphs throughout; set ``False`` only
        for deliberately pathological test fixtures.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[EdgeRecord],
        name: Optional[str] = None,
        require_connected: bool = True,
    ):
        if num_nodes < 1:
            raise GraphError(f"a network needs at least one node, got {num_nodes}")
        self._n = num_nodes
        self._name = name
        self._ports: List[Dict[PortLabel, Tuple[int, PortLabel]]] = [
            {} for _ in range(num_nodes)
        ]
        self._edges: List[EdgeRecord] = []
        self._simple = True
        seen_pairs: Set[Tuple[int, int]] = set()
        for record in edges:
            u, pu, v, pv = record
            self._check_node(u)
            self._check_node(v)
            if u == v and pu == pv:
                raise GraphError(
                    f"loop at node {u} must have two distinct port labels, got {pu!r} twice"
                )
            for node, port in ((u, pu), (v, pv)):
                if port in self._ports[node]:
                    raise GraphError(
                        f"duplicate port label {port!r} at node {node}"
                    )
            self._ports[u][pu] = (v, pv)
            self._ports[v][pv] = (u, pu)
            self._edges.append((u, pu, v, pv))
            pair = (min(u, v), max(u, v))
            if u == v or pair in seen_pairs:
                self._simple = False
            seen_pairs.add(pair)
        if require_connected and not self._is_connected():
            raise GraphError("the paper assumes connected networks")

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    def _check_node(self, x: int) -> None:
        if not 0 <= x < self._n:
            raise GraphError(f"node index {x} out of range 0..{self._n - 1}")

    @property
    def name(self) -> Optional[str]:
        """Display name, if any."""
        return self._name

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|`` (loops and parallel edges each count once)."""
        return len(self._edges)

    @property
    def is_simple(self) -> bool:
        """Whether the network has no loops or parallel edges."""
        return self._simple

    def nodes(self) -> range:
        """Iterate internal node indices (analysis layer only)."""
        return range(self._n)

    def degree(self, x: int) -> int:
        """Degree of ``x`` — the number of its ports."""
        self._check_node(x)
        return len(self._ports[x])

    def ports(self, x: int) -> Tuple[PortLabel, ...]:
        """The port labels at ``x``, in insertion order.

        Insertion order is an artifact of construction; agents must not use
        it as a canonical order (the simulation layer shuffles it).
        """
        self._check_node(x)
        return tuple(self._ports[x])

    def traverse(self, x: int, port: PortLabel) -> Tuple[int, PortLabel]:
        """Follow the edge-end labeled ``port`` at ``x``.

        Returns ``(y, entry_port)``: the node reached and the label of the
        edge-end through which it is entered.  A label ``x`` does not carry
        (unhashable ones included) raises :class:`~repro.errors.GraphError`.
        """
        self._check_node(x)
        try:
            return self._ports[x][port]
        except (KeyError, TypeError):
            raise GraphError(f"node {x} has no port labeled {port!r}") from None

    def neighbors(self, x: int) -> List[int]:
        """Distinct neighbor nodes of ``x`` (excludes ``x`` unless loop)."""
        self._check_node(x)
        return sorted({y for (y, _) in self._ports[x].values()})

    def edges(self) -> Tuple[EdgeRecord, ...]:
        """All edge records ``(u, port_u, v, port_v)``."""
        return tuple(self._edges)

    def port_label(self, x: int, y: int) -> PortLabel:
        """``ℓ_x({x,y})`` for simple graphs (raises if ambiguous/missing)."""
        candidates = [
            (pu if u == x else pv)
            for (u, pu, v, pv) in self._edges
            if (u, v) in ((x, y), (y, x))
        ]
        if not candidates:
            raise GraphError(f"no edge between {x} and {y}")
        if len(candidates) > 1:
            raise GraphError(f"multiple edges between {x} and {y}; port is ambiguous")
        return candidates[0]

    # ------------------------------------------------------------------
    # Graph-level queries
    # ------------------------------------------------------------------

    def _is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for (y, _) in self._ports[x].values():
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self._n

    def is_bridge(self, record: EdgeRecord) -> bool:
        """Whether removing this one edge record disconnects the network.

        Loops are never bridges.  A parallel edge is not a bridge as long as
        its twin survives (the check skips exactly one record, by identity
        of the tuple's port labels, not by endpoint pair).  Used by the
        dynamic-churn driver to only ever drop edges that keep the network
        connected — the paper's model has no notion of partitioned election.
        """
        u, pu, v, pv = record
        if u == v:
            return False
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for port, (y, _) in self._ports[x].items():
                if (x, port) in ((u, pu), (v, pv)):
                    continue
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return v not in seen

    def distances_from(self, source: int) -> List[int]:
        """BFS distances from ``source`` to every node."""
        self._check_node(source)
        dist = [-1] * self._n
        dist[source] = 0
        queue = [source]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for (y, _) in self._ports[x].values():
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def diameter(self) -> int:
        """Graph diameter (max over BFS eccentricities)."""
        return max(max(self.distances_from(v)) for v in self.nodes())

    def is_regular(self) -> bool:
        """Whether all nodes have equal degree."""
        degrees = {self.degree(x) for x in self.nodes()}
        return len(degrees) == 1

    def adjacency_sets(self) -> List[Set[int]]:
        """Neighbor sets per node (simple-graph view; loops ignored)."""
        return [
            {y for (y, _) in self._ports[x].values() if y != x}
            for x in self.nodes()
        ]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def with_ports_relabeled(
        self,
        relabeling: Mapping[int, Mapping[PortLabel, PortLabel]],
        name: Optional[str] = None,
    ) -> "AnonymousNetwork":
        """A copy of this network with per-node port labels renamed.

        ``relabeling[x]`` maps old port labels at ``x`` to new ones; nodes
        absent from the mapping keep their labels.  The result must still
        have distinct labels per node (validated by the constructor).  Used
        to subject protocols to adversarial relabelings.
        """

        def rename(x: int, p: PortLabel) -> PortLabel:
            node_map = relabeling.get(x)
            if node_map is None:
                return p
            return node_map.get(p, p)

        new_edges = [
            (u, rename(u, pu), v, rename(v, pv)) for (u, pu, v, pv) in self._edges
        ]
        return AnonymousNetwork(self._n, new_edges, name=name or self._name)

    def with_nodes_permuted(self, perm: Sequence[int]) -> "AnonymousNetwork":
        """A copy with node indices renumbered by ``perm`` (old → new).

        Port labels travel with their edge-ends.  Protocol outcomes must be
        invariant under this operation (node indices are not agent-visible);
        the test suite relies on that.
        """
        if sorted(perm) != list(range(self._n)):
            raise GraphError("node permutation must be a bijection on node indices")
        new_edges = [
            (perm[u], pu, perm[v], pv) for (u, pu, v, pv) in self._edges
        ]
        return AnonymousNetwork(self._n, new_edges, name=self._name)

    def to_networkx(self) -> nx.Graph:
        """Export to a :class:`networkx.Graph` (simple graphs only).

        Edge attributes ``port_u``/``port_v`` record the two labels, keyed by
        the endpoint stored in ``u``/``v`` attributes.
        """
        if not self._simple:
            raise GraphError("networkx export supports simple networks only")
        g = nx.Graph()
        g.add_nodes_from(self.nodes())
        for (u, pu, v, pv) in self._edges:
            g.add_edge(u, v, u=u, port_u=pu, v=v, port_v=pv)
        return g

    def degree_sequence(self) -> Tuple[int, ...]:
        """Sorted degree sequence."""
        return tuple(sorted(self.degree(x) for x in self.nodes()))

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"AnonymousNetwork({label.strip()} n={self._n}, m={self.num_edges},"
            f" simple={self._simple})"
        )


def validate_isomorphic_port_structure(
    a: AnonymousNetwork, b: AnonymousNetwork, node_map: Mapping[int, int]
) -> bool:
    """Check that ``node_map`` is a port-preserving isomorphism from a to b.

    Used by tests to validate agent-drawn maps: a map is correct when some
    bijection carries every edge-end of ``a`` to an edge-end of ``b`` with
    the same port label at both extremities.
    """
    if a.num_nodes != b.num_nodes or len(node_map) != a.num_nodes:
        return False
    for x in a.nodes():
        fx = node_map[x]
        if set(a.ports(x)) != set(b.ports(fx)):
            return False
        for port in a.ports(x):
            y, back = a.traverse(x, port)
            fy, fback = b.traverse(fx, port)
            if fy != node_map[y] or fback != back:
                return False
    return True
