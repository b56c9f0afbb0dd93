"""Map drawing (whiteboard DFS) and map-based navigation.

MAP-DRAWING (paper Section 3.2): "marking the whiteboards, each agent
performs a DFS traversal of G", producing a map of the network *including
the positions and colors of the home-bases*.  The distinctness of agent
colors is what makes this possible: an agent recognises nodes it has
already visited by its **own** colored ``dfs-visited`` signs, unconfused by
the signs of concurrently-exploring agents.

The resulting :class:`LocalMap` uses the agent's private node numbering
(home-base = 0, then DFS discovery order).  Different agents hold different
numberings of isomorphic maps; nothing in the protocols ever communicates a
map-node number to another agent — coordination happens through signs *at*
nodes and through canonical, numbering-invariant computations.

:class:`Navigator` then provides goal-directed movement on a drawn map:
``goto`` (shortest path) and ``tour`` (DFS-tree walk visiting every node
once and returning to the start in ``2(n-1)`` moves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..colors import Color
from ..errors import ProtocolError
from ..graphs.network import AnonymousNetwork, PortLabel
from .actions import Action, Move, NodeView, Read, Write
from .signs import DFS_VISITED, HOMEBASE, Sign

#: Sub-generators yield actions and return a value (via ``yield from``).
ActionGen = Generator[Action, Any, Any]


@dataclass
class LocalMap:
    """An agent's private map of the network.

    Attributes
    ----------
    network:
        The reconstructed port-labeled graph in the agent's own numbering
        (node 0 is the agent's home-base).
    homebases:
        Map node → color of the home-base sign found there (includes the
        agent's own home at node 0).
    """

    network: AnonymousNetwork
    homebases: Dict[int, Color]

    @property
    def home(self) -> int:
        return 0

    def bicoloring(self) -> List[int]:
        """The black/white node coloring induced by home-bases (black=1)."""
        return [
            1 if v in self.homebases else 0 for v in self.network.nodes()
        ]

    def homebase_node_of(self, color: Color) -> int:
        """The map node of the home-base carrying ``color``."""
        for node, c in self.homebases.items():
            if c == color:
                return node
        raise ProtocolError("no home-base with that color on this map")


def draw_map(color: Color, start: NodeView) -> ActionGen:
    """MAP-DRAWING: whiteboard DFS from the home-base.  Returns a LocalMap.

    The agent ends back at its home-base.  Moves: each edge is traversed at
    most twice in each direction, so O(|E|) moves and accesses.
    """
    # Per-map-node: presentation-ordered ports and the explored-port table.
    ports_of: Dict[int, Tuple[PortLabel, ...]] = {}
    explored: Dict[int, Dict[PortLabel, Tuple[int, PortLabel]]] = {}
    homebases: Dict[int, Color] = {}
    edge_records: List[Tuple[int, PortLabel, int, PortLabel]] = []

    def register(node: int, view: NodeView) -> None:
        ports_of[node] = view.ports
        explored[node] = {}
        for sign in view.signs:
            if sign.kind == HOMEBASE and sign.color is not None:
                homebases[node] = sign.color

    def my_visit_number(view: NodeView) -> Optional[int]:
        for sign in view.signs:
            if sign.kind == DFS_VISITED and sign.color == color:
                return sign.payload[0]
        return None

    register(0, start)
    if my_visit_number(start) is None:
        # Skipped on a checkpoint restart: the home already carries this
        # agent's own (0,) mark from the crashed attempt.
        yield Write(Sign(kind=DFS_VISITED, color=color, payload=(0,)))
    counter = 0
    current = 0
    # Stack of ports leading back toward the home-base along the DFS tree.
    backtrack: List[PortLabel] = []

    while True:
        next_port = None
        for p in ports_of[current]:
            if p not in explored[current]:
                next_port = p
                break
        if next_port is not None:
            view = yield Move(next_port)
            entry = view.entry_port
            assert entry is not None
            known = my_visit_number(view)
            if known is not None and known not in explored:
                # Checkpoint re-entry: our own mark from a previous
                # (crashed) attempt on a node this run has not registered
                # yet.  The per-(agent, node) port presentation is
                # deterministic, so re-exploration revisits nodes in the
                # original discovery order — adopt the recorded number as
                # a fresh discovery instead of re-writing the sign.
                counter = max(counter, known)
                register(known, view)
                explored[current][next_port] = (known, entry)
                explored[known][entry] = (current, next_port)
                edge_records.append((current, next_port, known, entry))
                backtrack.append(entry)
                current = known
            elif known is not None:
                # Cross / back edge to an already-mapped node: record both
                # edge-ends and retreat.
                explored[current][next_port] = (known, entry)
                explored[known][entry] = (current, next_port)
                edge_records.append((current, next_port, known, entry))
                view = yield Move(entry)
            else:
                counter += 1
                register(counter, view)
                yield Write(
                    Sign(kind=DFS_VISITED, color=color, payload=(counter,))
                )
                explored[current][next_port] = (counter, entry)
                explored[counter][entry] = (current, next_port)
                edge_records.append((current, next_port, counter, entry))
                backtrack.append(entry)
                current = counter
        else:
            if not backtrack:
                break
            port_home = backtrack.pop()
            edge = explored[current].get(port_home)
            if edge is None:
                # A forged dfs-visited sign can give two nodes one map
                # number; the walk then loses track of where it stands,
                # and the port back home may have no recorded edge here.
                raise ProtocolError(
                    f"map drawing: backtrack port {port_home!r} at map "
                    f"node {current} has no recorded edge (forged visit "
                    "number?)"
                )
            view = yield Move(port_home)
            current = edge[0]

    network = AnonymousNetwork(counter + 1, edge_records, name="local-map")
    return LocalMap(network=network, homebases=homebases)


def draw_map_frontier(color: Color, start: NodeView) -> ActionGen:
    """MAP-DRAWING by nearest-frontier exploration (alternative strategy).

    Same contract as :func:`draw_map` — returns a complete
    :class:`LocalMap`, agent back at its home-base — but explores by
    repeatedly walking (over the partial map) to the *closest* node with an
    unexplored port and probing it, instead of depth-first backtracking.
    Probing an already-known node costs a step back, exactly like DFS; the
    walk to the frontier costs shortest-path moves over the explored part.

    Exists to ablate the exploration strategy (bench A4): the resulting
    maps must be identical up to isomorphism; only the move counts differ.
    """
    ports_of: Dict[int, Tuple[PortLabel, ...]] = {}
    explored: Dict[int, Dict[PortLabel, Tuple[int, PortLabel]]] = {}
    homebases: Dict[int, Color] = {}
    edge_records: List[Tuple[int, PortLabel, int, PortLabel]] = []

    def register(node: int, view: NodeView) -> None:
        ports_of[node] = view.ports
        explored[node] = {}
        for sign in view.signs:
            if sign.kind == HOMEBASE and sign.color is not None:
                homebases[node] = sign.color

    def my_visit_number(view: NodeView) -> Optional[int]:
        for sign in view.signs:
            if sign.kind == DFS_VISITED and sign.color == color:
                return sign.payload[0]
        return None

    def path_to(source: int, target: int) -> List[PortLabel]:
        """Shortest path over the *explored* edges (BFS)."""
        if source == target:
            return []
        prev: Dict[int, Tuple[int, PortLabel]] = {source: (-1, None)}  # type: ignore[dict-item]
        queue = [source]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for port, (y, _) in explored[x].items():
                if y not in prev:
                    prev[y] = (x, port)
                    queue.append(y)
        ports: List[PortLabel] = []
        node = target
        while node != source:
            parent, port = prev[node]
            ports.append(port)
            node = parent
        ports.reverse()
        return ports

    def nearest_frontier(source: int) -> Optional[Tuple[int, PortLabel]]:
        """The closest (node, unexplored port), BFS over explored edges."""
        seen = {source}
        queue = [source]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for p in ports_of[x]:
                if p not in explored[x]:
                    return (x, p)
            for port, (y, _) in explored[x].items():
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return None

    register(0, start)
    if my_visit_number(start) is None:
        # Skipped on a checkpoint restart (see draw_map).
        yield Write(Sign(kind=DFS_VISITED, color=color, payload=(0,)))
    counter = 0
    current = 0

    while True:
        frontier = nearest_frontier(current)
        if frontier is None:
            break
        target, probe = frontier
        for port in path_to(current, target):
            view = yield Move(port)
            current = explored[current][port][0]
        view = yield Move(probe)
        entry = view.entry_port
        assert entry is not None
        known = my_visit_number(view)
        if known is not None and known not in explored:
            # Checkpoint re-entry: adopt our own recorded number as a
            # fresh discovery (see draw_map for the reasoning).
            counter = max(counter, known)
            register(known, view)
            explored[current][probe] = (known, entry)
            explored[known][entry] = (current, probe)
            edge_records.append((current, probe, known, entry))
            current = known
        elif known is not None:
            explored[current][probe] = (known, entry)
            explored[known][entry] = (current, probe)
            edge_records.append((current, probe, known, entry))
            view = yield Move(entry)  # step back; current unchanged
        else:
            counter += 1
            register(counter, view)
            yield Write(Sign(kind=DFS_VISITED, color=color, payload=(counter,)))
            explored[current][probe] = (counter, entry)
            explored[counter][entry] = (current, probe)
            edge_records.append((current, probe, counter, entry))
            current = counter

    for port in path_to(current, 0):
        view = yield Move(port)
        current = explored[current][port][0]

    network = AnonymousNetwork(counter + 1, edge_records, name="local-map")
    return LocalMap(network=network, homebases=homebases)


class Navigator:
    """Goal-directed movement on a drawn map.

    Tracks the agent's current map node; all movement **must** go through
    the navigator once it is in use, or the position tracking desyncs.
    """

    def __init__(self, local_map: LocalMap, position: int = 0):
        self.map = local_map
        self.position = position

    # -- path planning --------------------------------------------------

    def _ports_along_path(self, source: int, target: int) -> List[PortLabel]:
        """Ports of a shortest path source → target on the map."""
        if source == target:
            return []
        net = self.map.network
        prev: Dict[int, Tuple[int, PortLabel]] = {source: (-1, None)}  # type: ignore[dict-item]
        queue = [source]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for port in net.ports(x):
                y, _ = net.traverse(x, port)
                if y not in prev:
                    prev[y] = (x, port)
                    if y == target:
                        queue.append(y)
                        head = len(queue)
                        break
                    queue.append(y)
        if target not in prev:
            raise ProtocolError("target unreachable on local map")
        ports: List[PortLabel] = []
        node = target
        while node != source:
            parent, port = prev[node]
            ports.append(port)
            node = parent
        ports.reverse()
        return ports

    # -- movement generators ---------------------------------------------

    def goto(self, target: int) -> ActionGen:
        """Move along a shortest path to map node ``target``.

        Returns the :class:`NodeView` at the target (a fresh ``Read`` if no
        move was needed).
        """
        view = None
        for port in self._ports_along_path(self.position, target):
            view = yield Move(port)
            next_node, _ = self.map.network.traverse(self.position, port)
            self.position = next_node
        if view is None:
            view = yield Read()
        return view

    def tour(
        self,
        visit: Optional[Callable[[int, NodeView], ActionGen]] = None,
        only: Optional[Callable[[int], bool]] = None,
    ) -> ActionGen:
        """DFS-tree walk over the *whole* map, returning to the start.

        At each node's first visit, if ``only`` accepts the node (default:
        all), the ``visit`` sub-generator runs with (map_node, arrival view).
        Returns ``{map_node: visit result}`` for visited-with-callback nodes.
        Cost: ``2(n-1)`` moves plus whatever ``visit`` does.
        """
        net = self.map.network
        start = self.position
        results: Dict[int, Any] = {}

        # Build the DFS tree (parent pointers with ports) on the map.
        tree_children: Dict[int, List[Tuple[int, PortLabel, PortLabel]]] = {
            v: [] for v in net.nodes()
        }
        seen = {start}
        stack = [start]
        order = []
        while stack:
            x = stack.pop()
            order.append(x)
            for port in net.ports(x):
                y, back = net.traverse(x, port)
                if y not in seen:
                    seen.add(y)
                    tree_children[x].append((y, port, back))
                    stack.append(y)

        def walk(node: int, view: NodeView) -> ActionGen:
            if only is None or only(node):
                if visit is not None:
                    results[node] = yield from visit(node, view)
            for (child, port_down, port_up) in tree_children[node]:
                child_view = yield Move(port_down)
                self.position = child
                yield from walk(child, child_view)
                yield Move(port_up)
                self.position = node
            return None

        first_view = yield Read()
        yield from walk(start, first_view)
        return results
