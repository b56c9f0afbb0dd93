"""COMPUTE & ORDER: equivalence classes of ``(G, p)`` in the ``≺`` order.

Every ELECT agent runs this computation on its privately-drawn map.  The
output is *physically canonical*: class membership of a node is determined
by the isomorphism class of its surrounding (Lemma 3.1), and the class
order is the canonical-key order — so agents with different private node
numberings of the same network agree on which physical node lies in which
class, and on the class order.  That is exactly the paper's "all agents
agree on the classes … and on the order ≺".

Per the protocol (Figure 3), the ``ℓ`` classes containing home-bases come
first (in ``≺`` order among themselves), followed by the node-only classes
(in ``≺`` order among themselves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import GraphError
from ..graphs.automorphisms import equivalence_classes
from ..graphs.canonical import canonical_labeling
from ..graphs.network import AnonymousNetwork
from ..graphs.surroundings import order_equivalence_classes
from ..perf import cache as _cache


@dataclass(frozen=True)
class ClassStructure:
    """The ordered equivalence classes of a bi-colored instance.

    Attributes
    ----------
    classes:
        All classes, agent classes first: ``classes[:num_agent_classes]``
        are ``C_1 ≺ … ≺ C_ℓ`` (contain home-bases), the rest are
        ``C_{ℓ+1} ≺ … ≺ C_k``.
    num_agent_classes:
        ``ℓ``.
    """

    classes: Tuple[Tuple[int, ...], ...]
    num_agent_classes: int

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def agent_classes(self) -> Tuple[Tuple[int, ...], ...]:
        return self.classes[: self.num_agent_classes]

    @property
    def node_classes(self) -> Tuple[Tuple[int, ...], ...]:
        return self.classes[self.num_agent_classes :]

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @property
    def gcd(self) -> int:
        """``gcd(|C_1|, …, |C_k|)`` — ELECT's feasibility threshold."""
        return math.gcd(*self.sizes) if len(self.sizes) > 1 else self.sizes[0]

    def class_of_node(self, node: int) -> int:
        """Index (into ``classes``) of the class containing ``node``."""
        for idx, cls in enumerate(self.classes):
            if node in cls:
                return idx
        raise GraphError(f"node {node} is in no class")


def compute_class_structure(
    network: AnonymousNetwork,
    bicoloring: Sequence[int],
) -> ClassStructure:
    """Classes of Definition 2.1 in the order protocol ELECT uses.

    ``bicoloring[v]`` is 1 for home-bases (black), 0 otherwise.  Because
    color-preserving automorphisms map black to black, every class is
    monochromatic; classes are split into agent classes and node classes
    accordingly.

    Memoized once per isomorphism class (kind ``class_structure``): the
    key is the canonical form of the bi-colored underlying graph, the
    exact bytes :func:`~repro.graphs.canonical.canonical_hash` digests.
    The value is stored by canonical position and carried into the
    caller's numbering through the canonical node order of the same
    search.  That equals a direct computation: an isomorphism maps orbits
    onto orbits, the ``≺`` keys do not depend on the numbering, and each
    class is re-sorted.  Non-simple maps, non-integer colorings and calls
    inside :func:`~repro.perf.cache.uncached` compute directly.
    """
    if not (
        _cache.cache_enabled()
        and network.is_simple
        and all(isinstance(c, int) for c in bicoloring)
    ):
        return _compute_class_structure(network, bicoloring)
    form, order = canonical_labeling(network, bicoloring)

    def by_position() -> ClassStructure:
        position = [0] * network.num_nodes
        for i, node in enumerate(order):
            position[node] = i
        return _renumbered(_compute_class_structure(network, bicoloring), position)

    canonical = _cache.memo_value("class_structure", form, by_position)
    return _renumbered(canonical, order)


def _renumbered(structure: ClassStructure, rename: Sequence[int]) -> ClassStructure:
    """``structure`` with node ``v`` renamed ``rename[v]``, classes re-sorted."""
    return ClassStructure(
        classes=tuple(
            tuple(sorted(rename[v] for v in cls)) for cls in structure.classes
        ),
        num_agent_classes=structure.num_agent_classes,
    )


def _compute_class_structure(
    network: AnonymousNetwork,
    bicoloring: Sequence[int],
) -> ClassStructure:
    """The direct COMPUTE & ORDER on ``network``'s own numbering."""
    raw = equivalence_classes(network, bicoloring)
    ordered = order_equivalence_classes(network, raw, bicoloring)
    agent_classes = [c for c in ordered if bicoloring[c[0]] == 1]
    node_classes = [c for c in ordered if bicoloring[c[0]] == 0]
    for cls in ordered:
        colors = {bicoloring[v] for v in cls}
        if len(colors) != 1:
            raise GraphError(
                f"class {cls} mixes home-bases and plain nodes; "
                "equivalence classes must be monochromatic"
            )
    classes = tuple(tuple(c) for c in agent_classes + node_classes)
    return ClassStructure(classes=classes, num_agent_classes=len(agent_classes))
