"""Adversarial symmetric labelings: impossibility certificates for any graph.

Theorem 2.1 makes election impossible whenever *some* edge-labeling has
label-equivalence classes of size > 1.  This module decides a broad
sufficient condition constructively, generalising the translation-based
construction in Theorem 4.1's proof beyond Cayley graphs:

**Criterion.**  Let ``φ`` be a color-preserving automorphism of ``(G, p)``
such that every non-identity power of ``φ`` is fixed-point-free (the cyclic
group ``⟨φ⟩`` acts freely).  Then the edge-ends of ``G`` can be labeled
constantly along ``⟨φ⟩``-orbits — freeness guarantees two ends at the same
node never share an orbit, so per-node distinctness holds — and ``φ``
becomes label-preserving.  By Lemma 2.1 all label classes then share a size
``≥ ord(φ) ≥ 2``, and Theorem 2.1 applies: election is impossible.

Conversely, freeness is *necessary* for a single automorphism to be made
label-preserving: if ``φ^k`` fixes a node ``x``, it must fix every labeled
edge-end at ``x`` (labels at ``x`` are distinct), hence every neighbor of
``x``, hence — by connectivity — be the identity.

For Cayley graphs this criterion subsumes the regular-subgroup test (a
black-preserving translation *is* such a ``φ``); for the Petersen instance
of Figure 5 no such ``φ`` exists (consistent with the paper's remark that
every labeling there has singleton label classes).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..colors import ColorSpace
from ..errors import GraphError
from ..groups.permgroup import GeneratedPermutationGroup
from ..groups.symmetric import Permutation, compose, identity_permutation
from .automorphisms import automorphism_group
from .network import AnonymousNetwork

NodeColoring = Sequence[Sequence]


def cyclic_group_acts_freely(phi: Permutation) -> bool:
    """Whether every non-identity power of ``phi`` is fixed-point-free."""
    n = len(phi)
    identity = identity_permutation(n)
    current = phi
    while current != identity:
        if any(current[i] == i for i in range(n)):
            return False
        current = compose(phi, current)
    return True


def find_free_automorphism(
    network: AnonymousNetwork,
    node_colors: Optional[Sequence[int]] = None,
) -> Optional[Permutation]:
    """A color-preserving automorphism generating a free cyclic group.

    Exact: returns ``None`` only when none exists.  A free ``⟨φ⟩ ≠ 1``
    contains an element of prime order ``p`` (a power of ``φ``), which is
    fixed-point-free; conversely a fixed-point-free element of prime order
    generates a free cyclic group, since each of its non-identity powers
    generates the same group.  Its cycles all have length ``p``, so ``p``
    divides every orbit size.  So the stabilizer chain of the
    color-preserving group is searched for such an element, for each prime
    ``p`` dividing the gcd of the orbit sizes in increasing order.
    """
    group = automorphism_group(network, node_colors)
    gcd = math.gcd(*(len(orbit) for orbit in group.orbits()))
    for p in range(2, gcd + 1):
        if gcd % p == 0 and all(p % q for q in range(2, p)):
            phi = _fixed_point_free_element(group, p)
            if phi is not None:
                return phi
    return None


def _fixed_point_free_element(
    group: GeneratedPermutationGroup, p: int
) -> Optional[Permutation]:
    """An element of ``group`` whose cycles all have length ``p``, or ``None``.

    Backtracks over the stabilizer chain's transversals: at depth ``i`` the
    partial product ``h = u₀ ∘ … ∘ u_{i-1}`` agrees with every completion
    on the points the stabilizer ``G⁽ⁱ⁾`` fixes.  A partial element is
    pruned when one of those points maps to itself, or when that known
    part closes a cycle whose length is not ``p``.
    """
    depth = len(group.base)
    known = [
        {x for x in range(group.degree) if all(s[x] == x for s in gens)}
        for gens in group.strong + [[]]
    ]
    fresh = [known[0]] + [known[i] - known[i - 1] for i in range(1, depth + 1)]

    def search(level: int, h: Permutation) -> Optional[Permutation]:
        for x in sorted(fresh[level]):
            y, steps = h[x], 1
            while y != x and steps < p and y in known[level]:
                y, steps = h[y], steps + 1
            if (y == x) != (steps == p):
                return None  # a fixed point, or a cycle not of length p
        if level == depth:
            return h
        reps = group.transversals[level]
        for beta in sorted(reps):
            found = search(level + 1, tuple(map(h.__getitem__, reps[beta])))
            if found is not None:
                return found
        return None

    return search(0, group.identity())


def labeling_from_free_automorphism(
    network: AnonymousNetwork,
    phi: Permutation,
) -> AnonymousNetwork:
    """The symmetric labeling that makes ``phi`` label-preserving.

    Edge-ends are grouped into ``⟨φ⟩``-orbits; each orbit receives one
    fresh incomparable symbol.  Freeness guarantees per-node distinctness.
    This is the generalization of the Theorem 4.1 proof construction.
    """
    if not cyclic_group_acts_freely(phi):
        raise GraphError("automorphism does not act freely; labeling impossible")
    # Edge-ends are identified by (node, neighbor-set-position): for simple
    # graphs an end is just the ordered pair (x, y) of an edge {x, y}.
    if not network.is_simple:
        raise GraphError("construction implemented for simple networks")

    space = ColorSpace(prefix="symlab")
    end_symbol: Dict[Tuple[int, int], object] = {}

    def orbit_of(end: Tuple[int, int]) -> List[Tuple[int, int]]:
        orbit = [end]
        x, y = phi[end[0]], phi[end[1]]
        while (x, y) != end:
            orbit.append((x, y))
            x, y = phi[x], phi[y]
        return orbit

    for (u, _, v, _) in network.edges():
        for end in ((u, v), (v, u)):
            if end not in end_symbol:
                symbol = space.fresh()
                for member in orbit_of(end):
                    end_symbol[member] = symbol

    new_edges = [
        (u, end_symbol[(u, v)], v, end_symbol[(v, u)])
        for (u, _, v, _) in network.edges()
    ]
    return AnonymousNetwork(network.num_nodes, new_edges, name=network.name)


def free_automorphism_certificate(
    network: AnonymousNetwork,
    node_colors: Optional[Sequence[int]] = None,
) -> Optional[Tuple[Permutation, AnonymousNetwork]]:
    """Impossibility certificate: (free automorphism, symmetric labeling).

    Returns ``None`` when no free color-preserving automorphism exists.
    When a certificate is returned, the labeled network's label-equivalence
    classes provably all have size ≥ 2 (checked by the caller/tests via
    :func:`repro.core.feasibility.theorem21_certificate`).
    """
    phi = find_free_automorphism(network, node_colors)
    if phi is None:
        return None
    return phi, labeling_from_free_automorphism(network, phi)


def max_symmetricity_estimate(
    network: AnonymousNetwork,
    node_colors: Optional[Sequence[int]] = None,
) -> int:
    """A lower bound on σ(G, p) = max over labelings of σ_ℓ.

    Uses the free-automorphism construction (σ ≥ ord(φ) when available)
    and falls back to 1.  Exact maximization over all labelings is
    exponential; this estimate is what the experiments need (a value > 1
    already certifies impossibility via Theorem 2.1).
    """
    from .views import symmetricity_of_labeling

    cert = free_automorphism_certificate(network, node_colors)
    if cert is None:
        return 1
    _, labeled = cert
    return symmetricity_of_labeling(labeled, node_colors)
