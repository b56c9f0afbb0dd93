"""Permutation groups given by generators — orbits, stabilizer chains,
regularity, subgroup search.

This module provides the group-action machinery behind two parts of the
reproduction:

* **Equivalence classes (Definition 2.1)** — node classes of a bi-colored
  graph are the orbits of its color-preserving automorphism group, whose
  generators the canonical search of :mod:`repro.graphs.canonical` finds.
  :class:`GeneratedPermutationGroup` holds the group they generate as a
  stabilizer chain, which gives its order, membership and elements
  without a whole-group closure.
* **Cayley recognition (Theorem 4.1 / Sabidussi)** — a connected graph ``G``
  is a Cayley graph iff ``Aut(G)`` contains a *regular* subgroup (transitive
  with trivial point stabilizers).  :func:`find_regular_subgroups` performs a
  deterministic backtracking search for such subgroups, and translation
  classes are then orbits of the color-preserving part of that subgroup.

Permutations use one-line notation: tuples ``p`` with ``p[i]`` the image of
``i`` (see :mod:`repro.groups.symmetric`).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import GroupError
from .base import FiniteGroup, GroupElement
from .symmetric import Permutation, compose, identity_permutation, invert, is_permutation


class GeneratedPermutationGroup(FiniteGroup):
    """The subgroup of S_n generated by explicit permutations, held as a
    stabilizer chain: a base and strong generating set.

    The chain is built by the deterministic Schreier–Sims algorithm
    (Seress, *Permutation Group Algorithms*, 2003, §4.2).  Level ``i``
    holds the base point ``base[i]``, the strong generators ``strong[i]``
    fixing ``base[:i]`` pointwise (they generate that stabilizer
    ``G⁽ⁱ⁾``), and ``transversals[i]``: for every point ``β`` of the orbit
    of ``base[i]`` under ``G⁽ⁱ⁾``, an element ``u`` of ``G⁽ⁱ⁾`` with
    ``u(base[i]) = β``.  Every element is exactly one product
    ``u₀ ∘ u₁ ∘ … ∘ u_{k-1}`` of transversal elements, which gives the
    order and membership (by sifting) without enumerating the group;
    :meth:`elements` enumerates it, sorted, on first use.

    ``base`` seeds the base with distinct points; more are appended while
    some generator fixes the whole base.  Construction raises
    :class:`GroupError` when the order exceeds ``max_order`` (``None``: no
    bound).
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation],
        max_order: Optional[int] = 1_000_000,
        base: Sequence[int] = (),
    ):
        self.degree = degree
        gens = [tuple(g) for g in generators]
        for g in gens:
            if not is_permutation(g, degree):
                raise GroupError(f"{g!r} is not a permutation of degree {degree}")
        if len(set(base)) != len(base) or not all(0 <= b < degree for b in base):
            raise GroupError(f"base {list(base)!r} is not distinct points below {degree}")
        self.generators: List[Permutation] = gens
        self._identity = identity_permutation(degree)
        self.base: List[int] = []
        self.strong: List[List[Permutation]] = []
        self.transversals: List[Dict[int, Permutation]] = []
        self._inverses: List[Dict[int, Permutation]] = []
        #: Per level, the (orbit point, generator index) Schreier generators
        #: already known to lie in the next level's group.
        self._checked: List[Set[Tuple[int, int]]] = []
        for point in base:
            self._add_level(point)
        moving = [g for g in dict.fromkeys(gens) if g != self._identity]
        for g in moving:
            if all(g[b] == b for b in self.base):
                self._add_level(next(x for x in range(degree) if g[x] != x))
        for g in moving:
            self._add_generator(g, 0, next(i for i, b in enumerate(self.base) if g[b] != b))
        level = len(self.base) - 1
        while level >= 0:
            grown = self._check_level(level)
            level = level - 1 if grown is None else grown
        if max_order is not None and self.order > max_order:
            raise GroupError(f"group order {self.order} exceeds max_order={max_order}")
        self._elements: Optional[Tuple[Permutation, ...]] = None

    # ------------------------------------------------------------------
    # Schreier–Sims
    # ------------------------------------------------------------------

    def _add_level(self, point: int) -> None:
        self.base.append(point)
        self.strong.append([])
        self.transversals.append({point: self._identity})
        self._inverses.append({point: self._identity})
        self._checked.append(set())

    def _add_generator(self, g: Permutation, first: int, last: int) -> None:
        """Add ``g`` to the strong generators of levels ``first..last`` and
        extend their orbits.  Transversal entries already present are
        kept, so a Schreier generator that sifted before still does."""
        for level in range(first, last + 1):
            self.strong[level].append(g)
            reps, inverses = self.transversals[level], self._inverses[level]
            frontier, new = list(reps), [g]
            while frontier:
                grown: List[int] = []
                for beta in frontier:
                    for s in new:
                        image = s[beta]
                        if image not in reps:
                            reps[image] = tuple(map(s.__getitem__, reps[beta]))
                            inverses[image] = invert(reps[image])
                            grown.append(image)
                frontier, new = grown, self.strong[level]

    def _sift(self, g: Permutation, start: int = 0) -> Tuple[Permutation, int]:
        """Strip ``g`` through levels ``start..``: the residue and the level
        where it left the orbit (``len(base)`` when it passed them all)."""
        for level in range(start, len(self.base)):
            image = g[self.base[level]]
            inverse = self._inverses[level].get(image)
            if inverse is None:
                return g, level
            if image != self.base[level]:
                g = tuple(map(inverse.__getitem__, g))
        return g, len(self.base)

    def _check_level(self, level: int) -> Optional[int]:
        """Sift the Schreier generators ``u_{s(β)}⁻¹ ∘ s ∘ u_β`` of
        ``level`` through the levels below.  On the first with a
        non-identity residue, add the residue there and return the deepest
        level it joined; ``None`` when every one sifts to the identity."""
        reps, inverses = self.transversals[level], self._inverses[level]
        checked = self._checked[level]
        for beta in list(reps):
            for index, s in enumerate(self.strong[level]):
                if (beta, index) in checked:
                    continue
                checked.add((beta, index))
                su = tuple(map(s.__getitem__, reps[beta]))
                if su == reps[s[beta]]:
                    continue
                residue, stop = self._sift(
                    tuple(map(inverses[s[beta]].__getitem__, su)), level + 1
                )
                if residue == self._identity:
                    continue
                if stop == len(self.base):
                    self._add_level(next(x for x in range(self.degree) if residue[x] != x))
                self._add_generator(residue, level + 1, stop)
                return stop
        return None

    # ------------------------------------------------------------------
    # FiniteGroup
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """The product of the chain's orbit lengths."""
        return math.prod(len(reps) for reps in self.transversals)

    def elements(self) -> Sequence[GroupElement]:
        """Every element, sorted (one-line tuples)."""
        if self._elements is None:
            products = [self._identity]
            for reps in reversed(self.transversals):
                products = [
                    tuple(map(u.__getitem__, p)) for u in reps.values() for p in products
                ]
            self._elements = tuple(sorted(products))
        return self._elements

    def operate(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return compose(a, b)

    def inverse(self, a: GroupElement) -> GroupElement:
        return invert(a)

    def identity(self) -> GroupElement:
        return self._identity

    def contains(self, a: GroupElement) -> bool:
        """Membership by sifting: ``a`` is in the group iff it strips to
        the identity."""
        if not is_permutation(a, self.degree):
            return False
        residue, stop = self._sift(tuple(a))
        return stop == len(self.base) and residue == self._identity

    # ------------------------------------------------------------------
    # Action-specific queries
    # ------------------------------------------------------------------

    def orbits(self) -> List[List[int]]:
        """Orbits of the natural action on ``0..degree-1``."""
        return orbits_of(self.generators, self.degree)

    def is_transitive(self) -> bool:
        """Whether the action on points is transitive."""
        return len(self.orbits()) == 1

    def point_stabilizer_order(self, point: int) -> int:
        """Size of the stabilizer of ``point`` (orbit–stabilizer)."""
        orbit = next(o for o in self.orbits() if point in o)
        return self.order // len(orbit)

    def is_regular(self) -> bool:
        """Transitive with trivial point stabilizers (⇔ order == degree)."""
        return self.is_transitive() and self.order == self.degree

    def __repr__(self) -> str:
        return (
            f"GeneratedPermutationGroup(degree={self.degree}, "
            f"order={self.order}, ngens={len(self.generators)})"
        )


def orbits_of(perms: Iterable[Permutation], degree: int) -> List[List[int]]:
    """Orbits of ``0..degree-1`` under a set of permutations.

    The permutations need not form a group; the orbit partition computed is
    that of the group they generate (union-find over all moves).
    """
    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for p in perms:
        for i in range(degree):
            union(i, p[i])

    buckets: Dict[int, List[int]] = {}
    for i in range(degree):
        buckets.setdefault(find(i), []).append(i)
    return sorted(buckets.values())


def find_regular_subgroups(
    automorphisms: Sequence[Permutation],
    degree: int,
    limit: Optional[int] = None,
    base_point: int = 0,
) -> List[List[Permutation]]:
    """Find regular subgroups of the group given by explicit ``automorphisms``.

    A subgroup ``R`` is *regular* when it is transitive and ``|R| = degree``;
    equivalently, for every point ``v`` there is exactly one ``g ∈ R`` with
    ``g(base_point) = v``.  The search buckets elements by the image of the
    base point and extends a partial subgroup by backtracking, maintaining
    closure incrementally.  Results are returned sorted (each subgroup as a
    sorted list of permutations), and the overall list is deterministic.

    Parameters
    ----------
    automorphisms:
        All elements of the ambient group (e.g. ``Aut(G)``), as one-line
        permutations of ``0..degree-1``.
    degree:
        Number of points acted upon (``n`` — for graphs, the node count).
    limit:
        If given, stop after this many regular subgroups have been found.
    base_point:
        The point whose images index bucket membership.

    Returns
    -------
    list of subgroups, each a sorted list of ``degree`` permutations.
    """
    aut_set = set(map(tuple, automorphisms))
    identity = identity_permutation(degree)
    if identity not in aut_set:
        raise GroupError("automorphism list does not contain the identity")

    buckets: Dict[int, List[Permutation]] = {v: [] for v in range(degree)}
    for g in sorted(aut_set):
        buckets[g[base_point]].append(g)
    if any(not bucket for bucket in buckets.values()):
        return []  # not even transitive: no regular subgroup exists

    results: List[List[Permutation]] = []
    found_keys: Set[FrozenSet[Permutation]] = set()

    def try_extend(current: Set[Permutation], new: Permutation) -> Optional[Set[Permutation]]:
        """Closure of ``current ∪ {new}``; None if it violates regularity."""
        extended = set(current)
        images = {g[base_point] for g in extended}
        frontier = [new]
        while frontier:
            x = frontier.pop()
            if x in extended:
                continue
            img = x[base_point]
            if img in images:
                return None  # two elements send base_point to the same node
            extended.add(x)
            images.add(img)
            if len(extended) > degree:
                return None
            # close under products with everything present (both orders) and inverse
            additions = [invert(x)]
            for y in list(extended):
                additions.append(compose(x, y))
                additions.append(compose(y, x))
            for z in additions:
                if z not in extended:
                    if z not in aut_set:
                        return None
                    frontier.append(z)
        return extended

    def search(current: Set[Permutation]) -> bool:
        """Extend ``current`` to regular subgroups; True to abort (limit hit)."""
        if len(current) == degree:
            key = frozenset(current)
            if key not in found_keys:
                found_keys.add(key)
                results.append(sorted(current))
                if limit is not None and len(results) >= limit:
                    return True
            return False
        covered = {g[base_point] for g in current}
        target = min(v for v in range(degree) if v not in covered)
        for candidate in buckets[target]:
            extended = try_extend(current, candidate)
            if extended is not None:
                if search(extended):
                    return True
        return False

    search({identity})
    return results


def canonical_regular_subgroup(
    automorphisms: Sequence[Permutation],
    degree: int,
) -> Optional[List[Permutation]]:
    """A deterministic choice of regular subgroup, or ``None`` if none exists.

    All regular subgroups are enumerated and the lexicographically smallest
    (as a sorted tuple of one-line permutations) is returned.  Because the
    input automorphism list is a set of permutations of the *same* node
    numbering for every caller working on the same labeled graph, every agent
    computing this on its own copy of the map arrives at the same subgroup —
    the determinism Theorem 4.1's protocol requires.
    """
    subgroups = find_regular_subgroups(automorphisms, degree)
    if not subgroups:
        return None
    return min(subgroups, key=tuple)


def left_translations(group: FiniteGroup) -> List[Permutation]:
    """The left-regular representation of ``group`` as permutations.

    Nodes of ``Cay(Γ, S)`` are group elements, indexed by their position in
    ``group.elements()``.  The translation ``φ_γ : a ↦ γ·a`` permutes node
    indices; this returns one permutation per ``γ``, in element order.  These
    are automorphisms of every Cayley graph on ``Γ`` because generators act
    on the right while translations act on the left.
    """
    elems = list(group.elements())
    index = {e: i for i, e in enumerate(elems)}
    perms: List[Permutation] = []
    for gamma in elems:
        perms.append(tuple(index[group.operate(gamma, a)] for a in elems))
    return perms
