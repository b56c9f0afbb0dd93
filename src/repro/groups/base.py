"""Finite group abstraction used to build Cayley graphs.

A :class:`FiniteGroup` exposes the minimal interface the paper's machinery
needs: an element set, the group operation, inverses, and an identity.
Elements are arbitrary hashable Python values; each concrete subclass picks
its own representation (integers mod *n*, tuples, permutations, …).

Design notes
------------
* All groups here are *finite* and small enough to enumerate — the paper's
  networks are laptop-scale interconnection topologies.
* ``operate(a, b)`` computes the product ``a · b``.  For a Cayley graph
  ``Cay(Γ, S)`` the neighbors of node ``g`` are ``{g · s : s ∈ S}``
  (generators act on the right), while *translations* ``x ↦ γ · x`` act on
  the left — the distinction Theorem 4.1's proof leans on.
* :meth:`FiniteGroup.require_symmetric_generating_set` validates the paper's
  standing assumption ``S = S⁻¹`` and that ``S`` generates the whole group
  (so the Cayley graph is connected, as the paper assumes).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable, List, Sequence, Set

from ..errors import GroupError

GroupElement = Hashable


class FiniteGroup(ABC):
    """Abstract finite group.

    Subclasses must implement element enumeration, the operation, inverse,
    and identity.  Everything else (order, closure checks, generated
    subgroup computation) is derived here.
    """

    @abstractmethod
    def elements(self) -> Sequence[GroupElement]:
        """All elements of the group, in a deterministic order."""

    @abstractmethod
    def operate(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """The group product ``a · b``."""

    @abstractmethod
    def inverse(self, a: GroupElement) -> GroupElement:
        """The inverse ``a⁻¹``."""

    @abstractmethod
    def identity(self) -> GroupElement:
        """The identity element."""

    # ------------------------------------------------------------------
    # Derived functionality
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """The number of elements of the group."""
        return len(self.elements())

    def contains(self, a: GroupElement) -> bool:
        """Membership test (by enumeration; subclasses may override)."""
        return a in set(self.elements())

    def power(self, a: GroupElement, k: int) -> GroupElement:
        """Compute ``a^k`` for any integer ``k`` (square-and-multiply)."""
        if k < 0:
            return self.power(self.inverse(a), -k)
        result = self.identity()
        base = a
        while k:
            if k & 1:
                result = self.operate(result, base)
            base = self.operate(base, base)
            k >>= 1
        return result

    def element_order(self, a: GroupElement) -> int:
        """The multiplicative order of ``a``."""
        e = self.identity()
        current = a
        n = 1
        while current != e:
            current = self.operate(current, a)
            n += 1
            if n > self.order:
                raise GroupError(f"element {a!r} does not appear to have finite order")
        return n

    def conjugate(self, a: GroupElement, g: GroupElement) -> GroupElement:
        """Return ``g · a · g⁻¹``."""
        return self.operate(self.operate(g, a), self.inverse(g))

    def is_abelian(self) -> bool:
        """Check commutativity by exhausting pairs (small groups only)."""
        elems = self.elements()
        return all(
            self.operate(a, b) == self.operate(b, a)
            for i, a in enumerate(elems)
            for b in elems[i + 1 :]
        )

    def generated_subgroup(self, generators: Iterable[GroupElement]) -> Set[GroupElement]:
        """Closure of ``generators`` under the operation and inverses."""
        gens = list(generators)
        for g in gens:
            if not self.contains(g):
                raise GroupError(f"generator {g!r} is not a group element")
        closure: Set[GroupElement] = {self.identity()}
        frontier: List[GroupElement] = [self.identity()]
        step_gens = gens + [self.inverse(g) for g in gens]
        while frontier:
            x = frontier.pop()
            for g in step_gens:
                y = self.operate(x, g)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        return closure

    def generates(self, generators: Iterable[GroupElement]) -> bool:
        """Whether ``generators`` generate the entire group."""
        return len(self.generated_subgroup(generators)) == self.order

    def is_symmetric_generating_set(self, gens: Sequence[GroupElement]) -> bool:
        """Whether ``S = S⁻¹``, ``id ∉ S``, and ``S`` has no duplicates."""
        seen = set(gens)
        if len(seen) != len(gens):
            return False
        if self.identity() in seen:
            return False
        return all(self.inverse(g) in seen for g in gens)

    def require_symmetric_generating_set(self, gens: Sequence[GroupElement]) -> None:
        """Validate the paper's assumptions on ``S`` or raise :class:`GroupError`."""
        seen = set(gens)
        if len(seen) != len(gens):
            raise GroupError("generating set contains duplicates")
        if self.identity() in seen:
            raise GroupError("generating set must not contain the identity")
        for g in gens:
            if not self.contains(g):
                raise GroupError(f"generator {g!r} is not a group element")
            if self.inverse(g) not in seen:
                raise GroupError(
                    f"generating set is not symmetric: inverse of {g!r} missing"
                )
        if not self.generates(gens):
            raise GroupError("set does not generate the group (graph would be disconnected)")

    def check_axioms(self) -> None:
        """Verify the group axioms by brute force (tests only).

        Raises :class:`GroupError` on the first violated axiom.  Cost is
        O(n³) for associativity, so call this only on small groups.
        """
        elems = list(self.elements())
        e = self.identity()
        elem_set = set(elems)
        if len(elem_set) != len(elems):
            raise GroupError("duplicate elements in enumeration")
        if e not in elem_set:
            raise GroupError("identity not among elements")
        for a in elems:
            if self.operate(a, e) != a or self.operate(e, a) != a:
                raise GroupError(f"identity axiom fails for {a!r}")
            inv = self.inverse(a)
            if inv not in elem_set:
                raise GroupError(f"inverse of {a!r} not an element")
            if self.operate(a, inv) != e or self.operate(inv, a) != e:
                raise GroupError(f"inverse axiom fails for {a!r}")
        for a in elems:
            for b in elems:
                ab = self.operate(a, b)
                if ab not in elem_set:
                    raise GroupError(f"closure fails for {a!r}, {b!r}")
                for c in elems:
                    if self.operate(ab, c) != self.operate(a, self.operate(b, c)):
                        raise GroupError(f"associativity fails for {a!r}, {b!r}, {c!r}")

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(order={self.order})"
