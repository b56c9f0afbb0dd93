"""The effectual election protocol for Cayley graphs (Theorem 4.1).

The paper modifies ELECT so that, after MAP-DRAWING, each agent tests
whether its map is a Cayley graph ("time-consuming, but decidable") and, if
so, decides feasibility using *translation* classes instead of arbitrary
automorphism classes.

Concretely (see DESIGN.md §"Theorem 4.1 fidelity"):

* Because left-translations act **freely**, every translation class of a
  regular subgroup ``R ≤ Aut(G)`` has the same size
  ``d_R = |{γ ∈ R : γ(blacks) = blacks}|``, so the paper's
  ``gcd(|C_1|,…,|C_k|)`` for that subgroup is just ``d_R``.
* A Cayley graph may admit several non-conjugate regular subgroups whose
  ``d_R`` values *differ* (e.g. C₄ with two adjacent agents: ℤ₄ gives
  ``d = 1``, the Klein subgroup gives ``d = 2``).  Any subgroup with
  ``d_R > 1`` yields a Theorem 2.1 impossibility certificate via its
  natural labeling, so the agent declares failure if **any** regular
  subgroup does.
* When every regular subgroup has ``d_R = 1``, election is possible, and —
  as verified exhaustively by the Theorem 4.1 experiment (bench E8) — the
  generic gcd condition holds as well, so the agent proceeds with the
  ordinary ELECT reduction stages (whose class agreement is
  isomorphism-invariant and therefore unproblematic).  Should the two
  criteria ever diverge, the agent reports ``AMBIGUOUS`` instead of
  electing; the experiments assert this never fires.

The protocol is *generic*: a :class:`CayleyElectAgent` dropped on a
non-Cayley network reports ``NOT_CAYLEY`` (it is only claimed effectual for
the Cayley class).
"""

from __future__ import annotations

from typing import List, Optional

from ..graphs.automorphisms import color_preserving_automorphisms
from ..groups.permgroup import find_regular_subgroups
from ..sim.traversal import LocalMap
from .elect import ElectAgent
from .ordering import ClassStructure
from .reduce_phases import Schedule
from .result import AgentReport, Verdict


class CayleyElectAgent(ElectAgent):
    """ELECT with the Theorem 4.1 feasibility test for Cayley graphs."""

    def _check_feasibility(
        self,
        local_map: LocalMap,
        structure: ClassStructure,
        schedule: Schedule,
    ) -> Optional[AgentReport]:
        network = local_map.network
        bicolor = local_map.bicoloring()
        blacks = {v for v, c in enumerate(bicolor) if c == 1}

        autos = color_preserving_automorphisms(network)
        subgroups = find_regular_subgroups(autos, network.num_nodes)
        if not subgroups:
            return AgentReport(verdict=Verdict.NOT_CAYLEY)

        stabilizer_sizes: List[int] = []
        for subgroup in subgroups:
            d = sum(
                1
                for phi in subgroup
                if all((phi[v] in blacks) == (v in blacks) for v in network.nodes())
            )
            stabilizer_sizes.append(d)

        if any(d > 1 for d in stabilizer_sizes):
            # Theorem 4.1 impossibility: the natural labeling of that
            # subgroup's presentation has label classes of size d > 1.
            return AgentReport(verdict=Verdict.FAILED)

        if not schedule.succeeds:
            # All translation certificates say "possible" but the generic
            # gcd condition fails: outside the empirically-verified
            # equivalence (never observed; see bench E8).  Refuse to guess.
            return AgentReport(verdict=Verdict.AMBIGUOUS)
        return None
