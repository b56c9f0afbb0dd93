"""Reduction schedules: the deterministic skeleton of AGENT-REDUCE/NODE-REDUCE.

The *sizes* involved in every phase and round of protocol ELECT are a pure
function of the class sizes — only the *identities* of matched agents and
acquired nodes are resolved at run time by whiteboard races.  This module
computes those deterministic tables:

* :func:`agent_reduce_rounds` — the subtractive-Euclid round table of
  AGENT-REDUCE (Figure 4): a sequence of ``(|S|, |W|, swap)`` records ending
  when ``|S| == |W| == gcd``.
* :func:`node_reduce_rounds` — the division-with-positive-remainder round
  table of NODE-REDUCE (Section 3.3.2): alternating Case 1 (more agents
  than nodes: nodes get capacity ``q``, ``ρ`` agents survive) and Case 2
  (fewer agents: each agent takes ``q`` nodes, ``ρ`` nodes stay selected).
* :func:`build_schedule` — the full phase script of ELECT (Figure 3): which
  class joins at each phase, with its round table and the running
  ``d_i = gcd(|C_1|,…,|C_{i+1}|)``.

Every ELECT agent computes the same schedule from its map; the paper's
``Theorem 3.1`` invariant — after phase *i* the active count equals
``gcd(|C_1|,…,|C_{i+1}|)`` — is checked structurally by the constructors
here and re-checked behaviorally by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..errors import ProtocolError
from ..obs.spans import span


@dataclass(frozen=True)
class AgentRound:
    """One AGENT-REDUCE round.

    ``searchers`` / ``waiters`` are the sizes *entering* the round; exactly
    ``searchers`` waiting agents get matched; ``swap`` tells whether the
    role sets exchange for the next round (the Euclid step type).
    """

    searchers: int
    waiters: int
    swap: bool


def agent_reduce_rounds(a: int, b: int) -> Tuple[List[AgentRound], int]:
    """Round table for AGENT-REDUCE on set sizes ``(a, b)``.

    ``a`` is the incoming active set ``D``, ``b`` the newly joined class
    ``C``.  Initially ``S`` is the smaller set (ties keep ``D`` searching,
    which makes the no-round case return ``D`` itself).  Returns the rounds
    and the final size, which always equals ``gcd(a, b)``.
    """
    if a < 1 or b < 1:
        raise ProtocolError(f"set sizes must be positive, got ({a}, {b})")
    s, w = (a, b) if a <= b else (b, a)
    rounds: List[AgentRound] = []
    while s < w:
        matched = s  # every searcher matches exactly one waiting agent
        remaining = w - matched
        swap = not (remaining >= s)
        rounds.append(AgentRound(searchers=s, waiters=w, swap=swap))
        if swap:
            s, w = remaining, s
        else:
            w = remaining
    if s != math.gcd(a, b):
        raise ProtocolError(
            f"round table for ({a},{b}) ended at {s} != gcd={math.gcd(a, b)}"
        )
    return rounds, s


@dataclass(frozen=True)
class NodeRound:
    """One NODE-REDUCE round.

    ``agents``/``nodes`` enter the round.  Case 1 (``agents > nodes``):
    each node accepts ``q`` acquirers; agents that acquire turn passive and
    ``rho`` agents survive.  Case 2 (``agents < nodes``): each agent takes
    exactly ``q`` nodes; the ``rho`` untaken nodes stay selected.
    """

    agents: int
    nodes: int
    case: int  # 1 or 2
    q: int
    rho: int


def _division_positive_remainder(x: int, y: int) -> Tuple[int, int]:
    """``x = q·y + ρ`` with ``0 < ρ ≤ y`` (the paper's convention)."""
    q, rho = divmod(x, y)
    if rho == 0:
        q -= 1
        rho = y
    return q, rho


def node_reduce_rounds(a: int, b: int) -> Tuple[List[NodeRound], int]:
    """Round table for NODE-REDUCE with ``a`` agents and ``b`` nodes.

    Returns the rounds and the final active-agent count ``gcd(a, b)``.
    """
    if a < 1 or b < 1:
        raise ProtocolError(f"sizes must be positive, got ({a}, {b})")
    alpha, beta = a, b
    rounds: List[NodeRound] = []
    while alpha != beta:
        if alpha > beta:
            q, rho = _division_positive_remainder(alpha, beta)
            rounds.append(NodeRound(alpha, beta, case=1, q=q, rho=rho))
            alpha = rho
        else:
            q, rho = _division_positive_remainder(beta, alpha)
            rounds.append(NodeRound(alpha, beta, case=2, q=q, rho=rho))
            beta = rho
    if alpha != math.gcd(a, b):
        raise ProtocolError(
            f"node round table for ({a},{b}) ended at {alpha} != gcd"
        )
    return rounds, alpha


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of ELECT's reduction stages.

    ``kind`` is ``"agent"`` (AGENT-REDUCE against agent class
    ``class_index``) or ``"node"`` (NODE-REDUCE against node class
    ``class_index``).  ``incoming`` is ``|D|`` entering the phase and
    ``outgoing`` the guaranteed ``|D|`` after it.
    """

    phase_id: int
    kind: str
    class_index: int  # index into ClassStructure.classes
    incoming: int
    class_size: int
    outgoing: int
    agent_rounds: Tuple[AgentRound, ...] = field(default_factory=tuple)
    node_rounds: Tuple[NodeRound, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class Schedule:
    """The full deterministic script of ELECT for given class sizes."""

    phases: Tuple[PhaseSpec, ...]
    final_count: int
    sizes: Tuple[int, ...]
    num_agent_classes: int

    @property
    def succeeds(self) -> bool:
        """Whether ELECT will elect (``final_count == 1``)."""
        return self.final_count == 1

    def phase_for_agent_class(self, class_index: int) -> int:
        """The phase id at which agent class ``class_index`` joins, or -1.

        Classes 0 and 1 join at phase 1 (no activation signal needed);
        later classes join at the phase that reduces against them — if the
        schedule reaches them.
        """
        for spec in self.phases:
            if spec.kind == "agent" and spec.class_index == class_index:
                return spec.phase_id
        return -1


def build_schedule(sizes: Sequence[int], num_agent_classes: int) -> Schedule:
    """The phase script of Figure 3 for the given ordered class sizes.

    ``sizes`` lists ``|C_1|,…,|C_k|`` (agent classes first).  Phases are
    emitted while the running gcd exceeds 1 and classes remain, exactly as
    the two while-loops of Figure 3.
    """
    with span("build_schedule"):
        return _build_schedule(sizes, num_agent_classes)


def _build_schedule(sizes: Sequence[int], num_agent_classes: int) -> Schedule:
    if num_agent_classes < 1 or num_agent_classes > len(sizes):
        raise ProtocolError("invalid number of agent classes")
    phases: List[PhaseSpec] = []
    current = sizes[0]
    phase_id = 1
    for idx in range(1, num_agent_classes):
        if current == 1:
            break
        rounds, out = agent_reduce_rounds(current, sizes[idx])
        phases.append(
            PhaseSpec(
                phase_id=phase_id,
                kind="agent",
                class_index=idx,
                incoming=current,
                class_size=sizes[idx],
                outgoing=out,
                agent_rounds=tuple(rounds),
            )
        )
        current = out
        phase_id += 1
    for idx in range(num_agent_classes, len(sizes)):
        if current == 1:
            break
        rounds, out = node_reduce_rounds(current, sizes[idx])
        phases.append(
            PhaseSpec(
                phase_id=phase_id,
                kind="node",
                class_index=idx,
                incoming=current,
                class_size=sizes[idx],
                outgoing=out,
                node_rounds=tuple(rounds),
            )
        )
        current = out
        phase_id += 1
    expected = math.gcd(*sizes) if len(sizes) > 1 else sizes[0]
    if current == 1 and expected != 1:
        raise ProtocolError("schedule reached 1 but gcd of sizes exceeds 1")
    if current != 1 and current != expected:
        # The loops stop early only when current hits 1; otherwise they run
        # through every class, so the invariant of Theorem 3.1 applies.
        raise ProtocolError(
            f"schedule ended at {current}, expected gcd {expected}"
        )
    return Schedule(
        phases=tuple(phases),
        final_count=current,
        sizes=tuple(sizes),
        num_agent_classes=num_agent_classes,
    )


def euclid_pair_sequence(a: int, b: int) -> List[Tuple[int, int]]:
    """The (|S|, |W|) size pairs AGENT-REDUCE walks through (test oracle).

    The paper's Theorem 3.1 proof: "the sequence of pairs (|S|, |W|) is the
    sequence of pairs of integers obtained by computing gcd(|C|, |D|) using
    Euclid's algorithm".
    """
    rounds, final = agent_reduce_rounds(a, b)
    pairs = [(r.searchers, r.waiters) for r in rounds]
    pairs.append((final, final))
    return pairs
