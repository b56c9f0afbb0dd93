"""Figure 1: transforming a mobile-agent protocol into a processor network.

The paper's generic transformation (proof of Theorem 2.1): the network's
processors all run the loop

    repeat:
      wait for a message (P, M);
      execute P with data M and the local whiteboard W;
      if the execution leads to a move through the edge labeled i,
      send the message (P, M') through edge i.

Here an "agent" *is* a message: its program plus its memory state travel
from processor to processor.  :class:`MessagePassingSimulation` implements
the target model directly — nodes with inboxes, message delivery along
labeled links, local whiteboard memory — and *hosts* unmodified
:class:`~repro.sim.agent.Agent` protocols by carrying their live generator
as the message body (the in-process stand-in for the paper's (P, M) pair;
documented substitution, observationally identical).

Differences from :class:`~repro.sim.runtime.Simulation` are real, not
cosmetic: execution is *per-processor* (a scheduler picks a node, which
then processes one unit of local work), agents blocked on ``WaitUntil``
become resident continuations re-entered on local board changes, and the
move count equals the message count.  Experiment E2 runs protocol ELECT on
both engines and checks the outcomes coincide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..colors import Color
from ..errors import (
    DeadlockError,
    PlacementError,
    ProtocolError,
    StepBudgetExceeded,
)
from ..graphs.network import AnonymousNetwork, PortLabel
from .actions import (
    Erase,
    Log,
    Move,
    NodeView,
    Read,
    TryAcquire,
    WaitUntil,
    Write,
)
from .agent import Agent
from .runtime import PortOrder, SimulationResult, follow_port
from .signs import HOMEBASE, Sign
from .whiteboard import Whiteboard


@dataclass
class _AgentMessage:
    """The (P, M) pair in flight or resident at a processor."""

    agent_idx: int
    agent: Agent
    gen: Any
    pending: Any
    entry_port: Optional[PortLabel] = None  # set while in flight


@dataclass
class _Processor:
    """One node of the processor network."""

    node: int
    board: Whiteboard
    inbox: List[_AgentMessage] = field(default_factory=list)
    blocked: List[Tuple[_AgentMessage, WaitUntil]] = field(default_factory=list)
    sleeper: Optional[Tuple[int, Agent]] = None  # not-yet-started agent


class MessagePassingSimulation:
    """Run mobile-agent protocols on the transformed processor network."""

    def __init__(
        self,
        network: AnonymousNetwork,
        placements: Sequence[Tuple[Agent, int]],
        seed: int = 0,
        initially_awake: Optional[Sequence[int]] = None,
        max_steps: Optional[int] = None,
        port_shuffle_seed: int = 0,
    ):
        if not placements:
            raise PlacementError("at least one agent is required")
        homes = [h for (_, h) in placements]
        if len(set(homes)) != len(homes):
            raise PlacementError("home-bases must be pairwise distinct")
        self.network = network
        self.placements = list(placements)
        self.rng = random.Random(seed)
        self.processors = [
            _Processor(node=v, board=Whiteboard()) for v in network.nodes()
        ]
        self._port_order = PortOrder(network, port_shuffle_seed)
        self.moves = [0] * len(placements)  # message sends per agent
        self.accesses = [0] * len(placements)
        self.results: List[Any] = [None] * len(placements)
        self.final_positions: List[int] = [home for (_, home) in placements]
        self.done: Set[int] = set()
        if initially_awake is None:
            initially_awake = list(range(len(placements)))
        self._initially_awake = list(initially_awake)
        if max_steps is None:
            r = len(placements)
            m = network.num_edges
            n = network.num_nodes
            max_steps = 2_000 + 600 * r * r * (m + n)
        self.max_steps = max_steps

    # -- views ----------------------------------------------------------

    def _view(
        self, agent_idx: int, node: int, entry_port: Optional[PortLabel] = None
    ) -> NodeView:
        ports = self._port_order.of(agent_idx, node)
        return NodeView(
            degree=len(ports),
            ports=ports,
            signs=self.processors[node].board.snapshot(),
            entry_port=entry_port,
        )

    # -- processor work -------------------------------------------------

    def _wake_sleeper(self, proc: _Processor) -> None:
        if proc.sleeper is None:
            return
        idx, agent = proc.sleeper
        proc.sleeper = None
        gen = agent.protocol(self._view(idx, proc.node))
        proc.inbox.append(
            _AgentMessage(agent_idx=idx, agent=agent, gen=gen, pending=None)
        )

    def _recheck_blocked(self, proc: _Processor) -> None:
        still: List[Tuple[_AgentMessage, WaitUntil]] = []
        for msg, wait in proc.blocked:
            view = self._view(msg.agent_idx, proc.node)
            if wait.predicate(view):
                msg.pending = view
                proc.inbox.append(msg)
            else:
                still.append((msg, wait))
        proc.blocked = still

    def _process(self, proc: _Processor) -> None:
        """Execute one agent continuation at this processor until it moves,
        blocks, or terminates — the body of the Figure 1 loop."""
        msg = proc.inbox.pop(self.rng.randrange(len(proc.inbox)))
        idx = msg.agent_idx
        agent = msg.agent
        color = agent.color
        node = proc.node
        send_value = msg.pending
        if msg.entry_port is not None:
            send_value = self._view(idx, node, entry_port=msg.entry_port)
            msg.entry_port = None
        while True:
            try:
                action = msg.gen.send(send_value)
            except StopIteration as stop:
                self.results[idx] = stop.value
                self.final_positions[idx] = node
                self.done.add(idx)
                return
            if isinstance(action, Move):
                dest, entry = follow_port(self.network, node, idx, action.port)
                self.moves[idx] += 1
                msg.pending = None
                msg.entry_port = entry
                target = self.processors[dest]
                target.inbox.append(msg)
                self._wake_sleeper(target)
                return
            if isinstance(action, Read):
                self.accesses[idx] += 1
                send_value = self._view(idx, node)
                continue
            if isinstance(action, Write):
                sign = action.sign
                if sign.color is None:
                    sign = Sign(kind=sign.kind, color=color, payload=sign.payload)
                elif sign.color != color:
                    raise ProtocolError("sign forgery attempt")
                self.accesses[idx] += 1
                proc.board.append(sign)
                self._recheck_blocked(proc)
                send_value = None
                continue
            if isinstance(action, Erase):
                self.accesses[idx] += 1
                removed = proc.board.erase_own(color, action.kind, action.payload)
                if removed:
                    self._recheck_blocked(proc)
                send_value = removed
                continue
            if isinstance(action, TryAcquire):
                self.accesses[idx] += 1
                ok = proc.board.try_acquire(
                    color, action.kind, action.payload, action.capacity
                )
                if ok:
                    self._recheck_blocked(proc)
                send_value = ok
                continue
            if isinstance(action, WaitUntil):
                self.accesses[idx] += 1
                view = self._view(idx, node)
                if action.predicate(view):
                    send_value = view
                    continue
                proc.blocked.append((msg, action))
                return
            if isinstance(action, Log):
                send_value = None
                continue
            raise ProtocolError(f"unknown action {action!r}")

    # -- main loop --------------------------------------------------------

    def run(self) -> SimulationResult:
        for idx, (agent, home) in enumerate(self.placements):
            self.processors[home].board.append(
                Sign(kind=HOMEBASE, color=agent.color)
            )
            self.processors[home].sleeper = (idx, agent)
        for idx in self._initially_awake:
            self._wake_sleeper(self.processors[self.placements[idx][1]])

        steps = 0
        while True:
            busy = [p for p in self.processors if p.inbox]
            if not busy:
                if len(self.done) == len(self.placements):
                    break
                reasons = [
                    f"agent {m.agent_idx} blocked at node {p.node}: "
                    f"{w.reason or 'waiting'}"
                    for p in self.processors
                    for (m, w) in p.blocked
                ]
                raise DeadlockError(
                    "processor network quiescent with agents pending: "
                    + "; ".join(reasons)
                )
            if steps >= self.max_steps:
                raise StepBudgetExceeded(
                    f"message-passing run exceeded {self.max_steps} steps"
                )
            proc = busy[self.rng.randrange(len(busy))]
            self._process(proc)
            steps += 1
        return SimulationResult(
            results=self.results,
            moves=self.moves,
            accesses=self.accesses,
            steps=steps,
            positions=list(self.final_positions),
        )


def run_transformed(
    network: AnonymousNetwork,
    placements: Sequence[Tuple[Agent, int]],
    seed: int = 0,
    **kwargs: Any,
) -> SimulationResult:
    """Convenience wrapper over :class:`MessagePassingSimulation`."""
    return MessagePassingSimulation(network, placements, seed=seed, **kwargs).run()
