"""The asynchronous mobile-agent runtime.

Executes a set of :class:`~repro.sim.agent.Agent` protocols on an
:class:`~repro.graphs.network.AnonymousNetwork` under a
:class:`~repro.sim.scheduler.Scheduler`.  Model fidelity points:

* **One atomic action per step** — whiteboard accesses are mutually
  exclusive; between any two actions of one agent, arbitrarily many actions
  of others may occur (asynchrony).
* **Home-base marks** — before the run, each home-base whiteboard receives a
  ``homebase`` sign in its agent's color (paper Section 1.2).
* **Wake-up** — agents start asleep except an ``initially_awake`` subset
  (default: all).  A sleeping agent wakes when another agent *arrives at*
  its home-base (paper: a traversing agent "wakes up this agent").
* **No node identities** — agents receive only :class:`NodeView` values;
  the port tuple is presented in a per-(agent, node) shuffled order
  (:class:`PortOrder`, shared with the Figure 1 engine) so that
  construction order cannot act as a covert shared total order.  The
  shuffle is computed once per (agent, node) per run and re-checked
  against the node's current ports, which edge churn may change.
* **Deadlock & budget** — a run where no agent can ever progress again
  raises :class:`~repro.errors.DeadlockError` (or returns a result flagged
  ``deadlocked=True`` when ``deadlock_ok`` is set, for impossibility-side
  experiments); runs exceeding ``max_steps`` raise
  :class:`~repro.errors.StepBudgetExceeded`.

Metrics: per-agent move counts and whiteboard-access counts — the two
quantities Theorem 3.1 bounds by ``O(r·|E|)``.

Observability: pass a :class:`~repro.trace.sinks.TraceSink` as ``trace`` to
record the run as a structured event stream (one primary event per
scheduler step, see :mod:`repro.trace.events`).  The default (no sink)
costs a single attribute test per emit site; recorded runs replay
bit-for-bit through :class:`~repro.trace.replay.ReplayScheduler`.

Metrics registry: pass a :class:`~repro.obs.registry.MetricsRegistry` as
``metrics`` (default: the process-wide registry, which ships disabled).
The agent records are the run's only live count: when the run ends —
completed, deadlocked or raised — an enabled registry is fed once from
them (per-agent move/access and watchdog counters, scheduler steps and
the Theorem 3.1 budget gauges of :mod:`repro.obs.budget`), so the step
loop carries no metrics code at all.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.budget import BudgetTracker
from ..obs.registry import MetricsRegistry, get_registry

from ..errors import (
    DeadlockError,
    GraphError,
    PlacementError,
    ProtocolError,
    SimulationError,
    StallDetected,
    StepBudgetExceeded,
)
from ..graphs.network import AnonymousNetwork, PortLabel
from .actions import (
    Action,
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
from .scheduler import RandomScheduler, Scheduler
from .signs import HOMEBASE, Sign
from .whiteboard import Whiteboard


class AgentState(Enum):
    """Lifecycle of an agent inside the runtime."""

    ASLEEP = "asleep"
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


@dataclass
class AgentRecord:
    """Runtime bookkeeping for one agent."""

    agent: Agent
    home: int
    node: int
    state: AgentState = AgentState.ASLEEP
    gen: Any = None
    pending: Any = None  # value to send into the generator next step
    blocked_on: Optional[WaitUntil] = None
    result: Any = None
    moves: int = 0
    accesses: int = 0
    # Watchdog bookkeeping: step at which the current blocked episode began
    # (-1 when not blocked), whether that episode has already been flagged as
    # a stall, and how many times this agent was restarted from its home-base
    # checkpoint.  Move/access counters above keep accumulating across
    # restarts: recovered work still counts against the Theorem 3.1 budget.
    blocked_at: int = -1
    stall_flagged: bool = False
    restarts: int = 0


@dataclass
class SimulationResult:
    """Outcome of a completed run."""

    results: List[Any]
    moves: List[int]
    accesses: List[int]
    steps: int
    positions: List[int] = field(default_factory=list)
    deadlocked: bool = False
    blocked_reasons: List[str] = field(default_factory=list)
    #: Per-agent watchdog restart counts (all zero without a watchdog).
    restarts: List[int] = field(default_factory=list)
    #: ``(step, agent, blocked_for)`` stall classifications from the watchdog.
    stall_events: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def total_moves(self) -> int:
        return sum(self.moves)

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses)


class PortOrder:
    """The order in which each agent is shown a node's ports.

    Port labels are distinct but incomparable (paper Section 1.2), so the
    order the network was built in must not reach agents as a shared total
    order: agent ``a`` at node ``v`` sees ``v``'s ports shuffled by
    ``random.Random(f"{seed}:{a}:{v}")``.  ``random.shuffle``'s swaps depend
    only on the generator's state and the list's length, so the shuffled
    tuple is a function of that seed string and the node's port tuple.  It
    is therefore computed once per (agent, node) and served again while the
    node's ports are what they were.  Every lookup re-checks the memo
    against the node's current port tuple, because
    :class:`~repro.fault.byzantine.ChurnableNetwork` adds and removes ports
    in place; a changed tuple is shuffled afresh.

    Both engines, :class:`Simulation` and
    :class:`~repro.sim.transform.MessagePassingSimulation`, build one per run.
    """

    __slots__ = ("network", "seed", "_memo")

    def __init__(self, network: AnonymousNetwork, seed: int):
        self.network = network
        self.seed = seed
        self._memo: Dict[
            Tuple[int, int], Tuple[Tuple[PortLabel, ...], Tuple[PortLabel, ...]]
        ] = {}

    def of(self, agent_idx: int, node: int) -> Tuple[PortLabel, ...]:
        """Agent ``agent_idx``'s order of ``node``'s current ports."""
        ports = self.network.ports(node)
        key = (agent_idx, node)
        hit = self._memo.get(key)
        if hit is not None and hit[0] == ports:
            return hit[1]
        order = list(ports)
        random.Random(f"{self.seed}:{agent_idx}:{node}").shuffle(order)
        shuffled = tuple(order)
        self._memo[key] = (ports, shuffled)
        return shuffled


def follow_port(
    network: AnonymousNetwork, node: int, agent_idx: int, port: PortLabel
) -> Tuple[int, PortLabel]:
    """Resolve agent ``agent_idx``'s Move through ``port`` at ``node``.

    One port-map lookup: a port the node does not have (never had, or lost
    to churn after the agent saw it) is the agent's protocol error.
    """
    try:
        return network.traverse(node, port)
    except GraphError:
        raise ProtocolError(
            f"agent {agent_idx} used missing port {port!r}"
        ) from None


class Simulation:
    """One run of a set of agents on a network.

    Parameters
    ----------
    network:
        The anonymous network (agents never see it directly).
    placements:
        ``(agent, home_node)`` pairs; home nodes must be pairwise distinct
        (the paper's simplifying assumption) and agent colors distinct.
    scheduler:
        Interleaving policy; default seeded :class:`RandomScheduler`.
    initially_awake:
        Indices (into ``placements``) of spontaneously waking agents;
        default all.  Must be non-empty.
    max_steps:
        Step budget; ``None`` picks a generous bound scaled to the instance.
    deadlock_ok:
        If True, a deadlock ends the run with ``deadlocked=True`` instead of
        raising — used by impossibility-side experiments where symmetric
        executions legitimately get stuck.
    port_shuffle_seed:
        Seed of the per-(agent, node) port-presentation shuffle.
    trace:
        Optional :class:`~repro.trace.sinks.TraceSink` receiving the run
        header and every runtime event (wake/move/read/write/erase/acquire/
        wait/block/unblock/log/done).  ``None`` (default) disables tracing
        at zero cost.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  ``None``
        (default) falls back to the process-wide registry, which ships
        disabled; a disabled registry costs nothing.  When enabled, the
        run's end feeds it ``agent_moves_total`` / ``agent_accesses_total``,
        ``watchdog_restarts_total`` / ``watchdog_stalls_total`` (by agent)
        and ``scheduler_steps_total`` from the agent records, and settles a
        Theorem 3.1 :class:`~repro.obs.budget.BudgetTracker` (exposed as
        ``self.budget``) with the run's totals.
    fault:
        Optional fault plan (duck-typed: anything with an ``install(sim)``
        method, canonically :class:`repro.fault.plan.FaultPlan`).  Installed
        at construction time — it may wrap agents, replace whiteboards and
        decorate the scheduler.  The returned handle is kept as
        ``self.fault_state`` (injection journal + corruption audit).
    watchdog:
        Optional stall supervisor (duck-typed, canonically
        :class:`repro.fault.watchdog.Watchdog`).  When present, agents
        blocked longer than its ``timeout`` are flagged as stalls, restart
        budget permitting they are restarted from their home-base
        whiteboard checkpoint (fresh ``protocol()`` generator, counters
        preserved), and a run that still cannot progress raises
        :class:`~repro.errors.StallDetected` (a ``DeadlockError`` subclass)
        instead of a bare ``DeadlockError`` — unless ``deadlock_ok`` is
        set, which keeps returning a ``deadlocked=True`` result.
    """

    def __init__(
        self,
        network: AnonymousNetwork,
        placements: Sequence[Tuple[Agent, int]],
        scheduler: Optional[Scheduler] = None,
        initially_awake: Optional[Sequence[int]] = None,
        max_steps: Optional[int] = None,
        deadlock_ok: bool = False,
        port_shuffle_seed: int = 0,
        trace: Optional[Any] = None,
        metrics: Optional[MetricsRegistry] = None,
        fault: Optional[Any] = None,
        watchdog: Optional[Any] = None,
    ):
        if not placements:
            raise PlacementError("at least one agent is required")
        homes = [home for (_, home) in placements]
        if len(set(homes)) != len(homes):
            raise PlacementError("home-bases must be pairwise distinct")
        colors = [agent.color for (agent, _) in placements]
        if len(set(colors)) != len(colors):
            raise PlacementError("agent colors must be pairwise distinct")
        for home in homes:
            if not 0 <= home < network.num_nodes:
                raise PlacementError(f"home node {home} out of range")

        self.network = network
        self.scheduler = scheduler or RandomScheduler(seed=0)
        self.records: List[AgentRecord] = [
            AgentRecord(agent=a, home=h, node=h) for (a, h) in placements
        ]
        self.boards: List[Whiteboard] = [
            Whiteboard() for _ in range(network.num_nodes)
        ]
        self._blocked_by_node: Dict[int, Set[int]] = {}
        self._sleepers_by_node: Dict[int, int] = {
            home: idx for idx, (_, home) in enumerate(placements)
        }
        if initially_awake is None:
            self._initially_awake = list(range(len(placements)))
        else:
            self._initially_awake = list(initially_awake)
        if not self._initially_awake:
            raise PlacementError("at least one agent must be initially awake")
        if max_steps is None:
            r = len(placements)
            m = network.num_edges
            n = network.num_nodes
            max_steps = 2_000 + 600 * r * r * (m + n)
        self.max_steps = max_steps
        self.deadlock_ok = deadlock_ok
        self._port_seed = port_shuffle_seed
        # A sink may declare itself disabled (NullSink does): the runtime
        # then skips event construction entirely, so "tracing wired but
        # not wanted" costs the same as no tracing at all.
        if trace is not None and not getattr(trace, "enabled", True):
            trace = None
        self._sink = trace
        if trace is not None:
            # Deferred import: repro.trace depends on the core runners,
            # which depend on this module — binding it at construction time
            # (never at module import time) keeps the layers acyclic.
            from ..trace import events as trace_events

            self._tev = trace_events
        else:
            self._tev = None
        # Fault installation happens before the first run so replayed runs
        # re-install identically.
        self.watchdog = watchdog
        self._restart_pending: Dict[int, int] = {}  # agent idx -> wake-at step
        #: Callables ``hook(sim, step)`` invoked once per scheduler
        #: iteration, before the step executes.  Fault plans register churn
        #: drivers here; cheat detectors register their audit sweep.  Hooks
        #: must exist before fault installation (install appends to it).
        self.step_hooks: List[Any] = []
        self.fault_state = fault.install(self) if fault is not None else None
        if metrics is None:
            metrics = get_registry()
        self._metrics: Optional[MetricsRegistry] = (
            metrics if metrics.enabled else None
        )
        self.budget: Optional[BudgetTracker] = None
        if self._metrics is not None:
            self.budget = BudgetTracker(
                num_agents=len(self.records),
                num_edges=self.network.num_edges,
                registry=self._metrics,
            )
        self._step = -1  # PRE_RUN_STEP until the scheduler's first choice

    def _publish_metrics(self, steps: int) -> None:
        """Feed the enabled registry this run's totals, read off the records.

        Called once, when the run ends however it ends: the step loop keeps
        the only live count (``rec.moves``, ``rec.accesses``,
        ``rec.restarts`` and the watchdog's stall journal).
        """
        reg = self._metrics
        moves = reg.counter(
            "agent_moves_total", help="edge traversals, by agent color"
        )
        accesses = reg.counter(
            "agent_accesses_total", help="whiteboard accesses, by agent color"
        )
        stalls = reg.counter(
            "watchdog_stalls_total",
            help="blocked episodes classified as stalls, by agent color",
        )
        restarts = reg.counter(
            "watchdog_restarts_total",
            help="checkpoint restarts performed, by agent color",
        )
        stalled = Counter(
            agent
            for _, agent, _ in (
                self.watchdog.stall_events if self.watchdog is not None else ()
            )
        )
        for i, rec in enumerate(self.records):
            label = rec.agent.color.name or f"agent{i}"
            moves.inc(rec.moves, agent=label)
            accesses.inc(rec.accesses, agent=label)
            stalls.inc(stalled[i], agent=label)
            restarts.inc(rec.restarts, agent=label)
        reg.counter(
            "scheduler_steps_total", help="scheduler steps executed"
        ).inc(steps)
        self.budget.record_move(sum(rec.moves for rec in self.records))
        self.budget.record_access(sum(rec.accesses for rec in self.records))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def _view(
        self, agent_idx: int, node: int, entry_port: Optional[PortLabel] = None
    ) -> NodeView:
        ports = self._port_order.of(agent_idx, node)
        return NodeView(
            degree=len(ports),
            ports=ports,
            signs=self.boards[node].snapshot(),
            entry_port=entry_port,
        )

    # ------------------------------------------------------------------
    # Trace emission
    # ------------------------------------------------------------------

    def _emit(
        self,
        kind: str,
        idx: int,
        node: int,
        port: Any = None,
        dest: Optional[int] = None,
        entry: Any = None,
        sign: Optional[str] = None,
        payload: Optional[Tuple[int, ...]] = None,
        result: Optional[int] = None,
        detail: str = "",
    ) -> None:
        """Emit one trace event (callers guard on ``self._sink``)."""
        # Positional, in TraceEvent's field order: this runs on every step.
        self._sink.emit(
            self._tev.TraceEvent(
                self._step,
                kind,
                idx,
                node,
                self._color_names[idx],
                port,
                dest,
                entry,
                sign,
                payload,
                result,
                detail,
            )
        )

    def emit_system(
        self, kind: str, node: int, step: Optional[int] = None, **fields: Any
    ) -> None:
        """Emit a system-level trace event (churn, detection).

        System events carry agent index ``-1`` and no color: they record
        something the *environment* did, not any agent's action.  Safe to
        call with no sink attached (no-op).
        """
        if self._sink is None:
            return
        self._sink.emit(
            self._tev.TraceEvent(
                step=self._step if step is None else step,
                kind=kind,
                agent=-1,
                node=node,
                **fields,
            )
        )

    def _emit_header(self) -> None:
        self._sink.emit_header(
            self._tev.TraceHeader(
                num_nodes=self.network.num_nodes,
                num_edges=self.network.num_edges,
                num_agents=len(self.records),
                homes=tuple(rec.home for rec in self.records),
                colors=tuple(
                    rec.agent.color.name or "" for rec in self.records
                ),
                scheduler=repr(self.scheduler),
                max_steps=self.max_steps,
                port_shuffle_seed=self._port_seed,
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _wake(self, idx: int) -> None:
        rec = self.records[idx]
        if rec.state is not AgentState.ASLEEP:
            return
        if self._metrics is not None:
            # Hand phase-instrumented protocols (ElectAgent's PhaseClock)
            # this run's registry; they fall back to the global default.
            rec.agent.obs_registry = self._metrics
        rec.gen = rec.agent.protocol(self._view(idx, rec.node))
        rec.pending = None
        rec.state = AgentState.READY
        self._sleepers_by_node.pop(rec.node, None)
        if self._sink is not None:
            self._emit(self._tev.WAKE, idx, rec.node)

    def _board_changed(self, node: int) -> None:
        """Re-check WaitUntil predicates of agents blocked at ``node``."""
        for idx in list(self._blocked_by_node.get(node, ())):
            rec = self.records[idx]
            assert rec.blocked_on is not None
            view = self._view(idx, rec.node)
            if rec.blocked_on.predicate(view):
                rec.pending = view
                rec.blocked_on = None
                rec.state = AgentState.READY
                rec.blocked_at = -1
                rec.stall_flagged = False
                # A legitimately unblocked agent no longer needs recovery.
                self._restart_pending.pop(idx, None)
                self._blocked_by_node[node].discard(idx)
                if self._sink is not None:
                    self._emit(self._tev.UNBLOCK, idx, rec.node)

    def _finish(self, idx: int, result: Any) -> None:
        rec = self.records[idx]
        rec.state = AgentState.DONE
        rec.result = result
        rec.gen = None
        clock = getattr(rec.agent, "obs_clock", None)
        if clock is not None:
            clock.close()
        if self._sink is not None:
            self._emit(
                self._tev.DONE,
                idx,
                rec.node,
                result=int(result is not None),
            )

    # ------------------------------------------------------------------
    # Action dispatch
    # ------------------------------------------------------------------

    def _execute(self, idx: int, action: Action) -> Any:
        rec = self.records[idx]
        board = self.boards[rec.node]
        color = rec.agent.color
        if isinstance(action, Move):
            origin = rec.node
            new_node, entry = follow_port(self.network, origin, idx, action.port)
            rec.node = new_node
            rec.moves += 1
            if self._sink is not None:
                self._emit(
                    self._tev.MOVE,
                    idx,
                    origin,
                    port=action.port,
                    dest=new_node,
                    entry=entry,
                )
            sleeper = self._sleepers_by_node.get(new_node)
            if sleeper is not None and sleeper != idx:
                self._wake(sleeper)
            return self._view(idx, new_node, entry_port=entry)
        if isinstance(action, Read):
            rec.accesses += 1
            if self._sink is not None:
                self._emit(self._tev.READ, idx, rec.node)
            return self._view(idx, rec.node)
        if isinstance(action, Write):
            sign = action.sign
            forged = False
            if sign.color is None:
                sign = Sign(kind=sign.kind, color=color, payload=sign.payload)
            elif sign.color != color:
                # The own-color write rule is the model's integrity floor.
                # Only agents explicitly flagged as Byzantine (the fault
                # layer's LyingAgent wrapper) may cross it, and every such
                # write is branded with a FORGE event and true provenance.
                if not getattr(rec.agent, "byzantine", False):
                    raise ProtocolError(
                        f"agent {idx} attempted to forge a sign of another color"
                    )
                forged = True
            rec.accesses += 1
            if forged and self._sink is not None:
                self._emit(
                    self._tev.FORGE,
                    idx,
                    rec.node,
                    sign=sign.kind,
                    payload=sign.payload,
                    detail=f"forged sign of color {sign.color.name or '?'}",
                )
            stored = board.append(sign, writer=color)
            if self._sink is not None:
                # ``result`` records whether the write actually landed —
                # always 1 on a healthy board, 0 when a fault-injecting
                # board dropped it (the agent is not told either way).
                self._emit(
                    self._tev.WRITE,
                    idx,
                    rec.node,
                    sign=sign.kind,
                    payload=sign.payload,
                    result=int(stored is not None),
                )
            self._board_changed(rec.node)
            return None
        if isinstance(action, Erase):
            rec.accesses += 1
            removed = board.erase_own(color, action.kind, action.payload)
            if self._sink is not None:
                self._emit(
                    self._tev.ERASE,
                    idx,
                    rec.node,
                    sign=action.kind,
                    payload=action.payload,
                    result=removed,
                )
            if removed:
                self._board_changed(rec.node)
            return removed
        if isinstance(action, TryAcquire):
            rec.accesses += 1
            ok = board.try_acquire(color, action.kind, action.payload, action.capacity)
            if self._sink is not None:
                self._emit(
                    self._tev.ACQUIRE,
                    idx,
                    rec.node,
                    sign=action.kind,
                    payload=tuple(action.payload),
                    result=int(ok),
                )
            if ok:
                self._board_changed(rec.node)
            return ok
        if isinstance(action, WaitUntil):
            rec.accesses += 1
            view = self._view(idx, rec.node)
            if action.predicate(view):
                if self._sink is not None:
                    self._emit(
                        self._tev.WAIT, idx, rec.node, detail=action.reason
                    )
                return view
            rec.blocked_on = action
            rec.state = AgentState.BLOCKED
            rec.blocked_at = self._step
            rec.stall_flagged = False
            self._blocked_by_node.setdefault(rec.node, set()).add(idx)
            if self._sink is not None:
                self._emit(
                    self._tev.BLOCK, idx, rec.node, detail=action.reason
                )
            return None  # no value sent until unblocked
        if isinstance(action, Log):
            if self._sink is not None:
                self._emit(
                    self._tev.LOG,
                    idx,
                    rec.node,
                    detail=action.event,
                    payload=tuple(action.data),
                )
            return None
        raise ProtocolError(f"unknown action {action!r}")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute until all agents are done (or deadlock / budget)."""
        self.scheduler.reset()
        if self.watchdog is not None:
            self.watchdog.reset()
            self._restart_pending.clear()
        # Per-run state, built after fault installation (which may swap in
        # a churnable network and wrap agents, each wrapper keeping its
        # agent's color): the port-order memo and the color name each of
        # this run's trace events carries.
        self._port_order = PortOrder(self.network, self._port_seed)
        self._color_names = [rec.agent.color.name for rec in self.records]
        if self._sink is not None:
            self._emit_header()
        # Mark every home-base with a sign of its agent's color (paper
        # Section 1.2: "The home-base of a ∈ A is marked with a sign of
        # color c(a)").
        for rec in self.records:
            self.boards[rec.home].append(
                Sign(kind=HOMEBASE, color=rec.agent.color),
                writer=rec.agent.color,
            )
        self._step = -1
        for idx in self._initially_awake:
            self._wake(idx)

        steps = 0
        try:
            while True:
                if self.watchdog is not None:
                    self._service_watchdog(steps)
                if self.step_hooks:
                    # Environment interventions between agent steps: edge
                    # churn, periodic cheat-detection sweeps.  Hooks may
                    # raise (abort-on-detection) — that propagates as a
                    # loud, classifiable failure.
                    for hook in self.step_hooks:
                        hook(self, steps)
                runnable = [
                    i
                    for i, rec in enumerate(self.records)
                    if rec.state is AgentState.READY
                ]
                if not runnable:
                    if all(
                        rec.state is AgentState.DONE for rec in self.records
                    ):
                        break
                    if self.watchdog is not None and self._handle_stall(steps):
                        continue
                    reasons = self._stall_reasons()
                    if self.deadlock_ok:
                        return self._result(
                            steps, deadlocked=True, reasons=reasons
                        )
                    if self.watchdog is not None:
                        raise StallDetected(
                            "watchdog: stall with recovery exhausted "
                            f"(restarts={self.watchdog.total_restarts}); "
                            "stalled agents: " + "; ".join(reasons)
                        )
                    raise DeadlockError(
                        "no agent can make progress; stalled agents: "
                        + "; ".join(reasons)
                    )
                if steps >= self.max_steps:
                    raise StepBudgetExceeded(
                        f"simulation exceeded max_steps={self.max_steps}"
                    )
                idx = self.scheduler.choose(runnable, steps)
                if idx not in runnable:
                    raise SimulationError(
                        f"step {steps}: scheduler {self.scheduler!r} chose "
                        f"non-runnable agent {idx} (runnable: {runnable})"
                    )
                self._step = steps
                rec = self.records[idx]
                try:
                    action = rec.gen.send(rec.pending)
                except StopIteration as stop:
                    self._finish(idx, stop.value)
                    steps += 1
                    continue
                rec.pending = self._execute(idx, action)
                if rec.state is AgentState.BLOCKED:
                    rec.pending = None
                steps += 1
        finally:
            if self._sink is not None:
                self._sink.flush()
            if self._metrics is not None:
                self._publish_metrics(steps)
        return self._result(steps)

    # ------------------------------------------------------------------
    # Watchdog: stall classification and checkpoint restart
    # ------------------------------------------------------------------

    def _service_watchdog(self, steps: int) -> None:
        """Fire due restarts and flag freshly over-timeout blocked agents.

        Runs once per scheduler iteration (only when a watchdog is armed).
        A stall is flagged at most once per blocked episode
        (``stall_flagged`` resets on unblock), which is what makes the
        "timeout fires exactly once per stalled agent" contract hold.

        Flagging is pure *classification*: while other agents still make
        progress a long wait may yet be satisfied, so restarts are decided
        only on the no-runnable path (:meth:`_handle_stall`), where the
        victim heuristic targets the longest-blocked agent — the actual
        crash — instead of every healthy waiter queued up behind it.
        """
        wd = self.watchdog
        if self._restart_pending:
            due = sorted(
                idx
                for idx, wake_at in self._restart_pending.items()
                if wake_at <= steps
            )
            for idx in due:
                del self._restart_pending[idx]
                self._restart(idx, steps)
        if wd.timeout is None:
            return
        for idx, rec in enumerate(self.records):
            if rec.state is not AgentState.BLOCKED or rec.stall_flagged:
                continue
            if rec.blocked_at < 0:
                continue
            blocked_for = steps - rec.blocked_at
            if blocked_for <= wd.timeout:
                continue
            self._flag_stall(idx, blocked_for, steps)

    def _handle_stall(self, steps: int) -> bool:
        """No agent is runnable: try to recover.  Returns True on progress.

        Recovery ladder: (1) fast-forward a scheduled restart past its
        backoff delay (nothing else can advance the step counter anyway);
        (2) defensively re-check every blocked predicate (a spurious-wake
        sweep — catches any missed notification); (3) ask the watchdog for
        a restart victim among the blocked agents, budget permitting.
        """
        while self._restart_pending:
            idx = min(
                self._restart_pending,
                key=lambda i: (self._restart_pending[i], i),
            )
            del self._restart_pending[idx]
            if self._restart(idx, steps):
                return True
        for node in list(self._blocked_by_node):
            self._board_changed(node)
        if any(rec.state is AgentState.READY for rec in self.records):
            return True
        wd = self.watchdog
        blocked = [
            (idx, rec.blocked_at)
            for idx, rec in enumerate(self.records)
            if rec.state is AgentState.BLOCKED
        ]
        victim = wd.victim(blocked, steps)
        if victim is None:
            return False
        rec = self.records[victim]
        if not rec.stall_flagged:
            self._flag_stall(victim, steps - rec.blocked_at, steps)
        self._restart_pending[victim] = wd.plan_restart(victim, steps)
        return True

    def _flag_stall(self, idx: int, blocked_for: int, steps: int) -> None:
        rec = self.records[idx]
        rec.stall_flagged = True
        self.watchdog.record_stall(idx, blocked_for, steps)
        if self._sink is not None:
            reason = rec.blocked_on.reason if rec.blocked_on else None
            self._emit(
                self._tev.STALL,
                idx,
                rec.node,
                detail=f"blocked {blocked_for} steps: {reason or 'waiting'}",
            )

    def _restart(self, idx: int, steps: int) -> bool:
        """Restart a blocked agent from its home-base whiteboard checkpoint.

        The agent is teleported home (modeling recovery of the physical
        agent at its home-base — the paper's agents are hosted by nodes)
        and handed a fresh ``protocol()`` generator.  All whiteboard state
        survives, so the restarted protocol re-enters MAP-DRAWING against
        its own previous signs; :func:`repro.sim.traversal.draw_map` makes
        that re-entry idempotent.  Move/access counters are *not* reset:
        recovered work counts against the Theorem 3.1 budget.
        """
        rec = self.records[idx]
        if rec.state is not AgentState.BLOCKED:
            return False
        origin = rec.node
        if rec.blocked_on is not None:
            self._blocked_by_node.get(rec.node, set()).discard(idx)
            rec.blocked_on = None
        rec.blocked_at = -1
        rec.stall_flagged = False
        clock = getattr(rec.agent, "obs_clock", None)
        if clock is not None:
            clock.close()
        rec.node = rec.home
        rec.restarts += 1
        rec.pending = None
        rec.gen = rec.agent.protocol(self._view(idx, rec.home))
        rec.state = AgentState.READY
        if self._sink is not None:
            self._emit(
                self._tev.RESTART,
                idx,
                origin,
                dest=rec.home,
                detail=f"restart {rec.restarts} from checkpoint",
            )
        return True

    def _stall_reasons(self) -> List[str]:
        reasons = []
        for i, rec in enumerate(self.records):
            if rec.state is AgentState.BLOCKED and rec.blocked_on is not None:
                reasons.append(
                    f"agent {i} blocked at a node: {rec.blocked_on.reason or 'waiting'}"
                )
            elif rec.state is AgentState.ASLEEP:
                reasons.append(f"agent {i} still asleep at its home-base")
        return reasons

    def _result(
        self,
        steps: int,
        deadlocked: bool = False,
        reasons: Optional[List[str]] = None,
    ) -> SimulationResult:
        return SimulationResult(
            results=[rec.result for rec in self.records],
            moves=[rec.moves for rec in self.records],
            accesses=[rec.accesses for rec in self.records],
            steps=steps,
            positions=[rec.node for rec in self.records],
            deadlocked=deadlocked,
            blocked_reasons=reasons or [],
            restarts=[rec.restarts for rec in self.records],
            stall_events=(
                list(self.watchdog.stall_events)
                if self.watchdog is not None
                else []
            ),
        )


def run_agents(
    network: AnonymousNetwork,
    placements: Sequence[Tuple[Agent, int]],
    scheduler: Optional[Scheduler] = None,
    **kwargs: Any,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    return Simulation(network, placements, scheduler=scheduler, **kwargs).run()
