"""Byzantine adversaries and dynamic-network churn.

The crash-fault model of :mod:`repro.fault.plan` covers agents that *stop*.
This module covers agents that *lie* — the qualitative model's own failure
mode.  In the paper every sign carries its writer's color and the runtime
enforces "an agent writes only its own color"; a Byzantine agent is exactly
an agent exempted from that rule.  Concretely, a :class:`LyingAgent` wraps
any honest agent and, with seeded probability, interleaves lies into its
action stream:

* ``forge-visit`` — plant a DFS visit-number sign in a *victim's* color
  with a wrong number, corrupting the victim's map-drawing bookkeeping;
* ``spoof-owner`` — plant a home-base mark of another color, claiming a
  node is some other agent's home;
* ``false-announce`` — announce itself leader without having won;
* ``replay`` — re-append a stale foreign sign observed earlier (a correct
  sign at the wrong time and place);
* ``suppress`` — silently swallow one of the honest protocol's own writes
  (the inner protocol believes it wrote; nothing lands).

Lies are **seeded and bounded** (a power-``k`` adversary tells at most
``3·k`` lies, each with probability ``min(0.6, 0.15·k)`` per action), so a
fault plan containing :class:`ByzantineAgent` specs is exactly as
deterministic and picklable as a crash plan, and detection rates can be
measured *per adversary power* by the campaign layer.

Dynamic networks are the spatial analogue: an :class:`EdgeChurn` spec
installs a :class:`ChurnDriver` step-hook that periodically adds fresh
edges between non-adjacent nodes or removes non-bridge edges (the network
stays connected — the paper has no notion of partitioned election).  Agents
holding stale port memories either cope, fail loudly
(:class:`~repro.errors.ProtocolError` on a vanished port), or stall into
the watchdog — never silently hang.

Both spec kinds compile through the ordinary
:meth:`repro.fault.plan.FaultPlan.install` path; the detection side lives
in :mod:`repro.fault.detect`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..colors import Color
from ..errors import FaultError, GraphError
from ..graphs.network import AnonymousNetwork, EdgeRecord, PortLabel
from ..sim.actions import NodeView, Read, Write
from ..sim.agent import Agent, ProtocolGen
from ..sim.signs import DFS_VISITED, HOMEBASE, LEADER_ANNOUNCE, Sign

#: The lying behaviors a :class:`ByzantineAgent` spec may enable.
BEHAVIORS: Tuple[str, ...] = (
    "forge-visit",
    "spoof-owner",
    "false-announce",
    "suppress",
    "replay",
)

#: How many foreign signs a liar remembers as forgery material.
_MEMORY = 32


# ---------------------------------------------------------------------------
# Specs (frozen, picklable — they travel inside FaultPlan to workers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ByzantineAgent:
    """Agent ``agent`` lies with the given behaviors at adversary ``power``.

    ``power`` scales both the lie budget (``3·power`` lies total) and the
    per-action lie probability (``min(0.6, 0.15·power)``); power 0 is an
    honest agent (the spec installs but never fires), which anchors the
    campaign's power-0 equivalence property.
    """

    agent: int
    behaviors: Tuple[str, ...] = BEHAVIORS
    power: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        unknown = [b for b in self.behaviors if b not in BEHAVIORS]
        if unknown:
            raise FaultError(
                f"unknown byzantine behaviors {unknown!r}; expected a subset "
                f"of {list(BEHAVIORS)}"
            )
        if not self.behaviors:
            raise FaultError("a byzantine spec needs at least one behavior")
        if self.power < 0:
            raise FaultError(f"adversary power must be >= 0, got {self.power}")

    def describe(self) -> str:
        return (
            f"byzantine(agent={self.agent}, power={self.power}, "
            f"behaviors={'|'.join(self.behaviors)})"
        )


@dataclass(frozen=True)
class EdgeChurn:
    """Dynamic-network churn: every ``period`` steps, add or remove an edge.

    At most ``max_events`` topology changes fire per run; each is an *add*
    (a fresh edge between two non-adjacent nodes, with fresh port labels)
    with probability ``add_probability``, else a *removal* of a uniformly
    chosen non-loop, non-bridge edge.  The network is never disconnected.
    Deterministic in ``seed``.
    """

    period: int = 40
    max_events: int = 6
    add_probability: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise FaultError(f"churn period must be >= 1, got {self.period}")
        if self.max_events < 0:
            raise FaultError(
                f"churn max_events must be >= 0, got {self.max_events}"
            )
        if not 0.0 <= self.add_probability <= 1.0:
            raise FaultError(
                f"churn add_probability must be in [0, 1], "
                f"got {self.add_probability}"
            )

    def describe(self) -> str:
        return (
            f"churn(period={self.period}, max={self.max_events}, "
            f"p_add={self.add_probability})"
        )


# ---------------------------------------------------------------------------
# The lying agent wrapper
# ---------------------------------------------------------------------------


class LyingAgent(Agent):
    """Run the wrapped agent's protocol, interleaving seeded lies.

    The runtime's own-color write rule is relaxed for agents carrying the
    ``byzantine`` marker attribute: a forged foreign-color :class:`Write`
    is stored (and announced in the trace as a FORGE event) instead of
    raising :class:`~repro.errors.ProtocolError`.  Honest agents keep the
    strict rule — the marker is the *only* gate.
    """

    #: Marker the runtime's Write path checks before enforcing the
    #: own-color rule.  Class attribute on purpose: any instance qualifies.
    byzantine = True

    def __init__(
        self,
        inner: Agent,
        behaviors: Tuple[str, ...],
        power: int,
        seed: int = 0,
        on_lie: Optional[Callable[..., None]] = None,
    ):
        super().__init__(inner.color, rng=inner.rng)
        self.inner = inner
        self.behaviors = tuple(behaviors)
        self.power = power
        #: Private adversary randomness, independent of the protocol rng so
        #: enabling lies never perturbs the honest protocol's choices.
        self.lie_rng = random.Random(
            f"byz:{seed}:{power}:{','.join(behaviors)}"
        )
        self.quota = 3 * power
        self.probability = min(0.6, 0.15 * power)
        self.lies_told = 0
        self._on_lie = on_lie
        #: Foreign signs observed in NodeViews — forgery/replay material.
        self._seen_foreign: List[Sign] = []

    # Forward the inner protocol's PhaseClock like FaultedAgent does, so
    # the runtime closes it and a lying wrapper is invisible to metrics.
    @property
    def obs_clock(self) -> Any:
        return getattr(self.inner, "obs_clock", None)

    def _observe(self, view: Any) -> None:
        if not isinstance(view, NodeView):
            return
        for sign in view.signs:
            if sign.color is None or sign.color == self.color:
                continue
            self._seen_foreign.append(sign)
        if len(self._seen_foreign) > _MEMORY:
            del self._seen_foreign[: len(self._seen_foreign) - _MEMORY]

    def _victims(self) -> List[Color]:
        out: List[Color] = []
        for sign in self._seen_foreign:
            if sign.color is not None and sign.color not in out:
                out.append(sign.color)
        return out

    def _record(self, behavior: str, **info: Any) -> None:
        self.lies_told += 1
        if self._on_lie is not None:
            self._on_lie(behavior, **info)

    def _forge_write(self, behavior: str) -> Optional[Write]:
        """Build the extra lying Write for ``behavior`` (None = no material)."""
        rng = self.lie_rng
        if behavior == "forge-visit":
            visited = [
                s for s in self._seen_foreign if s.kind == DFS_VISITED
            ]
            if visited:
                victim = rng.choice(visited)
                base = victim.payload[0] if victim.payload else 0
                forged = base + 1 + rng.randrange(5)
                self._record(
                    behavior,
                    victim=victim.color.name or "?",
                    number=forged,
                )
                return Write(
                    Sign(
                        kind=DFS_VISITED,
                        color=victim.color,
                        payload=(forged,),
                    )
                )
            # No foreign map material yet: lie about the *own* map instead
            # (a wildly out-of-sequence visit number — a gap anomaly).
            forged = 100 + rng.randrange(50)
            self._record(behavior, victim=self.color.name or "?", number=forged)
            return Write(
                Sign(kind=DFS_VISITED, color=self.color, payload=(forged,))
            )
        if behavior == "spoof-owner":
            victims = self._victims()
            if not victims:
                return None
            victim = rng.choice(victims)
            self._record(behavior, victim=victim.name or "?")
            return Write(Sign(kind=HOMEBASE, color=victim))
        if behavior == "false-announce":
            self._record(behavior)
            return Write(Sign(kind=LEADER_ANNOUNCE, color=self.color))
        if behavior == "replay":
            if not self._seen_foreign:
                return None
            stale = rng.choice(self._seen_foreign)
            self._record(
                behavior, victim=stale.color.name or "?", sign=stale.kind
            )
            return Write(
                Sign(kind=stale.kind, color=stale.color, payload=stale.payload)
            )
        return None

    def protocol(self, start: NodeView) -> ProtocolGen:
        gen = self.inner.protocol(start)
        self._observe(start)
        send_value: Any = None
        while True:
            try:
                action = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
            lying = (
                self.lies_told < self.quota
                and self.lie_rng.random() < self.probability
            )
            if lying:
                behavior = self.lie_rng.choice(self.behaviors)
                if behavior == "suppress" and isinstance(action, Write):
                    # Swallow the honest write: observe the node instead so
                    # the step count stays plausible, answer the inner
                    # protocol with the None a Write would have returned.
                    self._record(behavior, sign=action.sign.kind)
                    view = yield Read()
                    self._observe(view)
                    send_value = None
                    continue
                if behavior != "suppress":
                    lie = self._forge_write(behavior)
                    if lie is not None:
                        # Extra action: the result (None) is discarded and
                        # the honest action still executes right after.
                        yield lie
            result = yield action
            self._observe(result)
            send_value = result

    def __repr__(self) -> str:
        return (
            f"LyingAgent({self.inner!r}, power={self.power}, "
            f"behaviors={self.behaviors}, told={self.lies_told})"
        )


# ---------------------------------------------------------------------------
# Dynamic-network churn
# ---------------------------------------------------------------------------


class ChurnableNetwork(AnonymousNetwork):
    """An :class:`~repro.graphs.network.AnonymousNetwork` that can mutate.

    The base class is deliberately immutable (analysis code relies on it);
    this subclass exists *only* for the churn driver and adds the two
    in-place mutations it needs.  Connectivity is the caller's contract:
    :meth:`remove_edge` refuses bridges.
    """

    @classmethod
    def from_network(cls, net: AnonymousNetwork) -> "ChurnableNetwork":
        """A mutable copy of ``net`` (same indices, ports and edges)."""
        return cls(
            net.num_nodes,
            net.edges(),
            name=net.name,
            require_connected=False,
        )

    def remove_edge(self, record: EdgeRecord) -> None:
        """Remove one edge record (refuses bridges and unknown records)."""
        if record not in self._edges:
            raise GraphError(f"no such edge record {record!r}")
        if self.is_bridge(record):
            raise GraphError(
                f"refusing to remove bridge {record!r}: churn must keep "
                f"the network connected"
            )
        u, pu, v, pv = record
        del self._ports[u][pu]
        del self._ports[v][pv]
        self._edges.remove(record)

    def add_edge(self, u: int, pu: PortLabel, v: int, pv: PortLabel) -> None:
        """Add one edge with fresh (locally unused) port labels."""
        self._check_node(u)
        self._check_node(v)
        if u == v and pu == pv:
            raise GraphError(
                f"loop at node {u} must have two distinct port labels"
            )
        for node, port in ((u, pu), (v, pv)):
            if port in self._ports[node]:
                raise GraphError(f"duplicate port label {port!r} at node {node}")
        self._ports[u][pu] = (v, pv)
        self._ports[v][pv] = (u, pu)
        self._edges.append((u, pu, v, pv))
        if u == v or any(
            (a, b) in ((u, v), (v, u))
            for (a, _, b, _) in self._edges[:-1]
        ):
            self._simple = False


class ChurnDriver:
    """Step-hook that applies an :class:`EdgeChurn` spec to a live network.

    Registered on ``sim.step_hooks`` by :meth:`FaultPlan.install`; invoked
    once per scheduler step *before* the step executes, so a topology
    change never interrupts an atomic action.  Every change is journaled
    (``churn-add`` / ``churn-drop``) and emitted as a CHURN trace event.
    """

    def __init__(
        self, spec: EdgeChurn, network: ChurnableNetwork, log: Any
    ):
        self.spec = spec
        self.network = network
        self.log = log
        self.rng = random.Random(f"churn:{spec.seed}:{spec.period}")
        self.events = 0
        self._label_counter = 0

    def _fresh_label(self) -> PortLabel:
        self._label_counter += 1
        return ("churn", self._label_counter)

    def _try_add(self, sim: Any, steps: int) -> bool:
        net = self.network
        adjacency = net.adjacency_sets()
        candidates = [
            (u, v)
            for u in net.nodes()
            for v in range(u + 1, net.num_nodes)
            if v not in adjacency[u]
        ]
        if not candidates:
            return False
        u, v = self.rng.choice(candidates)
        pu, pv = self._fresh_label(), self._fresh_label()
        net.add_edge(u, pu, v, pv)
        self.log.record("churn-add", u=u, v=v)
        sim.emit_system(
            "churn", node=u, step=steps, dest=v, detail=f"added edge {u}-{v}"
        )
        return True

    def _try_drop(self, sim: Any, steps: int) -> bool:
        net = self.network
        candidates = [
            rec
            for rec in net.edges()
            if rec[0] != rec[2] and not net.is_bridge(rec)
        ]
        if not candidates:
            return False
        record = self.rng.choice(candidates)
        net.remove_edge(record)
        u, _, v, _ = record
        self.log.record("churn-drop", u=u, v=v)
        sim.emit_system(
            "churn",
            node=u,
            step=steps,
            dest=v,
            detail=f"removed edge {u}-{v}",
        )
        return True

    def __call__(self, sim: Any, steps: int) -> None:
        if self.events >= self.spec.max_events:
            return
        if steps == 0 or steps % self.spec.period != 0:
            return
        if self.rng.random() < self.spec.add_probability:
            fired = self._try_add(sim, steps) or self._try_drop(sim, steps)
        else:
            fired = self._try_drop(sim, steps) or self._try_add(sim, steps)
        if fired:
            self.events += 1
