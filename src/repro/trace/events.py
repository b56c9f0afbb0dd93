"""The trace event model: typed records of everything a run does.

A *trace* is the explicit event sequence of one simulation run — the object
that related work reasons about directly (executions as step sequences).
Each scheduler step of :class:`~repro.sim.runtime.Simulation` produces
exactly one **primary** event (the scheduled agent's atomic action, or its
termination), possibly followed by **secondary** events it caused in other
agents (a sleeper woken by an arrival, blocked agents unblocked by a board
change).  This one-primary-event-per-step discipline is what makes the
recorded schedule recoverable from the event stream alone
(:func:`repro.trace.replay.schedule_of`) and what the trace-level
mutual-exclusion audit checks.

Events carry the global step index, the acting agent's index and color
*name* (names — not :class:`~repro.colors.Color` objects — so that two runs
with freshly minted but identically named colors produce comparable
streams), and the node where the action happened.  Node indices appear in
traces even though agents never see them: a trace is an *observer's* record,
not an agent's.

Pre-run events (the initial wake-ups of the ``initially_awake`` agents)
carry step index ``-1``: they happen before the scheduler's first choice.

:class:`TraceEvent` is a :class:`typing.NamedTuple`, because a traced run
builds one on every step and a tuple is the cheapest immutable record to
build (a frozen dataclass sets each field through ``object.__setattr__``).
It stays immutable, hashable and equal by value, and its ``repr`` names
every field; being a tuple, it also unpacks, indexes and compares equal to
a plain tuple of the same values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

# ---------------------------------------------------------------------------
# Event kinds
# ---------------------------------------------------------------------------

WAKE = "wake"  #: agent transitioned ASLEEP -> READY (secondary, or pre-run)
MOVE = "move"  #: agent traversed an edge (``port`` out, ``dest``/``entry`` in)
READ = "read"  #: agent observed the current node's whiteboard
WRITE = "write"  #: agent appended a sign (``sign`` kind, ``payload``)
ERASE = "erase"  #: agent erased own signs (``result`` = number removed)
ACQUIRE = "acquire"  #: test-and-write race (``result`` = 1 if won, 0 if lost)
WAIT = "wait"  #: WaitUntil whose predicate held immediately (no blocking)
BLOCK = "block"  #: WaitUntil that suspended the agent (``detail`` = reason)
UNBLOCK = "unblock"  #: a board change released a blocked agent (secondary)
LOG = "log"  #: protocol-level Log action (``detail`` = event name)
DONE = "done"  #: agent terminated (``result`` = 1 if it returned a value)
STALL = "stall"  #: watchdog classified a blocked episode as a stall
RESTART = "restart"  #: watchdog restarted the agent from its checkpoint
#: (``node`` = where it was stuck, ``dest`` = its home-base)
FORGE = "forge"  #: a Byzantine agent wrote a sign of another agent's color
#: (same step and agent as the WRITE it annotates)
DETECT = "detect"  #: the cheat-detection audit surfaced a finding
#: (system event: ``agent`` is -1, ``detail`` names the finding)
CHURN = "churn"  #: dynamic-network churn added or removed an edge
#: (system event: ``agent`` is -1, ``node``/``dest`` are the endpoints)

#: Step index used for system events (churn drivers, cheat detectors).
SYSTEM_AGENT = -1

#: All event kinds, in a stable presentation order.
KINDS: Tuple[str, ...] = (
    WAKE, MOVE, READ, WRITE, ERASE, ACQUIRE, WAIT, BLOCK, UNBLOCK, LOG, DONE,
    STALL, RESTART, FORGE, DETECT, CHURN,
)

#: Kinds that can be the scheduled agent's own step — exactly one of these
#: occurs per scheduler step, which is how the schedule is recovered.
#: STALL/RESTART are runtime (watchdog) interventions between steps, never
#: an agent's own action, so they stay out of this set and schedule
#: recovery is unchanged by fault supervision.  FORGE/DETECT/CHURN are
#: likewise secondary: a FORGE annotates the same step's WRITE, and
#: DETECT/CHURN are system events outside any agent's schedule.
PRIMARY_KINDS = frozenset({MOVE, READ, WRITE, ERASE, ACQUIRE, WAIT, BLOCK, LOG, DONE})

#: Kinds that count as one whiteboard access in the runtime's metrics
#: (mirrors ``AgentRecord.accesses`` accounting: a WaitUntil is charged once
#: when first executed, whether or not it blocks; being unblocked is free).
ACCESS_KINDS = frozenset({READ, WRITE, ERASE, ACQUIRE, WAIT, BLOCK})

#: Step index used for events that precede the first scheduler choice.
PRE_RUN_STEP = -1


def _jsonify(value: Any) -> Any:
    """Best-effort JSON-safe projection of an event field.

    Ints, strings, bools and ``None`` pass through; tuples become lists;
    anything else (e.g. a qualitative :class:`~repro.colors.Color` port
    label) is projected to its ``repr``.  The projection is stable for a
    deterministically rebuilt network, so serialized streams of a run and
    its replay still compare equal.
    """
    if value is None or isinstance(value, (int, str, bool)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    return repr(value)


class TraceEvent(NamedTuple):
    """One observed step of one agent.

    Only ``step``, ``kind``, ``agent`` and ``node`` are always meaningful;
    the remaining fields are populated per kind (see the kind constants).
    For :data:`MOVE`, ``node`` is the *origin* and ``dest``/``entry`` record
    the node entered and the entry port.
    """

    step: int
    kind: str
    agent: int
    node: int
    color: Optional[str] = None
    port: Any = None
    dest: Optional[int] = None
    entry: Any = None
    sign: Optional[str] = None
    payload: Optional[Tuple[int, ...]] = None
    result: Optional[int] = None
    detail: str = ""

    @property
    def is_primary(self) -> bool:
        """Whether this event is a scheduled agent's own step."""
        return self.kind in PRIMARY_KINDS and self.step != PRE_RUN_STEP

    @property
    def is_access(self) -> bool:
        """Whether this event counts as one whiteboard access."""
        return self.kind in ACCESS_KINDS

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict with defaulted fields omitted (compact JSONL)."""
        out: Dict[str, Any] = {
            "step": self.step,
            "kind": self.kind,
            "agent": self.agent,
            "node": self.node,
        }
        for key in ("color", "port", "dest", "entry", "sign", "payload", "result"):
            value = getattr(self, key)
            if value is not None:
                out[key] = _jsonify(value)
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict` (payload lists become tuples again)."""
        payload = data.get("payload")
        return cls(
            step=int(data["step"]),
            kind=str(data["kind"]),
            agent=int(data["agent"]),
            node=int(data["node"]),
            color=data.get("color"),
            port=data.get("port"),
            dest=data.get("dest"),
            entry=data.get("entry"),
            sign=data.get("sign"),
            payload=None if payload is None else tuple(payload),
            result=data.get("result"),
            detail=str(data.get("detail", "")),
        )


@dataclass(frozen=True)
class TraceHeader:
    """Run-level metadata emitted once, before the event stream.

    The header carries everything the runtime knows about the instance
    (sizes, homes, color names, scheduler, seeds) plus free-form ``meta``
    contributed by callers via :meth:`repro.trace.sinks.TraceSink.annotate`
    — e.g. a graph spec that lets ``python -m repro.trace replay``
    reconstruct the instance from the file alone.
    """

    num_nodes: int
    num_edges: int
    num_agents: int
    homes: Tuple[int, ...]
    colors: Tuple[str, ...]
    scheduler: str = ""
    max_steps: int = 0
    port_shuffle_seed: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["homes"] = list(self.homes)
        out["colors"] = list(self.colors)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceHeader":
        return cls(
            num_nodes=int(data["num_nodes"]),
            num_edges=int(data["num_edges"]),
            num_agents=int(data["num_agents"]),
            homes=tuple(data["homes"]),
            colors=tuple(data["colors"]),
            scheduler=str(data.get("scheduler", "")),
            max_steps=int(data.get("max_steps", 0)),
            port_shuffle_seed=int(data.get("port_shuffle_seed", 0)),
            meta=dict(data.get("meta", {})),
        )
