"""Agent actions and the information agents receive back.

An agent protocol is a Python generator that *yields* actions and receives
results via ``send``.  Exactly one action executes per scheduler step, which
makes every whiteboard access atomic — the paper's "fair mutual exclusion
mechanism" — while the scheduler interleaves different agents arbitrarily
(asynchrony: "every action takes a finite but otherwise unpredictable amount
of time").

Agents never see node identifiers.  What an agent observes at a node is a
:class:`NodeView`: the node's degree, its port labels (presented in an
order randomized per agent so that no covert total order leaks through),
the whiteboard contents, and — after a move — the entry port.

:class:`NodeView` is a :class:`typing.NamedTuple`: the runtime builds one
for every Move, Read and wait check, and a tuple is cheaper to build than
a frozen dataclass.  It stays immutable, hashable and equal by value; being a
tuple, it also unpacks, indexes and compares equal to a plain tuple of the
same values.  The actions themselves stay frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from ..colors import Color
from ..graphs.network import PortLabel
from .signs import Sign


class NodeView(NamedTuple):
    """What an agent perceives standing at a node."""

    degree: int
    ports: Tuple[PortLabel, ...]
    signs: Tuple[Sign, ...]
    entry_port: Optional[PortLabel] = None

    def signs_of(self, kind: str, payload: Optional[Tuple[int, ...]] = None):
        """Signs on this board matching ``kind`` (and payload)."""
        return [s for s in self.signs if s.matches(kind, payload)]


class Action:
    """Base class of all agent actions (marker only)."""

    __slots__ = ()


@dataclass(frozen=True)
class Move(Action):
    """Leave the current node through ``port``.  Result: :class:`NodeView`
    of the node entered (with ``entry_port`` set)."""

    port: PortLabel


@dataclass(frozen=True)
class Read(Action):
    """Observe the current node.  Result: :class:`NodeView`."""


@dataclass(frozen=True)
class Write(Action):
    """Append a sign to the current whiteboard.

    The runtime stamps/validates the sign's color: an agent may only write
    its own color (or the sign may be built with ``color=None`` and the
    runtime fills the writer's color in).  Result: ``None``.
    """

    sign: Sign


@dataclass(frozen=True)
class Erase(Action):
    """Remove this agent's *own* signs of ``kind`` (and payload, if given)
    from the current whiteboard.  Result: number of signs removed."""

    kind: str
    payload: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class TryAcquire(Action):
    """Atomic test-and-write: if fewer than ``capacity`` signs with
    ``(kind, payload)`` exist on the current board, append one in the
    agent's color and return ``True``; otherwise return ``False``.

    This models the whiteboard races the paper relies on ("the first node
    which writes on the whiteboard is elected", node acquisition in
    NODE-REDUCE, matching in AGENT-REDUCE).
    """

    kind: str
    payload: Tuple[int, ...] = field(default_factory=tuple)
    capacity: int = 1


@dataclass(frozen=True)
class WaitUntil(Action):
    """Block until ``predicate(view)`` holds at the current node.

    ``predicate`` must be a pure function of the :class:`NodeView`.  The
    runtime re-evaluates it whenever the node's board changes (and once
    immediately), delivering the satisfying view as the result.  The
    optional ``reason`` string is surfaced in deadlock diagnostics.
    """

    predicate: Callable[[NodeView], bool]
    reason: str = ""

    # dataclass(frozen) with a callable field: eq/hash by identity is fine.
    def __hash__(self) -> int:  # pragma: no cover - trivial
        return id(self)


@dataclass(frozen=True)
class Log(Action):
    """Record a trace event (free: no move or whiteboard access counted).
    Result: ``None``.  Used by tests to observe protocol internals."""

    event: str
    data: Tuple[int, ...] = field(default_factory=tuple)
