"""Trace-level invariant auditing.

Aggregate counters can hide interleaving bugs; these checkers validate the
*event sequence itself*.  Each checker returns an :class:`InvariantReport`;
:func:`audit_trace` runs the applicable battery and
:func:`assert_invariants` raises :class:`~repro.errors.InvariantViolation`
on the first failure.

Shipped checkers:

* **step contiguity** — exactly one primary event per step ``0..steps-1``
  (the property that makes schedules recoverable from traces);
* **whiteboard mutual exclusion** — at most one whiteboard access per step,
  i.e. accesses are totally ordered by the step index (the paper's "fair
  mutual exclusion mechanism" observed at trace level);
* **positional consistency** — agents act only where they are: replaying
  just the ``move`` events from the header's homes predicts the node of
  every event;
* **lifecycle** — each agent wakes at most once, acts only after waking,
  and emits nothing after ``done``;
* **restart discipline** — watchdog ``stall``/``restart`` events only hit
  blocked agents, and every restart resumes at the agent's home-base
  checkpoint (given a header);
* **detection discipline** — every ``forge`` event annotates a concrete
  same-step write, and forged-provenance ``detect`` findings never precede
  the first forgery;
* **accounting agreement** — per-agent ``move``/access event counts equal
  the runtime's :class:`~repro.sim.runtime.SimulationResult` metrics (the
  counters and the trace tell the same story);
* **Theorem 3.1 audit** — total moves and accesses within ``C·r·|E|`` for
  a configurable constant (default mirrors the E7 benchmark's bound).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import InvariantViolation
from ..obs.budget import DEFAULT_CONSTANT as THEOREM31_CONSTANT
from .events import (
    BLOCK,
    DETECT,
    DONE,
    FORGE,
    MOVE,
    PRE_RUN_STEP,
    RESTART,
    STALL,
    UNBLOCK,
    WAKE,
    WRITE,
    TraceEvent,
    TraceHeader,
)


@dataclass
class InvariantReport:
    """Outcome of one checker."""

    name: str
    ok: bool
    detail: str = ""
    stats: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "ok" if self.ok else "VIOLATED"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"{self.name}: {status}{suffix}"


def check_step_contiguity(events: Sequence[TraceEvent]) -> InvariantReport:
    """Exactly one primary event per step, steps contiguous from 0."""
    expected = 0
    for ev in events:
        if ev.step == PRE_RUN_STEP or not ev.is_primary:
            continue
        if ev.step != expected:
            return InvariantReport(
                "step-contiguity",
                False,
                f"expected primary event at step {expected}, got step "
                f"{ev.step} (agent {ev.agent}, {ev.kind})",
            )
        expected += 1
    return InvariantReport(
        "step-contiguity", True, stats={"steps": float(expected)}
    )


def check_mutual_exclusion(events: Sequence[TraceEvent]) -> InvariantReport:
    """At most one whiteboard access per step (atomicity, trace-level)."""
    accesses_at: Dict[int, TraceEvent] = {}
    total = 0
    for ev in events:
        if not ev.is_access:
            continue
        total += 1
        prev = accesses_at.get(ev.step)
        if prev is not None:
            return InvariantReport(
                "whiteboard-mutual-exclusion",
                False,
                f"step {ev.step}: two whiteboard accesses in one step "
                f"(agent {prev.agent} {prev.kind} and agent {ev.agent} "
                f"{ev.kind})",
            )
        accesses_at[ev.step] = ev
    return InvariantReport(
        "whiteboard-mutual-exclusion", True, stats={"accesses": float(total)}
    )


def check_positions(
    events: Sequence[TraceEvent], header: TraceHeader
) -> InvariantReport:
    """Every event happens at the node its agent actually occupies."""
    pos = {i: home for i, home in enumerate(header.homes)}
    for ev in events:
        if ev.agent < 0:
            # System events (churn drivers, cheat detectors) happen at a
            # node but are not performed by any positioned agent.
            continue
        where = pos.get(ev.agent)
        if where is None:
            return InvariantReport(
                "positional-consistency",
                False,
                f"step {ev.step}: unknown agent {ev.agent}",
            )
        if ev.node != where:
            return InvariantReport(
                "positional-consistency",
                False,
                f"step {ev.step}: agent {ev.agent} recorded at node "
                f"{ev.node} but occupies node {where}",
            )
        if ev.kind in (MOVE, RESTART):
            # A restart teleports the agent back to its home-base; the
            # event's ``dest`` records where, exactly like a move's.
            if ev.dest is None:
                return InvariantReport(
                    "positional-consistency",
                    False,
                    f"step {ev.step}: {ev.kind} event lacks a destination",
                )
            pos[ev.agent] = ev.dest
    return InvariantReport("positional-consistency", True)


def check_lifecycle(events: Sequence[TraceEvent]) -> InvariantReport:
    """Wake-once, act-only-awake, silent-after-done, per agent."""
    woke: Dict[int, int] = {}
    done: Dict[int, int] = {}
    for ev in events:
        if ev.agent < 0:
            continue
        if ev.agent in done:
            return InvariantReport(
                "agent-lifecycle",
                False,
                f"step {ev.step}: agent {ev.agent} emitted {ev.kind} after "
                f"terminating at step {done[ev.agent]}",
            )
        if ev.kind == WAKE:
            if ev.agent in woke:
                return InvariantReport(
                    "agent-lifecycle",
                    False,
                    f"step {ev.step}: agent {ev.agent} woke twice",
                )
            woke[ev.agent] = ev.step
        else:
            if ev.agent not in woke:
                return InvariantReport(
                    "agent-lifecycle",
                    False,
                    f"step {ev.step}: agent {ev.agent} acted ({ev.kind}) "
                    f"before waking",
                )
            if ev.kind == DONE:
                done[ev.agent] = ev.step
    return InvariantReport(
        "agent-lifecycle",
        True,
        stats={"woke": float(len(woke)), "done": float(len(done))},
    )


def check_restart_discipline(
    events: Sequence[TraceEvent],
    header: Optional[TraceHeader] = None,
) -> InvariantReport:
    """Watchdog interventions follow the recovery protocol.

    * a ``restart`` may only hit an agent whose most recent own event is a
      ``block`` or a ``stall`` classification (only stuck agents recover);
    * every ``restart`` carries a destination, and with a header available
      that destination must be the agent's home-base (checkpoint restarts
      always resume from the home whiteboard);
    * a ``stall`` may only be flagged for an agent that is currently
      blocked (its latest own event is ``block`` or another ``stall``).
    """
    last_kind: Dict[int, str] = {}
    restarts = 0
    stalls = 0
    for ev in events:
        if ev.agent < 0:
            continue
        if ev.kind == RESTART:
            restarts += 1
            prev = last_kind.get(ev.agent)
            if prev not in (BLOCK, STALL):
                return InvariantReport(
                    "restart-discipline",
                    False,
                    f"step {ev.step}: agent {ev.agent} restarted while its "
                    f"latest event was {prev or 'absent'!r}, not block/stall",
                )
            if ev.dest is None:
                return InvariantReport(
                    "restart-discipline",
                    False,
                    f"step {ev.step}: restart event lacks a destination",
                )
            if header is not None and ev.dest != header.homes[ev.agent]:
                return InvariantReport(
                    "restart-discipline",
                    False,
                    f"step {ev.step}: agent {ev.agent} restarted at node "
                    f"{ev.dest}, not its home-base {header.homes[ev.agent]}",
                )
        elif ev.kind == STALL:
            stalls += 1
            if last_kind.get(ev.agent) not in (BLOCK, STALL):
                return InvariantReport(
                    "restart-discipline",
                    False,
                    f"step {ev.step}: agent {ev.agent} flagged as stalled "
                    f"without being blocked",
                )
        last_kind[ev.agent] = ev.kind
    return InvariantReport(
        "restart-discipline",
        True,
        stats={"restarts": float(restarts), "stalls": float(stalls)},
    )


def check_detection_discipline(
    events: Sequence[TraceEvent],
) -> InvariantReport:
    """Byzantine evidence events obey the cause-before-detection protocol.

    * a ``forge`` event annotates a concrete write: the same (step, agent)
      must also carry a ``write`` event (the forged sign actually landing);
    * a ``detect`` finding of kind ``forged`` may only appear after at
      least one ``forge`` event — the detector cannot accuse anyone of
      forging before a forgery exists in the record.

    Consistency findings (``consistency:``/``strict:`` details) are exempt
    from the second rule: benign corruption can legitimately trigger them
    without any forge event.
    """
    writes = set()
    forges: List[TraceEvent] = []
    forged_seen = False
    detects = 0
    for ev in events:
        if ev.kind == WRITE:
            writes.add((ev.step, ev.agent))
        elif ev.kind == FORGE:
            forges.append(ev)
            forged_seen = True
        elif ev.kind == DETECT:
            detects += 1
            if ev.detail.startswith("forged") and not forged_seen:
                return InvariantReport(
                    "detection-discipline",
                    False,
                    f"step {ev.step}: forged-provenance finding "
                    f"({ev.detail!r}) precedes any forge event",
                )
    for ev in forges:
        if (ev.step, ev.agent) not in writes:
            return InvariantReport(
                "detection-discipline",
                False,
                f"step {ev.step}: forge event by agent {ev.agent} has no "
                f"matching write at the same step",
            )
    return InvariantReport(
        "detection-discipline",
        True,
        stats={"forges": float(len(forges)), "detections": float(detects)},
    )


def check_accounting(
    events: Sequence[TraceEvent],
    moves: Sequence[int],
    accesses: Sequence[int],
    steps: Optional[int] = None,
) -> InvariantReport:
    """Trace-derived per-agent metrics equal the runtime's counters.

    ``moves``/``accesses`` are the per-agent lists from a
    :class:`~repro.sim.runtime.SimulationResult` (or an
    :class:`~repro.core.result.ElectionOutcome`'s totals, summed).
    """
    ev_moves: Counter = Counter()
    ev_accesses: Counter = Counter()
    primaries = 0
    for ev in events:
        if ev.kind == MOVE:
            ev_moves[ev.agent] += 1
        if ev.is_access:
            ev_accesses[ev.agent] += 1
        if ev.is_primary:
            primaries += 1
    for i, expected in enumerate(moves):
        if ev_moves.get(i, 0) != expected:
            return InvariantReport(
                "metrics-trace-agreement",
                False,
                f"agent {i}: trace has {ev_moves.get(i, 0)} moves, "
                f"runtime counted {expected}",
            )
    for i, expected in enumerate(accesses):
        if ev_accesses.get(i, 0) != expected:
            return InvariantReport(
                "metrics-trace-agreement",
                False,
                f"agent {i}: trace has {ev_accesses.get(i, 0)} accesses, "
                f"runtime counted {expected}",
            )
    if steps is not None and primaries != steps:
        return InvariantReport(
            "metrics-trace-agreement",
            False,
            f"trace has {primaries} primary events, runtime took {steps} steps",
        )
    return InvariantReport(
        "metrics-trace-agreement",
        True,
        stats={
            "moves": float(sum(ev_moves.values())),
            "accesses": float(sum(ev_accesses.values())),
        },
    )


def check_theorem31(
    events: Sequence[TraceEvent],
    num_agents: int,
    num_edges: int,
    constant: float = THEOREM31_CONSTANT,
) -> InvariantReport:
    """Audit the Theorem 3.1 complexity bound on one run's trace.

    Total moves and total whiteboard accesses must not exceed
    ``constant · r · |E|``.  The report's stats carry the normalized ratios
    so sweeps can track how close runs come to the bound.
    """
    total_moves = sum(1 for ev in events if ev.kind == MOVE)
    total_accesses = sum(1 for ev in events if ev.is_access)
    budget = constant * num_agents * max(1, num_edges)
    r_moves = total_moves / (num_agents * max(1, num_edges))
    r_accesses = total_accesses / (num_agents * max(1, num_edges))
    stats = {
        "moves": float(total_moves),
        "accesses": float(total_accesses),
        "moves_ratio": r_moves,
        "accesses_ratio": r_accesses,
    }
    if total_moves > budget or total_accesses > budget:
        return InvariantReport(
            "theorem-3.1-bound",
            False,
            f"moves={total_moves}, accesses={total_accesses} exceed "
            f"{constant}·r·|E| = {budget:.0f} (r={num_agents}, |E|={num_edges})",
            stats=stats,
        )
    return InvariantReport("theorem-3.1-bound", True, stats=stats)


def audit_trace(
    events: Sequence[TraceEvent],
    header: Optional[TraceHeader] = None,
    moves: Optional[Sequence[int]] = None,
    accesses: Optional[Sequence[int]] = None,
    steps: Optional[int] = None,
    theorem31_constant: float = THEOREM31_CONSTANT,
) -> List[InvariantReport]:
    """Run every applicable checker; skip those lacking their inputs.

    The structural checkers (contiguity, mutual exclusion, lifecycle) need
    only the events; positional consistency and the Theorem 3.1 audit need
    a header; accounting agreement needs the runtime's per-agent counters.
    """
    reports = [
        check_step_contiguity(events),
        check_mutual_exclusion(events),
        check_lifecycle(events),
        check_restart_discipline(events, header=header),
        check_detection_discipline(events),
    ]
    if header is not None:
        reports.append(check_positions(events, header))
        reports.append(
            check_theorem31(
                events,
                num_agents=header.num_agents,
                num_edges=header.num_edges,
                constant=theorem31_constant,
            )
        )
    if moves is not None and accesses is not None:
        reports.append(check_accounting(events, moves, accesses, steps=steps))
    return reports


def assert_invariants(
    events: Sequence[TraceEvent],
    header: Optional[TraceHeader] = None,
    moves: Optional[Sequence[int]] = None,
    accesses: Optional[Sequence[int]] = None,
    steps: Optional[int] = None,
) -> List[InvariantReport]:
    """Like :func:`audit_trace`, but raise on the first violation."""
    reports = audit_trace(
        events, header=header, moves=moves, accesses=accesses, steps=steps
    )
    for report in reports:
        if not report.ok:
            raise InvariantViolation(str(report))
    return reports
