"""Structured event tracing, deterministic replay, and invariant auditing.

The trace subsystem turns a :class:`~repro.sim.runtime.Simulation` run from
a black box into an explicit event sequence:

* :mod:`repro.trace.events` — the typed event model (wake/move/read/write/
  erase/acquire/wait/block/unblock/log/done) and the run header;
* :mod:`repro.trace.sinks` — pluggable destinations (memory ring buffer,
  JSONL file, tee), with a zero-cost default when no sink is attached;
* :mod:`repro.trace.replay` — schedule recovery and the
  :class:`~repro.trace.replay.ReplayScheduler` that re-drives a run
  bit-for-bit, plus self-describing trace files via
  :func:`~repro.trace.replay.record_run`/:func:`~repro.trace.replay.replay_trace`;
* :mod:`repro.trace.invariants` — trace-level audits (mutual exclusion,
  lifecycle, metrics agreement, the Theorem 3.1 ``O(r·|E|)`` bound);
* :mod:`repro.trace.summary` — aggregation and rendering.

Command line: ``python -m repro.trace summarize|check|replay|record …``.

Typical use::

    from repro import cycle_graph, Placement, run_elect
    from repro.trace import MemorySink, ReplayScheduler, assert_invariants

    sink = MemorySink()
    outcome = run_elect(cycle_graph(5), Placement.of([0, 1]), trace=sink)
    assert_invariants(sink.events, header=sink.header)

    # Reproduce the exact interleaving later:
    again = run_elect(cycle_graph(5), Placement.of([0, 1]),
                      scheduler=ReplayScheduler.from_events(sink.events))
    assert again.leader_color == outcome.leader_color
"""

from .events import (
    ACCESS_KINDS,
    ACQUIRE,
    BLOCK,
    DONE,
    ERASE,
    KINDS,
    LOG,
    MOVE,
    PRE_RUN_STEP,
    PRIMARY_KINDS,
    READ,
    RESTART,
    STALL,
    UNBLOCK,
    WAIT,
    WAKE,
    WRITE,
    TraceEvent,
    TraceHeader,
)
from .invariants import (
    THEOREM31_CONSTANT,
    InvariantReport,
    assert_invariants,
    audit_trace,
    check_accounting,
    check_lifecycle,
    check_mutual_exclusion,
    check_positions,
    check_restart_discipline,
    check_step_contiguity,
    check_theorem31,
)
from .replay import (
    GRAPH_BUILDERS,
    PROTOCOL_RUNNERS,
    ReplayResult,
    ReplayScheduler,
    build_network,
    record_run,
    replay_trace,
    schedule_of,
)
from .sinks import (
    JsonlSink,
    MemorySink,
    TeeSink,
    TraceSink,
    dump_trace,
    load_trace,
)
from .summary import AgentSummary, TraceSummary, render_summary, summarize

__all__ = [
    # events
    "TraceEvent",
    "TraceHeader",
    "KINDS",
    "PRIMARY_KINDS",
    "ACCESS_KINDS",
    "PRE_RUN_STEP",
    "WAKE",
    "MOVE",
    "READ",
    "WRITE",
    "ERASE",
    "ACQUIRE",
    "WAIT",
    "BLOCK",
    "UNBLOCK",
    "LOG",
    "DONE",
    "STALL",
    "RESTART",
    # sinks
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "TeeSink",
    "load_trace",
    "dump_trace",
    # replay
    "ReplayScheduler",
    "ReplayResult",
    "schedule_of",
    "record_run",
    "replay_trace",
    "build_network",
    "GRAPH_BUILDERS",
    "PROTOCOL_RUNNERS",
    # invariants
    "InvariantReport",
    "THEOREM31_CONSTANT",
    "audit_trace",
    "assert_invariants",
    "check_step_contiguity",
    "check_mutual_exclusion",
    "check_positions",
    "check_lifecycle",
    "check_accounting",
    "check_restart_discipline",
    "check_theorem31",
    # summary
    "TraceSummary",
    "AgentSummary",
    "summarize",
    "render_summary",
]
