"""Deterministic replay: re-drive a simulation from a recorded schedule.

The only nondeterminism in a :class:`~repro.sim.runtime.Simulation` run is
the scheduler's choice sequence (agent private RNGs and the port-shuffle
are seeded).  A trace therefore pins an execution completely: the schedule
— which agent acted at each step — is recoverable from the event stream
because every step emits exactly one primary event
(:func:`schedule_of`), and feeding it back through a
:class:`ReplayScheduler` reproduces the run bit-for-bit, including runs
that misbehaved under a :class:`~repro.sim.scheduler.RandomScheduler`.

Two layers:

* **In-memory** — build the same instance yourself and pass
  ``ReplayScheduler.from_events(recorded_events)`` as the scheduler.
* **From file** — :func:`record_run` writes a trace whose header ``meta``
  names the instance (graph family + args, homes, protocol, seeds);
  :func:`replay_trace` rebuilds it from the file alone and asserts the
  replayed stream matches.  This is what ``python -m repro.trace replay``
  uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.placement import Placement
from ..core.result import ElectionOutcome
from ..core.runner import (
    run_cayley_elect,
    run_elect,
    run_petersen_duel,
    run_quantitative,
)
from ..errors import ReplayDivergence, TraceError
from ..graphs.builders import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
)
from ..graphs.cayley import hypercube_cayley, torus_cayley
from ..graphs.network import AnonymousNetwork
from ..sim.scheduler import RandomScheduler, Scheduler
from .events import PRE_RUN_STEP, TraceEvent, TraceHeader
from .sinks import JsonlSink, MemorySink, TraceSink, load_trace

# ---------------------------------------------------------------------------
# Schedule recovery
# ---------------------------------------------------------------------------


def schedule_of(events: Sequence[TraceEvent]) -> List[int]:
    """Recover the scheduler's choice sequence from an event stream.

    Relies on the runtime's one-primary-event-per-step discipline: the
    primary event of step ``s`` names the agent the scheduler chose at
    ``s``.  Raises :class:`~repro.errors.TraceError` if the stream is not a
    contiguous, single-primary-per-step record (a corrupted or hand-edited
    trace).
    """
    schedule: List[int] = []
    for ev in events:
        if ev.step == PRE_RUN_STEP or not ev.is_primary:
            continue
        if ev.step == len(schedule) - 1:
            raise TraceError(
                f"two primary events at step {ev.step} "
                f"(agents {schedule[-1]} and {ev.agent})"
            )
        if ev.step != len(schedule):
            raise TraceError(
                f"non-contiguous trace: expected step {len(schedule)}, "
                f"got {ev.step}"
            )
        schedule.append(ev.agent)
    return schedule


class ReplayScheduler(Scheduler):
    """Replays a recorded choice sequence, validating it as it goes.

    On the same instance (network, placements, agents, seeds) the recorded
    agent is runnable at every step and the run terminates exactly when the
    schedule is exhausted.  Any mismatch means the executions diverged and
    raises :class:`~repro.errors.ReplayDivergence` at the offending step —
    by construction replay failures are loud, never silently different.
    The error carries structured ``step`` / ``expected`` / ``runnable``
    fields so tools (the adversary minimizer, test harnesses) can inspect
    the divergence point without parsing the message.

    ``runnable_sizes`` (as recorded by
    :class:`~repro.sim.scheduler.RecordingScheduler`) enables a cheap
    self-check: a step whose live runnable set has a different size than
    the recording has already diverged even if the recorded agent happens
    to still be runnable.
    """

    def __init__(
        self,
        schedule: Sequence[int],
        runnable_sizes: Optional[Sequence[int]] = None,
    ):
        self.schedule: Tuple[int, ...] = tuple(schedule)
        self.runnable_sizes: Optional[Tuple[int, ...]] = (
            tuple(runnable_sizes) if runnable_sizes is not None else None
        )
        if (
            self.runnable_sizes is not None
            and len(self.runnable_sizes) != len(self.schedule)
        ):
            raise TraceError(
                f"runnable_sizes has {len(self.runnable_sizes)} entries for "
                f"a {len(self.schedule)}-step schedule"
            )
        self._next = 0

    @classmethod
    def from_events(cls, events: Sequence[TraceEvent]) -> "ReplayScheduler":
        return cls(schedule_of(events))

    @classmethod
    def from_recording(
        cls, recorder: "object"
    ) -> "ReplayScheduler":
        """Build from a :class:`~repro.sim.scheduler.RecordingScheduler`
        (choices plus the runnable-size self-check)."""
        return cls(recorder.choices, runnable_sizes=recorder.runnable_sizes)

    def reset(self) -> None:
        self._next = 0

    def choose(self, runnable: Sequence[int], step: int) -> int:
        if self._next >= len(self.schedule):
            raise ReplayDivergence(
                f"replay ran past the recorded schedule "
                f"({len(self.schedule)} steps): the instance differs from "
                f"the recorded one",
                step=self._next,
                runnable=sorted(runnable),
            )
        idx = self.schedule[self._next]
        if idx not in runnable:
            raise ReplayDivergence(
                f"step {self._next}: recorded agent {idx} is not runnable "
                f"(runnable: {sorted(runnable)}); the instance differs from "
                f"the recorded one",
                step=self._next,
                expected=idx,
                runnable=sorted(runnable),
            )
        if (
            self.runnable_sizes is not None
            and len(runnable) != self.runnable_sizes[self._next]
        ):
            raise ReplayDivergence(
                f"step {self._next}: runnable set has {len(runnable)} "
                f"agents, the recording had "
                f"{self.runnable_sizes[self._next]}; the executions have "
                f"diverged",
                step=self._next,
                expected=self.runnable_sizes[self._next],
                runnable=sorted(runnable),
            )
        self._next += 1
        return idx

    def __repr__(self) -> str:
        return f"ReplayScheduler({len(self.schedule)} steps)"


# ---------------------------------------------------------------------------
# Instance registry (file-level replay)
# ---------------------------------------------------------------------------

#: Graph families reconstructible from a trace header's ``meta`` — each maps
#: a name to a builder taking the recorded ``graph_args``.
GRAPH_BUILDERS: Dict[str, Callable[..., AnonymousNetwork]] = {
    "cycle": cycle_graph,
    "path": path_graph,
    "complete": complete_graph,
    "grid": grid_graph,
    "complete_bipartite": complete_bipartite_graph,
    "petersen": lambda: petersen_graph(),
    "hypercube": lambda d: hypercube_cayley(d).network,
    "torus": lambda *dims: torus_cayley(list(dims)).network,
}

#: Protocols reconstructible by name (the one-call runners).
PROTOCOL_RUNNERS: Dict[str, Callable[..., ElectionOutcome]] = {
    "elect": run_elect,
    "cayley-elect": run_cayley_elect,
    "petersen-duel": run_petersen_duel,
    "quantitative": run_quantitative,
}


def build_network(graph: str, graph_args: Sequence[Any] = ()) -> AnonymousNetwork:
    """Build a registered graph family by name (replay reconstruction)."""
    try:
        builder = GRAPH_BUILDERS[graph]
    except KeyError:
        raise TraceError(
            f"unknown graph family {graph!r}; registered: "
            f"{', '.join(sorted(GRAPH_BUILDERS))}"
        ) from None
    try:
        return builder(*graph_args)
    except TypeError as exc:
        raise TraceError(
            f"graph family {graph!r} rejected args {list(graph_args)!r}: {exc}"
        ) from None


@dataclass
class ReplayResult:
    """What a file-level replay produced, next to the recording."""

    outcome: ElectionOutcome
    events: Tuple[TraceEvent, ...]
    header: TraceHeader
    recorded_events: Tuple[TraceEvent, ...]

    @property
    def matches(self) -> bool:
        """Serialized replayed stream identical to the recorded one."""
        if len(self.events) != len(self.recorded_events):
            return False
        return all(
            a.to_dict() == b.to_dict()
            for a, b in zip(self.events, self.recorded_events)
        )


def record_run(
    graph: str,
    graph_args: Sequence[Any],
    homes: Sequence[int],
    protocol: str = "elect",
    seed: int = 0,
    path: Optional[str] = None,
    sink: Optional[TraceSink] = None,
    scheduler: Optional[Scheduler] = None,
    **sim_kwargs: Any,
) -> Tuple[ElectionOutcome, TraceSink]:
    """Run a registered protocol on a registered instance, recording a trace.

    The sink's header ``meta`` receives the full instance spec, so the
    resulting trace is self-describing: :func:`replay_trace` (and the CLI's
    ``replay`` command) can rebuild the run from the file alone.
    Returns ``(outcome, sink)``; a path-backed sink is closed before return.
    """
    if protocol not in PROTOCOL_RUNNERS:
        raise TraceError(
            f"unknown protocol {protocol!r}; registered: "
            f"{', '.join(sorted(PROTOCOL_RUNNERS))}"
        )
    network = build_network(graph, graph_args)
    if sink is None:
        sink = JsonlSink(path) if path is not None else MemorySink()
    sink.annotate(
        {
            "graph": graph,
            "graph_args": list(graph_args),
            "homes": list(homes),
            "protocol": protocol,
            "seed": seed,
        }
    )
    runner = PROTOCOL_RUNNERS[protocol]
    try:
        outcome = runner(
            network,
            Placement.of(homes),
            scheduler=scheduler or RandomScheduler(seed=seed),
            seed=seed,
            trace=sink,
            **sim_kwargs,
        )
    finally:
        if path is not None:
            sink.close()
    return outcome, sink


def replay_trace(
    source: Union[str, Tuple[Optional[TraceHeader], Sequence[TraceEvent]]],
    verify: bool = True,
) -> ReplayResult:
    """Rebuild and re-run a recorded instance from its trace.

    ``source`` is a JSONL path or an already-loaded ``(header, events)``
    pair.  The header's ``meta`` must carry the instance spec written by
    :func:`record_run`.  With ``verify=True`` (default) a replayed stream
    that differs from the recording raises
    :class:`~repro.errors.ReplayDivergence` naming the first differing
    event.
    """
    if isinstance(source, str):
        header, recorded = load_trace(source)
    else:
        header, recorded = source[0], list(source[1])
    if header is None:
        raise TraceError("trace has no header; cannot reconstruct the instance")
    meta = header.meta
    missing = [k for k in ("graph", "homes", "protocol", "seed") if k not in meta]
    if missing:
        raise TraceError(
            f"trace header meta lacks {missing}; record with "
            f"repro.trace.replay.record_run to produce replayable traces"
        )
    network = build_network(meta["graph"], meta.get("graph_args", ()))
    sink = MemorySink()
    runner = PROTOCOL_RUNNERS[meta["protocol"]]
    outcome = runner(
        network,
        Placement.of(meta["homes"]),
        scheduler=ReplayScheduler.from_events(recorded),
        seed=meta["seed"],
        trace=sink,
        port_shuffle_seed=header.port_shuffle_seed,
        max_steps=header.max_steps or None,
    )
    result = ReplayResult(
        outcome=outcome,
        events=sink.events,
        header=header,
        recorded_events=tuple(recorded),
    )
    if verify and not result.matches:
        for i, (a, b) in enumerate(zip(result.events, result.recorded_events)):
            if a.to_dict() != b.to_dict():
                raise ReplayDivergence(
                    f"replayed event {i} differs from the recording: "
                    f"{a.to_dict()} != {b.to_dict()}"
                )
        raise ReplayDivergence(
            f"replayed stream has {len(result.events)} events, "
            f"recording has {len(result.recorded_events)}"
        )
    return result
