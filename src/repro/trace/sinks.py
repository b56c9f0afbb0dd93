"""Pluggable trace sinks: where a run's event stream goes.

The runtime's emit hooks are guarded by a single ``is not None`` test, so a
simulation constructed without a sink (``trace=None``, the one untraced
run) pays nothing for the instrumentation (the "zero-cost default").
Every sink is live: when one *is* attached, the runtime calls
:meth:`TraceSink.emit_header` once before the first event and
:meth:`TraceSink.emit` for every event, then :meth:`TraceSink.flush` when
the run ends (normally or via ``deadlock_ok``).

Shipped sinks:

* :class:`MemorySink` — list or ring buffer (``capacity``) of events.
* :class:`JsonlSink` — one JSON object per line; first line is the header.
* :class:`TeeSink` — fan-out to several sinks (e.g. memory + file).

:func:`load_trace` reads a JSONL trace back into ``(header, events)``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import TraceError
from .events import TraceEvent, TraceHeader


class TraceSink:
    """Base sink: receives a header then a stream of events.

    Subclasses override :meth:`emit` (and usually :meth:`emit_header`).
    ``annotations`` set via :meth:`annotate` are merged into the header's
    ``meta`` when the runtime emits it — the mechanism by which callers
    (e.g. :func:`repro.core.runner.run_election` or the record helpers in
    :mod:`repro.trace.replay`) attach instance provenance to a trace.
    """

    def __init__(self) -> None:
        self.annotations: Dict[str, Any] = {}
        self.header: Optional[TraceHeader] = None

    def annotate(self, meta: Dict[str, Any]) -> "TraceSink":
        """Merge ``meta`` into the (future) header's free-form metadata."""
        self.annotations.update(meta)
        return self

    def emit_header(self, header: TraceHeader) -> None:
        """Receive the run header (called once, before any event)."""
        if self.annotations:
            merged = dict(header.meta)
            merged.update(self.annotations)
            header = TraceHeader(
                num_nodes=header.num_nodes,
                num_edges=header.num_edges,
                num_agents=header.num_agents,
                homes=header.homes,
                colors=header.colors,
                scheduler=header.scheduler,
                max_steps=header.max_steps,
                port_shuffle_seed=header.port_shuffle_seed,
                meta=merged,
            )
        self.header = header
        self._write_header(header)

    def _write_header(self, header: TraceHeader) -> None:
        """Subclass hook: persist the (annotation-merged) header."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Called when the run ends; also on context-manager exit."""

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class MemorySink(TraceSink):
    """Buffers events in memory.

    With ``capacity=None`` (default) the sink keeps the whole stream; with a
    positive ``capacity`` it becomes a ring buffer keeping only the most
    recent events (``dropped`` counts the evicted ones) — the flight-recorder
    mode for long runs where only the tail around a failure matters.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        super().__init__()
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if self.capacity is not None and len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """The buffered events, oldest first."""
        return tuple(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink(TraceSink):
    """Writes the trace as JSON Lines: header first, then one event per line.

    Accepts a path (opened lazily, closed by :meth:`close`/``with``) or an
    already-open text file object (left open on close — caller owns it).
    """

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        super().__init__()
        if isinstance(path_or_file, str):
            self._path: Optional[str] = path_or_file
            self._file: Optional[IO[str]] = None
            self._owns_file = True
        else:
            self._path = None
            self._file = path_or_file
            self._owns_file = False
        self.events_written = 0

    def _out(self) -> IO[str]:
        if self._file is None:
            assert self._path is not None
            self._file = open(self._path, "w", encoding="utf-8")
        return self._file

    def _write_header(self, header: TraceHeader) -> None:
        record = {"type": "header"}
        record.update(header.to_dict())
        self._out().write(json.dumps(record) + "\n")

    def emit(self, event: TraceEvent) -> None:
        record = {"type": "event"}
        record.update(event.to_dict())
        self._out().write(json.dumps(record) + "\n")
        self.events_written += 1

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self._owns_file:
                self._file.close()
                self._file = None


class TeeSink(TraceSink):
    """Forwards the header and every event to several child sinks."""

    def __init__(self, *sinks: TraceSink) -> None:
        super().__init__()
        if not sinks:
            raise ValueError("TeeSink needs at least one child sink")
        self.sinks: Tuple[TraceSink, ...] = tuple(sinks)

    def emit_header(self, header: TraceHeader) -> None:
        super().emit_header(header)
        assert self.header is not None
        for sink in self.sinks:
            sink.emit_header(self.header)

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def load_trace(
    source: Union[str, IO[str], Iterable[str]],
) -> Tuple[Optional[TraceHeader], List[TraceEvent]]:
    """Read a JSONL trace into ``(header, events)``.

    ``source`` may be a path, an open text file, or any iterable of lines.
    The header is optional (a bare event stream loads with ``header=None``);
    a header appearing after events, or an unknown record type, raises
    :class:`~repro.errors.TraceError`.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_trace(fh)
    header: Optional[TraceHeader] = None
    events: List[TraceEvent] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: invalid JSON ({exc})") from exc
        rtype = record.get("type", "event")
        if rtype == "header":
            if events or header is not None:
                raise TraceError(f"line {lineno}: header must be the first record")
            header = TraceHeader.from_dict(record)
        elif rtype == "event":
            events.append(TraceEvent.from_dict(record))
        else:
            raise TraceError(f"line {lineno}: unknown record type {rtype!r}")
    return header, events


def dump_trace(
    path: str,
    events: Sequence[TraceEvent],
    header: Optional[TraceHeader] = None,
) -> None:
    """Write an in-memory ``(header, events)`` pair to a JSONL file."""
    sink = JsonlSink(path)
    try:
        if header is not None:
            sink.emit_header(header)
        for event in events:
            sink.emit(event)
    finally:
        sink.close()
