"""Span-based profiling: where did the wall time go, per phase?

Two instruments, both writing into the process registry's
``span_seconds`` histogram (labels: ``span`` plus whatever the caller
adds):

* :func:`span` — a plain context manager for synchronous computations
  (``with span("build_schedule"): ...``);
* :class:`PhaseClock` — for generator-based protocol code, where a phase
  is not a lexical block but a stretch of an agent's lifetime between two
  transitions.  ``enter(name)`` closes the previous phase's span and opens
  the next; ``close()`` ends the last one (the runtime calls it when the
  agent terminates or is restarted, with metrics on or off).

Because the simulation interleaves agents in one thread, a phase span
measures **wall time between that agent's phase transitions** — it
includes steps other agents took in between.  That is the observability
question being answered ("where did the run's time go while this agent
was in MAP-DRAWING?"), not a per-agent CPU profile; DESIGN §8.3 spells
out the semantics.

Both instruments read :func:`~repro.obs.registry.get_registry` when they
start and no-op against a disabled registry: :func:`span` yields
immediately, and a :class:`PhaseClock` built while it is disabled pins
itself off (``_registry = None``) so every call is one attribute test.

When the flight recorder (:mod:`repro.obs.flight`) is active *and* a
trace context is current, both instruments additionally emit flight
spans — so the same timing feeds the histogram and the causal trace
without double measurement.  The check is one context-variable read
(:func:`repro.obs.flight.active`), preserving the disabled-path
overhead contract.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from . import flight
from .registry import Histogram, MetricsRegistry, get_registry

#: Histogram receiving every span duration.
SPAN_METRIC = "span_seconds"

# The four phases of protocol ELECT (Figure 3), as span names.
MAP_DRAWING = "map_drawing"
COMPUTE_ORDER = "compute_order"
AGENT_REDUCE = "agent_reduce"
NODE_REDUCE = "node_reduce"
#: Terminal activities outside the four numbered phases.
ANNOUNCE = "announce"
AWAIT = "await"

#: All ELECT phase names, in protocol order (for reporting).
ELECT_PHASES = (MAP_DRAWING, COMPUTE_ORDER, AGENT_REDUCE, NODE_REDUCE,
                ANNOUNCE, AWAIT)


def _span_histogram(registry: MetricsRegistry) -> Histogram:
    return registry.histogram(
        SPAN_METRIC, help="wall-time of instrumented spans, by span name"
    )


@contextmanager
def span(name: str, **labels: Any) -> Iterator[None]:
    """Record the wall time of the enclosed block as one span observation."""
    reg = get_registry()
    frec = flight.active()
    if not reg.enabled and frec is None:
        yield
        return
    wall = time.time()
    start = time.perf_counter()
    try:
        yield
    finally:
        dur = time.perf_counter() - start
        if reg.enabled:
            _span_histogram(reg).observe(dur, span=name, **labels)
        if frec is not None:
            flight.observe(name, wall, dur, kind="span", attrs=labels)


class PhaseClock:
    """Tracks an agent's current phase and records span durations.

    ``labels`` (typically ``agent=<color name>``) are attached to every
    span this clock emits.  The clock also keeps the agent's current phase
    as its ``phase`` attribute.
    """

    __slots__ = ("_registry", "_hist", "_labels", "phase", "_entered",
                 "_flight", "_wall")

    def __init__(self, **labels: Any):
        reg = get_registry()
        self.phase: Optional[str] = None
        self._flight = flight.active() is not None
        self._wall = 0.0
        if not reg.enabled and not self._flight:
            self._registry: Optional[MetricsRegistry] = None
            self._hist: Optional[Histogram] = None
            self._labels: Dict[str, Any] = {}
            self._entered = 0.0
            return
        self._registry = reg if reg.enabled else None
        self._hist = _span_histogram(reg) if reg.enabled else None
        self._labels = dict(labels)
        self._entered = 0.0

    def _emit(self, now: float) -> None:
        dur = now - self._entered
        if self._hist is not None:
            self._hist.observe(dur, span=self.phase, **self._labels)
        if self._flight:
            flight.observe(
                self.phase, self._wall, dur, kind="phase", attrs=self._labels
            )

    def enter(self, phase: str) -> None:
        """Close the current phase's span (if any) and start ``phase``."""
        if self._registry is None and not self._flight:
            self.phase = phase
            return
        now = time.perf_counter()
        if self.phase is not None:
            self._emit(now)
        self.phase = phase
        self._entered = now
        self._wall = time.time()
        if self._registry is not None:
            self._registry.counter(
                "phase_entries_total", help="phase transitions, by phase"
            ).inc(phase=phase, **self._labels)

    def close(self) -> None:
        """End the final phase (idempotent)."""
        if (self._registry is None and not self._flight) or self.phase is None:
            self.phase = None
            return
        self._emit(time.perf_counter())
        self.phase = None
