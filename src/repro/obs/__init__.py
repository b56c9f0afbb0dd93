"""Observability: metrics registry, phase spans, budget gauges, exporters.

The unified cost-measurement layer of the reproduction (DESIGN §8.3).
Where :mod:`repro.trace` records *what happened* for replay and post-hoc
audit, this package measures *what it cost*:

* :mod:`repro.obs.registry` — :class:`MetricsRegistry` of counters,
  gauges and histograms (p50/p90/p99) with labeled series and a
  zero-cost disabled path;
* :mod:`repro.obs.spans` — :func:`span` and :class:`PhaseClock`
  wall-time profiling of ELECT's phases (MAP-DRAWING, COMPUTE & ORDER,
  AGENT-REDUCE, NODE-REDUCE);
* :mod:`repro.obs.budget` — :class:`BudgetTracker`, Theorem 3.1
  ``O(r·|E|)`` accounting with overrun findings;
* :mod:`repro.obs.exporters` — Prometheus text exposition, JSON
  snapshots and snapshot diffs;
* :mod:`repro.obs.flight` — the flight recorder: deterministic
  :class:`TraceContext` propagation across batteries, workers, the serve
  HTTP layer and campaigns, with Chrome-trace/Perfetto and JSONL
  exporters (DESIGN §8.7);
* :mod:`repro.obs.ledger` — :class:`~repro.obs.ledger.RunLedger`, the
  persistent SQLite append-only record of campaign/battery/serve runs;
* :mod:`repro.obs.regress` — the perf-regression sentinel comparing
  fresh bench JSON against committed baselines;
* ``python -m repro.obs`` — the ``report`` / ``export`` / ``diff`` /
  ``flight`` / ``ledger`` / ``regress`` CLI.

Every metric a run produces goes to one place, the process registry
(:func:`get_registry`).  It ships **disabled**: :func:`enable`,
:func:`disable` and the ``REPRO_METRICS=1`` environment variable switch
it, and only :func:`set_registry` replaces it (``python -m repro.obs
report`` installs a fresh one that way and restores the old one after).

Subsystems with always-on counters register themselves as *collectors*
(merged into :func:`collect_snapshot`): ``"perf"`` (memo-cache hit/miss),
``"fault"`` (:mod:`repro.fault.metrics` — fired injections by kind and
campaign outcome classifications) and ``"serve"``
(:mod:`repro.serve.metrics` — request, cache-tier, coalescing and
back-pressure counters; the election service's ``GET /metrics`` endpoint
serves the merged exposition of *all* collectors).  A supervised run
under an enabled process registry also feeds it
``watchdog_stalls_total`` / ``watchdog_restarts_total``.
"""

from .budget import ACCESSES, DEFAULT_CONSTANT, MOVES, BudgetTracker
from .flight import (
    FlightRecorder,
    FlightSpan,
    TraceContext,
    assert_valid_chrome,
    disable_flight,
    enable_flight,
    entrypoint_span,
    flight_recorder,
    flight_span,
    map_with_flight,
    to_chrome_trace,
    validate_chrome,
)
from .exporters import (
    FORMATS,
    diff_snapshots,
    load_snapshot,
    render_diff,
    to_json,
    to_prometheus,
    write_snapshot,
)
from .registry import (
    QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsFinding,
    collect_snapshot,
    collectors,
    disable,
    enable,
    get_registry,
    register_collector,
    reset_all_collectors,
    set_registry,
)
from .spans import (
    AGENT_REDUCE,
    ANNOUNCE,
    AWAIT,
    COMPUTE_ORDER,
    ELECT_PHASES,
    MAP_DRAWING,
    NODE_REDUCE,
    SPAN_METRIC,
    PhaseClock,
    span,
)

__all__ = [
    # registry
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "ObsFinding",
    "QUANTILES",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "register_collector",
    "collectors",
    "collect_snapshot",
    "reset_all_collectors",
    # flight recorder
    "TraceContext",
    "FlightSpan",
    "FlightRecorder",
    "enable_flight",
    "disable_flight",
    "flight_recorder",
    "entrypoint_span",
    "flight_span",
    "map_with_flight",
    "to_chrome_trace",
    "validate_chrome",
    "assert_valid_chrome",
    # spans
    "span",
    "PhaseClock",
    "SPAN_METRIC",
    "ELECT_PHASES",
    "MAP_DRAWING",
    "COMPUTE_ORDER",
    "AGENT_REDUCE",
    "NODE_REDUCE",
    "ANNOUNCE",
    "AWAIT",
    # budget
    "BudgetTracker",
    "DEFAULT_CONSTANT",
    "MOVES",
    "ACCESSES",
    # exporters
    "FORMATS",
    "to_prometheus",
    "to_json",
    "write_snapshot",
    "load_snapshot",
    "diff_snapshots",
    "render_diff",
    # wiring
    "instrument_whiteboards",
]


def instrument_whiteboards():
    """Feed whiteboard operations into ``whiteboard_ops_total{op=...}``.

    Installs the module-level observation hook of
    :mod:`repro.sim.whiteboard` (boards carry no registry reference, so
    per-operation counting goes through one process-global hook), bound
    to the process registry at call time.  Returns a zero-argument
    callable restoring the previous hook::

        restore = instrument_whiteboards()
        try:
            ...  # run simulations
        finally:
            restore()
    """
    from ..sim.whiteboard import set_observation_hook

    counter = get_registry().counter(
        "whiteboard_ops_total",
        help="whiteboard primitive invocations, by operation",
    )

    def _hook(op):
        counter.inc(op=op)

    previous = set_observation_hook(_hook)

    def restore():
        set_observation_hook(previous)

    return restore
