"""Fault-layer metrics: an always-enabled ``"fault"`` collector.

Mirrors the ``perf.cache`` pattern: counters live in a dedicated
always-enabled :class:`~repro.obs.registry.MetricsRegistry` registered as
the ``"fault"`` collector, so they appear in
:func:`repro.obs.collect_snapshot` without the default registry being
switched on, and tests can assert on injection counts regardless of global
metrics state.

Metrics
-------
* ``fault_injections_total{kind=…}`` — faults that actually *fired*
  (crash, write-drop, write-corrupt), fed by
  :meth:`repro.fault.plan.InjectionLog.record` via :func:`count_injection`;
* ``campaign_outcomes_total{outcome=…}`` — campaign rows per
  classification, fed by the campaign classifier;
* ``cheat_detections_total{kind=…}`` — cheat-detection findings surfaced
  by :class:`repro.fault.detect.CheatDetector` sweeps (``forged`` /
  ``consistency`` / ``strict``), counted once per distinct finding.

The per-run watchdog counters (``watchdog_stalls_total`` /
``watchdog_restarts_total``) live in the process registry instead — they
are per-agent observations of one simulation, published by
:meth:`repro.sim.runtime.Simulation._publish_metrics` with the move
counters when the run ends.
"""

from __future__ import annotations

from typing import Dict

from ..obs.registry import MetricsRegistry, register_collector

_metrics = MetricsRegistry(enabled=True)
register_collector("fault", _metrics)

_injections = _metrics.counter(
    "fault_injections_total", help="fault injections that fired, by kind"
)
_outcomes = _metrics.counter(
    "campaign_outcomes_total",
    help="fault-campaign rows, by outcome classification",
)
_detections = _metrics.counter(
    "cheat_detections_total",
    help="cheat-detection findings, by evidence kind",
)


def count_injection(kind: str) -> None:
    """Record one fired injection (``crash``/``write-drop``/…)."""
    _injections.inc(kind=kind)


def count_outcome(outcome: str) -> None:
    """Record one classified campaign row."""
    _outcomes.inc(outcome=outcome)


def count_detection(kind: str) -> None:
    """Record one cheat-detection finding (``forged``/``consistency``/…)."""
    _detections.inc(kind=kind)


def detection_stats() -> Dict[str, int]:
    """``{kind: count}`` of cheat-detection findings since the last reset."""
    data = _metrics.snapshot()["metrics"].get("cheat_detections_total", {})
    out: Dict[str, int] = {}
    for series in data.get("series", []):
        out[series["labels"].get("kind", "?")] = int(series["value"])
    return out


def injection_stats() -> Dict[str, int]:
    """``{kind: count}`` of fired injections since the last reset."""
    data = _metrics.snapshot()["metrics"].get("fault_injections_total", {})
    out: Dict[str, int] = {}
    for series in data.get("series", []):
        out[series["labels"].get("kind", "?")] = int(series["value"])
    return out


def reset() -> None:
    """Zero the fault counters (explicit, like ``perf.cache.reset``)."""
    _metrics.reset()
