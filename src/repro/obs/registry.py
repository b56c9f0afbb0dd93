"""The metrics registry: counters, gauges, histograms with labeled series.

One queryable surface for every cost signal in the reproduction.  The
design mirrors the Prometheus client model, trimmed to what the analysis
layer actually needs:

* a :class:`MetricsRegistry` owns named metrics; each metric owns *series*
  keyed by sorted ``label=value`` pairs (``phase``, ``agent``,
  ``instance``, …);
* :class:`Counter` (monotone), :class:`Gauge` (set/inc), and
  :class:`Histogram` (count/sum/min/max plus p50/p90/p99 quantiles from a
  bounded, deterministically decimated sample buffer);
* a **disabled fast path**: ``registry.enabled = False`` makes every
  ``inc``/``set``/``observe`` an attribute test + early return, mirroring
  the trace-sink zero-cost contract (the runtime feeds an enabled registry
  once, when a run ends, so its step loop has no metrics code at all);
* a **label-cardinality guard**: each metric holds at most
  ``max_series`` distinct label combinations; excess increments fold into
  a reserved overflow series and raise one structured
  :class:`ObsFinding` instead of growing without bound;
* **findings** — structured audit records (budget overruns, cardinality
  overflows) that ride along with the numeric snapshot.

Module-level helpers manage the *default* registry (the process registry
every run-level instrumentation point writes to) and a collector table
so independent registries — e.g. the always-on one owned by
:mod:`repro.perf.cache` — are merged into one snapshot by
:func:`collect_snapshot`.

This module is a leaf: it imports only the stdlib and
:mod:`repro.errors`, so every layer (sim, core, perf, analysis) can
instrument itself without import cycles.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..errors import MetricsError

#: Label key/value pairs, sorted — the identity of one series.
LabelKey = Tuple[Tuple[str, str], ...]

#: Reserved series absorbing increments past the cardinality guard.
OVERFLOW_LABELS: LabelKey = (("overflow", "true"),)

#: Quantiles every histogram reports.
QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class ObsFinding:
    """A structured audit finding attached to a registry.

    The metrics analogue of :class:`repro.trace.invariants.InvariantReport`:
    ``name`` identifies the check ("theorem-3.1-budget",
    "label-cardinality"), ``detail`` is human-readable, ``stats`` carries
    the numbers the check was made from.
    """

    name: str
    detail: str = ""
    stats: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "detail": self.detail, "stats": dict(self.stats)}

    def __str__(self) -> str:
        suffix = f" — {self.detail}" if self.detail else ""
        return f"{self.name}{suffix}"


class _HistogramState:
    """Per-series histogram accumulator with a bounded sample buffer.

    Quantiles need samples; unbounded sample lists would leak on long
    runs.  When the buffer fills, every other sample is dropped and the
    keep-stride doubles — a deterministic decimation (no RNG, so recorded
    runs stay reproducible) that keeps an evenly spaced subsample of the
    observation sequence.
    """

    __slots__ = (
        "count", "total", "min", "max", "samples",
        "_stride", "_skip", "_max_samples",
    )

    def __init__(self, max_samples: int):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: List[float] = []
        self._stride = 1
        self._skip = 0
        self._max_samples = max_samples

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._skip:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        self.samples.append(value)
        if len(self.samples) >= self._max_samples:
            self.samples = self.samples[::2]
            self._stride *= 2

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile over the retained samples."""
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out


class _Metric:
    """Common machinery: named series under a cardinality guard."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        self._registry = registry
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, Any] = {}

    # -- series management -------------------------------------------------

    def _new_value(self) -> Any:
        return 0.0

    def _slot(self, labels: Mapping[str, Any]) -> LabelKey:
        """Resolve labels to a series key, enforcing the cardinality guard."""
        key = _label_key(labels)
        if key in self._series:
            return key
        if len(self._series) >= self._registry.max_series:
            if OVERFLOW_LABELS not in self._series:
                self._series[OVERFLOW_LABELS] = self._new_value()
                self._registry.add_finding(
                    ObsFinding(
                        name="label-cardinality",
                        detail=(
                            f"metric {self.name!r} exceeded "
                            f"{self._registry.max_series} label combinations; "
                            f"further series fold into {{overflow=\"true\"}}"
                        ),
                        stats={"max_series": float(self._registry.max_series)},
                    )
                )
            return OVERFLOW_LABELS
        self._series[key] = self._new_value()
        return key

    def series(self) -> Dict[LabelKey, Any]:
        """Raw label-key → value mapping (histograms: accumulator states)."""
        with self._registry._lock:
            return dict(self._series)

    def clear(self) -> None:
        with self._registry._lock:
            self._series.clear()

    def snapshot_series(self) -> List[Dict[str, Any]]:
        with self._registry._lock:
            items = sorted(self._series.items())
        return [
            {"labels": dict(key), "value": self._project(value)}
            for key, value in items
        ]

    def _project(self, value: Any) -> Any:
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, {len(self._series)} series)"


class Counter(_Metric):
    """A monotonically increasing count (moves, accesses, cache hits…)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        with self._registry._lock:
            key = self._slot(labels)
            self._series[key] += amount

    def value(self, **labels: Any) -> float:
        with self._registry._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        with self._registry._lock:
            return float(sum(self._series.values()))


class Gauge(_Metric):
    """A value that can go up and down (budget headroom, queue depth…)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self._series[self._slot(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self._series[self._slot(labels)] += amount

    def value(self, **labels: Any) -> Optional[float]:
        with self._registry._lock:
            got = self._series.get(_label_key(labels))
        return None if got is None else float(got)


class Histogram(_Metric):
    """An observed distribution with snapshot-time quantiles."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        max_samples: int = 1024,
    ):
        super().__init__(registry, name, help)
        self.max_samples = max_samples

    def _new_value(self) -> _HistogramState:
        return _HistogramState(self.max_samples)

    def observe(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self._series[self._slot(labels)].observe(float(value))

    def state(self, **labels: Any) -> Optional[_HistogramState]:
        with self._registry._lock:
            return self._series.get(_label_key(labels))

    def _project(self, value: _HistogramState) -> Dict[str, Any]:
        return value.to_dict()


class MetricsRegistry:
    """A named collection of metrics with one on/off switch.

    Parameters
    ----------
    enabled:
        When False every write is a no-op; reads see empty metrics.  The
        switch can be flipped at any time (:meth:`enable` /
        :meth:`disable`).
    max_series:
        Cardinality guard — maximum label combinations per metric before
        writes fold into the overflow series.
    """

    def __init__(self, enabled: bool = True, max_series: int = 512):
        self.enabled = enabled
        self.max_series = max_series
        self._metrics: Dict[str, _Metric] = {}
        self._findings: List[ObsFinding] = []
        self._lock = threading.RLock()

    # -- switch ------------------------------------------------------------

    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self.enabled = False
        return self

    # -- metric constructors (idempotent by name) --------------------------

    def _get(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(self, name, help=help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise MetricsError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", max_samples: int = 1024
    ) -> Histogram:
        return self._get(Histogram, name, help, max_samples=max_samples)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def __iter__(self) -> Iterator[_Metric]:
        with self._lock:
            return iter(list(self._metrics.values()))

    # -- findings ----------------------------------------------------------

    def add_finding(self, finding: ObsFinding) -> None:
        with self._lock:
            self._findings.append(finding)

    @property
    def findings(self) -> Tuple[ObsFinding, ...]:
        with self._lock:
            return tuple(self._findings)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every series and drop findings; metric handles stay valid."""
        with self._lock:
            for metric in self._metrics.values():
                metric._series.clear()
            self._findings.clear()

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view: ``{"metrics": {...}, "findings": [...]}``."""
        with self._lock:
            metrics = list(self._metrics.values())
            findings = list(self._findings)
        return {
            "metrics": {
                m.name: {
                    "type": m.kind,
                    "help": m.help,
                    "series": m.snapshot_series(),
                }
                for m in metrics
            },
            "findings": [f.to_dict() for f in findings],
        }


# ---------------------------------------------------------------------------
# Default registry & collectors
# ---------------------------------------------------------------------------

#: The process-wide default: the one destination of every metric a run
#: produces.  Ships **disabled** so the hot paths keep their zero-cost
#: contract; opt in with ``repro.obs.enable()`` or the ``REPRO_METRICS=1``
#: environment variable, or install another with :func:`set_registry`.
_default = MetricsRegistry(enabled=bool(int(os.environ.get("REPRO_METRICS", "0") or 0)))

#: Named registries merged by :func:`collect_snapshot` (e.g. the always-on
#: cache-counter registry owned by :mod:`repro.perf.cache`).
_collectors: Dict[str, MetricsRegistry] = {"default": _default}


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _default
    previous = _default
    _default = registry
    _collectors["default"] = registry
    return previous


def enable() -> MetricsRegistry:
    """Enable the default registry and return it."""
    return get_registry().enable()


def disable() -> MetricsRegistry:
    """Disable the default registry and return it."""
    return get_registry().disable()


def register_collector(name: str, registry: MetricsRegistry) -> None:
    """Expose an independent registry to :func:`collect_snapshot`."""
    _collectors[name] = registry


def collectors() -> Dict[str, MetricsRegistry]:
    return dict(_collectors)


def reset_all_collectors() -> None:
    """Reset every registered collector (and the default registry).

    The test-isolation hammer: the ``perf`` / ``fault`` / ``adversary`` /
    ``serve`` collectors are always-enabled module globals, so without a
    fixture calling this, one test's cache hits or campaign outcomes leak
    into the next test's snapshot.  Series and findings are cleared; the
    metric *definitions* survive.
    """
    for registry in _collectors.values():
        registry.reset()


def collect_snapshot() -> Dict[str, Any]:
    """Merge every registered collector into one snapshot.

    Metric names are expected to be globally unique (the shipped
    instrumentation namespaces them: ``agent_*``, ``cache_*``,
    ``theorem31_*``…); on a clash the later collector's metric is skipped
    and a finding records the collision.
    """
    merged: Dict[str, Any] = {"metrics": {}, "findings": []}
    for name in sorted(_collectors):
        snap = _collectors[name].snapshot()
        for metric_name, data in snap["metrics"].items():
            if metric_name in merged["metrics"]:
                merged["findings"].append(
                    ObsFinding(
                        name="metric-name-collision",
                        detail=f"{metric_name!r} in collector {name!r} shadowed",
                    ).to_dict()
                )
                continue
            merged["metrics"][metric_name] = data
        merged["findings"].extend(snap["findings"])
    return merged
