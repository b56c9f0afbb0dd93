"""Metric semantics: quantile edge cases, cardinality guard, no-op path."""

import pytest

from repro.errors import MetricsError
from repro.obs.registry import (
    OVERFLOW_LABELS,
    MetricsRegistry,
    collect_snapshot,
    get_registry,
    register_collector,
    set_registry,
)


class TestHistogramQuantiles:
    def test_empty_series_reports_none(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        assert hist.state(x="1") is None
        hist.observe(1.0, x="1")
        state = hist.state(x="1")
        assert state.quantile(0.5) == 1.0
        assert hist.state(x="other") is None

    def test_single_sample_pins_every_quantile(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        hist.observe(0.25)
        (series,) = hist.snapshot_series()
        value = series["value"]
        assert value["count"] == 1
        assert value["sum"] == 0.25
        assert value["min"] == value["max"] == 0.25
        assert value["p50"] == value["p90"] == value["p99"] == 0.25

    def test_quantiles_order_and_bounds(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        for i in range(100):
            hist.observe(float(i))
        state = hist.state()
        assert state.quantile(0.5) == 49.0
        assert state.quantile(0.99) == 98.0
        assert state.min == 0.0 and state.max == 99.0

    def test_decimation_bounds_the_sample_buffer(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", max_samples=64)
        for i in range(10_000):
            hist.observe(float(i))
        state = hist.state()
        assert state.count == 10_000
        assert len(state.samples) < 64
        # The decimated p50 stays near the true median.
        assert 3_000 < state.quantile(0.5) < 7_000


class TestCardinalityGuard:
    def test_excess_series_fold_into_overflow(self):
        reg = MetricsRegistry(max_series=4)
        counter = reg.counter("c")
        for i in range(10):
            counter.inc(key=str(i))
        series = counter.series()
        assert len(series) == 5  # 4 real + the overflow series
        assert series[OVERFLOW_LABELS] == 6.0
        (finding,) = reg.findings
        assert finding.name == "label-cardinality"

    def test_guard_records_one_finding_not_one_per_write(self):
        reg = MetricsRegistry(max_series=2)
        counter = reg.counter("c")
        for i in range(50):
            counter.inc(key=str(i))
        assert len(reg.findings) == 1


class TestDisabledRegistry:
    def test_writes_are_no_ops(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(x="1")
        reg.gauge("g").set(5.0)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert all(not m["series"] for m in snap["metrics"].values())

    def test_enable_flips_the_switch(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc()
        reg.enable()
        reg.counter("c").inc()
        assert reg.counter("c").total() == 1.0


class TestRegistrySemantics:
    def test_counter_rejects_negative_increments(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.counter("c").inc(-1.0)

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(MetricsError):
            reg.gauge("m")

    def test_reset_zeroes_series_and_findings(self):
        reg = MetricsRegistry(max_series=1)
        reg.counter("c").inc(x="1")
        reg.counter("c").inc(x="2")  # overflow -> finding
        assert reg.findings
        reg.reset()
        assert reg.counter("c").total() == 0.0
        assert not reg.findings

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(3.0, k="a")
        g.inc(2.0, k="a")
        assert g.value(k="a") == 5.0
        assert g.value(k="missing") is None


class TestCollectors:
    def test_collect_snapshot_merges_and_flags_collisions(self):
        previous = set_registry(MetricsRegistry(enabled=True))
        try:
            get_registry().counter("only_default").inc()
            other = MetricsRegistry(enabled=True)
            other.counter("only_other").inc()
            other.counter("only_default").inc()  # collides with default
            register_collector("test-aux", other)
            merged = collect_snapshot()
            assert "only_default" in merged["metrics"]
            assert "only_other" in merged["metrics"]
            assert any(
                f["name"] == "metric-name-collision"
                for f in merged["findings"]
            )
        finally:
            from repro.obs.registry import _collectors

            _collectors.pop("test-aux", None)
            set_registry(previous)
