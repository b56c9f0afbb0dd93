"""Live Theorem 3.1 budget accounting."""

import pytest

from repro.errors import InvariantViolation
from repro.obs.budget import ACCESSES, MOVES, BudgetTracker
from repro.obs.registry import MetricsRegistry


def test_budget_is_constant_times_r_edges():
    reg = MetricsRegistry()
    tracker = BudgetTracker(num_agents=3, num_edges=12, registry=reg, constant=15.0)
    assert tracker.budget == 15.0 * 3 * 12
    assert reg.gauge("theorem31_budget").value(resource=MOVES) == tracker.budget
    assert reg.gauge("theorem31_used").value(resource=MOVES) == 0.0


def test_edgeless_network_still_gets_positive_budget():
    tracker = BudgetTracker(
        num_agents=1, num_edges=0, registry=MetricsRegistry(), constant=2.0
    )
    assert tracker.budget == 2.0


def test_recording_updates_gauges_and_headroom():
    reg = MetricsRegistry()
    tracker = BudgetTracker(num_agents=1, num_edges=1, registry=reg, constant=10.0)
    for _ in range(4):
        tracker.record_move()
    tracker.record_access()
    assert tracker.used(MOVES) == 4
    assert tracker.used(ACCESSES) == 1
    assert tracker.headroom(MOVES) == 6.0
    assert reg.gauge("theorem31_used").value(resource=MOVES) == 4.0
    assert reg.gauge("theorem31_headroom").value(resource=ACCESSES) == 9.0
    assert not tracker.overrun


def test_overrun_records_one_finding_and_flips_the_gauge():
    reg = MetricsRegistry()
    tracker = BudgetTracker(num_agents=1, num_edges=1, registry=reg, constant=2.0)
    for _ in range(5):
        tracker.record_move()
    assert tracker.overrun
    assert reg.gauge("theorem31_overrun").value(resource=MOVES) == 1.0
    assert reg.gauge("theorem31_headroom").value(resource=MOVES) == -3.0
    findings = [f for f in reg.findings if f.name == "theorem-3.1-budget"]
    assert len(findings) == 1  # first overrun only, not one per move
    assert findings[0].stats["budget"] == 2.0


def test_strict_mode_raises_on_overrun():
    tracker = BudgetTracker(
        num_agents=1,
        num_edges=1,
        registry=MetricsRegistry(),
        constant=1.0,
        strict=True,
    )
    tracker.record_move()
    with pytest.raises(InvariantViolation):
        tracker.record_move()


def test_summary_is_json_safe():
    tracker = BudgetTracker(num_agents=2, num_edges=3, registry=MetricsRegistry())
    tracker.record_move()
    summary = tracker.summary()
    assert summary["used"] == {MOVES: 1, ACCESSES: 0}
    assert summary["overrun"] is False
    assert summary["num_agents"] == 2


def test_a_counted_record_settles_a_whole_run_at_once():
    reg = MetricsRegistry()
    tracker = BudgetTracker(num_agents=1, num_edges=1, registry=reg, constant=2.0)
    tracker.record_move(5)
    tracker.record_access(2)
    assert tracker.used(MOVES) == 5
    assert reg.gauge("theorem31_headroom").value(resource=MOVES) == -3.0
    assert reg.gauge("theorem31_overrun").value(resource=ACCESSES) == 0.0
    findings = [f for f in reg.findings if f.name == "theorem-3.1-budget"]
    assert len(findings) == 1
    assert findings[0].stats["used"] == 5.0  # the total, not the first excess
    strict = BudgetTracker(
        num_agents=1, num_edges=1, registry=MetricsRegistry(), constant=2.0,
        strict=True,
    )
    with pytest.raises(InvariantViolation):
        strict.record_access(3)
