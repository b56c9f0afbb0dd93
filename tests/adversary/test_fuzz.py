"""Interleaving fuzzer: determinism, dedup, classification, coverage."""

import json

import pytest

from repro.adversary import (
    OUTCOMES,
    FuzzCampaignSpec,
    FuzzConfig,
    InstanceSpec,
    build_scheduler,
    fuzz_stats,
    run_fuzz,
    schedule_signature,
    scheduler_specs,
    table1_battery,
)
from repro.adversary.metrics import reset as reset_metrics
from repro.campaign import read_spill
from repro.errors import AdversaryError
from repro.sim import PCTScheduler


def _sweep(tmp_path, **kwargs):
    """A quick-battery sweep and its spilled rows."""
    spill = str(tmp_path / "rows.jsonl")
    result = run_fuzz(quick=True, spill=spill, **kwargs)
    return result, read_spill(spill)


class TestSpecs:
    def test_table1_battery_builds_every_instance(self):
        specs = table1_battery()
        assert len(specs) >= 12
        for spec in specs:
            network, placement = spec.build()
            assert network.num_nodes >= 2
            assert placement.num_agents >= 1

    def test_quick_battery_is_a_subset(self):
        labels = {s.label for s in table1_battery()}
        quick = table1_battery(quick=True)
        assert 0 < len(quick) < len(labels)
        assert {s.label for s in quick} <= labels

    def test_instance_spec_round_trip(self):
        spec = table1_battery()[0]
        assert InstanceSpec.from_dict(spec.to_dict()) == spec

    def test_build_scheduler_rejects_unknown_kind(self):
        with pytest.raises(AdversaryError):
            build_scheduler({"kind": "clairvoyant"})

    def test_build_scheduler_rejects_bad_kwargs(self):
        with pytest.raises(AdversaryError):
            build_scheduler({"kind": "pct", "depth": 0})

    def test_scheduler_specs_cover_pct(self):
        specs = scheduler_specs(10, seed=0)
        assert len(specs) == 10
        kinds = {s["kind"] for s in specs}
        assert "pct" in kinds and "round-robin" in kinds
        for spec in specs:
            sched = build_scheduler(spec)
            assert sched.choose([0, 1], 0) in (0, 1)

    def test_pct_spec_builds_pct(self):
        sched = build_scheduler({"kind": "pct", "seed": 4, "depth": 2})
        assert isinstance(sched, PCTScheduler)
        assert (sched.seed, sched.depth) == (4, 2)


class TestSignatures:
    def test_signature_is_content_addressed(self):
        assert schedule_signature([0, 1, 2]) == schedule_signature((0, 1, 2))
        assert schedule_signature([0, 1, 2]) != schedule_signature([0, 2, 1])
        assert len(schedule_signature([0])) == 16


class TestGrid:
    def test_build_cases_needs_instances_and_runs(self):
        with pytest.raises(AdversaryError):
            FuzzCampaignSpec(instances=[], runs=10)
        with pytest.raises(AdversaryError):
            FuzzCampaignSpec(runs=0, quick=True)

    def test_fault_pairing_cadence(self):
        cfg = FuzzConfig(seed=1, fault_every=3)
        spec = FuzzCampaignSpec(runs=12, config=cfg, quick=True)
        plans = [spec.task(i)[3] for i in range(spec.total)]
        assert sum(p is not None for p in plans) == 4
        assert all(
            (p is not None) == ((i + 1) % 3 == 0)
            for i, p in enumerate(plans)
        )


class TestSweep:
    def test_fuzz_is_deterministic_across_worker_counts(self, tmp_path):
        (tmp_path / "w1").mkdir()
        (tmp_path / "w2").mkdir()
        serial, serial_rows = _sweep(tmp_path / "w1", runs=24, workers=1)
        parallel, parallel_rows = _sweep(tmp_path / "w2", runs=24, workers=2)
        assert serial_rows == parallel_rows
        assert (serial.counts, serial.extras) == (
            parallel.counts,
            parallel.extras,
        )

    def test_fault_free_sweep_is_green(self):
        result = run_fuzz(runs=30, quick=True)
        assert result.ok
        assert result.counts["elected-correctly"] == 30
        assert result.counts["silent-wrong-answer"] == 0
        assert not result.failures

    def test_dedup_marks_repeated_interleavings(self, tmp_path):
        result, rows = _sweep(tmp_path, runs=60)
        assert (
            result.extras["distinct_schedules"]
            + result.extras["duplicate_schedules"]
            == len(rows)
        )
        assert result.extras["duplicate_schedules"] > 0
        seen = set()
        for row in rows:
            assert row["distinct"] == (row["signature"] not in seen)
            seen.add(row["signature"])

    def test_faulted_cases_reuse_campaign_vocabulary(self, tmp_path):
        cfg = FuzzConfig(seed=2, fault_every=2)
        result, rows = _sweep(tmp_path, runs=20, config=cfg)
        faulted = [r for r in rows if r["plan"] is not None]
        assert faulted
        for row in faulted:
            assert row["outcome"] in (
                "elected-correctly",
                "recovered",
                "detected-stall",
            )
        assert result.counts["silent-wrong-answer"] == 0

    def test_metrics_collector_counts_the_sweep(self):
        reset_metrics()
        result = run_fuzz(runs=20, quick=True)
        stats = fuzz_stats()
        assert sum(stats["runs"].values()) == 20
        assert (
            stats["schedules"].get("distinct", 0)
            == result.extras["distinct_schedules"]
        )

    def test_report_json_round_trips(self):
        result = run_fuzz(runs=12, quick=True)
        data = json.loads(json.dumps(result.to_dict()))
        assert data["total"] == data["processed"] == 12
        assert data["ok"] is True
        assert data["failures"] == []
        assert list(data["counts"]) == list(OUTCOMES)
        assert data["agent_kwargs"] == {}
        assert "distinct_schedules" in data

    def test_a_case_builds_no_trace_event(self, trace_event_builds):
        """Nothing reads a fuzz case's trace (its schedule comes from the
        recording scheduler), so the run records none."""
        spec = FuzzCampaignSpec(runs=4, quick=True)
        rows = [spec.evaluate(spec.task(i)) for i in range(4)]
        assert all(row.steps > 0 for row in rows)
        assert trace_event_builds == []

    def test_render_mentions_verdict(self):
        result = run_fuzz(runs=6, quick=True)
        text = result.render()
        assert "verdict: OK" in text
        assert "distinct interleavings" in text
