"""Campaign runner: classification, determinism, CLI contract."""

import dataclasses
import json

import pytest

from repro.campaign import CampaignEngine, read_spill
from repro.fault.campaign import (
    IMPOSSIBLE,
    OUTCOMES,
    CampaignConfig,
    FaultCampaignSpec,
    _FOOLED,
    _evaluate_pair,
    run_campaign,
    standard_battery,
)


def _sweep(tmp, **kwargs):
    """A quick sweep into a fresh ledger, and its spilled rows."""
    spill = str(tmp / "rows.jsonl")
    result = run_campaign(
        quick=True, ledger=str(tmp / "ledger.db"), spill=spill, **kwargs
    )
    return result, read_spill(spill)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """The 16-pair quick sweep and its spilled rows."""
    return _sweep(tmp_path_factory.mktemp("quick"), pairs=16, workers=1)


def _observed(run):
    """Everything a sweep reports that is not wall-clock time."""
    result, rows = run
    return (
        result.counts,
        result.extras,
        [row.to_dict() for row in result.failures],
        result.digest,
        rows,
    )


def _fooled_first(task):
    """``_evaluate_pair`` with pair 0 forced into the fooled bucket."""
    row = _evaluate_pair(task)
    if row.index == 0:
        row = dataclasses.replace(row, outcome=_FOOLED, detail="forced")
    return row


class FooledFirstSpec(FaultCampaignSpec):
    @property
    def evaluate(self):
        return _fooled_first


class TestBattery:
    def test_standard_battery_mixes_feasibility(self):
        from repro.core.feasibility import elect_prediction

        instances = standard_battery()
        verdicts = {
            elect_prediction(i.network, i.placement).succeeds
            for i in instances
        }
        assert verdicts == {True, False}

    def test_build_pairs_trims_to_exact_count(self):
        spec = FaultCampaignSpec(pairs=13, quick=True)
        tasks = [spec.task(i) for i in range(spec.total)]
        assert len(tasks) == 13
        assert [t[0] for t in tasks] == list(range(13))
        # Trimming keeps battery breadth: more than one instance survives.
        assert len({t[1].label for t in tasks}) > 1

    def test_build_pairs_requires_instances(self):
        with pytest.raises(ValueError):
            FaultCampaignSpec(instances=[], pairs=10)


class TestClassification:
    def test_no_silent_wrong_answer(self, quick_run):
        result, rows = quick_run
        assert [r for r in rows if r["outcome"] == IMPOSSIBLE] == []
        assert result.failures == []
        assert result.ok

    def test_counts_cover_every_row(self, quick_run):
        result, rows = quick_run
        assert list(result.counts) == list(OUTCOMES)
        assert sum(result.counts.values()) == len(rows) == 16
        assert all(row["outcome"] in OUTCOMES for row in rows)
        assert result.counts[IMPOSSIBLE] == 0

    def test_rows_carry_run_evidence(self, quick_run):
        result, rows = quick_run
        completed = [r for r in rows if r["outcome"] != "detected-stall"]
        assert completed, "quick battery must complete some runs"
        assert all(r["steps"] > 0 and r["moves"] >= 0 for r in completed)
        recovered = [r for r in rows if r["outcome"] == "recovered"]
        assert all(r["restarts"] > 0 for r in recovered)
        assert result.extras["restarts"] == sum(r["restarts"] for r in rows)
        assert result.extras["stalls"] == sum(r["stalls"] for r in rows)

    def test_structural_audits_green(self, quick_run):
        result, rows = quick_run
        assert result.extras["audit_failures"] == 0
        assert all(r["audit_failures"] == [] for r in rows)

    def test_report_json_round_trips(self, quick_run):
        result, rows = quick_run
        data = json.loads(json.dumps(result.to_dict()))
        assert data["total"] == data["processed"] == len(rows)
        assert data["ok"] is True
        assert data["failures"] == []
        assert data["counts"] == result.counts
        assert data["restarts"] == result.extras["restarts"]
        assert data["ledger_rows"] == len(rows)

    def test_render_mentions_verdict(self, quick_run):
        result, _ = quick_run
        text = result.render()
        assert "verdict: OK" in text
        assert "restarts=" in text and "audit-failures=0" in text
        for name in OUTCOMES:
            assert name in text

    def test_fooled_rows_fail_the_verdict_and_show_in_render(self):
        # Byzantine-mixed sweeps route rows through the extended outcome
        # vocabulary; a silently-fooled row must sink the campaign even
        # though it is not IMPOSSIBLE, and render must not hide it.
        spec = FooledFirstSpec(pairs=2, quick=True)
        result = CampaignEngine(spec).run()
        assert not result.ok and result.failed == 1
        assert result.counts[_FOOLED] == 1
        assert [row.index for row in result.failures] == [0]
        text = result.render()
        assert _FOOLED in text
        assert "FAILED #0" in text and "forced" in text


class TestDeterminism:
    def test_same_config_same_report(self, quick_run, tmp_path):
        again = _sweep(tmp_path, pairs=16, workers=1)
        assert _observed(again) == _observed(quick_run)

    def test_worker_count_does_not_change_the_report(
        self, quick_run, tmp_path
    ):
        parallel = _sweep(tmp_path, pairs=16, workers=2)
        assert _observed(parallel) == _observed(quick_run)

    def test_seed_changes_the_sweep(self, quick_run, tmp_path):
        other = _sweep(
            tmp_path, pairs=16, workers=1, config=CampaignConfig(seed=99)
        )
        assert _observed(other) != _observed(quick_run)
        assert other[0].counts[IMPOSSIBLE] == 0


class TestAuditTrace:
    def test_an_unaudited_pair_builds_no_trace_event(self, trace_event_builds):
        """The trace audit is a pair's one reader of its events: without
        it the run records none, and its row is the audited run's."""
        rows = {}
        for audit in (False, True):
            config = CampaignConfig(seed=0, audit=audit)
            spec = FaultCampaignSpec(pairs=4, quick=True, config=config)
            rows[audit] = [spec.evaluate(spec.task(i)).to_dict() for i in range(4)]
            if not audit:
                assert trace_event_builds == []
        assert trace_event_builds  # the audited pairs recorded theirs
        assert rows[False] == rows[True]


class TestMetrics:
    def test_campaign_outcomes_counted(self):
        from repro.fault import metrics

        metrics.reset()
        result = run_campaign(pairs=8, workers=1, quick=True)
        snap = metrics._metrics.snapshot()["metrics"]
        series = snap["campaign_outcomes_total"]["series"]
        total = sum(int(s["value"]) for s in series)
        assert total == result.processed == 8


class TestCli:
    def test_cli_quick_run_writes_report(self, tmp_path):
        from repro.fault.__main__ import main

        out = tmp_path / "campaign.json"
        code = main(["--quick", "--pairs", "8", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["total"] == 8
        assert data["counts"][IMPOSSIBLE] == 0

    def test_cli_agrees_with_the_campaign_cli(self, tmp_path, capsys):
        from repro.campaign.__main__ import main as campaign_main
        from repro.fault.__main__ import main as fault_main

        def body(text):
            # Everything but the timing header and the ledger line.
            return [
                line
                for line in text.splitlines()[1:]
                if not line.lstrip().startswith("ledger rows=")
            ]

        code = fault_main(["--quick", "--pairs", "60"])
        fault_out = capsys.readouterr().out
        ledger = str(tmp_path / "x.db")
        args = ["run", "fault", "--quick", "--pairs", "60", "--ledger", ledger]
        assert campaign_main(args) == code == 0
        campaign_out = capsys.readouterr().out
        assert body(fault_out) == body(campaign_out)
        assert "  restarts=9  stalls=9  audit-failures=0" in fault_out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "battery", "--reps", "0"],
            ["run", "battery", "--battery", "nosuch"],
            ["run", "fault", "--pairs", "-3"],
            ["run", "byzantine", "--cases", "0"],
            ["--pairs", "-3"],
        ],
    )
    def test_misconfiguration_exits_2(self, argv, tmp_path, capsys):
        """A frontend that refuses its arguments is a misconfiguration
        (exit 2), not a traceback (exit 1) nor an empty green sweep."""
        from repro.campaign.__main__ import main as campaign_main
        from repro.fault.__main__ import main as fault_main

        if argv[0] == "run":
            code = campaign_main(argv + ["--ledger", str(tmp_path / "x.db")])
        else:
            code = fault_main(argv)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
