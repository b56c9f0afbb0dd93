"""The Byzantine campaign: classification, rates, digests, properties."""

import dataclasses
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.robustness import (
    detection_rates,
    power_outcome_table,
    render_detection_table,
)
from repro.campaign import read_spill
from repro.fault.byzantine_campaign import (
    ABORTED,
    BYZ_OUTCOMES,
    DETECTED_CHEAT,
    FOOLED,
    SCENARIOS,
    ByzantineCampaignSpec,
    ByzantineConfig,
    ByzantineRow,
    PowerRateStage,
    _evaluate_byz_pair,
    run_byzantine_campaign,
)
from repro.fault.campaign import (
    IMPOSSIBLE,
    CampaignConfig,
    _evaluate_pair,
    run_campaign,
    standard_battery,
)
from repro.fault.plan import random_fault_plans
from repro.obs.ledger import RunLedger

INSTANCES = standard_battery(quick=True)
CONFIG = CampaignConfig(seed=0, timeout=200, max_restarts=2)
BYZ_CONFIG = ByzantineConfig(seed=0, timeout=200, max_restarts=2)


def _quick_sweep(tmp):
    """The 16-case quick sweep and its spilled rows."""
    spill = str(tmp / "rows.jsonl")
    result = run_byzantine_campaign(
        cases=16,
        powers=(0, 2),
        workers=1,
        quick=True,
        config=BYZ_CONFIG,
        spill=spill,
    )
    return result, read_spill(spill)


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    return _quick_sweep(tmp_path_factory.mktemp("byz"))


def _observed(run):
    """Everything a sweep reports that is not wall-clock time."""
    result, rows = run
    return (
        result.counts,
        result.extras,
        [row.to_dict() for row in result.failures],
        rows,
    )


class TestClassification:
    def test_every_case_lands_in_the_vocabulary(self, quick_report):
        result, rows = quick_report
        assert len(rows) == 16
        assert all(r["outcome"] in BYZ_OUTCOMES for r in rows)
        assert list(result.counts) == list(BYZ_OUTCOMES)
        assert sum(result.counts.values()) == 16

    def test_no_silent_wrong_answer_and_verdict_ok(self, quick_report):
        result, _ = quick_report
        assert result.counts[IMPOSSIBLE] == 0
        assert result.ok

    def test_power_zero_is_never_fooled(self, quick_report):
        _, rows = quick_report
        honest = [r for r in rows if r["power"] == 0]
        assert honest, "the grid must include a power-0 column"
        assert all(r["outcome"] != FOOLED for r in honest)
        # Power 0 also never fires a Byzantine injection.
        for row in honest:
            assert not any(
                k.startswith("byzantine-") or k.startswith("churn-")
                for k in row["injections"]
            )

    def test_rows_carry_adversary_coordinates(self, quick_report):
        _, rows = quick_report
        names = {name for name, _, _ in SCENARIOS}
        assert all(r["scenario"] in names for r in rows)
        assert {r["power"] for r in rows} <= {0, 2}
        liars = [r for r in rows if r["power"] == 2]
        assert any(
            any(k.startswith("byzantine-") for k in r["injections"])
            for r in liars
        ), "no power-2 case ever told a lie"

    def test_structural_audits_green(self, quick_report):
        result, rows = quick_report
        assert all(r["audit_failures"] == [] for r in rows)
        assert result.extras["audit_failures"] == 0
        assert "audit-failures=0" in result.render()

    def test_report_surfaces_the_rate_table(self, quick_report):
        result, _ = quick_report
        assert set(result.extras["power_table"]) <= {"0", "2"}
        data = result.to_dict()
        assert "power_table" in data and "detection_rates" in data
        text = result.render()
        assert "campaign byzantine:" in text
        assert "detection-rate" in text
        assert "verdict: OK" in text

    def test_same_config_same_report(self, quick_report, tmp_path):
        assert _observed(_quick_sweep(tmp_path)) == _observed(quick_report)

    def test_fooled_case_fails_at_any_power(self):
        spec = ByzantineCampaignSpec(cases=4, quick=True, config=BYZ_CONFIG)
        row = ByzantineRow(
            index=3,
            instance="C5",
            family="cycle",
            plan="byz:forge:p2:plan0",
            predicted=True,
            outcome=FOOLED,
            power=2,
            scenario="forge",
        )
        assert spec.case_failed(row)
        assert spec.case_failed(dataclasses.replace(row, power=0))
        assert not spec.case_failed(
            dataclasses.replace(row, outcome=DETECTED_CHEAT)
        )
        assert spec.failure_line(row).startswith("[p2:forge] FAILED #3")

    def test_forged_visit_number_is_a_classified_detection(self):
        # Seed 0, case 60 of the default grid: a forged dfs-visited sign
        # makes an honest agent's map drawing lose its way home.  That is
        # a loud ProtocolError, classified, never an uncaught KeyError.
        spec = ByzantineCampaignSpec(config=ByzantineConfig(seed=0))
        task = spec.task(60)
        assert task[1].label == "Grid3x4[8,10]"
        row = _evaluate_byz_pair(task)
        assert (row.power, row.scenario) == (1, "forge")
        assert row.outcome == DETECTED_CHEAT
        assert row.detail.startswith("ProtocolError: map drawing")
        assert not spec.case_failed(row)


class TestDigestInvariance:
    """Worker count and sharding never change the merged ledger digest."""

    CASES = 12
    POWERS = (0, 1)

    def run_into(self, tmp_path, name, workers=1, shard=None):
        led_path = str(tmp_path / name)
        run_byzantine_campaign(
            cases=self.CASES,
            powers=self.POWERS,
            workers=workers,
            quick=True,
            config=BYZ_CONFIG,
            ledger=led_path,
            shard=shard,
        )
        return led_path

    def test_workers_and_shards_share_one_digest(self, tmp_path):
        ref_path = self.run_into(tmp_path, "ref.db")
        ref = RunLedger(ref_path)
        reference = ref.digest(kind="byzantine")
        assert ref.count(kind="byzantine") == self.CASES
        ref.close()

        parallel_path = self.run_into(tmp_path, "w2.db", workers=2)
        parallel = RunLedger(parallel_path)
        assert parallel.digest(kind="byzantine") == reference
        parallel.close()

        merged = RunLedger(str(tmp_path / "merged.db"))
        for i in range(2):
            merged.merge_from(
                self.run_into(tmp_path, f"s{i}.db", shard=f"{i}/2")
            )
        assert merged.count(kind="byzantine") == self.CASES
        assert merged.digest(kind="byzantine") == reference
        merged.close()

    def test_each_case_builds_its_plan_once(self, tmp_path, monkeypatch):
        """The ledger row's trace context needs only the plan's name, so
        a ledgered sweep builds each case's plan once, for its task."""
        built = []
        real = ByzantineCampaignSpec._plan

        def counting(spec, index):
            built.append(index)
            return real(spec, index)

        monkeypatch.setattr(ByzantineCampaignSpec, "_plan", counting)
        self.run_into(tmp_path, "once.db")
        assert sorted(built) == list(range(self.CASES))


class TestFaultCampaignKnob:
    def test_byzantine_mix_in_the_crash_campaign(self, tmp_path):
        spill = str(tmp_path / "rows.jsonl")
        result = run_campaign(
            pairs=8,
            workers=1,
            quick=True,
            config=CampaignConfig(
                seed=0, timeout=200, max_restarts=2, byzantine=3
            ),
            spill=spill,
        )
        rows = read_spill(spill)
        assert len(rows) == 8
        assert all(r["outcome"] in BYZ_OUTCOMES for r in rows)
        assert result.counts.get(IMPOSSIBLE, 0) == 0
        assert any("+byz" in r["plan"] for r in rows)


class TestPowerRateStage:
    def test_counts_and_checkpoint_round_trip(self, quick_report):
        result, rows = quick_report
        stage = PowerRateStage()
        for row in rows:
            stage.observe(row["index"], SimpleNamespace(**row))
        assert sum(stage.counts.values()) == len(rows)
        assert power_outcome_table(stage.counts) == {
            int(power): outcomes
            for power, outcomes in result.extras["power_table"].items()
        }
        clone = PowerRateStage()
        clone.load_state(stage.state_dict())
        assert clone.counts == stage.counts


class TestRobustnessAnalysis:
    def test_outcome_constants_agree_with_the_campaign(self):
        from repro.analysis import robustness

        assert robustness._DETECTED == DETECTED_CHEAT
        assert robustness._ABORTED == ABORTED
        assert robustness._FOOLED == FOOLED

        from repro.fault import campaign as fault_campaign

        assert fault_campaign._FOOLED == FOOLED

    def test_rate_arithmetic(self):
        table = power_outcome_table(
            {
                "p0:elected-correctly": 10,
                "p2:detected": 3,
                "p2:aborted-correctly": 1,
                "p2:silently-fooled": 1,
                "p2:elected-correctly": 5,
                "junk": 4,
                "px:weird": 4,
            }
        )
        assert set(table) == {0, 2}
        rates = detection_rates(table)
        assert rates[0] is None  # nothing to detect in an honest column
        assert rates[2] == pytest.approx(4 / 5)
        text = render_detection_table(table)
        assert "0.800" in text


# ---------------------------------------------------------------------------
# Property: the power-0 column is the crash-only campaign
# ---------------------------------------------------------------------------


@settings(
    max_examples=12,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    instance_index=st.integers(min_value=0, max_value=len(INSTANCES) - 1),
    plan_seed=st.integers(min_value=0, max_value=10**6),
)
def test_power0_classifies_exactly_like_the_crash_campaign(
    instance_index, plan_seed
):
    """With no Byzantine specs in the plan, the detector-instrumented
    evaluator must reproduce the crash-only classification bit for bit:
    same outcome, same detail, same run evidence."""
    instance = INSTANCES[instance_index]
    plan = random_fault_plans(
        1,
        num_agents=instance.placement.num_agents,
        num_nodes=instance.network.num_nodes,
        seed=plan_seed,
    )[0]
    index = plan_seed % 997
    crash = _evaluate_pair((index, instance, plan, CONFIG))
    byz = _evaluate_byz_pair((index, instance, plan, BYZ_CONFIG))
    assert byz.power == 0
    assert (byz.outcome, byz.detail) == (crash.outcome, crash.detail)
    assert (byz.steps, byz.moves, byz.restarts, byz.stalls) == (
        crash.steps,
        crash.moves,
        crash.restarts,
        crash.stalls,
    )
    assert byz.injections == crash.injections
    assert byz.audit_failures == crash.audit_failures


# ---------------------------------------------------------------------------
# Property: detection is monotone in detector strictness
# ---------------------------------------------------------------------------

_MONO_CASES = 10


@lru_cache(maxsize=None)
def _findings_at(strictness):
    """Per-case finding counts over a fixed power-2 grid slice.  The
    detector is passive, so the runs are identical across strictness —
    only what the sweeps notice may change."""
    cfg = ByzantineConfig(
        seed=5, timeout=200, max_restarts=2, strictness=strictness,
        check_every=10,
    )
    spec = ByzantineCampaignSpec(
        cases=_MONO_CASES, powers=(2,), config=cfg, quick=True
    )
    return tuple(
        _evaluate_byz_pair(spec.task(i)).findings for i in range(_MONO_CASES)
    )


@settings(max_examples=_MONO_CASES, deadline=None, database=None)
@given(case=st.integers(min_value=0, max_value=_MONO_CASES - 1))
def test_detection_is_monotone_in_strictness(case):
    f1, f2, f3 = (_findings_at(s)[case] for s in (1, 2, 3))
    assert f1 <= f2 <= f3


def test_detected_rate_is_monotone_in_strictness():
    caught = [
        sum(1 for n in _findings_at(s) if n > 0) for s in (1, 2, 3)
    ]
    assert caught[0] <= caught[1] <= caught[2]
