"""Unit tests for the campaign engine itself, on a toy arithmetic spec.

Everything here runs without elections: a trivial grid whose evaluation
is a pure function of the index, so the tests pin down the engine's
*mechanics* — sharding, chunked checkpoints, resume-exactly-once, stage
state round-trips, refusal semantics, spill dedup — with sub-second
runtimes.  Election-grade coverage lives in ``test_resume.py`` and
``test_property.py``.
"""

import json

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    OutcomeCounter,
    Shard,
    SignatureDedup,
    Tally,
    read_spill,
)
from repro.errors import CampaignError
from repro.obs.ledger import Checkpoint, LedgerRow, RunLedger


class ToyResult:
    def __init__(self, index: int):
        self.index = index
        self.outcome = "even" if index % 2 == 0 else "odd"
        self.signature = f"sig{index % 3}"
        self.distinct = False

    def to_dict(self):
        return {"index": self.index, "outcome": self.outcome}


def _toy_evaluate(index: int) -> ToyResult:
    return ToyResult(index)


class ToySpec(CampaignSpec):
    kind = "toy"
    span_name = "toy.case"

    def __init__(self, total: int = 20):
        self._total = total
        self.campaign = f"toy:n={total}"
        self.counter = OutcomeCounter()
        self.dedup = SignatureDedup()

    @property
    def total(self) -> int:
        return self._total

    def task(self, index: int) -> int:
        return index

    @property
    def evaluate(self):
        return _toy_evaluate

    def ledger_row(self, index: int, result: ToyResult) -> LedgerRow:
        return LedgerRow(
            kind=self.kind,
            campaign=self.campaign,
            case_index=index,
            instance=f"i{index}",
            family="toy",
            chash="0" * 64,
            seed=index,
            predicted="electable",
            outcome=result.outcome,
        )

    def case_failed(self, result: ToyResult) -> bool:
        return result.index == 13  # one designated failure

    def stages(self):
        return [self.counter, self.dedup]

    def describe(self):
        return {"kind": self.kind, "campaign": self.campaign, "n": self._total}


class TestShard:
    def test_parse(self):
        assert Shard.parse("0/1") == Shard(0, 1)
        assert Shard.parse("3/8") == Shard(3, 8)
        assert str(Shard(1, 4)) == "1/4"

    @pytest.mark.parametrize("bad", ["", "2", "2/2", "-1/2", "a/b", "1/0"])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(CampaignError):
            Shard.parse(bad)

    def test_positions_partition_the_grid(self):
        spec = ToySpec(total=17)
        seen = []
        for i in range(3):
            engine = CampaignEngine(spec, shard=Shard(i, 3))
            seen.extend(engine.positions())
        assert sorted(seen) == list(range(17))


class TestEngineBasics:
    def test_runs_without_ledger(self, tmp_path):
        spill = str(tmp_path / "spill.jsonl")
        result = CampaignEngine(ToySpec(total=10), spill=spill).run()
        assert result.processed == 10 and result.resumed == 0
        assert result.counts == {"even": 5, "odd": 5}
        assert result.digest is None
        assert [r["index"] for r in read_spill(spill)] == list(range(10))
        assert result.complete
        assert result.failed == 0 and result.ok  # failing index 13 > total

    def test_failure_counting_and_keeper(self):
        result = CampaignEngine(ToySpec(total=20)).run()
        assert result.failed == 1 and not result.ok
        assert [r.index for r in result.failures] == [13]
        assert result.to_dict()["failures"] == [{"index": 13, "outcome": "odd"}]
        assert "FAILED" in result.render()

    def test_failures_are_bounded_but_all_counted(self, monkeypatch):
        from repro.campaign import engine

        monkeypatch.setattr(engine, "FAILURE_LIMIT", 2)
        spec = ToySpec(total=10)
        spec.case_failed = lambda result: result.outcome == "odd"
        result = CampaignEngine(spec).run()
        assert result.failed == 5
        assert [r.index for r in result.failures] == [1, 3]

    def test_counts_list_the_whole_vocabulary_in_order(self):
        spec = ToySpec(total=3)
        spec.outcomes = ("odd", "never", "even")
        result = CampaignEngine(spec).run()
        assert list(result.counts.items()) == [
            ("odd", 1),
            ("never", 0),
            ("even", 2),
        ]
        rendered = result.render()
        assert rendered.index("odd") < rendered.index("never")

    def test_resume_without_ledger_refused(self):
        with pytest.raises(CampaignError, match="resume requires a ledger"):
            CampaignEngine(ToySpec()).run(resume=True)

    def test_max_cases_truncates_before_sharding(self):
        spec = ToySpec(total=100)
        engine = CampaignEngine(spec, shard=Shard(1, 2), max_cases=10)
        assert list(engine.positions()) == [1, 3, 5, 7, 9]
        result = engine.run()
        assert result.total == 10 and result.scheduled == 5

    def test_bad_config_rejected(self):
        with pytest.raises(CampaignError):
            CampaignEngine(ToySpec(), checkpoint_every=0)
        with pytest.raises(CampaignError):
            CampaignEngine(ToySpec(), max_cases=-1)

    def test_tally_sums_and_round_trips(self):
        tally = Tally("weight", lambda result: result.index)
        for i in range(5):
            tally.observe(i, ToyResult(i))
        assert tally.count == 10
        clone = Tally("weight", lambda result: result.index)
        clone.load_state(tally.state_dict())
        assert clone.count == 10
        flags = Tally("odd", lambda result: result.outcome == "odd")
        for i in range(5):
            flags.observe(i, ToyResult(i))
        assert flags.count == 2

    def test_dedup_stage_flags_first_appearance(self):
        spec = ToySpec(total=6)
        CampaignEngine(spec).run()
        # signatures cycle mod 3: indices 0,1,2 distinct; 3,4,5 duplicates
        assert spec.dedup.distinct == 3
        assert spec.dedup.duplicates == 3


class TestCheckpointedRuns:
    def test_ledger_rows_and_digest(self, tmp_path):
        led = RunLedger(str(tmp_path / "toy.db"))
        result = CampaignEngine(ToySpec(), led, checkpoint_every=7).run()
        assert led.count(kind="toy") == 20
        assert result.digest == led.digest(kind="toy")
        cp = led.checkpoint("toy", "toy:n=20")
        assert cp is not None and cp.done == 20
        led.close()

    def test_rerun_without_resume_refused(self, tmp_path):
        led = RunLedger(str(tmp_path / "toy.db"))
        CampaignEngine(ToySpec(), led).run()
        with pytest.raises(CampaignError, match="already holds a checkpoint"):
            CampaignEngine(ToySpec(), led).run()
        led.close()

    def test_resume_of_complete_run_is_noop(self, tmp_path):
        led = RunLedger(str(tmp_path / "toy.db"))
        first = CampaignEngine(ToySpec(), led).run()
        again = CampaignEngine(ToySpec(), led).run(resume=True)
        assert again.processed == 0 and again.resumed == 20
        assert again.complete
        assert led.count(kind="toy") == 20  # exactly-once: no duplicates
        assert again.digest == first.digest
        led.close()

    def test_fingerprint_mismatch_refused(self, tmp_path):
        led = RunLedger(str(tmp_path / "toy.db"))
        CampaignEngine(ToySpec(total=20), led).run()
        other = ToySpec(total=30)
        other.campaign = "toy:n=20"  # same identity, different grid
        with pytest.raises(CampaignError, match="fingerprint mismatch"):
            CampaignEngine(other, led).run(resume=True)
        led.close()

    def test_checkpoint_without_engine_state_refused(self, tmp_path):
        """A checkpoint that carries stage counts but no engine failure
        count (as an older engine wrote them) cannot be resumed: the
        verdict would judge only the cases evaluated after it."""
        led = RunLedger(str(tmp_path / "toy.db"))
        engine = CampaignEngine(ToySpec(total=20), led)
        led.append_with_checkpoint(
            [],
            Checkpoint(
                kind="toy",
                campaign="toy:n=20",
                shard_index=0,
                shard_count=1,
                done=10,
                fingerprint=engine.fingerprint(),
                state={"outcomes": {"counts": {"even": 5, "odd": 5}}},
            ),
        )
        with pytest.raises(CampaignError, match="no engine failure count"):
            engine.run(resume=True)
        assert led.count(kind="toy") == 0
        led.close()

    def test_stage_state_survives_resume(self, tmp_path):
        """Kill-equivalent: run a prefix via max_cases-free sharded stop,
        then resume and check counters equal an uninterrupted run's."""
        led = RunLedger(str(tmp_path / "toy.db"))

        # Simulate an interrupted run by evaluating only 2 chunks: abort
        # the engine mid-flight via a stage that raises after 10 cases.
        class Bomb(Exception):
            pass

        class BombStage(OutcomeCounter):
            name = "bomb"

            def observe(self, index, result):
                if index >= 10:
                    raise Bomb()

            def state_dict(self):
                return None

        def fails_twice(result):
            return result.index in (3, 13)

        spec = ToySpec(total=20)
        spec.case_failed = fails_twice
        spec_stages = spec.stages

        def with_bomb():
            return list(spec_stages()) + [BombStage()]

        spec.stages = with_bomb
        with pytest.raises(Bomb):
            CampaignEngine(spec, led, checkpoint_every=5).run()
        cp = led.checkpoint("toy", "toy:n=20")
        assert cp is not None and cp.done == 10
        assert cp.state["outcomes"]["counts"] == {"even": 5, "odd": 5}
        assert sorted(cp.state["dedup"]["seen"]) == ["sig0", "sig1", "sig2"]
        assert cp.state["engine"] == {"failed": 1}

        fresh = ToySpec(total=20)
        fresh.case_failed = fails_twice
        result = CampaignEngine(fresh, led, checkpoint_every=5).run(
            resume=True
        )
        assert result.resumed == 10 and result.processed == 10
        assert result.counts == {"even": 10, "odd": 10}
        # The verdict covers the whole shard; only this invocation's
        # failing results are in memory.
        assert result.failed == 2 and not result.ok
        assert [r.index for r in result.failures] == [13]
        assert fresh.dedup.distinct == 3
        assert fresh.dedup.duplicates == 17
        assert led.count(kind="toy") == 20
        uninterrupted = RunLedger(str(tmp_path / "ref.db"))
        CampaignEngine(ToySpec(total=20), uninterrupted).run()
        assert led.digest(kind="toy") == uninterrupted.digest(kind="toy")
        uninterrupted.close()
        led.close()

    def test_sharded_union_digest_equals_single_shard(self, tmp_path):
        ref = RunLedger(str(tmp_path / "ref.db"))
        CampaignEngine(ToySpec(), ref).run()
        merged = RunLedger(str(tmp_path / "merged.db"))
        for i in range(2):
            shard_led = RunLedger(str(tmp_path / f"s{i}.db"))
            CampaignEngine(
                ToySpec(), shard_led, shard=Shard(i, 2), checkpoint_every=3
            ).run()
            merged.merge_from(shard_led)
            shard_led.close()
        assert merged.count(kind="toy") == 20
        assert merged.digest(kind="toy") == ref.digest(kind="toy")
        ref.close()
        merged.close()


class TestSpill:
    def test_spill_records_and_dedup(self, tmp_path):
        spill = str(tmp_path / "spill.jsonl")
        spec = ToySpec(total=8)
        CampaignEngine(spec, spill=spill).run()
        # Duplicate a chunk's records, as a torn run would.
        with open(spill, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(spill, "a", encoding="utf-8") as fh:
            fh.writelines(lines[:3])
        records = read_spill(spill)
        assert [r["case_index"] for r in records] == list(range(8))
        assert all(json.dumps(r) for r in records)


def _frontend_specs():
    from repro.adversary.fuzz import FuzzCampaignSpec
    from repro.analysis.campaign import BatteryCampaignSpec
    from repro.fault.byzantine_campaign import ByzantineCampaignSpec
    from repro.fault.campaign import FaultCampaignSpec

    return {
        "fault": lambda: FaultCampaignSpec(pairs=24, quick=True),
        "byzantine": lambda: ByzantineCampaignSpec(cases=32, quick=True),
        "fuzz": lambda: FuzzCampaignSpec(runs=30, quick=True),
        "battery": lambda: BatteryCampaignSpec(repetitions=2),
    }


class TestLedgerProjection:
    @pytest.mark.parametrize("frontend", sorted(_frontend_specs()))
    def test_each_instance_is_hashed_once(
        self, frontend, tmp_path, monkeypatch
    ):
        """The spec's memo keeps every instance's canonical hash and
        budget, so a sweep hashes each instance once, not once a row."""
        from repro.graphs import canonical

        hashed = []
        real = canonical.canonical_hash

        def counting(network, colors):
            hashed.append(1)
            return real(network, colors)

        monkeypatch.setattr(canonical, "canonical_hash", counting)
        spec = _frontend_specs()[frontend]()
        run = CampaignEngine(
            spec, ledger=str(tmp_path / "l.db"), checkpoint_every=8
        ).run()
        labels = {spec.case_instance(i)[0] for i in range(spec.total)}
        assert len(hashed) == len(labels) < run.ledger_rows == spec.total
