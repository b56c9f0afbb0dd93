"""The persistent run ledger: schema stamps, queries, digests, campaign writes."""

import sqlite3

import pytest

from repro.errors import MetricsError
from repro.obs.ledger import (
    DIGEST_COLUMNS,
    LEDGER_SCHEMA_VERSION,
    LedgerRow,
    RunLedger,
    open_ledger,
)


def _row(i, outcome="elected-correctly", wall_ms=0.0, campaign="fault:test"):
    return LedgerRow(
        kind="fault",
        campaign=campaign,
        case_index=i,
        instance=f"C_6#p{i}",
        family="cycle",
        chash=64 * "a",
        seed=1000 + i,
        predicted="electable",
        outcome=outcome,
        detail="",
        moves=10 * (i + 1),
        budget=180.0,
        steps=40,
        wall_ms=wall_ms,
        trace_id=32 * "b",
        span_id=16 * "c",
    )


class TestRunLedger:
    def test_append_count_and_rows(self, tmp_path):
        with RunLedger(str(tmp_path / "runs.db")) as ledger:
            assert ledger.append([_row(0), _row(1), _row(2)]) == 3
            assert ledger.count() == 3
            assert ledger.count(kind="fault") == 3
            assert ledger.count(kind="fuzz") == 0
            assert len(ledger) == 3
            rows = ledger.rows(campaign="fault:test")
            assert [r["case_index"] for r in rows] == [0, 1, 2]
            assert rows[0]["moves"] == 10
            assert ledger.rows(limit=1)[0]["case_index"] == 0

    def test_outcomes_histogram(self, tmp_path):
        with RunLedger(str(tmp_path / "runs.db")) as ledger:
            ledger.append(
                [_row(0), _row(1, outcome="recovered"), _row(2, outcome="recovered")]
            )
            assert ledger.outcomes() == {
                "elected-correctly": 1,
                "recovered": 2,
            }
            assert ledger.rows(outcome="recovered")[0]["case_index"] == 1

    def test_campaigns_rollup(self, tmp_path):
        with RunLedger(str(tmp_path / "runs.db")) as ledger:
            ledger.append([_row(0), _row(1, campaign="fault:other")])
            roll = ledger.campaigns()
        assert [c["campaign"] for c in roll] == ["fault:other", "fault:test"]
        assert all(c["rows"] == 1 for c in roll)

    def test_digest_ignores_wall_time(self, tmp_path):
        with RunLedger(str(tmp_path / "a.db")) as a, RunLedger(
            str(tmp_path / "b.db")
        ) as b:
            a.append([_row(0, wall_ms=1.0), _row(1, wall_ms=2.0)])
            b.append([_row(0, wall_ms=99.0), _row(1, wall_ms=0.5)])
            assert a.digest() == b.digest()
            assert "wall_ms" not in DIGEST_COLUMNS
            assert "created" not in DIGEST_COLUMNS

    def test_digest_sees_every_deterministic_column(self, tmp_path):
        with RunLedger(str(tmp_path / "a.db")) as a, RunLedger(
            str(tmp_path / "b.db")
        ) as b:
            a.append([_row(0)])
            b.append([_row(0, outcome="recovered")])
            assert a.digest() != b.digest()

    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunLedger(path) as ledger:
            ledger.append([_row(0)])
        with RunLedger(path) as ledger:
            assert ledger.count() == 1

    def test_schema_mismatch_raises_unless_wiped(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunLedger(path) as ledger:
            ledger.append([_row(0)])
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(LEDGER_SCHEMA_VERSION + 1),),
            )
        conn.close()
        with pytest.raises(MetricsError, match="version mismatch"):
            RunLedger(path)
        with RunLedger(path, wipe_on_mismatch=True) as ledger:
            assert ledger.count() == 0

    def test_open_ledger_coerces_paths(self, tmp_path):
        path = str(tmp_path / "runs.db")
        ledger = open_ledger(path)
        try:
            assert isinstance(ledger, RunLedger)
            assert open_ledger(ledger) is ledger
        finally:
            ledger.close()


class TestCampaignLedger:
    """Campaign runners write rows = case count, byte-identically."""

    def test_fault_campaign_rows_match_report(self, tmp_path):
        from repro.fault.campaign import CampaignConfig, run_campaign

        ledger = RunLedger(":memory:")
        result = run_campaign(
            pairs=8, config=CampaignConfig(seed=3), quick=True, ledger=ledger
        )
        assert ledger.count(kind="fault") == result.processed == 8
        assert ledger.outcomes(kind="fault") == {
            k: v for k, v in result.counts.items() if v
        }
        row = ledger.rows(kind="fault", limit=1)[0]
        assert len(row["chash"]) == 64
        assert row["budget"] > 0
        assert row["trace_id"] and row["span_id"]
        ledger.close()

    def test_fault_ledger_digest_is_worker_invariant(self, tmp_path):
        from repro.fault.campaign import CampaignConfig, run_campaign

        digests = []
        for workers in (1, 2):
            ledger = RunLedger(":memory:")
            run_campaign(
                pairs=8,
                config=CampaignConfig(seed=3),
                workers=workers,
                quick=True,
                ledger=ledger,
            )
            digests.append(ledger.digest(kind="fault"))
            ledger.close()
        assert digests[0] == digests[1]

    def test_fuzz_rows_match_report(self):
        from repro.adversary.fuzz import FuzzConfig, run_fuzz

        ledger = RunLedger(":memory:")
        result = run_fuzz(
            runs=10, config=FuzzConfig(seed=5), quick=True, ledger=ledger
        )
        assert ledger.count(kind="fuzz") == result.processed == 10
        assert ledger.outcomes(kind="fuzz") == {
            k: v for k, v in result.counts.items() if v
        }
        ledger.close()

    def test_fuzz_ledger_digest_is_worker_invariant(self):
        from repro.adversary.fuzz import FuzzConfig, run_fuzz

        digests = []
        for workers in (1, 2):
            ledger = RunLedger(":memory:")
            run_fuzz(
                runs=10,
                config=FuzzConfig(seed=5),
                workers=workers,
                quick=True,
                ledger=ledger,
            )
            digests.append(ledger.digest(kind="fuzz"))
            ledger.close()
        assert digests[0] == digests[1]

    def test_serve_ledger_records_computes_only(self):
        from repro.core.placement import Placement
        from repro.graphs.builders import cycle_graph
        from repro.serve.service import ElectionService

        ledger = RunLedger(":memory:")
        service = ElectionService(ledger=ledger)
        try:
            net, placement = cycle_graph(6), Placement.of([0, 3])
            service.answer("feasibility", net, placement)
            service.answer("feasibility", net, placement)  # memory hit
            service.answer("elect", net, placement)
            rows = ledger.rows(kind="serve")
            assert len(rows) == 2  # cache hits never reach the ledger
            assert {r["family"] for r in rows} == {"feasibility", "elect"}
            assert all(r["outcome"] for r in rows)
        finally:
            service.close()
            ledger.close()

    def test_service_owns_ledger_opened_from_path(self, tmp_path):
        from repro.core.placement import Placement
        from repro.graphs.builders import cycle_graph
        from repro.serve.service import ElectionService

        path = str(tmp_path / "serve.db")
        service = ElectionService(ledger=path)
        try:
            service.answer("feasibility", cycle_graph(6), Placement.of([0]))
        finally:
            service.close()
        with RunLedger(path) as ledger:
            assert ledger.count(kind="serve") == 1
