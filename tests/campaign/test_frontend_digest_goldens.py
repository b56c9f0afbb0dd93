"""Pinned ledger digests of the fault, fuzz and battery frontends.

A ledger row is a pure function of the grid configuration, so these
digests pin each frontend's closed-form grid, its per-case seeds and its
classification.  They were computed before the in-memory collect mode
and its list-building grid oracles were deleted; any change to how a
frontend builds or classifies its cases moves them.
"""

from repro.adversary.fuzz import FuzzCampaignSpec, FuzzConfig
from repro.analysis.campaign import BatteryCampaignSpec
from repro.campaign.engine import CampaignEngine
from repro.fault.campaign import CampaignConfig, FaultCampaignSpec
from repro.obs.ledger import open_ledger
from repro.perf import invalidate

#: ``python -m repro.fault --quick --pairs 60`` at seed 0.
FAULT_QUICK_SEED0 = (
    "72a7930990f3b04b698c779683e5147fd9f7f82f186a3090abed5bb505bb6af3"
)
#: 120 fuzz cases on the quick battery, a fault plan on every third.
FUZZ_FAULTED_SEED0 = (
    "210c7815ae9d60bf6660219bc45b60a9a542dad99afb41fedc1069830fbb2a68"
)
#: The ``quantitative`` battery, one repetition, seed 0.
BATTERY_QUICK_SEED0 = (
    "dee5dc762ffd38e4ccfa2f08bbaf979e839ecce21004297ca1dd1dcd578698a5"
)


def sweep(spec, tmp_path):
    invalidate()
    ledger = open_ledger(str(tmp_path / "ledger.db"))
    try:
        return CampaignEngine(spec, ledger=ledger, workers=1).run()
    finally:
        ledger.close()


def test_quick_fault_grid_digest(tmp_path):
    spec = FaultCampaignSpec(pairs=60, quick=True, config=CampaignConfig())
    run = sweep(spec, tmp_path)
    assert (run.processed, run.failed) == (60, 0)
    assert run.extras == {"restarts": 9, "stalls": 9, "audit_failures": 0}
    assert run.digest == FAULT_QUICK_SEED0


def test_faulted_fuzz_grid_digest(tmp_path):
    spec = FuzzCampaignSpec(
        runs=120, quick=True, config=FuzzConfig(seed=0, fault_every=3)
    )
    run = sweep(spec, tmp_path)
    assert (run.processed, run.failed) == (120, 0)
    assert run.digest == FUZZ_FAULTED_SEED0


def test_quick_battery_digest(tmp_path):
    run = sweep(BatteryCampaignSpec(battery="quantitative", seed=0), tmp_path)
    assert (run.processed, run.failed) == (9, 0)
    assert run.digest == BATTERY_QUICK_SEED0
