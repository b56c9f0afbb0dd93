"""Pinned ledger digests of the fault, fuzz, battery and Byzantine frontends.

A ledger row is a pure function of the grid configuration, so these
digests pin each frontend's closed-form grid, its per-case seeds and its
classification.  The first three were computed before the in-memory
collect mode and its list-building grid oracles were deleted; any change
to how a frontend builds or classifies its cases moves them.  Each grid
also pins a hash over every non-clock ledger column (``golden.py``), so
the ``detail`` column, which the digest leaves out, is pinned too: that
includes the ``[p<k>:<scenario>]`` prefix of Byzantine rows.
"""

from repro.adversary.fuzz import FuzzCampaignSpec, FuzzConfig
from repro.analysis.campaign import BatteryCampaignSpec
from repro.fault.byzantine_campaign import ByzantineCampaignSpec, ByzantineConfig
from repro.fault.campaign import CampaignConfig, FaultCampaignSpec

from .golden import sweep

#: ``python -m repro.fault --quick --pairs 60`` at seed 0.
FAULT_QUICK_SEED0 = (
    "72a7930990f3b04b698c779683e5147fd9f7f82f186a3090abed5bb505bb6af3"
)
FAULT_QUICK_SEED0_ROWS = (
    "07f8f85f86aa7a3cb39501bcf178a56aba2872de2d7d5e2825044577e3b8b938"
)
#: 120 fuzz cases on the quick battery, a fault plan on every third.
FUZZ_FAULTED_SEED0 = (
    "210c7815ae9d60bf6660219bc45b60a9a542dad99afb41fedc1069830fbb2a68"
)
FUZZ_FAULTED_SEED0_ROWS = (
    "84b26ff7d030f9c0a562a6c677ec90fd0a8dd6cf11a94856c438f235393c79f6"
)
#: The ``quantitative`` battery, one repetition, seed 0.
BATTERY_QUICK_SEED0 = (
    "dee5dc762ffd38e4ccfa2f08bbaf979e839ecce21004297ca1dd1dcd578698a5"
)
BATTERY_QUICK_SEED0_ROWS = (
    "13393e81de5e81aafa9f3dc0193fe0347594e49cddb455a77cac283b7bce14c4"
)
#: ``python -m repro.fault --quick --pairs 60 --seed 5 --byzantine 2``:
#: a fault grid with Byzantine plans mixed in, which the lying-aware
#: evaluator classifies but projects with a plain ``detail``.
FAULT_BYZ_MIXED_SEED5 = (
    "d1580191a0b4964b7351c5f125a7a02e14c2991129547a8b92f76e1b2658cd9e"
)
FAULT_BYZ_MIXED_SEED5_ROWS = (
    "9c01380f4fb12c730ea62f238e9301dd51d4424bf6f9a7c20257735b80b0d95c"
)
#: 256 quick Byzantine cases under the default detector policy (no
#: abort, a sweep every 25 steps), seed 0.
BYZANTINE_DEFAULT_SEED0 = (
    "418285d0dacdd725a0115ebfdaf63cc7ab83d6d6034ca8a11ad3b07ab178bb76"
)
BYZANTINE_DEFAULT_SEED0_ROWS = (
    "7a36d7d0c129fb4087196187cd29f93be636bc8927ff9a9d654138b61c855b2c"
)


def test_quick_fault_grid_digest(tmp_path):
    spec = FaultCampaignSpec(pairs=60, quick=True, config=CampaignConfig())
    run, rows = sweep(spec, tmp_path)
    assert (run.processed, run.failed) == (60, 0)
    assert run.extras == {"restarts": 9, "stalls": 9, "audit_failures": 0}
    assert run.digest == FAULT_QUICK_SEED0
    assert rows == FAULT_QUICK_SEED0_ROWS


def test_faulted_fuzz_grid_digest(tmp_path):
    spec = FuzzCampaignSpec(
        runs=120, quick=True, config=FuzzConfig(seed=0, fault_every=3)
    )
    run, rows = sweep(spec, tmp_path)
    assert (run.processed, run.failed) == (120, 0)
    assert run.digest == FUZZ_FAULTED_SEED0
    assert rows == FUZZ_FAULTED_SEED0_ROWS


def test_quick_battery_digest(tmp_path):
    run, rows = sweep(
        BatteryCampaignSpec(battery="quantitative", seed=0), tmp_path
    )
    assert (run.processed, run.failed) == (9, 0)
    assert run.digest == BATTERY_QUICK_SEED0
    assert rows == BATTERY_QUICK_SEED0_ROWS


def test_byzantine_mixed_fault_grid_digest(tmp_path):
    spec = FaultCampaignSpec(
        pairs=60, quick=True, config=CampaignConfig(seed=5, byzantine=2)
    )
    run, rows = sweep(spec, tmp_path)
    assert (run.processed, run.failed) == (60, 0)
    assert run.digest == FAULT_BYZ_MIXED_SEED5
    assert rows == FAULT_BYZ_MIXED_SEED5_ROWS


def test_byzantine_grid_digest_under_default_policy(tmp_path):
    spec = ByzantineCampaignSpec(
        cases=256, quick=True, config=ByzantineConfig(seed=0)
    )
    run, rows = sweep(spec, tmp_path)
    assert (run.processed, run.failed) == (256, 0)
    assert run.digest == BYZANTINE_DEFAULT_SEED0
    assert rows == BYZANTINE_DEFAULT_SEED0_ROWS
