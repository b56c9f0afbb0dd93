"""Pinned ledger digests of campaign grids the benchmark sweeps.

A ledger row records what an election did, never how fast COMPUTE & ORDER
ran, so memoizing the class structure per isomorphism class must leave
every digest alone.  These values were computed on the direct,
unmemoized COMPUTE & ORDER path.  Each grid also pins a hash over every
non-clock ledger column (``detail`` included; see ``golden.py``).
"""

from repro.adversary.fuzz import FuzzCampaignSpec, FuzzConfig
from repro.fault.byzantine_campaign import ByzantineCampaignSpec, ByzantineConfig

from .golden import sweep

#: The default 200-case interleaving grid on the Table-1 battery, seed 0.
FUZZ_SEED0 = "8edec96c8b6357f9219b44855b07d279ba7cd0f7cb68a578568b926aa65c099f"
FUZZ_SEED0_ROWS = (
    "9c66d4135d455a33dbb112fb7dd4ab0561b14c649e3e1628442c0db90e1d736f"
)
#: 128 Byzantine cases, powers 0-3, abort on detection with a detector
#: sweep after every step (the benchmark's policy), seed 0.
BYZANTINE_SEED0 = "f773b833aabe83cb0467f60af30d05db66fc36bfffc6c21a559c3354da9ab9f3"
BYZANTINE_SEED0_ROWS = (
    "f26366851b8099cbb646246abeec444e9598a3c26f06533ad6fe7adacf22bb5d"
)


def test_default_fuzz_grid_digest(tmp_path):
    run, rows = sweep(FuzzCampaignSpec(config=FuzzConfig(seed=0)), tmp_path)
    assert (run.processed, run.failed) == (200, 0)
    assert run.digest == FUZZ_SEED0
    assert rows == FUZZ_SEED0_ROWS


def test_byzantine_grid_digest_under_abort_on_detect(tmp_path):
    spec = ByzantineCampaignSpec(
        cases=128,
        powers=(0, 1, 2, 3),
        config=ByzantineConfig(
            seed=0, strictness=2, audit=True, abort=True, check_every=1
        ),
    )
    run, rows = sweep(spec, tmp_path)
    assert (run.processed, run.failed) == (128, 0)
    assert run.digest == BYZANTINE_SEED0
    assert rows == BYZANTINE_SEED0_ROWS
