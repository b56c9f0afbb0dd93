"""repro.campaign — the streaming, checkpointed, resumable sweep engine.

One engine, four frontends: :mod:`repro.fault` crash and Byzantine
campaigns, :mod:`repro.adversary` fuzzing, and :mod:`repro.analysis`
batteries all describe their sweeps as :class:`CampaignSpec` grids, let
:class:`CampaignEngine` stream the cases through workers into the
:class:`~repro.obs.ledger.RunLedger`, and report with its
:class:`CampaignRunResult`.  See :mod:`repro.campaign.engine` for the
determinism/checkpoint contract and ``python -m repro.campaign`` for the
CLI (``run`` / ``merge`` / ``digest`` / ``status``).
"""

from .engine import (
    FAILURE_LIMIT,
    CampaignEngine,
    CampaignRunResult,
    CampaignSpec,
    MetricsStage,
    OutcomeCounter,
    Shard,
    SignatureDedup,
    Stage,
    Tally,
    read_spill,
)

__all__ = [
    "CampaignEngine",
    "CampaignRunResult",
    "CampaignSpec",
    "FAILURE_LIMIT",
    "MetricsStage",
    "OutcomeCounter",
    "Shard",
    "SignatureDedup",
    "Stage",
    "Tally",
    "read_spill",
]
