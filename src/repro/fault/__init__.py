"""Deterministic fault injection and recovery for the ELECT runtime.

Three layers, importable bottom-up:

* **mechanisms** — :class:`~repro.fault.agents.FaultedAgent` (crash
  wrappers), :class:`~repro.fault.boards.FaultyWhiteboard` (write drops and
  CRC-detectable corruption), :class:`~repro.fault.sched.DelayScheduler`
  (stall windows), :class:`~repro.fault.watchdog.Watchdog` (stall
  classification + checkpoint-restart policy, consumed by
  :class:`~repro.sim.runtime.Simulation`);
* **mechanisms (Byzantine)** — :class:`~repro.fault.byzantine.LyingAgent`
  (seeded lying behaviors: forged signs, spoofed ownership, false
  announcements, suppression, replay),
  :class:`~repro.fault.byzantine.ChurnDriver` (dynamic-network edge
  churn), and :class:`~repro.fault.detect.CheatDetector` (provenance +
  consistency audits with optional abort-on-detection);
* **plans** — :class:`~repro.fault.plan.FaultPlan`: frozen, seedable,
  picklable fault descriptions compiled onto a run via ``fault=plan``;
* **campaign** — :func:`~repro.fault.campaign.run_campaign`: the matrix
  sweep classifying every ``(instance, plan)`` pair, with
  ``silent-wrong-answer`` as the bucket that must stay empty
  (``python -m repro.fault`` runs it from the command line).

The campaign pulls in the analysis battery and the parallel runner, so it
is loaded lazily — ``import repro.fault`` stays cheap for code that only
wants a plan or a watchdog.
"""

from __future__ import annotations

from typing import Any

from .agents import ACTION_KINDS, FaultedAgent, resolve_action_kind
from .boards import FaultyWhiteboard
from .byzantine import (
    BEHAVIORS,
    ByzantineAgent,
    ChurnableNetwork,
    ChurnDriver,
    EdgeChurn,
    LyingAgent,
)
from .detect import CheatDetector, Finding
from .metrics import (
    count_detection,
    count_injection,
    count_outcome,
    detection_stats,
    injection_stats,
)
from .plan import (
    PLAN_KINDS,
    CrashAtStep,
    CrashOnAction,
    FaultPlan,
    Injection,
    InjectionLog,
    InstalledFaults,
    StallWindow,
    WriteCorrupt,
    WriteDrop,
    random_fault_plans,
)
from .sched import DelayScheduler
from .watchdog import DEFAULT_BACKOFF, Watchdog

#: Campaign names re-exported lazily (heavy imports: analysis + perf).
_CAMPAIGN_NAMES = (
    "ELECTED",
    "RECOVERED",
    "DETECTED",
    "IMPOSSIBLE",
    "OUTCOMES",
    "CampaignConfig",
    "CampaignRow",
    "FaultCampaignSpec",
    "run_campaign",
    "standard_battery",
)

#: Byzantine campaign names, equally heavy, equally lazy.
_BYZ_CAMPAIGN_NAMES = (
    "ABORTED",
    "BYZ_OUTCOMES",
    "DETECTED_CHEAT",
    "FOOLED",
    "SCENARIOS",
    "ByzantineCampaignSpec",
    "ByzantineConfig",
    "ByzantineRow",
    "PowerRateStage",
    "run_byzantine_campaign",
)


def __getattr__(name: str) -> Any:
    if name in _CAMPAIGN_NAMES:
        from . import campaign

        return getattr(campaign, name)
    if name in _BYZ_CAMPAIGN_NAMES:
        from . import byzantine_campaign

        return getattr(byzantine_campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ACTION_KINDS",
    "FaultedAgent",
    "resolve_action_kind",
    "FaultyWhiteboard",
    "DelayScheduler",
    "Watchdog",
    "DEFAULT_BACKOFF",
    "FaultPlan",
    "CrashAtStep",
    "CrashOnAction",
    "StallWindow",
    "WriteDrop",
    "WriteCorrupt",
    "PLAN_KINDS",
    "Injection",
    "InjectionLog",
    "InstalledFaults",
    "random_fault_plans",
    "BEHAVIORS",
    "ByzantineAgent",
    "EdgeChurn",
    "LyingAgent",
    "ChurnableNetwork",
    "ChurnDriver",
    "CheatDetector",
    "Finding",
    "count_injection",
    "count_outcome",
    "count_detection",
    "injection_stats",
    "detection_stats",
    *_CAMPAIGN_NAMES,
    *_BYZ_CAMPAIGN_NAMES,
]
