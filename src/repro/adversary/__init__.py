"""Adversarial schedule exploration for the ELECT runtime.

Correctness in the paper is quantified over *every* fair asynchronous
schedule; this package probes that quantifier systematically, three layers
importable bottom-up:

* **schedulers** — :class:`~repro.sim.scheduler.PCTScheduler` (probabilistic
  concurrency testing with a fairness bound; lives in ``sim`` next to the
  suite it joins) and :class:`~repro.adversary.minimize.PatchedScheduler`
  (sparse pinned decisions over a deterministic fallback);
* **fuzzing** — :func:`~repro.adversary.fuzz.run_fuzz`: the deterministic
  ``(instance × scheduler × optional FaultPlan)`` sweep with schedule-
  signature dedup, coverage counters in the always-enabled ``"adversary"``
  metrics collector, and campaign-style classification where
  ``silent-wrong-answer`` and ``schedule-failure`` fail the sweep
  (``python -m repro.adversary fuzz`` runs it from the command line);
* **minimization** — :func:`~repro.adversary.minimize.minimize_row`:
  ddmin over pinned scheduling decisions, shrinking any failing recorded
  schedule (and its fault plan) to a minimal
  :class:`~repro.adversary.artifact.Reproducer`, verified by byte-identical
  :class:`~repro.trace.replay.ReplayScheduler` re-execution and loadable by
  ``python -m repro.adversary repro <file>``.

The fuzzer pulls in the campaign classifier and the parallel runner, so it
is loaded lazily — ``import repro.adversary`` stays cheap for code that
only wants a scheduler or an artifact.
"""

from __future__ import annotations

from typing import Any

from ..sim.scheduler import PCTScheduler
from .metrics import count_probe, count_run, count_schedule, fuzz_stats
from .specs import (
    SCHEDULER_KINDS,
    InstanceSpec,
    build_scheduler,
    scheduler_specs,
    table1_battery,
)

#: Names re-exported lazily (heavy imports: campaign classifier + perf).
_LAZY_NAMES = {
    "FAILED": "fuzz",
    "OUTCOMES": "fuzz",
    "FuzzCampaignSpec": "fuzz",
    "FuzzConfig": "fuzz",
    "FuzzRow": "fuzz",
    "failure_signature": "fuzz",
    "run_fuzz": "fuzz",
    "schedule_signature": "fuzz",
    "DEFAULT_FALLBACK": "minimize",
    "MinimizationResult": "minimize",
    "PatchedScheduler": "minimize",
    "minimize_row": "minimize",
    "replay_reproducer": "minimize",
    "row_failure_signature": "minimize",
    "verify_reproducer": "minimize",
    "Reproducer": "artifact",
    "plan_from_dict": "artifact",
    "plan_to_dict": "artifact",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY_NAMES:
        import importlib

        module = importlib.import_module(
            f".{_LAZY_NAMES[name]}", __package__
        )
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PCTScheduler",
    "InstanceSpec",
    "SCHEDULER_KINDS",
    "build_scheduler",
    "scheduler_specs",
    "table1_battery",
    "count_run",
    "count_schedule",
    "count_probe",
    "fuzz_stats",
    *sorted(_LAZY_NAMES),
]
