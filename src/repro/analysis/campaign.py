"""Table-1 batteries as streaming campaigns.

The analysis batteries (:data:`repro.analysis.instances.BATTERIES`) were
the last sweep family still shaped as "evaluate a list, keep the list":
fine for Table 1's dozens of cells, wrong for the randomized
million-placement sweeps the ROADMAP asks for.  This module projects a
named battery onto the :class:`repro.campaign.CampaignSpec` contract so
battery sweeps get the engine's streaming, sharding, checkpoint/resume
and ledger digests for free.

A case is ``(instance, repetition)``: repetition ``k`` of instance ``j``
re-runs ELECT under a fresh schedule/port-shuffle seed derived from the
case index, and the outcome is classified against the Theorem 3.1
prediction with the fault campaign's vocabulary (``elected-correctly`` /
``detected-stall`` / ``silent-wrong-answer`` — there is no fault plan and
no watchdog here, so ``recovered`` cannot occur and any wrong completed
answer is immediately the impossible bucket).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..campaign.engine import (
    CampaignEngine,
    CampaignRunResult,
    CampaignSpec,
    OutcomeCounter,
    Stage,
)
from ..core.feasibility import elect_prediction
from ..errors import ReproError
from ..fault.campaign import DETECTED, ELECTED, IMPOSSIBLE
from ..obs import flight
from .instances import Instance, battery_by_name

__all__ = [
    "BatteryCampaignSpec",
    "BatteryRow",
    "run_battery_campaign",
]


@dataclass
class BatteryRow:
    """One classified ``(instance, repetition)`` election run."""

    index: int
    instance: str
    family: str
    predicted: bool
    outcome: str
    detail: str = ""
    moves: int = 0
    steps: int = 0
    #: The case seed (feeds the run ledger's ``seed`` column, deliberately
    #: absent from :meth:`to_dict` so the spill's record shape stays
    #: stable).
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "instance": self.instance,
            "family": self.family,
            "predicted": self.predicted,
            "outcome": self.outcome,
            "detail": self.detail,
            "moves": self.moves,
            "steps": self.steps,
        }


def _case_seed(seed: int, index: int, label: str) -> int:
    """Stable per-case seed (no ``hash()``: must survive process hopping)."""
    return zlib.crc32(f"battery:{seed}:{index}:{label}".encode("utf-8"))


def _case_context(seed: int, index: int, label: str) -> "flight.TraceContext":
    return flight.TraceContext.mint("battery-case", f"{seed}:{index}:{label}")


def _evaluate_instance(task: Tuple[int, Instance, int]) -> BatteryRow:
    """Run and classify one case.  Module-level: pickled to pool workers."""
    from ..core.runner import run_elect

    index, instance, sweep_seed = task
    case_seed = _case_seed(sweep_seed, index, instance.label)
    predicted = elect_prediction(instance.network, instance.placement).succeeds
    row = BatteryRow(
        index=index,
        instance=instance.label,
        family=instance.family,
        predicted=predicted,
        outcome=DETECTED,
        seed=case_seed,
    )
    try:
        outcome = run_elect(
            instance.network,
            instance.placement,
            seed=case_seed,
            port_shuffle_seed=case_seed,
        )
    except ReproError as exc:
        # No faults are injected, so a loud failure here is at least
        # *detected* — but it still fails the sweep via the counts below.
        row.detail = f"{type(exc).__name__}: {exc}"
        return row
    row.moves = outcome.total_moves
    row.steps = outcome.steps
    correct = (
        outcome.elected
        if predicted
        else (not outcome.elected and outcome.failed)
    )
    if correct:
        row.outcome = ELECTED
        if not predicted:
            row.detail = "correctly reported failure"
    else:
        row.outcome = IMPOSSIBLE
        got = "elected" if outcome.elected else "failed"
        row.detail = (
            f"predicted {'electable' if predicted else 'impossible'} "
            f"but run {got}"
        )
    return row


class BatteryCampaignSpec(CampaignSpec):
    """A named analysis battery × ``repetitions`` schedule seeds."""

    kind = "battery"
    span_name = "battery.case"
    outcomes = (ELECTED, DETECTED, IMPOSSIBLE)

    def __init__(
        self,
        battery: str = "quantitative",
        repetitions: int = 1,
        seed: int = 0,
        instances: Optional[Sequence[Instance]] = None,
    ):
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        self.battery = battery
        self.repetitions = repetitions
        self.seed = seed
        self.instances = (
            list(instances) if instances is not None else battery_by_name(battery)
        )
        if not self.instances:
            raise ValueError(f"battery {battery!r} is empty")
        self.campaign = f"battery:{battery}:seed={seed}:reps={repetitions}"
        self.counter = OutcomeCounter()

    @property
    def total(self) -> int:
        return len(self.instances) * self.repetitions

    def task(self, index: int) -> Tuple[int, Instance, int]:
        return (index, self.instances[index % len(self.instances)], self.seed)

    @property
    def evaluate(self) -> Any:
        return _evaluate_instance

    def context(self, index: int) -> "flight.TraceContext":
        instance = self.instances[index % len(self.instances)]
        return _case_context(self.seed, index, instance.label)

    def case_instance(self, index: int) -> Tuple[str, Any, Any]:
        instance = self.instances[index % len(self.instances)]
        return instance.label, instance.network, instance.placement

    def case_failed(self, row: BatteryRow) -> bool:
        # Strict: the batteries run fault-free, so anything short of the
        # predicted outcome (including loud failures) fails the sweep.
        return row.outcome != ELECTED

    def stages(self) -> Sequence[Stage]:
        return [self.counter]

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "campaign": self.campaign,
            "battery": self.battery,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "instances": [inst.label for inst in self.instances],
        }


def run_battery_campaign(
    battery: str = "quantitative",
    repetitions: int = 1,
    seed: int = 0,
    instances: Optional[Sequence[Instance]] = None,
    workers: Optional[int] = 1,
    ledger: Optional[Any] = None,
    shard: Optional[Any] = None,
    resume: bool = False,
    checkpoint_every: int = 64,
    max_cases: Optional[int] = None,
    spill: Optional[str] = None,
) -> CampaignRunResult:
    """Sweep a named battery on the campaign engine; return the run result
    (streamed counts, failing rows, resume accounting, ledger digest).
    Every row lands in ``ledger`` and ``spill``."""
    spec = BatteryCampaignSpec(
        battery=battery,
        repetitions=repetitions,
        seed=seed,
        instances=instances,
    )
    engine = CampaignEngine(
        spec,
        ledger=ledger,
        workers=workers,
        shard=shard,
        checkpoint_every=checkpoint_every,
        max_cases=max_cases,
        spill=spill,
    )
    return engine.run(resume=resume)
