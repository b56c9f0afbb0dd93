"""The Byzantine campaign: detected-vs-fooled rates per adversary power.

Extends the fault campaign's outcome vocabulary with the three endings a
*lying* adversary makes possible:

* ``detected`` — the run completed but the cheat evidence testifies: the
  detector surfaced findings, the aggregate reports split-brain, or a
  journaled board fault explains the wrong answer.  The lie happened and
  the system can *prove* it;
* ``aborted-correctly`` — the abort-on-detection policy fired
  (:class:`~repro.errors.CheatDetected`): the run stopped on live
  evidence instead of publishing a result;
* ``silently-fooled`` — the damning bucket: lies (or churn) fired, the
  run completed with a **wrong** outcome, and nothing — detector,
  provenance journal, aggregation — noticed.  The measured quantity of
  this campaign is precisely how often adversaries of each power land
  here versus in the detected buckets.

Cases with **zero** Byzantine injections classify through the crash-only
path (:func:`repro.fault.campaign._classify_completion`) unchanged — the
power-0 column of the sweep is byte-equivalent to the plain fault campaign
on the same plans, which the property suite pins down.

The grid is ``instances × powers × scenarios × plan slots`` in closed form
(shardable, resumable, digest-invariant across worker and shard counts,
like every :class:`~repro.campaign.engine.CampaignSpec`).  Per-power
outcome histograms stream through a checkpointed stage, so the
detected-vs-fooled table survives kill/resume exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..campaign.engine import (
    CampaignEngine,
    CampaignRunResult,
    CampaignSpec,
    MetricsStage,
    OutcomeCounter,
    Stage,
    Tally,
)
from ..core.result import aggregate
from ..errors import CampaignError, CheatDetected, ProtocolError, ReproError
from ..obs import flight
from ..sim.runtime import Simulation
from .byzantine import ByzantineAgent, EdgeChurn
from .campaign import (
    DETECTED,
    ELECTED,
    IMPOSSIBLE,
    OUTCOMES,
    RECOVERED,
    CampaignConfig,
    CampaignRow,
    _classify_completion,
    _finish_pair,
    _pair_context,
    _pair_seed,
    _start_pair,
    standard_battery,
)
from .detect import CheatDetector
from .metrics import count_outcome
from .plan import FaultPlan, random_fault_plans

#: Byzantine-specific outcomes (appended to the crash-fault vocabulary).
DETECTED_CHEAT = "detected"
FOOLED = "silently-fooled"
ABORTED = "aborted-correctly"
BYZ_OUTCOMES: Tuple[str, ...] = OUTCOMES + (DETECTED_CHEAT, ABORTED, FOOLED)

#: Scenario axis of the grid: ``(name, behaviors, with_churn)``.
SCENARIOS: Tuple[Tuple[str, Tuple[str, ...], bool], ...] = (
    ("forge", ("forge-visit", "spoof-owner"), False),
    ("announce", ("false-announce", "replay"), False),
    ("suppress", ("suppress",), False),
    ("churn", ("forge-visit", "replay"), True),
)


@dataclass(frozen=True)
class ByzantineConfig(CampaignConfig):
    """Campaign config plus the detector policy knobs."""

    #: Detector strictness 1–3 (see :class:`~repro.fault.detect.CheatDetector`).
    strictness: int = 2
    #: Abort the run on the first fresh finding (``aborted-correctly``).
    abort: bool = False
    #: Detection sweep period, in scheduler steps.
    check_every: int = 25


@dataclass
class ByzantineRow(CampaignRow):
    """A campaign row annotated with its adversary coordinates."""

    #: Grid adversary power (max over the plan's Byzantine specs; 0 = none).
    power: int = 0
    #: Scenario name from :data:`SCENARIOS` (empty for ad-hoc plans).
    scenario: str = ""
    #: Detector findings surfaced during (and after) the run.
    findings: int = 0

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        out["power"] = self.power
        out["scenario"] = self.scenario
        out["findings"] = self.findings
        return out


def _plan_adversary(plan: FaultPlan) -> Tuple[int, int, bool]:
    """``(grid power, summed power, has churn)`` of a plan's specs."""
    powers = [
        spec.power for spec in plan.faults if isinstance(spec, ByzantineAgent)
    ]
    churn = any(isinstance(spec, EdgeChurn) for spec in plan.faults)
    return (max(powers) if powers else 0, sum(powers), churn)


def _plan_scenario(plan: FaultPlan) -> str:
    """Scenario encoded in a grid plan's ``byz:<scenario>:p<k>:…`` name."""
    if plan.name.startswith("byz:"):
        parts = plan.name.split(":")
        if len(parts) >= 2:
            return parts[1]
    return ""


def _evaluate_byz_pair(
    task: Tuple[int, Any, FaultPlan, CampaignConfig]
) -> ByzantineRow:
    """Run and classify one pair under cheat detection.  Module-level:
    pickled to pool workers, like :func:`~repro.fault.campaign._evaluate_pair`.

    The run is built and its evidence filled by the same helpers as the
    crash-only evaluator's; the detector is the only addition, and its
    sweeps are passive, so a plan with no Byzantine specs classifies
    exactly as the fault campaign would (the power-0 equivalence
    property).
    """
    _, _, plan, cfg = task
    power, summed_power, churn = _plan_adversary(plan)
    sim, sink, row = _start_pair(
        task, ByzantineRow, power=power, scenario=_plan_scenario(plan)
    )
    detector = CheatDetector(
        strictness=getattr(cfg, "strictness", 2),
        abort=getattr(cfg, "abort", False),
        check_every=getattr(cfg, "check_every", 25),
    ).install(sim)
    result = None
    try:
        result = sim.run()
        # One final passive sweep so lies told after the last periodic
        # check still count (and can still abort, under that policy).
        detector.sweep(sim, result.steps)
    except CheatDetected as exc:
        row.outcome = ABORTED
        row.detail = f"CheatDetected: {exc}"
        result = None
    except ReproError as exc:
        # Loud failure: classified stall, deadlock, budget livelock, or a
        # protocol error tripped by lies/churn (e.g. a vanished port).
        row.detail = f"{type(exc).__name__}: {exc}"
        result = None
    # Restarts redo work and lies/churn add writes and detours; scale the
    # Theorem 3.1 gauge by both budgets so the audit still flags runaway
    # move counts without flagging recovery.
    scale = (1 + cfg.max_restarts) * (1 + summed_power + (1 if churn else 0))
    _finish_pair(sim, sink, row, result, scale)
    row.findings = len(detector.findings)
    byz_fired = any(
        kind.startswith("byzantine-") or kind.startswith("churn-")
        for kind in row.injections
    )
    if result is None:
        if byz_fired and row.outcome == DETECTED:
            # A loud failure in a lying run is still a detection — the
            # Byzantine vocabulary just names the bucket precisely.
            row.outcome = DETECTED_CHEAT
    elif byz_fired:
        row.outcome, row.detail = _classify_byzantine(
            sim, result, row.predicted, detector
        )
    else:
        # No lie, no churn: exactly the crash-only classification.
        row.outcome, row.detail = _classify_completion(
            sim, result, row.predicted
        )
    return row


def _classify_byzantine(
    sim: Simulation,
    result: Any,
    predicted: bool,
    detector: CheatDetector,
) -> Tuple[str, str]:
    """Classify a completed run in which lies or churn actually fired."""
    if detector.findings:
        first = detector.findings[0]
        return (
            DETECTED_CHEAT,
            f"{len(detector.findings)} finding(s); first: {first.message}",
        )
    try:
        election = aggregate(
            result.results,
            total_moves=result.total_moves,
            total_accesses=result.total_accesses,
            steps=result.steps,
        )
    except ProtocolError as exc:
        # Split-brain reports under active lying: the inconsistency IS the
        # detection (two leaders cannot both be right).
        return DETECTED_CHEAT, f"inconsistent reports: {exc}"

    correct = (
        election.elected
        if predicted
        else (not election.elected and election.failed)
    )
    if correct:
        if any(result.restarts):
            return RECOVERED, (
                f"despite lies, after {sum(result.restarts)} restart(s)"
            )
        return ELECTED, "correct despite adversary"

    # Wrong answer.  Board-fault evidence still counts as detection …
    fault_state = sim.fault_state
    findings = fault_state.audit_boards() if fault_state is not None else []
    if findings:
        return DETECTED_CHEAT, "wrong completion (" + "; ".join(findings[:2]) + ")"
    # … otherwise the adversary won silently.  This is the measured bucket.
    got = "elected" if election.elected else "failed"
    return FOOLED, (
        f"predicted {'electable' if predicted else 'impossible'} but run "
        f"{got}; no detector finding, no provenance evidence"
    )


class PowerRateStage(Stage):
    """Streamed per-power outcome histogram (``p<k>:<outcome>`` keys).

    Checkpointed, so a resumed sweep's detected-vs-fooled table reflects
    every case ever committed, not just this invocation's.
    """

    name = "power-rates"

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def observe(self, index: int, result: Any) -> None:
        key = f"p{getattr(result, 'power', 0)}:{result.outcome}"
        self.counts[key] = self.counts.get(key, 0) + 1

    def state_dict(self) -> Dict[str, Any]:
        return {"counts": dict(self.counts)}

    def load_state(self, state: Dict[str, Any]) -> None:
        self.counts = {k: int(v) for k, v in state.get("counts", {}).items()}


class ByzantineCampaignSpec(CampaignSpec):
    """The Byzantine grid: ``instances × powers × scenarios × plan slots``.

    Every case starts from a crash-only base plan (so lies always compete
    with ordinary faults, as in a real deployment) and, at power > 0,
    appends ``min(power, num_agents)`` lying-agent specs drawn by a
    case-seeded rng — plus an :class:`~repro.fault.byzantine.EdgeChurn`
    spec in the churn scenario.  Power 0 runs the base plan untouched.
    """

    kind = "byzantine"
    span_name = "byzantine.case"
    outcomes = BYZ_OUTCOMES

    def __init__(
        self,
        instances: Optional[Sequence[Any]] = None,
        cases: int = 512,
        powers: Tuple[int, ...] = (0, 1, 2, 3),
        config: Optional[ByzantineConfig] = None,
        quick: bool = False,
    ):
        if cases < 1:
            raise CampaignError(
                f"byzantine campaign needs cases >= 1, got {cases}"
            )
        self.config = config or ByzantineConfig()
        if instances is None:
            instances = standard_battery(quick=quick)
        self.instances = list(instances)
        if not self.instances:
            raise ValueError("campaign needs at least one instance")
        if not powers:
            raise ValueError("campaign needs at least one adversary power")
        self.powers = tuple(powers)
        self.cases = cases
        self.campaign = (
            f"byzantine:seed={self.config.seed}:cases={cases}"
            f":powers={','.join(map(str, self.powers))}"
        )
        cells = len(self.instances) * len(self.powers) * len(SCENARIOS)
        self._slots = -(-cases // cells)
        self.counter = OutcomeCounter()
        self.power_rates = PowerRateStage()
        self.audit_counter = Tally(
            "audit-failures", lambda row: bool(row.audit_failures)
        )

    @property
    def total(self) -> int:
        return self.cases

    def _base_plans(self, j: int) -> List[FaultPlan]:
        inst = self.instances[j]
        return self.memo(
            ("plans", j),
            lambda: random_fault_plans(
                self._slots,
                num_agents=inst.placement.num_agents,
                num_nodes=inst.network.num_nodes,
                seed=_pair_seed(self.config.seed, j, inst.label),
                kinds=("crash-at-step", "crash-on-action"),
            ),
        )

    def _coords(self, index: int) -> Tuple[int, int, int, int]:
        """``(instance j, power index, scenario index, plan slot)``."""
        j = index % len(self.instances)
        rest = index // len(self.instances)
        p_i = rest % len(self.powers)
        rest //= len(self.powers)
        s_i = rest % len(SCENARIOS)
        slot = rest // len(SCENARIOS)
        return j, p_i, s_i, slot

    def _plan_name(self, index: int) -> str:
        """Case ``index``'s plan name, from its coordinates alone (the
        trace context needs only this, not the plan)."""
        j, p_i, s_i, slot = self._coords(index)
        base = self._base_plans(j)[slot]
        return f"byz:{SCENARIOS[s_i][0]}:p{self.powers[p_i]}:{base.name}"

    def _plan(self, index: int) -> FaultPlan:
        j, p_i, s_i, slot = self._coords(index)
        inst = self.instances[j]
        base = self._base_plans(j)[slot]
        power = self.powers[p_i]
        _, behaviors, churn = SCENARIOS[s_i]
        name = self._plan_name(index)
        if power == 0:
            return FaultPlan(faults=base.faults, name=name)
        srng = random.Random(f"{_pair_seed(self.config.seed, index, name)}:byz")
        num_agents = inst.placement.num_agents
        liars = sorted(srng.sample(range(num_agents), min(power, num_agents)))
        specs: Tuple[Any, ...] = tuple(
            ByzantineAgent(
                agent=a,
                behaviors=behaviors,
                power=power,
                seed=srng.randrange(1 << 16),
            )
            for a in liars
        )
        if churn:
            specs = specs + (
                EdgeChurn(
                    period=30,
                    max_events=4,
                    add_probability=0.5,
                    seed=srng.randrange(1 << 16),
                ),
            )
        return FaultPlan(faults=base.faults + specs, name=name)

    def task(self, index: int) -> Tuple[int, Any, FaultPlan, ByzantineConfig]:
        j, _, _, _ = self._coords(index)
        return (index, self.instances[j], self._plan(index), self.config)

    @property
    def evaluate(self) -> Any:
        return _evaluate_byz_pair

    def context(self, index: int) -> "flight.TraceContext":
        return _pair_context(self.config.seed, index, self._plan_name(index))

    def case_instance(self, index: int) -> Tuple[str, Any, Any]:
        inst = self.instances[index % len(self.instances)]
        return inst.label, inst.network, inst.placement

    def ledger_columns(self, index: int, row: ByzantineRow) -> Dict[str, Any]:
        columns = super().ledger_columns(index, row)
        columns["detail"] = f"[p{row.power}:{row.scenario}] {row.detail}"
        return columns

    def case_failed(self, row: ByzantineRow) -> bool:
        # A silently-fooled case fails at any power: the measured rate is
        # a finding, and the sweep's verdict must not hide it.
        return row.outcome in (IMPOSSIBLE, FOOLED) or bool(row.audit_failures)

    def failure_line(self, row: ByzantineRow) -> str:
        return f"[p{row.power}:{row.scenario}] {row.failure_line()}"

    def stages(self) -> Sequence[Stage]:
        return [
            self.counter,
            self.power_rates,
            self.audit_counter,
            MetricsStage(lambda row: count_outcome(row.outcome)),
        ]

    def summarize(self, stages: Sequence[Stage]) -> Dict[str, Any]:
        from ..analysis.robustness import detection_rates, power_outcome_table

        extras: Dict[str, Any] = {"audit_failures": self.audit_counter.count}
        if self.power_rates.counts:
            table = power_outcome_table(self.power_rates.counts)
            extras["power_table"] = {
                str(p): dict(row) for p, row in table.items()
            }
            extras["detection_rates"] = {
                str(p): rate for p, rate in detection_rates(table).items()
            }
        return extras

    def render_summary(self, extras: Dict[str, Any]) -> str:
        from ..analysis.robustness import render_detection_table

        table = {
            int(p): row for p, row in extras.get("power_table", {}).items()
        }
        lines = [render_detection_table(table)] if table else []
        lines.append(f"  audit-failures={extras['audit_failures']}")
        return "\n".join(lines)

    def describe(self) -> Dict[str, Any]:
        cfg = self.config
        return {
            "kind": self.kind,
            "campaign": self.campaign,
            "seed": cfg.seed,
            "cases": self.cases,
            "powers": list(self.powers),
            "scenarios": [name for name, _, _ in SCENARIOS],
            "instances": [inst.label for inst in self.instances],
            "timeout": cfg.timeout,
            "max_restarts": cfg.max_restarts,
            "max_steps": cfg.max_steps,
            "audit": cfg.audit,
            "strictness": cfg.strictness,
            "abort": cfg.abort,
            "check_every": cfg.check_every,
        }


def run_byzantine_campaign(
    instances: Optional[Sequence[Any]] = None,
    cases: int = 512,
    powers: Tuple[int, ...] = (0, 1, 2, 3),
    config: Optional[ByzantineConfig] = None,
    workers: Optional[int] = 1,
    quick: bool = False,
    ledger: Optional[Any] = None,
    shard: Optional[Any] = None,
    resume: bool = False,
    checkpoint_every: int = 64,
    max_cases: Optional[int] = None,
    spill: Optional[str] = None,
) -> CampaignRunResult:
    """Sweep the Byzantine grid; the result's ``extras`` carry the
    per-power outcome table and detection rates.

    Deterministic in ``(instances, cases, powers, config)``: worker count
    and sharding change only wall-clock time, never the merged ledger
    digest — the engine contract the fault campaign already honors.
    """
    spec = ByzantineCampaignSpec(
        instances=instances,
        cases=cases,
        powers=powers,
        config=config,
        quick=quick,
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
