"""The interleaving fuzzer: systematic exploration of schedule space.

The paper's correctness claims are universally quantified over fair
asynchronous schedules, but any test run only witnesses one interleaving.
The fuzzer sweeps a deterministic grid of
``(instance × scheduler spec × optional FaultPlan)`` cases on the
``perf.parallel`` workers, records every schedule through a
:class:`~repro.sim.scheduler.RecordingScheduler`, deduplicates explored
interleavings by *schedule signature* (a SHA-256 over the choice
sequence), and classifies every case against the schedule-independent
Theorem 3.1 prediction with the fault campaign's vocabulary:

* fault-free cases must land in ``elected-correctly`` — under a fair
  schedule with no faults, *any* exception is a protocol bug and lands in
  the extra ``schedule-failure`` bucket, and a wrong completed answer is a
  ``silent-wrong-answer``; either fails the sweep (exit 1 on the CLI);
* faulted cases reuse the campaign classifier unchanged
  (``recovered`` / ``detected-stall`` are acceptable, silence is not).

Failing rows retain their recorded choices and runnable sizes, ready for
:mod:`repro.adversary.minimize` to shrink into a reproducer artifact.

Determinism: per-case seeds derive from :func:`zlib.crc32` over
``(config.seed, case index, instance label, scheduler kind)`` and the
battery runner preserves input order, so a sweep's rows are a pure
function of its configuration for any worker count.  The case seed also
keys the runtime's *port shuffle* — the other half of the environment's
nondeterminism.  With a frozen port order every agent's tour is identical
across runs and whole families of races (two searchers heading for the
same waiter first) are structurally unreachable no matter the schedule;
varying it per case puts those interleavings back in scope.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..campaign.engine import (
    CampaignEngine,
    CampaignRunResult,
    CampaignSpec,
    MetricsStage,
    OutcomeCounter,
    SignatureDedup,
    Stage,
)
from ..core.elect import ElectAgent
from ..core.feasibility import elect_prediction
from ..errors import AdversaryError, ReproError
from ..obs import flight
from ..fault.campaign import (
    DETECTED,
    IMPOSSIBLE,
    OUTCOMES as CAMPAIGN_OUTCOMES,
    _classify_completion,
)
from ..fault.plan import FaultPlan, random_fault_plans
from ..fault.watchdog import DEFAULT_BACKOFF, Watchdog
from ..sim.runtime import Simulation
from ..sim.scheduler import RecordingScheduler
from .metrics import count_run, count_schedule
from .specs import InstanceSpec, build_scheduler, scheduler_specs, table1_battery

#: A fault-free case that raised: under a fair schedule with no injected
#: faults, every exception is a genuine protocol bug.  Extends the
#: campaign's vocabulary, and fails the sweep just like silence does.
FAILED = "schedule-failure"

OUTCOMES: Tuple[str, ...] = CAMPAIGN_OUTCOMES + (FAILED,)


def schedule_signature(choices: Sequence[int]) -> str:
    """Content hash of an interleaving (dedup / coverage key)."""
    digest = hashlib.sha256()
    for choice in choices:
        digest.update(choice.to_bytes(4, "big", signed=False))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class FuzzConfig:
    """Sweep-wide policy: seeds, fault cadence, supervised-run limits."""

    seed: int = 0
    #: Every ``fault_every``-th case carries a random :class:`FaultPlan`
    #: (0 disables fault pairing: pure schedule exploration).
    fault_every: int = 0
    #: Test-only agent kwargs (e.g. ``(("matching", "toctou"),)``) — how
    #: the acceptance test injects a deliberately broken protocol variant.
    agent_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: Watchdog policy for faulted cases (fault-free cases run bare: any
    #: stall there is a bug, not something to recover from).
    timeout: int = 400
    max_restarts: int = 2
    backoff: Tuple[int, ...] = DEFAULT_BACKOFF
    #: Hard step budget per run (``None``: the runtime's size-derived cap).
    max_steps: Optional[int] = None

    def watchdog(self, case_seed: int) -> Watchdog:
        return Watchdog(
            timeout=self.timeout,
            max_restarts=self.max_restarts,
            backoff=self.backoff,
            seed=case_seed,
        )


@dataclass
class FuzzRow:
    """One classified fuzz case."""

    index: int
    spec: InstanceSpec
    scheduler: Dict[str, Any]
    plan: Optional[FaultPlan]
    case_seed: int
    predicted: bool
    outcome: str
    detail: str = ""
    steps: int = 0
    #: Total agent moves (deterministic per case; feeds the run ledger's
    #: moves-vs-budget column, deliberately absent from :meth:`to_dict`
    #: so the spill's record shape stays stable).
    moves: int = 0
    schedule_len: int = 0
    signature: str = ""
    #: Set by the :class:`~repro.campaign.SignatureDedup` stage.
    distinct: bool = False
    #: Retained only for failing rows (minimizer input).
    choices: Optional[Tuple[int, ...]] = None
    runnable_sizes: Optional[Tuple[int, ...]] = None

    @property
    def failed(self) -> bool:
        return self.outcome in (FAILED, IMPOSSIBLE)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "index": self.index,
            "instance": self.spec.label,
            "scheduler": dict(self.scheduler),
            "plan": self.plan.describe() if self.plan is not None else None,
            "case_seed": self.case_seed,
            "predicted": self.predicted,
            "outcome": self.outcome,
            "detail": self.detail,
            "steps": self.steps,
            "schedule_len": self.schedule_len,
            "signature": self.signature,
            "distinct": self.distinct,
        }
        if self.choices is not None:
            out["choices"] = list(self.choices)
        return out


def _case_seed(seed: int, index: int, label: str, kind: str) -> int:
    """Stable per-case seed (no ``hash()``: must survive process hopping)."""
    return zlib.crc32(f"{seed}:{index}:{label}:{kind}".encode("utf-8"))


def _case_context(
    seed: int, index: int, label: str, kind: str
) -> "flight.TraceContext":
    """The case's flight trace context — deterministic like the case seed,
    so ledger trace ids survive worker-count changes."""
    return flight.TraceContext.mint("fuzz-case", f"{seed}:{index}:{label}:{kind}")


def failure_signature(exc: BaseException) -> str:
    """The identity of a loud failure: exception type plus message."""
    return f"{type(exc).__name__}: {exc}"


def _evaluate_case(
    task: Tuple[int, InstanceSpec, Dict[str, Any], Optional[FaultPlan], FuzzConfig]
) -> FuzzRow:
    """Run and classify one case.  Module-level: pickled to pool workers."""
    index, spec, sched_spec, plan, cfg = task
    case_seed = _case_seed(
        cfg.seed, index, spec.label, str(sched_spec.get("kind"))
    )
    network, placement = spec.build()
    predicted = elect_prediction(network, placement).succeeds

    colors = placement.fresh_colors()
    agent_kwargs = dict(cfg.agent_kwargs)
    agents = [
        ElectAgent(
            color, rng=random.Random(f"{case_seed}:{i}"), **agent_kwargs
        )
        for i, color in enumerate(colors)
    ]
    recorder = RecordingScheduler(build_scheduler(sched_spec))
    sim = Simulation(
        network,
        list(zip(agents, placement.homes)),
        scheduler=recorder,
        fault=plan,
        watchdog=cfg.watchdog(case_seed) if plan is not None else None,
        max_steps=cfg.max_steps,
        port_shuffle_seed=case_seed,
    )

    row = FuzzRow(
        index=index,
        spec=spec,
        scheduler=dict(sched_spec),
        plan=plan,
        case_seed=case_seed,
        predicted=predicted,
        outcome=DETECTED,
    )
    try:
        result = sim.run()
    except ReproError as exc:
        if plan is not None:
            # Campaign semantics: under injected faults a loud failure is a
            # detection (classified stall, budget livelock, tripped check).
            row.outcome, row.detail = DETECTED, failure_signature(exc)
        else:
            row.outcome, row.detail = FAILED, failure_signature(exc)
    else:
        row.outcome, row.detail = _classify_completion(sim, result, predicted)
        row.steps = result.steps
        row.moves = result.total_moves
    row.schedule_len = len(recorder.choices)
    row.signature = schedule_signature(recorder.choices)
    if row.failed:
        row.choices = tuple(recorder.choices)
        row.runnable_sizes = tuple(recorder.runnable_sizes)
    return row


class FuzzCampaignSpec(CampaignSpec):
    """The interleaving grid as a lazy :class:`~repro.campaign.CampaignSpec`.

    Case ``i`` is ``instances[i % n] × scheduler_specs[i // n]``, with a
    random fault plan on every ``fault_every``-th case, built case by
    case so a shard touches only the indices it owns.  Schedule-signature
    dedup runs as a checkpointed :class:`~repro.campaign.SignatureDedup`
    stage, so a resumed sweep's coverage counters continue from the
    committed prefix instead of resetting.
    """

    kind = "fuzz"
    span_name = "fuzz.case"
    outcomes = OUTCOMES

    def __init__(
        self,
        instances: Optional[Sequence[InstanceSpec]] = None,
        runs: int = 200,
        config: Optional[FuzzConfig] = None,
        quick: bool = False,
    ):
        self.config = config or FuzzConfig()
        if instances is None:
            instances = table1_battery(quick=quick)
        self.instances = list(instances)
        if not self.instances:
            raise AdversaryError("fuzz sweep needs at least one instance")
        if runs < 1:
            raise AdversaryError("fuzz sweep needs runs >= 1")
        self.runs = runs
        self.campaign = f"fuzz:seed={self.config.seed}:runs={runs}"
        self._specs = scheduler_specs(
            -(-runs // len(self.instances)), seed=self.config.seed
        )
        self.counter = OutcomeCounter()
        self.dedup = SignatureDedup(attr="signature", flag="distinct")

    @property
    def total(self) -> int:
        return self.runs

    def _shape(self, inst: InstanceSpec) -> Tuple[Any, Any]:
        """``inst.build()``, once per label for the spec's lifetime."""
        return self.memo(("shape", inst.label), inst.build)

    def task(
        self, index: int
    ) -> Tuple[int, InstanceSpec, Dict[str, Any], Optional[FaultPlan], FuzzConfig]:
        cfg = self.config
        inst = self.instances[index % len(self.instances)]
        sched = self._specs[index // len(self.instances)]
        plan: Optional[FaultPlan] = None
        if cfg.fault_every and (index + 1) % cfg.fault_every == 0:
            network, placement = self._shape(inst)
            plan = random_fault_plans(
                1,
                num_agents=placement.num_agents,
                num_nodes=network.num_nodes,
                seed=_case_seed(
                    cfg.seed, index, inst.label, str(sched.get("kind"))
                ),
            )[0]
        return (index, inst, sched, plan, cfg)

    @property
    def evaluate(self) -> Any:
        return _evaluate_case

    def context(self, index: int) -> "flight.TraceContext":
        inst = self.instances[index % len(self.instances)]
        sched = self._specs[index // len(self.instances)]
        return _case_context(
            self.config.seed, index, inst.label, str(sched.get("kind"))
        )

    def case_instance(self, index: int) -> Tuple[str, Any, Any]:
        inst = self.instances[index % len(self.instances)]
        return (inst.label, *self._shape(inst))

    def ledger_columns(self, index: int, row: FuzzRow) -> Dict[str, Any]:
        # The family column names the scheduler kind, the grid's other axis.
        return {
            "family": str(row.scheduler.get("kind")),
            "seed": row.case_seed,
            "detail": row.detail,
        }

    def case_failed(self, row: FuzzRow) -> bool:
        return row.failed

    def failure_line(self, row: FuzzRow) -> str:
        return (
            f"FAILED #{row.index} {row.spec.label} / "
            f"{row.scheduler.get('kind')} [{row.outcome}]: {row.detail}"
        )

    def stages(self) -> Sequence[Stage]:
        return [
            self.counter,
            self.dedup,  # must precede metrics: it sets row.distinct
            MetricsStage(self._count),
        ]

    def summarize(self, stages: Sequence[Stage]) -> Dict[str, Any]:
        # ``agent_kwargs`` lets ``python -m repro.adversary minimize``
        # rebuild the sweep's exact agents from the ``--out`` JSON alone.
        return {
            "distinct_schedules": self.dedup.distinct,
            "duplicate_schedules": self.dedup.duplicates,
            "agent_kwargs": dict(self.config.agent_kwargs),
        }

    def render_summary(self, extras: Dict[str, Any]) -> str:
        return (
            f"  distinct interleavings: {extras['distinct_schedules']}  "
            f"(dedup hits: {extras['duplicate_schedules']})"
        )

    @staticmethod
    def _count(row: FuzzRow) -> None:
        count_schedule(row.distinct)
        count_run(row.outcome)

    def describe(self) -> Dict[str, Any]:
        cfg = self.config
        return {
            "kind": self.kind,
            "campaign": self.campaign,
            "seed": cfg.seed,
            "runs": self.runs,
            "instances": [inst.label for inst in self.instances],
            "fault_every": cfg.fault_every,
            "agent_kwargs": repr(cfg.agent_kwargs),
            "timeout": cfg.timeout,
            "max_restarts": cfg.max_restarts,
            "backoff": list(cfg.backoff),
            "max_steps": cfg.max_steps,
        }


def run_fuzz(
    instances: Optional[Sequence[InstanceSpec]] = None,
    runs: int = 200,
    config: Optional[FuzzConfig] = None,
    workers: Optional[int] = 1,
    quick: bool = False,
    ledger: Optional[Any] = None,
    shard: Optional[Any] = None,
    resume: bool = False,
    checkpoint_every: int = 64,
    max_cases: Optional[int] = None,
    spill: Optional[str] = None,
) -> CampaignRunResult:
    """Sweep the interleaving grid on the campaign engine.

    Deterministic in ``(instances, runs, config)`` — worker count only
    changes wall-clock time (the battery runner preserves input order and
    every seed derives per case).  The result carries the checkpointed
    outcome counts, the schedule coverage and ``agent_kwargs``
    (``extras``), and the failing rows with their recorded choices, which
    :mod:`repro.adversary.minimize` shrinks; every row lands in
    ``ledger`` and ``spill``.  ``shard`` (a :class:`~repro.campaign.Shard`
    or an ``"i/N"`` string), ``resume``, ``checkpoint_every``,
    ``max_cases`` and ``spill`` pass straight to the engine.

    ``ledger`` (a :class:`~repro.obs.ledger.RunLedger` or a path) appends
    one row per case, committed chunk-atomically with the shard's resume
    checkpoint; with the flight recorder on, each case also runs under
    its own deterministic trace context and ships its spans back to the
    sweep's recorder.
    """
    spec = FuzzCampaignSpec(
        instances=instances, runs=runs, config=config, quick=quick
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
