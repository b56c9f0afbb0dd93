"""The fault-injection campaign: sweep fault plans across the battery.

A campaign is a deterministic matrix sweep: every ``(instance, FaultPlan)``
pair runs one supervised simulation (watchdog + trace + fault journal) and
is classified against the schedule-independent ground truth of Theorem 3.1
(:func:`repro.core.feasibility.elect_prediction`):

* ``elected-correctly`` — the run completed with the predicted outcome
  (a unique leader where election is feasible, unanimous failure where it
  is not) without consuming any restart;
* ``recovered`` — same, but only after one or more watchdog checkpoint
  restarts (the interesting rows: the fault fired *and* was absorbed);
* ``detected-stall`` — the run failed **loudly**: a classified stall or
  deadlock, a step-budget livelock, or a wrong completion that is fully
  explained by journaled board faults (the write-time CRC journal and the
  runtime's failed-write results make dropped/corrupted writes detected
  events, not silent ones);
* ``silent-wrong-answer`` — the impossible bucket: a wrong outcome with no
  exception and no board-fault evidence.  Crashes, delays and restarts are
  all within the asynchronous model (a crash is an infinite delay, a stall
  window is a legal schedule), so nothing in this sweep may ever land here;
  one such row fails the campaign.

Classification never compares against a fault-free baseline *leader*: on
electable instances leader identity is race-decided, so only the predicted
feasibility (and report consistency, via
:meth:`~repro.core.result.ElectionOutcome.validate`) is oracle material.

Determinism: every per-pair seed is derived with :func:`zlib.crc32` from
``(config.seed, pair index, plan name)`` — no process-dependent ``hash()``
— and :class:`~repro.perf.parallel.ParallelBatteryRunner` preserves input
order, so a campaign is a pure function of its configuration regardless of
worker count.
"""

from __future__ import annotations

import random
import zlib
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
from ..core.elect import ElectAgent
from ..core.feasibility import elect_prediction
from ..core.result import aggregate
from ..errors import CampaignError, ProtocolError, ReproError
from ..obs import flight
from ..sim.runtime import Simulation
from ..sim.scheduler import RandomScheduler
from ..trace.invariants import THEOREM31_CONSTANT, audit_trace
from ..trace.sinks import MemorySink
from .metrics import count_outcome
from .plan import FaultPlan, random_fault_plans
from .watchdog import DEFAULT_BACKOFF, Watchdog

#: Outcome classifications, best to worst.
ELECTED = "elected-correctly"
RECOVERED = "recovered"
DETECTED = "detected-stall"
IMPOSSIBLE = "silent-wrong-answer"
OUTCOMES: Tuple[str, ...] = (ELECTED, RECOVERED, DETECTED, IMPOSSIBLE)

#: The Byzantine layer's losing bucket (duplicated from
#: ``byzantine_campaign`` — which imports this module — so plain fault
#: campaigns run with ``byzantine > 0`` fail on it too).
_FOOLED = "silently-fooled"


@dataclass(frozen=True)
class CampaignConfig:
    """Sweep-wide policy: seeds, watchdog limits, audit switch."""

    seed: int = 0
    #: Steps an agent may stay blocked before the watchdog flags a stall.
    timeout: int = 400
    #: Per-agent checkpoint-restart budget.
    max_restarts: int = 2
    backoff: Tuple[int, ...] = DEFAULT_BACKOFF
    jitter: int = 0
    #: Hard step budget per run (``None``: the runtime's size-derived cap).
    max_steps: Optional[int] = None
    #: Run the structural trace audit on every completed run.
    audit: bool = True
    #: Mix this many Byzantine-augmented plans into each instance's battery
    #: (0: pure crash/stall/board faults — the historical byte-for-byte
    #: plan sequence).  Nonzero switches evaluation to the lying-aware
    #: classifier (:func:`repro.fault.byzantine_campaign._evaluate_byz_pair`).
    byzantine: int = 0

    def watchdog(self, pair_seed: int) -> Watchdog:
        return Watchdog(
            timeout=self.timeout,
            max_restarts=self.max_restarts,
            backoff=self.backoff,
            jitter=self.jitter,
            seed=pair_seed,
        )


@dataclass
class CampaignRow:
    """One classified ``(instance, plan)`` run."""

    index: int
    instance: str
    family: str
    plan: str
    predicted: bool
    outcome: str
    detail: str = ""
    steps: int = 0
    moves: int = 0
    restarts: int = 0
    stalls: int = 0
    injections: Tuple[str, ...] = ()
    audit_failures: Tuple[str, ...] = ()
    #: The pair seed (feeds the run ledger's ``seed`` column, deliberately
    #: absent from :meth:`to_dict` so the spill's record shape stays
    #: stable).
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "instance": self.instance,
            "family": self.family,
            "plan": self.plan,
            "predicted": self.predicted,
            "outcome": self.outcome,
            "detail": self.detail,
            "steps": self.steps,
            "moves": self.moves,
            "restarts": self.restarts,
            "stalls": self.stalls,
            "injections": list(self.injections),
            "audit_failures": list(self.audit_failures),
        }

    def failure_line(self) -> str:
        """The row as one report line: coordinates, outcome, and why."""
        why = "; ".join(filter(None, (self.detail, *self.audit_failures)))
        return (
            f"FAILED #{self.index} {self.instance} / {self.plan} "
            f"[{self.outcome}]: {why}"
        )


def _pair_seed(seed: int, index: int, plan_name: str) -> int:
    """Stable per-pair seed (no ``hash()``: must survive process hopping)."""
    return zlib.crc32(f"{seed}:{index}:{plan_name}".encode("utf-8"))


def _pair_context(seed: int, index: int, plan_name: str) -> "flight.TraceContext":
    """The pair's flight trace context — deterministic, so the ledger's
    trace ids (and its digest) are identical for any worker count, with
    or without the recorder."""
    return flight.TraceContext.mint("fault-case", f"{seed}:{index}:{plan_name}")


def _classify_completion(
    sim: Simulation,
    result: Any,
    predicted: bool,
) -> Tuple[str, str]:
    """Classify a run that terminated (all agents reported)."""
    fault_state = sim.fault_state
    findings = fault_state.audit_boards() if fault_state is not None else []
    injected = fault_state.log.kinds() if fault_state is not None else ()
    restarted = any(result.restarts)

    def board_fault_excuse() -> Optional[str]:
        # A wrong completion is *detected*, not silent, exactly when the
        # board-fault journal can testify: a surviving CRC mismatch, or a
        # journaled corrupt/dropped write (the runtime also surfaced the
        # drop to the writer as a failed-write result).
        if findings:
            return "crc-corruption: " + "; ".join(findings)
        if "write-corrupt" in injected:
            return "journaled write corruption"
        if "write-drop" in injected:
            return "journaled write drop"
        return None

    try:
        election = aggregate(
            result.results,
            total_moves=result.total_moves,
            total_accesses=result.total_accesses,
            steps=result.steps,
        )
    except ProtocolError as exc:
        excuse = board_fault_excuse()
        if excuse is not None:
            return DETECTED, f"inconsistent reports ({excuse})"
        return IMPOSSIBLE, f"split-brain: {exc}"

    correct = (
        election.elected
        if predicted
        else (not election.elected and election.failed)
    )
    if correct:
        if restarted:
            return RECOVERED, f"after {sum(result.restarts)} restart(s)"
        return ELECTED, "" if predicted else "correctly reported failure"

    excuse = board_fault_excuse()
    if excuse is not None:
        return DETECTED, f"wrong completion ({excuse})"
    got = "elected" if election.elected else "failed"
    return IMPOSSIBLE, (
        f"predicted {'electable' if predicted else 'impossible'} "
        f"but run {got} with no detectable cause"
    )


def _start_pair(
    task: Tuple[int, Any, FaultPlan, CampaignConfig],
    row_type: type = CampaignRow,
    **fields: Any,
) -> Tuple[Simulation, Optional[MemorySink], CampaignRow]:
    """One pair's supervised run, not yet started, and its unclassified row.

    Both pair evaluators build here, so a plan with no Byzantine specs
    gets the same seeds, agents, scheduler and watchdog under either.
    The run records a trace only under ``cfg.audit``, the one reader of
    it; otherwise the sink is ``None`` and the runtime builds no events.
    ``fields`` are the extra columns of ``row_type``.
    """
    index, instance, plan, cfg = task
    pair_seed = _pair_seed(cfg.seed, index, plan.name)
    predicted = elect_prediction(instance.network, instance.placement).succeeds
    agents = [
        ElectAgent(color, rng=random.Random(f"{pair_seed}:{i}"))
        for i, color in enumerate(instance.placement.fresh_colors())
    ]
    sink = MemorySink() if cfg.audit else None
    sim = Simulation(
        instance.network,
        list(zip(agents, instance.placement.homes)),
        scheduler=RandomScheduler(seed=pair_seed),
        trace=sink,
        fault=plan,
        watchdog=cfg.watchdog(pair_seed),
        max_steps=cfg.max_steps,
    )
    row = row_type(
        index=index,
        instance=instance.label,
        family=instance.family,
        plan=plan.describe(),
        predicted=predicted,
        outcome=DETECTED,
        seed=pair_seed,
        **fields,
    )
    return sim, sink, row


def _finish_pair(
    sim: Simulation,
    sink: Optional[MemorySink],
    row: CampaignRow,
    result: Any,
    scale: int,
) -> None:
    """Fill ``row``'s run evidence.

    A completed run gives its counters and, with a ``sink`` (built under
    ``cfg.audit``), the trace audit's failures against ``scale`` times the
    Theorem 3.1 constant.
    After a loud failure (``result`` is None) the watchdog's journal is
    salvaged instead.  Either way the row gets the fault journal's
    injections.
    """
    if result is not None:
        row.steps = result.steps
        row.moves = result.total_moves
        row.restarts = sum(result.restarts)
        row.stalls = len(result.stall_events)
        if sink is not None and sink.header is not None:
            reports = audit_trace(
                sink.events,
                header=sink.header,
                moves=result.moves,
                accesses=result.accesses,
                steps=result.steps,
                theorem31_constant=THEOREM31_CONSTANT * scale,
            )
            row.audit_failures = tuple(
                f"{rep.name}: {rep.detail}" for rep in reports if not rep.ok
            )
    elif sim.watchdog is not None:
        row.stalls = len(sim.watchdog.stall_events)
        row.restarts = sim.watchdog.total_restarts
    if sim.fault_state is not None:
        row.injections = sim.fault_state.log.kinds()


def _evaluate_pair(task: Tuple[int, Any, FaultPlan, CampaignConfig]) -> CampaignRow:
    """Run and classify one pair.  Module-level: pickled to pool workers."""
    _, _, _, cfg = task
    sim, sink, row = _start_pair(task)
    result = None
    try:
        result = sim.run()
    except ReproError as exc:
        # Every loud failure is a *detection*: classified stalls
        # (StallDetected), deadlocks, step-budget livelocks, and protocol /
        # map-consistency errors tripped by injected board faults (e.g. a
        # dropped DFS sign making a drawn map self-contradictory).
        row.detail = f"{type(exc).__name__}: {exc}"
    else:
        row.outcome, row.detail = _classify_completion(sim, result, row.predicted)
    # Restarted agents redo work from their checkpoint, so the Theorem 3.1
    # gauge is scaled by the restart budget: recovered moves still count
    # against (a scaled) C·r·|E|.
    _finish_pair(sim, sink, row, result, 1 + cfg.max_restarts)
    return row


def standard_battery(quick: bool = False) -> List[Any]:
    """The campaign's instance slice: every impossible canonical instance
    plus a deterministic stride sample of the asymmetric (electable) ones.

    ``quick=True`` shrinks to a handful of instances for smoke runs.
    """
    from ..analysis.instances import (
        asymmetric_instances,
        impossibility_instances,
    )

    impossible = impossibility_instances()
    electable = asymmetric_instances()
    if quick:
        return impossible[:3] + electable[::17][:4]
    return impossible + electable[::4]


class FaultCampaignSpec(CampaignSpec):
    """The fault matrix as a lazy :class:`~repro.campaign.CampaignSpec`.

    Plans are generated per instance (seeded from the campaign seed and
    the instance's position), so every instance sees every fault family.
    The matrix is plan-major, so trimming it to ``pairs`` keeps battery
    breadth: index ``i`` denotes plan slot ``i // n_instances`` of
    instance ``i % n_instances``.  Per-instance plan lists are generated
    on first touch and kept in the spec's
    :meth:`~repro.campaign.CampaignSpec.memo`, so a shard only pays for
    the instances it actually owns.
    """

    kind = "fault"
    span_name = "fault.case"
    outcomes = OUTCOMES

    def __init__(
        self,
        instances: Optional[Sequence[Any]] = None,
        pairs: int = 208,
        config: Optional[CampaignConfig] = None,
        quick: bool = False,
    ):
        if pairs < 1:
            raise CampaignError(f"fault campaign needs pairs >= 1, got {pairs}")
        self.config = config or CampaignConfig()
        if instances is None:
            instances = standard_battery(quick=quick)
        self.instances = list(instances)
        if not self.instances:
            raise ValueError("campaign needs at least one instance")
        self.pairs = pairs
        self.campaign = f"fault:seed={self.config.seed}:pairs={pairs}"
        self._plans_per = -(-pairs // len(self.instances))
        # Stages are attributes so ``summarize`` can read them.
        self.counter = OutcomeCounter()
        self.audit_counter = Tally(
            "audit-failures", lambda row: bool(row.audit_failures)
        )
        self.restarts = Tally("restarts", lambda row: row.restarts)
        self.stalls = Tally("stalls", lambda row: row.stalls)

    @property
    def total(self) -> int:
        return self.pairs

    def _plans(self, j: int) -> List[FaultPlan]:
        inst = self.instances[j]
        return self.memo(
            ("plans", j),
            lambda: random_fault_plans(
                self._plans_per,
                num_agents=inst.placement.num_agents,
                num_nodes=inst.network.num_nodes,
                seed=_pair_seed(self.config.seed, j, inst.label),
                byzantine=self.config.byzantine,
            ),
        )

    def task(self, index: int) -> Tuple[int, Any, FaultPlan, CampaignConfig]:
        slot, j = divmod(index, len(self.instances))
        return (index, self.instances[j], self._plans(j)[slot], self.config)

    @property
    def evaluate(self) -> Any:
        if self.config.byzantine:
            # Lazy: the lying-aware classifier lives with the Byzantine
            # campaign and knows how to excuse fooled runs as detected
            # when the cheat evidence testifies.
            from .byzantine_campaign import _evaluate_byz_pair

            return _evaluate_byz_pair
        return _evaluate_pair

    def context(self, index: int) -> "flight.TraceContext":
        _, _inst, plan, _cfg = self.task(index)
        return _pair_context(self.config.seed, index, plan.name)

    def case_instance(self, index: int) -> Tuple[str, Any, Any]:
        inst = self.instances[index % len(self.instances)]
        return inst.label, inst.network, inst.placement

    def case_failed(self, row: CampaignRow) -> bool:
        return (
            row.outcome in (IMPOSSIBLE, _FOOLED)
            or bool(row.audit_failures)
        )

    def failure_line(self, row: CampaignRow) -> str:
        return row.failure_line()

    def stages(self) -> Sequence[Stage]:
        return [
            self.counter,
            self.audit_counter,
            self.restarts,
            self.stalls,
            MetricsStage(lambda row: count_outcome(row.outcome)),
        ]

    def summarize(self, stages: Sequence[Stage]) -> Dict[str, Any]:
        return {
            "restarts": self.restarts.count,
            "stalls": self.stalls.count,
            "audit_failures": self.audit_counter.count,
        }

    def render_summary(self, extras: Dict[str, Any]) -> str:
        return (
            f"  restarts={extras['restarts']}  stalls={extras['stalls']}  "
            f"audit-failures={extras['audit_failures']}"
        )

    def describe(self) -> Dict[str, Any]:
        cfg = self.config
        return {
            "kind": self.kind,
            "campaign": self.campaign,
            "seed": cfg.seed,
            "pairs": self.pairs,
            "instances": [inst.label for inst in self.instances],
            "timeout": cfg.timeout,
            "max_restarts": cfg.max_restarts,
            "backoff": list(cfg.backoff),
            "jitter": cfg.jitter,
            "max_steps": cfg.max_steps,
            "audit": cfg.audit,
            "byzantine": cfg.byzantine,
        }


def run_campaign(
    instances: Optional[Sequence[Any]] = None,
    pairs: int = 208,
    config: Optional[CampaignConfig] = None,
    workers: Optional[int] = 1,
    quick: bool = False,
    ledger: Optional[Any] = None,
    shard: Optional[Any] = None,
    resume: bool = False,
    checkpoint_every: int = 64,
    max_cases: Optional[int] = None,
    spill: Optional[str] = None,
) -> CampaignRunResult:
    """Sweep the fault matrix on the :class:`~repro.campaign.CampaignEngine`.

    Deterministic in ``(instances, pairs, config)`` — worker count only
    changes wall-clock time (the battery runner preserves input order and
    every seed is derived per pair).  The result carries the checkpointed
    outcome counts, the restart/stall/audit-failure totals (``extras``)
    and the failing rows; every row lands in ``ledger`` and ``spill``.
    ``shard`` (a :class:`~repro.campaign.Shard` or ``"i/N"`` string),
    ``resume``, ``checkpoint_every``, ``max_cases`` and ``spill`` pass
    straight to the engine — see :mod:`repro.campaign.engine`.

    ``ledger`` (a :class:`~repro.obs.ledger.RunLedger` or a path) appends
    one row per pair, committed chunk-atomically with the shard's resume
    checkpoint.  When the flight recorder is on, every pair additionally
    runs under its own deterministic trace context (worker-side spans
    ship back with the row), so a campaign case can be followed from the
    ledger row into the exported trace by trace id.
    """
    spec = FaultCampaignSpec(
        instances=instances, pairs=pairs, config=config, quick=quick
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
