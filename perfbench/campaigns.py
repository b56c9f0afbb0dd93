"""The campaign workloads: ``fuzz`` and ``byzantine`` sweeps on the engine.

One *sweep* is a whole default campaign grid run through
:class:`~repro.campaign.CampaignEngine` with ``workers=1`` and a file
ledger: the 200-case interleaving fuzz grid on the Table-1 battery, or
the 1024-case Byzantine grid (powers 0-3, strictness 2, audit on, abort on
detection, a detector sweep every step).  The
timed phase repeats the sweep of the run's seed until ``--seconds`` have
passed and at least :data:`MIN_SWEEPS` times, each on a fresh ledger
and cold in-process caches, as a fresh ``repro.campaign`` process would
run it.  Every repeat must yield the same ledger digest and outcome
counts; any difference makes the run incorrect.

Harness errors: :class:`GuardedSpec` wraps the spec so that an uncaught
exception from ``evaluate`` that is not a ``ReproError`` becomes a
counted ``harness-error`` case instead of ending the sweep.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from harness import Result
from layers import CASE_SPAN, Tracer

#: Outcome name of a case whose evaluate raised an uncaught exception.
HARNESS_ERROR = "harness-error"

#: Cases per sweep: the default grid of each campaign.
GRID = {"fuzz": 200, "byzantine": 1024}

#: Fewest sweeps a timed phase runs: a case's latency is its fastest over
#: the sweeps, and the determinism check needs a repeat.
MIN_SWEEPS = 3


class HarnessError:
    """The result of a case whose evaluate raised (not a ``ReproError``)."""

    outcome = HARNESS_ERROR

    def __init__(self, index: int, exc: BaseException):
        self.index = index
        self.exc_type = type(exc).__name__
        self.message = str(exc)


class GuardedEvaluate:
    """Picklable wrapper of ``spec.evaluate`` over ``(index, task)``.

    Times each call (``starts`` and ``durations``, in call order) and
    turns an exception outside the program's own ``ReproError`` family
    into a :class:`HarnessError` result.
    """

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn
        self.starts: List[float] = []
        self.durations: List[float] = []

    def __call__(self, item: Tuple[int, Any]) -> Any:
        from repro.errors import ReproError

        index, task = item
        started = time.perf_counter()
        self.starts.append(started)
        try:
            return self.fn(task)
        except ReproError:
            raise
        except Exception as exc:  # the sweep must keep going
            return HarnessError(index, exc)
        finally:
            self.durations.append(time.perf_counter() - started)


class _SkipHarnessErrors:
    """A stage proxy that does not see harness-error results."""

    def __init__(self, stage: Any):
        self.stage = stage
        self.name = stage.name

    def observe(self, index: int, result: Any) -> None:
        if not isinstance(result, HarnessError):
            self.stage.observe(index, result)

    def state_dict(self) -> Optional[Dict[str, Any]]:
        return self.stage.state_dict()

    def load_state(self, state: Dict[str, Any]) -> None:
        self.stage.load_state(state)


def guard_spec(spec: Any, evaluate: Optional[GuardedEvaluate] = None) -> Any:
    """Wrap ``spec`` so harness errors become counted ``harness-error`` rows."""
    from repro.campaign.engine import CampaignSpec, OutcomeCounter
    from repro.obs.ledger import LedgerRow

    guarded = evaluate or GuardedEvaluate(spec.evaluate)

    class GuardedSpec(CampaignSpec):
        kind = spec.kind
        span_name = spec.span_name
        campaign = spec.campaign

        def __init__(self) -> None:
            self.harness_errors: List[HarnessError] = []

        @property
        def total(self) -> int:
            return spec.total

        def task(self, index: int) -> Tuple[int, Any]:
            return (index, spec.task(index))

        @property
        def evaluate(self) -> GuardedEvaluate:
            return guarded

        def context(self, index: int) -> Any:
            return spec.context(index)

        def ledger_row(self, index: int, result: Any) -> Any:
            if isinstance(result, HarnessError):
                self.harness_errors.append(result)
                return LedgerRow(
                    kind=spec.kind,
                    campaign=spec.campaign,
                    case_index=index,
                    instance="",
                    family="",
                    chash="",
                    seed=spec.config.seed,
                    predicted="",
                    outcome=HARNESS_ERROR,
                    detail=f"{result.exc_type}: {result.message}",
                )
            return spec.ledger_row(index, result)

        def case_failed(self, result: Any) -> bool:
            return isinstance(result, HarnessError) or spec.case_failed(result)

        def stages(self) -> Sequence[Any]:
            return [
                stage if isinstance(stage, OutcomeCounter) else _SkipHarnessErrors(stage)
                for stage in spec.stages()
            ]

        def describe(self) -> Dict[str, Any]:
            return spec.describe()

    return GuardedSpec()


def build_spec(workload: str, seed: int) -> Any:
    """The default grid of ``workload`` at campaign seed ``seed``."""
    if workload == "fuzz":
        from repro.adversary.fuzz import FuzzCampaignSpec, FuzzConfig

        return FuzzCampaignSpec(runs=GRID[workload], config=FuzzConfig(seed=seed))
    if workload == "byzantine":
        from repro.fault.byzantine_campaign import ByzantineCampaignSpec, ByzantineConfig

        # Abort-on-detection with a sweep after every step: a forged or
        # replayed sign is caught in the step that writes it, before an
        # honest agent reads it.  Under the default policy (no abort, a
        # sweep every 25 steps) such signs make draw_map raise KeyError in
        # 0-3 cases per seed, and a workload must have no failing case.
        return ByzantineCampaignSpec(
            cases=GRID[workload],
            powers=(0, 1, 2, 3),
            config=ByzantineConfig(seed=seed, strictness=2, audit=True, abort=True, check_every=1),
        )
    raise ValueError(f"not a campaign workload: {workload}")


class Sweep:
    """One sweep: a fresh spec and ledger with cold in-process caches.

    Building it is set-up; :meth:`run` is the timed part.
    """

    def __init__(
        self,
        workload: str,
        seed: int,
        workdir: Path,
        tag: str,
        evaluate_wrapper: Optional[Callable[[Callable[..., Any]], Callable[..., Any]]] = None,
    ):
        from repro.obs.ledger import open_ledger
        from repro.perf import cache

        cache.invalidate()
        inner = build_spec(workload, seed)
        fn = inner.evaluate
        if evaluate_wrapper is not None:
            fn = evaluate_wrapper(fn)
        self.evaluate = GuardedEvaluate(fn)
        self.spec = guard_spec(inner, self.evaluate)
        self.ledger = open_ledger(str(workdir / f"{tag}.db"))

    def run(self) -> "Sweep":
        from repro.campaign.engine import CampaignEngine

        started = time.perf_counter()
        try:
            run = CampaignEngine(self.spec, ledger=self.ledger, workers=1).run()
        finally:
            ended = time.perf_counter()
            self.ledger.close()
        self.wall = ended - started
        # Case i's slot runs from its evaluate call to the next one's, so
        # it holds the engine and ledger work the case caused; the slots
        # add up to the sweep's wall time.
        bounds = [started] + self.evaluate.starts[1:] + [ended]
        self.slots = [b - a for a, b in zip(bounds, bounds[1:])]
        self.cases = run.processed
        self.failed = run.failed
        self.digest = run.digest
        self.counts = dict(run.counts)
        self.durations = self.evaluate.durations
        self.harness_errors = list(self.spec.harness_errors)
        return self


def run_campaign(
    workload: str, seed: int, first: Sweep, seconds: float, trace: bool, workdir: Path, result: Result
) -> None:
    """Sweeps until ``seconds`` have passed; ``first`` is built already."""
    phase_start = time.perf_counter()
    sweeps = [first.run()]
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() - phase_start < seconds:
        sweeps.append(Sweep(workload, seed, workdir, f"sweep{len(sweeps)}").run())

    for k, sweep in enumerate(sweeps[1:], start=1):
        if (sweep.digest, sweep.counts) != (first.digest, first.counts):
            result.fail(
                f"sweep {k} differs from sweep 0: digest {sweep.digest} vs "
                f"{first.digest}, counts {sweep.counts} vs {first.counts}"
            )
    for err in first.harness_errors:
        print(
            f"harness-error: {workload} seed={seed} case={err.index} "
            f"{err.exc_type}: {err.message}"
        )

    # Every sweep runs the same cases in the same order, so each case's
    # time is its fastest over the sweeps (see NOTES.md, Noise).
    cases = sum(s.cases for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    case_ms = [min(s.durations[i] for s in sweeps) * 1000.0 for i in range(first.cases)]
    sweep_s = sum(min(s.slots[i] for s in sweeps) for i in range(first.cases))
    rate = first.cases / sweep_s
    what = f"cases, each the fastest of {len(sweeps)} sweeps"
    result.attempted = cases
    result.failed = failed
    result.put("cases_per_s", rate, "1/s", f"{first.cases} cases over their fastest slots of {len(sweeps)} sweeps")
    result.put_latency("case_ms", case_ms, what)
    result.put("failed_frac", failed / cases, "fraction", f"{failed} of {cases} cases")
    result.put("ops_per_s", rate, "1/s", "= cases_per_s")
    result.put_latency("op_ms", case_ms, what)
    result.meta.update(
        cases=cases,
        sweeps=len(sweeps),
        cases_per_sweep=first.cases,
        digest=first.digest,
        outcomes=first.counts,
        harness_errors=len(first.harness_errors),
    )

    if trace:
        trace_campaign(workload, seed, workdir, result, first, statistics.median(s.wall for s in sweeps))


def trace_campaign(
    workload: str, seed: int, workdir: Path, result: Result, reference: Sweep, untraced_wall: float
) -> None:
    """One traced sweep: per-layer calls, self time and shares."""
    tracer = Tracer()

    def wrap_case(fn: Callable[..., Any]) -> Callable[..., Any]:
        return tracer.wrap(CASE_SPAN, fn)

    with tracer:
        sweep = Sweep(workload, seed, workdir, "traced", evaluate_wrapper=wrap_case).run()
    if (sweep.digest, sweep.counts) != (reference.digest, reference.counts):
        result.fail(f"traced sweep differs: digest {sweep.digest} vs {reference.digest}")
    if tracer.nesting_errors:
        result.fail(f"{tracer.nesting_errors} spans closed out of order")
    for name, (value, unit) in tracer.layer_metrics(sweep.wall).items():
        result.put(name, value, unit)
    result.put("sim.steps", tracer.sim_steps / sweep.cases, "steps/case", f"{tracer.sim_steps} over {sweep.cases} cases")
    result.put("sim.moves", tracer.sim_moves / sweep.cases, "moves/case", f"{tracer.sim_moves} over {sweep.cases} cases")
    result.put("trace.overhead", sweep.wall / untraced_wall, "ratio", "traced sweep / median untraced sweep")
