"""The streaming campaign engine: sweep, classify, checkpoint, resume.

Every large sweep in this repo has the same skeleton: a deterministic
grid of cases, a pure per-case evaluation fanned out over
:class:`~repro.perf.parallel.ParallelBatteryRunner` workers, a
classification reduced in case order, and a report.  The fault campaign
(:mod:`repro.fault.campaign`), the interleaving fuzzer
(:mod:`repro.adversary.fuzz`) and the analysis batteries each used to
re-implement that skeleton with one fatal shared flaw: results
accumulated in an in-memory list, so a sweep could never outgrow RAM or
survive a killed process.

This module is the one engine they are all thin frontends to now:

* **Lazy grids** — a :class:`CampaignSpec` describes its case grid as a
  pure function ``task(index)`` of the case index (seeded, closed-form),
  so a million-case sweep materializes one checkpoint chunk of tasks at
  a time, never the whole matrix.
* **Streaming results** — classified rows append incrementally to the
  :class:`~repro.obs.ledger.RunLedger` (plus an optional JSONL spill);
  per-case results are discarded as soon as the stages have seen them,
  except the first :data:`FAILURE_LIMIT` failing ones, which the run
  result keeps for reports and the minimizer.
* **Checkpoints and exact resume** — after each chunk the engine commits
  the chunk's ledger rows *and* the shard's advanced checkpoint (last
  durably-committed case position, config fingerprint, resumable stage
  state) in one SQLite transaction
  (:meth:`~repro.obs.ledger.RunLedger.append_with_checkpoint`).  A
  SIGKILL at any instant therefore loses at most the uncommitted chunk;
  resuming re-runs exactly the missing cases, and the final ledger
  :meth:`~repro.obs.ledger.RunLedger.digest` is byte-identical to an
  uninterrupted run's.
* **Sharding** — shard ``i/N`` owns the case indices ``index % N == i``.
  Shards may append to one shared WAL-mode ledger or to per-shard files
  merged afterwards (:meth:`~repro.obs.ledger.RunLedger.merge_from`);
  either way the union of rows hashes identically to a one-shard run.
* **Pluggable stages** — classification counting, schedule-signature
  dedup, summed tallies and metrics are :class:`Stage` objects that
  observe results strictly in case order; stages that implement
  ``state_dict``/``load_state`` have their state carried inside the
  checkpoint, so streamed counts survive a crash too.

Determinism contract: ``task(index)`` and the evaluation callable must
be pure functions of the index and the spec config (per-case seeds
derived via ``zlib.crc32``-style hashing, never ``hash()``), so any
worker count, shard split, chunk size, or kill/resume history yields the
same classified rows.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, IO, Iterator, List, Optional, Sequence, Tuple

from ..errors import CampaignError
from ..obs import flight
from ..obs.ledger import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    LedgerRow,
    RunLedger,
    open_ledger,
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

#: Failing results a run keeps in memory (``CampaignRunResult.failures``);
#: ``failed`` still counts every one.
FAILURE_LIMIT = 1024


def _record(result: Any) -> Dict[str, Any]:
    """JSON projection of one result: its ``to_dict()``, else its repr."""
    to_dict = getattr(result, "to_dict", None)
    return to_dict() if callable(to_dict) else {"result": repr(result)}


# ---------------------------------------------------------------------------
# Stages: in-order observers of the classified result stream
# ---------------------------------------------------------------------------


class Stage:
    """One observer of the result stream.

    ``observe`` is called exactly once per case, strictly in case-index
    order within the shard, *before* the case's chunk commits.  A stage
    that wants its accumulated state to survive a kill/resume implements
    ``state_dict``/``load_state`` (JSON-serializable payloads only); the
    engine persists that state inside the shard's checkpoint, atomically
    with the rows the state reflects, keyed by ``name`` (the key
    ``"engine"`` holds the engine's own failure count).
    """

    name = "stage"

    def observe(self, index: int, result: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def state_dict(self) -> Optional[Dict[str, Any]]:
        """JSON state to checkpoint, or ``None`` for stateless stages."""
        return None

    def load_state(self, state: Dict[str, Any]) -> None:
        pass


class OutcomeCounter(Stage):
    """Streamed classification histogram over a result attribute."""

    name = "outcomes"

    def __init__(self, attr: str = "outcome"):
        self.attr = attr
        self.counts: Dict[str, int] = {}

    def observe(self, index: int, result: Any) -> None:
        key = str(getattr(result, self.attr))
        self.counts[key] = self.counts.get(key, 0) + 1

    def state_dict(self) -> Dict[str, Any]:
        return {"counts": dict(self.counts)}

    def load_state(self, state: Dict[str, Any]) -> None:
        self.counts = {k: int(v) for k, v in state.get("counts", {}).items()}


class Tally(Stage):
    """Streamed sum of a per-result number (restarts, stalls; a predicate
    such as "has audit failures" sums as 0/1), checkpointed so resumed
    totals stay exact."""

    def __init__(self, name: str, value: Callable[[Any], int]):
        self.name = name
        self.value = value
        self.count = 0

    def observe(self, index: int, result: Any) -> None:
        self.count += int(self.value(result))

    def state_dict(self) -> Dict[str, Any]:
        return {"count": self.count}

    def load_state(self, state: Dict[str, Any]) -> None:
        self.count = int(state.get("count", 0))


class SignatureDedup(Stage):
    """Schedule-signature dedup as a stage: flags each result's first
    appearance on ``flag`` and keeps distinct/duplicate counts.

    The seen-set is checkpointed (signatures are short hex strings), so a
    resumed sweep continues deduplicating against everything the killed
    run already committed — the fuzzer's coverage counters don't reset.
    With shards the dedup is per shard (cross-shard dedup would need the
    merge step; the ledger rows carry no dedup column, so digests are
    unaffected either way).
    """

    name = "dedup"

    def __init__(self, attr: str = "signature", flag: str = "distinct"):
        self.attr = attr
        self.flag = flag
        self.seen: set = set()
        self.distinct = 0
        self.duplicates = 0

    def observe(self, index: int, result: Any) -> None:
        signature = getattr(result, self.attr)
        fresh = signature not in self.seen
        self.seen.add(signature)
        setattr(result, self.flag, fresh)
        if fresh:
            self.distinct += 1
        else:
            self.duplicates += 1

    def state_dict(self) -> Dict[str, Any]:
        return {"seen": sorted(self.seen)}

    def load_state(self, state: Dict[str, Any]) -> None:
        self.seen = set(state.get("seen", ()))
        self.distinct = len(self.seen)
        # Duplicates among the committed prefix are recoverable from the
        # outcome counter's total minus |seen|; the engine re-derives them
        # when it knows the resumed case count.

    def resync_duplicates(self, observed_total: int) -> None:
        self.duplicates = max(0, observed_total - self.distinct)


class MetricsStage(Stage):
    """Feed each result to a metrics hook (always-enabled collectors)."""

    name = "metrics"

    def __init__(self, hook: Callable[[Any], None]):
        self.hook = hook

    def observe(self, index: int, result: Any) -> None:
        self.hook(result)


# ---------------------------------------------------------------------------
# Spec: what a campaign is
# ---------------------------------------------------------------------------


class CampaignSpec:
    """A deterministic case grid plus its evaluation and classification.

    Subclasses define a sweep entirely through pure functions of the case
    index so the engine can generate cases lazily, shard them, and replay
    any suffix after a crash:

    * ``kind`` / ``campaign`` — the ledger coordinates all rows share.
      ``campaign`` must be a pure function of the sweep config (never of
      worker count, shard, or wall clock): shard digests only merge
      cleanly because every shard writes the same campaign id.
    * ``total`` — grid size.
    * ``task(index)`` — the picklable task tuple for one case.
    * ``evaluate`` — a **module-level** picklable callable mapping a task
      to a classified result object (runs inside pool workers).
    * ``context(index)`` — the case's deterministic trace context; the
      ledger row takes its trace and span ids from it.
    * ``case_instance(index)`` — the case's ``(label, network,
      placement)``.  That is all a frontend supplies for its ledger rows:
      :meth:`ledger_row` projects the rest from the result's ``predicted``,
      ``outcome``, ``moves`` and ``steps`` fields, and from
      :meth:`ledger_columns` (by default the result's own ``family``,
      ``seed`` and ``detail``; a frontend whose columns differ overrides
      it).  Every column except ``wall_ms`` is deterministic in the
      config, so digests are reproducible.
    * ``stages()`` — the in-order observers; build them in ``__init__``
      and keep references if ``summarize`` reads them afterwards.

    :meth:`memo` is the spec's one per-instance cache: the ledger keeps
    each instance's canonical hash and Theorem 3.1 budget there, and
    frontends keep what they derive per instance (plan lists, built
    shapes), so a shard pays only for the instances it owns.
    """

    #: Ledger ``kind`` column and checkpoint namespace.
    kind: str = "campaign"
    #: The outcome vocabulary: ``CampaignRunResult.counts`` lists every
    #: name, zeros included, in this order (then any others, sorted).
    outcomes: Tuple[str, ...] = ()
    #: Flight-recorder span name for one case.
    span_name: str = "campaign.case"
    #: Ledger ``campaign`` column; set by ``__init__`` of subclasses.
    campaign: str = ""

    @property
    def total(self) -> int:
        raise NotImplementedError

    def task(self, index: int) -> Any:
        raise NotImplementedError

    @property
    def evaluate(self) -> Callable[[Any], Any]:
        raise NotImplementedError

    def context(self, index: int) -> Optional["flight.TraceContext"]:
        """Deterministic per-case trace context (None: no flight spans)."""
        return None

    def case_instance(self, index: int) -> Tuple[str, Any, Any]:
        """``(label, network, placement)`` of case ``index``."""
        raise NotImplementedError

    def memo(self, key: Tuple[Any, ...], build: Callable[[], Any]) -> Any:
        """``build()``, computed once per ``key`` for this spec's lifetime.

        Keys are tuples whose first item names the kind of value
        (``("ledger", label)``, ``("plans", j)``, ...).
        """
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def ledger_columns(self, index: int, result: Any) -> Dict[str, Any]:
        """The ``family``, ``seed`` and ``detail`` columns of a row."""
        return {
            "family": result.family,
            "seed": result.seed,
            "detail": result.detail,
        }

    def ledger_row(self, index: int, result: Any) -> LedgerRow:
        """The persistent projection of one result (coordinator-side)."""
        from ..graphs.canonical import canonical_hash
        from ..trace.invariants import THEOREM31_CONSTANT

        label, network, placement = self.case_instance(index)
        chash, budget = self.memo(
            ("ledger", label),
            lambda: (
                canonical_hash(network, placement.bicoloring(network)),
                THEOREM31_CONSTANT
                * placement.num_agents
                * max(1, network.num_edges),
            ),
        )
        ctx = self.context(index)
        return LedgerRow(
            kind=self.kind,
            campaign=self.campaign,
            case_index=index,
            instance=label,
            chash=chash,
            predicted="electable" if result.predicted else "impossible",
            outcome=result.outcome,
            moves=result.moves,
            budget=budget,
            steps=result.steps,
            trace_id=ctx.trace_id if ctx is not None else "",
            span_id=ctx.span_id if ctx is not None else "",
            **self.ledger_columns(index, result),
        )

    def spill_record(self, index: int, result: Any) -> Optional[Dict[str, Any]]:
        """JSONL spill projection of one result (None: skip the case)."""
        record = _record(result)
        record.setdefault("case_index", index)
        return record

    def case_failed(self, result: Any) -> bool:
        """Does this case fail the campaign (drives the exit code)?"""
        return False

    def failure_line(self, result: Any) -> str:
        """One line naming a failing result in the rendered report."""
        return f"FAILED {result!r}"

    def stages(self) -> Sequence[Stage]:
        return ()

    def summarize(self, stages: Sequence[Stage]) -> Dict[str, Any]:
        """Extra JSON-stable keys merged into the run result's ``to_dict``.

        Called once after the run with the stage list the engine folded
        (checkpoint-restored state included), so frontends can project
        their own stage counters — e.g. the Byzantine campaign's
        per-power detection table — into ``--json`` output.
        """
        return {}

    def render_summary(self, extras: Dict[str, Any]) -> Optional[str]:
        """Human-readable block for ``summarize`` output (None: skip)."""
        return None

    def describe(self) -> Dict[str, Any]:
        """The JSON-stable configuration the fingerprint hashes."""
        return {"kind": self.kind, "campaign": self.campaign}


# ---------------------------------------------------------------------------
# Shard addressing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shard:
    """``index/count`` shard address: this worker owns the case indices
    congruent to ``index`` modulo ``count``."""

    index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1 or not (0 <= self.index < self.count):
            raise CampaignError(
                f"shard must satisfy 0 <= index < count, got "
                f"{self.index}/{self.count}"
            )

    @classmethod
    def parse(cls, text: str) -> "Shard":
        """Parse the CLI's ``i/N`` form (e.g. ``0/2``)."""
        try:
            index_text, count_text = str(text).split("/", 1)
            return cls(index=int(index_text), count=int(count_text))
        except (ValueError, TypeError):
            raise CampaignError(
                f"shard spec must look like i/N (e.g. 0/2), got {text!r}"
            ) from None

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass
class CampaignRunResult:
    """What one engine invocation did (and, via the ledger, knows)."""

    kind: str
    campaign: str
    shard: Shard
    #: Effective grid size after ``max_cases`` (all shards together).
    total: int
    #: Cases owned by this shard.
    scheduled: int
    #: Cases evaluated by THIS invocation.
    processed: int
    #: Cases skipped because a checkpoint already covered them.
    resumed: int
    #: Failing cases (``spec.case_failed``), checkpoint-accurate across
    #: resume like ``counts``, so ``ok`` judges the whole shard.
    failed: int
    #: Streamed classification counts (checkpoint-accurate across resume):
    #: the spec's whole outcome vocabulary, zeros included.
    counts: Dict[str, int] = field(default_factory=dict)
    #: The first :data:`FAILURE_LIMIT` failing results of this invocation,
    #: in case order (report and minimizer material).
    failures: List[Any] = field(default_factory=list)
    elapsed: float = 0.0
    #: ``ledger.digest(kind, campaign)`` after the run (None: no ledger).
    digest: Optional[str] = None
    ledger_rows: Optional[int] = None
    #: Frontend-specific summary keys (``spec.summarize``), merged into
    #: ``to_dict``.
    extras: Dict[str, Any] = field(default_factory=dict)
    #: ``spec.render_summary(extras)`` plus one ``spec.failure_line`` per
    #: kept failure, appended to ``render``.
    summary_text: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.resumed + self.processed >= self.scheduled

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "campaign": self.campaign,
            "shard": str(self.shard),
            "total": self.total,
            "scheduled": self.scheduled,
            "processed": self.processed,
            "resumed": self.resumed,
            "failed": self.failed,
            "counts": dict(self.counts),
            "failures": [_record(result) for result in self.failures],
            "elapsed": round(self.elapsed, 3),
            "digest": self.digest,
            "ledger_rows": self.ledger_rows,
            "complete": self.complete,
            "ok": self.ok,
            **self.extras,
        }

    def render(self) -> str:
        lines = [
            f"campaign {self.campaign} [shard {self.shard}]: "
            f"{self.processed} evaluated, {self.resumed} resumed, "
            f"{self.scheduled} scheduled of {self.total} total "
            f"({self.elapsed:.1f}s)"
        ]
        for name, count in self.counts.items():
            lines.append(f"  {name:>22}: {count}")
        if self.digest is not None:
            lines.append(f"  ledger rows={self.ledger_rows}  digest={self.digest}")
        if self.summary_text:
            lines.append(self.summary_text)
        lines.append(
            "verdict: "
            + ("OK" if self.ok else f"FAILED ({self.failed} failing cases)")
        )
        return "\n".join(lines)


class CampaignEngine:
    """Drive one shard of a :class:`CampaignSpec` to completion.

    Parameters
    ----------
    spec:
        The campaign definition (grid + evaluation + stages).
    ledger:
        A :class:`~repro.obs.ledger.RunLedger`, a path, or ``None``.
        With a ledger the run is checkpointed and resumable; without one
        it still streams (stages see every result) but cannot resume.
    workers:
        :class:`~repro.perf.parallel.ParallelBatteryRunner` fan-out.
    shard:
        This process's :class:`Shard` address, or its ``"i/N"`` form
        (``None``: the whole grid).
    checkpoint_every:
        Chunk size: cases evaluated between durable commits.  Also the
        upper bound on re-done work after a kill.
    max_cases:
        Truncate the grid to its first ``max_cases`` indices (applied
        before sharding, so every shard agrees on the index set).
    spill:
        Optional JSONL path appending one record per case.  At-least-once
        across crashes (a chunk interrupted between spill write and
        ledger commit is re-run): consumers dedup by ``case_index``, or
        use :func:`read_spill`.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        ledger: Optional[Any] = None,
        workers: Optional[int] = 1,
        shard: Optional[Any] = None,
        checkpoint_every: int = 64,
        max_cases: Optional[int] = None,
        spill: Optional[str] = None,
    ):
        if checkpoint_every < 1:
            raise CampaignError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if max_cases is not None and max_cases < 0:
            raise CampaignError(f"max_cases must be >= 0, got {max_cases}")
        self.spec = spec
        self.ledger = ledger
        self.workers = workers
        if shard is None:
            shard = Shard()
        elif not isinstance(shard, Shard):
            shard = Shard.parse(shard)
        self.shard = shard
        self.checkpoint_every = checkpoint_every
        self.max_cases = max_cases
        self.spill = spill

    # -- derived grid geometry -------------------------------------------

    @property
    def total(self) -> int:
        total = self.spec.total
        if self.max_cases is not None:
            total = min(total, self.max_cases)
        return total

    def positions(self) -> range:
        """This shard's case indices, in order."""
        return range(self.shard.index, self.total, self.shard.count)

    def fingerprint(self) -> str:
        """Hash of everything that defines the case grid: spec config,
        effective total, and the checkpoint schema itself."""
        payload = dict(self.spec.describe())
        payload["__total__"] = self.total
        payload["__checkpoint_version__"] = CHECKPOINT_SCHEMA_VERSION
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:32]

    # -- the run ----------------------------------------------------------

    def run(self, resume: bool = False) -> CampaignRunResult:
        from ..perf.parallel import ParallelBatteryRunner

        spec = self.spec
        positions = self.positions()
        fingerprint = self.fingerprint()
        stages = list(spec.stages())

        led: Optional[RunLedger] = None
        owns_ledger = False
        if self.ledger is not None:
            led = open_ledger(self.ledger)
            owns_ledger = led is not self.ledger
        start_pos, failed = self._load_checkpoint(
            led, fingerprint, stages, resume
        )

        counter = next(
            (s for s in stages if isinstance(s, OutcomeCounter)), None
        )
        dedup = next((s for s in stages if isinstance(s, SignatureDedup)), None)
        if dedup is not None and start_pos:
            dedup.resync_duplicates(start_pos)

        runner = ParallelBatteryRunner(workers=self.workers)
        spill_fh: Optional[IO[str]] = None
        processed = 0
        failures: List[Any] = []
        started = time.perf_counter()
        try:
            if self.spill is not None:
                spill_fh = open(self.spill, "a", encoding="utf-8")
            for chunk in self._chunks(positions, start_pos):
                results, chunk_wall = self._evaluate_chunk(runner, chunk)
                wall_each = round(chunk_wall / len(chunk) * 1000.0, 3)
                rows: List[LedgerRow] = []
                for index, result in zip(chunk, results):
                    for stage in stages:
                        stage.observe(index, result)
                    if spec.case_failed(result):
                        failed += 1
                        if len(failures) < FAILURE_LIMIT:
                            failures.append(result)
                    if led is not None:
                        row = spec.ledger_row(index, result)
                        row.wall_ms = wall_each
                        rows.append(row)
                    if spill_fh is not None:
                        record = spec.spill_record(index, result)
                        if record is not None:
                            spill_fh.write(
                                json.dumps(
                                    record, sort_keys=True, separators=(",", ":")
                                )
                                + "\n"
                            )
                if spill_fh is not None:
                    spill_fh.flush()
                processed += len(chunk)
                if led is not None:
                    state: Dict[str, Any] = {"engine": {"failed": failed}}
                    for stage in stages:
                        stage_state = stage.state_dict()
                        if stage_state is not None:
                            state[stage.name] = stage_state
                    led.append_with_checkpoint(
                        rows,
                        Checkpoint(
                            kind=spec.kind,
                            campaign=spec.campaign,
                            shard_index=self.shard.index,
                            shard_count=self.shard.count,
                            done=start_pos + processed,
                            fingerprint=fingerprint,
                            state=state,
                        ),
                    )
        finally:
            runner.close()
            if spill_fh is not None:
                spill_fh.close()
            elapsed = time.perf_counter() - started
            digest = ledger_rows = None
            if led is not None:
                try:
                    digest = led.digest(spec.kind, spec.campaign)
                    ledger_rows = led.count(spec.kind, spec.campaign)
                finally:
                    if owns_ledger:
                        led.close()
        counts = {name: 0 for name in spec.outcomes}
        if counter is not None:
            for name in sorted(counter.counts):
                counts[name] = counter.counts[name]
        extras = spec.summarize(stages)
        text = [spec.render_summary(extras) if extras else None]
        text += ["  " + spec.failure_line(result) for result in failures]
        return CampaignRunResult(
            kind=spec.kind,
            campaign=spec.campaign,
            shard=self.shard,
            total=self.total,
            scheduled=len(positions),
            processed=processed,
            resumed=start_pos,
            failed=failed,
            counts=counts,
            failures=failures,
            elapsed=elapsed,
            digest=digest,
            ledger_rows=ledger_rows,
            extras=extras,
            summary_text="\n".join(filter(None, text)) or None,
        )

    # -- internals --------------------------------------------------------

    def _load_checkpoint(
        self,
        led: Optional[RunLedger],
        fingerprint: str,
        stages: Sequence[Stage],
        resume: bool,
    ) -> Tuple[int, int]:
        """``(cases done, failing cases)`` of the shard's checkpoint,
        after loading its stage state (``(0, 0)``: fresh run)."""
        if led is None:
            if resume:
                raise CampaignError(
                    "resume requires a ledger (the checkpoint lives there)"
                )
            return 0, 0
        checkpoint = led.checkpoint(
            self.spec.kind,
            self.spec.campaign,
            self.shard.index,
            self.shard.count,
        )
        if checkpoint is None:
            return 0, 0
        if not resume:
            raise CampaignError(
                f"ledger {led.path!r} already holds a checkpoint for "
                f"campaign {self.spec.campaign!r} shard {self.shard} "
                f"({checkpoint.done} cases committed); pass resume=True "
                "to continue it, or point the run at a fresh ledger"
            )
        if checkpoint.fingerprint != fingerprint:
            raise CampaignError(
                f"checkpoint fingerprint mismatch for campaign "
                f"{self.spec.campaign!r} shard {self.shard}: the ledger "
                f"was written by a different grid configuration "
                f"({checkpoint.fingerprint} != {fingerprint}); refusing "
                "to mix sweeps"
            )
        if "engine" not in checkpoint.state:
            raise CampaignError(
                f"checkpoint for campaign {self.spec.campaign!r} shard "
                f"{self.shard} carries no engine failure count (written by "
                "an older engine); resuming it would judge only the cases "
                "evaluated from here on, so rerun it on a fresh ledger"
            )
        for stage in stages:
            if stage.name in checkpoint.state:
                stage.load_state(checkpoint.state[stage.name])
        return checkpoint.done, int(checkpoint.state["engine"]["failed"])

    def _chunks(
        self, positions: range, start_pos: int
    ) -> Iterator[List[int]]:
        remaining = positions[start_pos:]
        for start in range(0, len(remaining), self.checkpoint_every):
            yield list(remaining[start : start + self.checkpoint_every])

    def _evaluate_chunk(
        self, runner: Any, chunk: List[int]
    ) -> Tuple[List[Any], float]:
        """The chunk's results, in order, and its wall time in seconds."""
        spec = self.spec
        tasks = [spec.task(index) for index in chunk]
        started = time.perf_counter()
        if flight.recording():
            contexts = [spec.context(index) for index in chunk]
            if all(ctx is not None for ctx in contexts):
                results = flight.map_with_flight(
                    runner, spec.evaluate, tasks, spec.span_name, contexts
                )
                return results, time.perf_counter() - started
        results = runner.map(spec.evaluate, tasks)
        return results, time.perf_counter() - started


def read_spill(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL spill, deduplicating re-run chunks.

    Spill writes happen before the chunk's ledger commit, so a killed run
    may leave duplicate records for its torn chunk; the FIRST record per
    ``case_index`` wins (records are deterministic, so any winner is the
    same record).  Returns records sorted by case index.
    """
    by_index: Dict[int, Dict[str, Any]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            index = int(record.get("case_index", record.get("index", -1)))
            if index not in by_index:
                by_index[index] = record
    return [by_index[index] for index in sorted(by_index)]
