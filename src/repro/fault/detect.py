"""Cheat detection: provenance audits and cross-board consistency sweeps.

The qualitative model makes one kind of lie *structurally impossible* to
hide: a sign carries its writer's color, and the runtime knows who actually
performed every write.  :class:`CheatDetector` turns that into a measurable
detection discipline.  Installed on a simulation, it

* replaces every plain whiteboard with a bare (fault-free)
  :class:`~repro.fault.boards.FaultyWhiteboard` so every write's
  provenance is checked and forgeries journaled (boards a fault plan
  already replaced are kept);
* registers a periodic step-hook that sweeps the boards for evidence and
  emits one DETECT trace event per *new* finding;
* optionally aborts the run on fresh evidence
  (:class:`~repro.errors.CheatDetected` — the game-theoretic
  abort-on-detection policy: a detected cheater forfeits).

Detection strictness is cumulative — each level includes the previous:

1. **provenance** — a live sign whose claimed color differs from its
   recorded writer (catches ``forge-visit``, ``spoof-owner``, ``replay``
   of foreign signs: any foreign-color forgery);
2. **consistency** (default) — cross-board invariants of the honest
   protocols: a DFS visit number appearing twice for one color, more than
   one distinct leader-announcement color, one color's home-base mark on
   two nodes;
3. **strict** — per-color visit-number *gap* analysis (an honest DFS
   numbers nodes contiguously from 0) and per-board identical duplicates
   of structural signs (catches same-board replays and own-color number
   lies that level 1 cannot attribute).

Sweeps are **passive** (pure board reads, no mutation, no agent
perturbation), which gives the monotonicity property the campaign measures:
raising strictness can only add findings, never remove or reorder them.
They read the boards' raw sign lists, so a sweep is not counted as a board
read by :func:`repro.obs.instrument_whiteboards`.

Sweeps are **incremental**.  Each board's evidence (its live forgeries, its
visit numbers, announcement and home-base colors, and its strict
duplicates) is kept in a :class:`_Evidence` record keyed by the board
object and its ``version``, and rebuilt only when that key changed.  The
findings are exactly :meth:`CheatDetector.scan`'s: a scan reads only sign
lists and provenance, which change only in a stored append or an erase
that removed something, and both bump ``version`` (a dropped write changes
neither).  The cross-board checks rerun over all records whenever any
board changed, since a change on one board can add a finding on another.
A sweep after a step that changed no board reads no sign at all.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import CheatDetected, FaultError
from ..sim.signs import DFS_VISITED, HOMEBASE, LEADER_ANNOUNCE
from ..trace.events import DETECT
from .boards import FORGED, FaultyWhiteboard
from .metrics import count_detection

#: Evidence kinds (the ``kind`` of a :class:`Finding`, and the metrics label).
PROVENANCE = "forged"
CONSISTENCY = "consistency"
STRICT = "strict"

#: Sign kinds whose identical per-board duplication is anomalous (level 3).
_STRUCTURAL_KINDS = (DFS_VISITED, HOMEBASE)


class Finding(Tuple[str, int, str]):
    """A detection finding: ``(kind, node, message)``.

    A plain tuple subclass so findings stay hashable/comparable (sweeps
    deduplicate against everything already reported) while reading well.
    """

    __slots__ = ()

    def __new__(cls, kind: str, node: int, message: str) -> "Finding":
        return super().__new__(cls, (kind, node, message))

    @property
    def kind(self) -> str:
        return self[0]

    @property
    def node(self) -> int:
        return self[1]

    @property
    def message(self) -> str:
        return self[2]


class _Evidence:
    """One board's part of a sweep, as of one ``version`` of that board.

    ``visits`` holds ``(color name, visit number)`` per colored
    DFS_VISITED sign in board order; ``announces`` and ``homes`` the color
    names on its leader-announce and home-base signs; ``forged`` and
    ``duplicates`` its provenance and strict per-board findings.
    """

    __slots__ = (
        "board", "version", "forged", "visits", "announces", "homes", "duplicates"
    )

    def __init__(self, board: Any):
        self.board = board
        self.version: int = board.version
        self.forged: List[Finding] = []
        self.visits: List[Tuple[str, int]] = []
        self.announces: Set[str] = set()
        self.homes: Set[str] = set()
        self.duplicates: List[Finding] = []


class CheatDetector:
    """Periodic cheat-detection audit over a simulation's whiteboards.

    Parameters
    ----------
    strictness:
        Detection level 1–3 (cumulative; see the module docstring).
    abort:
        Raise :class:`~repro.errors.CheatDetected` on the first sweep that
        surfaces a *new* finding (abort-on-detection).  Default ``False``:
        findings are journaled and traced, the run continues.
    check_every:
        Sweep period in scheduler steps.
    """

    def __init__(
        self, strictness: int = 2, abort: bool = False, check_every: int = 25
    ):
        if not 1 <= strictness <= 3:
            raise FaultError(
                f"detector strictness must be 1, 2 or 3, got {strictness}"
            )
        if check_every < 1:
            raise FaultError(
                f"detector check_every must be >= 1, got {check_every}"
            )
        self.strictness = strictness
        self.abort = abort
        self.check_every = check_every
        #: Every distinct finding ever surfaced, in discovery order.
        self.findings: List[Finding] = []
        self._reported: Set[Finding] = set()
        #: One evidence record per node, as of the last sweep.
        self._records: List[Optional[_Evidence]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self, sim: Any) -> "CheatDetector":
        """Arm the detector on ``sim`` (call after construction, before run).

        Plain boards are swapped for bare forgery-journaling
        :class:`FaultyWhiteboard` instances (no drops, no corruptions —
        behaviorally identical); boards a fault plan already faulted are
        left in place, their journals serve double duty.
        """
        for node, board in enumerate(sim.boards):
            if not isinstance(board, FaultyWhiteboard):
                replacement = FaultyWhiteboard(node)
                for sign in board._signs:
                    replacement.append(sign)
                sim.boards[node] = replacement
        sim.step_hooks.append(self)
        return self

    # ------------------------------------------------------------------
    # Scanning (passive)
    # ------------------------------------------------------------------

    def scan(self, boards: Sequence[Any]) -> List[Finding]:
        """All current findings at this detector's strictness (pure reads)."""
        findings: List[Finding] = []
        self._scan_provenance(boards, findings)
        if self.strictness >= 2:
            self._scan_consistency(boards, findings)
        if self.strictness >= 3:
            self._scan_strict(boards, findings)
        return findings

    def _scan_provenance(
        self, boards: Sequence[Any], findings: List[Finding]
    ) -> None:
        for board in boards:
            if not isinstance(board, FaultyWhiteboard):
                continue
            for kind, message in board.audit_findings():
                if kind == FORGED:
                    findings.append(
                        Finding(PROVENANCE, board.node, f"forged: {message}")
                    )

    def _scan_consistency(
        self, boards: Sequence[Any], findings: List[Finding]
    ) -> None:
        visit_seen: Dict[Tuple[str, int], int] = {}
        announce_colors: Dict[str, int] = {}
        home_nodes: Dict[str, List[int]] = {}
        for node, board in enumerate(boards):
            for sign in board.snapshot():
                if sign.color is None:
                    continue
                cname = sign.color.name or "?"
                if sign.kind == DFS_VISITED and sign.payload:
                    key = (cname, sign.payload[0])
                    visit_seen.setdefault(key, node)
                    if visit_seen[key] != node:
                        findings.append(
                            Finding(
                                CONSISTENCY,
                                node,
                                f"consistency: visit number "
                                f"{sign.payload[0]} of color {cname} appears "
                                f"on nodes {visit_seen[key]} and {node}",
                            )
                        )
                elif sign.kind == LEADER_ANNOUNCE:
                    announce_colors.setdefault(cname, node)
                elif sign.kind == HOMEBASE:
                    nodes = home_nodes.setdefault(cname, [])
                    if node not in nodes:
                        nodes.append(node)
        if len(announce_colors) > 1:
            names = sorted(announce_colors)
            node = announce_colors[names[-1]]
            findings.append(
                Finding(
                    CONSISTENCY,
                    node,
                    f"consistency: {len(names)} distinct leader "
                    f"announcements ({', '.join(names)})",
                )
            )
        for cname, nodes in sorted(home_nodes.items()):
            if len(nodes) > 1:
                findings.append(
                    Finding(
                        CONSISTENCY,
                        nodes[-1],
                        f"consistency: color {cname} claims home-bases on "
                        f"nodes {nodes}",
                    )
                )

    def _scan_strict(
        self, boards: Sequence[Any], findings: List[Finding]
    ) -> None:
        numbers: Dict[str, Set[int]] = {}
        for node, board in enumerate(boards):
            per_board: Dict[Tuple[str, str, Tuple[int, ...]], int] = {}
            for sign in board.snapshot():
                if sign.color is None:
                    continue
                cname = sign.color.name or "?"
                if sign.kind == DFS_VISITED and sign.payload:
                    numbers.setdefault(cname, set()).add(sign.payload[0])
                if sign.kind in _STRUCTURAL_KINDS:
                    key = (sign.kind, cname, sign.payload)
                    per_board[key] = per_board.get(key, 0) + 1
            for (kind, cname, payload), count in sorted(per_board.items()):
                if count > 1:
                    findings.append(
                        Finding(
                            STRICT,
                            node,
                            f"strict: node {node} holds {count} identical "
                            f"{kind} signs of color {cname} "
                            f"payload={payload}",
                        )
                    )
        for cname, nums in sorted(numbers.items()):
            expected = set(range(len(nums)))
            if nums != expected:
                missing = sorted(expected - nums)[:3]
                findings.append(
                    Finding(
                        STRICT,
                        -1,
                        f"strict: color {cname} visit numbers are not "
                        f"contiguous from 0 (has {len(nums)} numbers, "
                        f"missing {missing})",
                    )
                )

    # ------------------------------------------------------------------
    # Incremental sweeps: the same findings as scan(), from per-board records
    # ------------------------------------------------------------------

    def _evidence(self, node: int, board: Any) -> _Evidence:
        """Read one board's evidence (its raw sign list, not a snapshot)."""
        rec = _Evidence(board)
        if isinstance(board, FaultyWhiteboard):
            rec.forged = [
                Finding(PROVENANCE, board.node, f"forged: {message}")
                for message in board.forgeries()
            ]
        if self.strictness < 2:
            return rec
        strict = self.strictness >= 3
        per_board: Dict[Tuple[str, str, Tuple[int, ...]], int] = {}
        for sign in board._signs:
            if sign.color is None:
                continue
            kind = sign.kind
            if kind == DFS_VISITED:
                if sign.payload:
                    rec.visits.append(
                        (sign.color.name or "?", sign.payload[0])
                    )
            elif kind == LEADER_ANNOUNCE:
                rec.announces.add(sign.color.name or "?")
            elif kind == HOMEBASE:
                rec.homes.add(sign.color.name or "?")
            if strict and kind in _STRUCTURAL_KINDS:
                key = (kind, sign.color.name or "?", sign.payload)
                per_board[key] = per_board.get(key, 0) + 1
        for (kind, cname, payload), count in sorted(per_board.items()):
            if count > 1:
                rec.duplicates.append(
                    Finding(
                        STRICT,
                        node,
                        f"strict: node {node} holds {count} identical "
                        f"{kind} signs of color {cname} payload={payload}",
                    )
                )
        return rec

    def _refresh(self, boards: Sequence[Any]) -> bool:
        """Rebuild the records of boards changed since the last sweep;
        ``True`` iff any was."""
        records = self._records
        changed = len(records) != len(boards)
        if changed:
            records[:] = [None] * len(boards)
        for node, board in enumerate(boards):
            rec = records[node]
            if rec is None or rec.board is not board or rec.version != board.version:
                records[node] = self._evidence(node, board)
                changed = True
        return changed

    def _findings(self, records: Sequence[_Evidence]) -> List[Finding]:
        """:meth:`scan`'s findings, in its order, from the records."""
        findings = [f for rec in records for f in rec.forged]
        if self.strictness < 2:
            return findings
        visit_seen: Dict[Tuple[str, int], int] = {}
        announce_colors: Dict[str, int] = {}
        home_nodes: Dict[str, List[int]] = {}
        for node, rec in enumerate(records):
            for key in rec.visits:
                first = visit_seen.setdefault(key, node)
                if first != node:
                    findings.append(
                        Finding(
                            CONSISTENCY,
                            node,
                            f"consistency: visit number {key[1]} of color "
                            f"{key[0]} appears on nodes {first} and {node}",
                        )
                    )
            for cname in rec.announces:
                announce_colors.setdefault(cname, node)
            for cname in rec.homes:
                home_nodes.setdefault(cname, []).append(node)
        if len(announce_colors) > 1:
            names = sorted(announce_colors)
            findings.append(
                Finding(
                    CONSISTENCY,
                    announce_colors[names[-1]],
                    f"consistency: {len(names)} distinct leader "
                    f"announcements ({', '.join(names)})",
                )
            )
        for cname, nodes in sorted(home_nodes.items()):
            if len(nodes) > 1:
                findings.append(
                    Finding(
                        CONSISTENCY,
                        nodes[-1],
                        f"consistency: color {cname} claims home-bases on "
                        f"nodes {nodes}",
                    )
                )
        if self.strictness < 3:
            return findings
        numbers: Dict[str, Set[int]] = {}
        for rec in records:
            findings.extend(rec.duplicates)
            for cname, number in rec.visits:
                numbers.setdefault(cname, set()).add(number)
        for cname, nums in sorted(numbers.items()):
            expected = set(range(len(nums)))
            if nums != expected:
                missing = sorted(expected - nums)[:3]
                findings.append(
                    Finding(
                        STRICT,
                        -1,
                        f"strict: color {cname} visit numbers are not "
                        f"contiguous from 0 (has {len(nums)} numbers, "
                        f"missing {missing})",
                    )
                )
        return findings

    # ------------------------------------------------------------------
    # The step hook
    # ------------------------------------------------------------------

    def sweep(self, sim: Any, steps: int) -> List[Finding]:
        """One detection sweep: report, trace and count *new* findings.

        Exactly the fresh part of :meth:`scan`, in its order; a sweep after
        a step that changed no board returns ``[]`` without reading a sign.
        """
        if not self._refresh(sim.boards):
            return []
        fresh: List[Finding] = []
        for finding in self._findings(self._records):
            if finding in self._reported:
                continue
            self._reported.add(finding)
            self.findings.append(finding)
            fresh.append(finding)
            count_detection(finding.kind)
            sim.emit_system(
                DETECT,
                node=max(finding.node, 0),
                step=steps,
                detail=finding.message,
            )
        if fresh and self.abort:
            raise CheatDetected(
                f"cheat detected at step {steps}: {fresh[0].message}"
            )
        return fresh

    def __call__(self, sim: Any, steps: int) -> None:
        if steps % self.check_every == 0:
            self.sweep(sim, steps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheatDetector(strictness={self.strictness}, "
            f"abort={self.abort}, every={self.check_every}, "
            f"{len(self.findings)} findings)"
        )
