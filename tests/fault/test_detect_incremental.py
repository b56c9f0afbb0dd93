"""Incremental detector sweeps equal the full-scan reference at every check.

``CheatDetector.sweep`` keeps one evidence record per board and rebuilds it
only when the board's ``(identity, version)`` changed.  The oracle here
wraps every sweep with the reference answer -- ``scan()`` over all boards
minus what was already reported -- and asserts that the fresh findings,
their order, the DETECT events and the ``CheatDetected`` message are the
reference's, on campaign runs under every detector policy and on
hand-built board sequences aimed at the cross-board cases.
"""

import itertools

import pytest

from repro.colors import ColorSpace
from repro.core.elect import ElectAgent
from repro.core.placement import Placement
from repro.errors import CheatDetected
from repro.fault import CheatDetector, FaultyWhiteboard
from repro.fault.byzantine_campaign import (
    ByzantineCampaignSpec,
    ByzantineConfig,
    _evaluate_byz_pair,
)
from repro.fault.detect import CONSISTENCY, PROVENANCE, STRICT
from repro.graphs import hypercube_cayley
from repro.obs import MetricsRegistry, instrument_whiteboards, set_registry
from repro.sim import RandomScheduler, Simulation
from repro.sim.signs import DFS_VISITED, LEADER_ANNOUNCE, Sign
from repro.sim.whiteboard import Whiteboard
from repro.trace.events import DETECT


def reference_fresh(detector, boards):
    """The full-scan sweep's fresh findings: ``scan()`` minus everything
    already reported, each finding once, in scan order."""
    reported = set(detector._reported)
    fresh = []
    for finding in detector.scan(boards):
        if finding not in reported:
            reported.add(finding)
            fresh.append(finding)
    return fresh


class SweepOracle:
    """Checks each sweep it wraps against :func:`reference_fresh`."""

    def __init__(self):
        self.checks = 0
        self.fresh = 0
        self.aborts = 0

    def wrap(self, sweep):
        def checked(detector, sim, steps):
            expected = reference_fresh(detector, sim.boards)
            emit = sim.emit_system
            events = []

            def tap(kind, node, step=None, **fields):
                events.append((kind, node, step, fields.get("detail")))
                return emit(kind, node, step=step, **fields)

            sim.emit_system = tap
            try:
                fresh = sweep(detector, sim, steps)
            except CheatDetected as exc:
                assert detector.abort and expected
                assert str(exc) == (
                    f"cheat detected at step {steps}: {expected[0].message}"
                )
                self.aborts += 1
                raise
            else:
                assert fresh == expected
                assert not (detector.abort and expected)
            finally:
                del sim.emit_system
                self.checks += 1
                self.fresh += len(expected)
                assert events == [
                    (DETECT, max(f.node, 0), steps, f.message)
                    for f in expected
                ]
                tail = len(detector.findings) - len(expected)
                assert detector.findings[tail:] == expected
            return fresh

        return checked


@pytest.fixture
def oracle(monkeypatch):
    check = SweepOracle()
    monkeypatch.setattr(CheatDetector, "sweep", check.wrap(CheatDetector.sweep))
    return check


# ---------------------------------------------------------------------------
# Campaign runs under every detector policy
# ---------------------------------------------------------------------------

#: The quick battery's whole grid at one plan slot: 7 instances x 4
#: powers x 4 scenarios.
GRID_CASES = 112


@pytest.mark.parametrize(
    "strictness,abort,check_every",
    list(itertools.product((1, 2, 3), (False, True), (1, 7, 25))),
)
def test_sweeps_equal_the_full_scan_on_campaign_runs(
    oracle, strictness, abort, check_every
):
    cfg = ByzantineConfig(
        seed=3, strictness=strictness, abort=abort, check_every=check_every
    )
    spec = ByzantineCampaignSpec(
        cases=GRID_CASES, powers=(0, 1, 2, 3), config=cfg, quick=True
    )
    for index in range(GRID_CASES):
        _evaluate_byz_pair(spec.task(index))
    assert oracle.checks > GRID_CASES
    assert oracle.fresh > 0
    assert (oracle.aborts > 0) == abort


# ---------------------------------------------------------------------------
# Hand-built board sequences
# ---------------------------------------------------------------------------


class FakeSim:
    def __init__(self, boards):
        self.boards = boards
        self.emitted = []

    def emit_system(self, kind, node, step, **fields):
        self.emitted.append((kind, node, step, fields))


def visit(color, number):
    return Sign(kind=DFS_VISITED, color=color, payload=(number,))


def faulty_boards(n):
    return [FaultyWhiteboard(node) for node in range(n)]


class CountingList(list):
    """A sign list that counts how often it is iterated."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


class TestSequences:
    def test_a_forged_sign_that_is_later_erased(self, oracle):
        space = ColorSpace()
        victim, liar = space.fresh(), space.fresh()
        sim = FakeSim(faulty_boards(2))
        detector = CheatDetector(strictness=1)
        # Erased before any sweep saw it: no evidence is left.
        sim.boards[1].append(visit(victim, 2), writer=liar)
        assert sim.boards[1].erase_own(victim, DFS_VISITED, (2,)) == 1
        assert detector.sweep(sim, 1) == []
        sim.boards[0].append(visit(victim, 1), writer=liar)
        [finding] = detector.sweep(sim, 2)
        assert finding.kind == PROVENANCE
        assert sim.boards[0].erase_own(victim, DFS_VISITED, (1,)) == 1
        assert detector.sweep(sim, 3) == []
        # The same lie told again is the same (already reported) finding.
        sim.boards[0].append(visit(victim, 1), writer=liar)
        assert detector.sweep(sim, 4) == []
        assert oracle.checks == 4

    def test_a_lower_node_gains_a_number_an_unchanged_node_holds(self, oracle):
        space = ColorSpace()
        a = space.fresh()
        sim = FakeSim(faulty_boards(3))
        detector = CheatDetector(strictness=2)
        sim.boards[2].append(visit(a, 3), writer=a)
        assert detector.sweep(sim, 1) == []
        sim.boards[0].append(visit(a, 3), writer=a)
        [finding] = detector.sweep(sim, 2)
        # The finding sits on the board that did not change.
        assert (finding.kind, finding.node) == (CONSISTENCY, 2)
        assert "appears on nodes 0 and 2" in finding.message

    def test_announcements_grow_from_two_colors_to_three(self, oracle):
        space = ColorSpace()
        a, b, c = space.fresh(), space.fresh(), space.fresh()
        sim = FakeSim(faulty_boards(3))
        detector = CheatDetector(strictness=2)
        sim.boards[0].append(Sign(kind=LEADER_ANNOUNCE, color=a), writer=a)
        sim.boards[1].append(Sign(kind=LEADER_ANNOUNCE, color=b), writer=b)
        [two] = detector.sweep(sim, 1)
        assert "2 distinct leader announcements" in two.message
        sim.boards[2].append(Sign(kind=LEADER_ANNOUNCE, color=c), writer=c)
        [three] = detector.sweep(sim, 2)
        assert "3 distinct leader announcements" in three.message
        assert three.node == 2

    def test_a_gap_opens_closes_and_opens_again_at_strictness_three(
        self, oracle
    ):
        space = ColorSpace()
        a = space.fresh()
        sim = FakeSim(faulty_boards(4))
        detector = CheatDetector(strictness=3)
        sim.boards[0].append(visit(a, 0), writer=a)
        assert detector.sweep(sim, 1) == []
        sim.boards[1].append(visit(a, 2), writer=a)
        [gap] = detector.sweep(sim, 2)
        assert (gap.kind, gap.node) == (STRICT, -1)
        assert "missing [1]" in gap.message
        sim.boards[2].append(visit(a, 1), writer=a)
        assert detector.sweep(sim, 3) == []
        sim.boards[3].append(visit(a, 5), writer=a)
        [again] = detector.sweep(sim, 4)
        assert "missing [3]" in again.message
        # The emitted DETECT events carry node 0 for board-less findings.
        assert [node for _, node, _, _ in sim.emitted] == [0, 0]

    def test_a_board_replaced_between_sweeps(self, oracle):
        space = ColorSpace()
        a, liar = space.fresh(), space.fresh()
        sim = FakeSim(faulty_boards(2))
        detector = CheatDetector(strictness=3)
        sim.boards[1].append(visit(a, 0), writer=a)
        assert detector.sweep(sim, 1) == []
        # Same node, same version, different board and content.
        replacement = FaultyWhiteboard(1)
        replacement.append(visit(a, 0), writer=liar)
        assert replacement.version == sim.boards[1].version
        sim.boards[1] = replacement
        [forged] = detector.sweep(sim, 2)
        assert forged.kind == PROVENANCE
        # A board list that grows is read in full as well ...
        sim.boards.append(FaultyWhiteboard(2))
        sim.boards[2].append(visit(a, 0), writer=a)
        sim.boards[2].append(visit(a, 3), writer=a)
        dup, gap = detector.sweep(sim, 3)
        assert (dup.kind, gap.kind) == (CONSISTENCY, STRICT)
        assert "has 2 numbers, missing [1]" in gap.message
        # ... and one that shrinks drops the removed board's evidence.
        sim.boards.pop()
        assert detector.sweep(sim, 4) == []
        sim.boards[0].append(visit(a, 1), writer=a)
        sim.boards[0].append(visit(a, 4), writer=a)
        [gap] = detector.sweep(sim, 5)
        assert "has 3 numbers, missing [2]" in gap.message

    def test_the_uninstalled_path_reads_plain_boards(self, oracle):
        space = ColorSpace()
        a, b = space.fresh(), space.fresh()
        sim = FakeSim([Whiteboard(), Whiteboard()])
        for board in sim.boards:
            board.append(visit(a, 4), writer=b)
        detector = CheatDetector(strictness=3)
        fresh = detector.sweep(sim, 1)
        # Plain boards keep no provenance: only the cross-board and gap
        # evidence shows, and the boards are not swapped.
        assert [f.kind for f in fresh] == [CONSISTENCY, STRICT]
        assert all(type(board) is Whiteboard for board in sim.boards)

    def test_an_unchanged_sweep_reads_no_sign(self):
        space = ColorSpace()
        a = space.fresh()
        sim = FakeSim([FaultyWhiteboard(0, drops=(2,)), FaultyWhiteboard(1)])
        detector = CheatDetector(strictness=3)
        sim.boards[0].append(visit(a, 0), writer=a)
        detector.sweep(sim, 1)
        for board in sim.boards:
            board._signs = CountingList(board._signs)
        # A dropped write lands nothing and keeps the version.
        version = sim.boards[0].version
        assert sim.boards[0].append(visit(a, 1), writer=a) is None
        assert sim.boards[0].version == version
        assert detector.sweep(sim, 2) == []
        assert [board._signs.reads for board in sim.boards] == [0, 0]
        # A stored write is read, on its board only.
        sim.boards[1].append(visit(a, 2), writer=a)
        [gap] = detector.sweep(sim, 3)
        assert gap.kind == STRICT
        assert sim.boards[0]._signs.reads == 0
        assert sim.boards[1]._signs.reads > 0


# ---------------------------------------------------------------------------
# Sweeps are not board reads
# ---------------------------------------------------------------------------


def _board_ops(with_detector):
    net = hypercube_cayley(3).network
    placement = Placement.of([0, 3, 5])
    colors = placement.fresh_colors()
    agents = [ElectAgent(color) for color in colors]
    sim = Simulation(
        net,
        list(zip(agents, placement.homes)),
        scheduler=RandomScheduler(seed=11),
    )
    if with_detector:
        detector = CheatDetector(strictness=3, check_every=1).install(sim)
    # Each compared run counts into its own fresh process registry.
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    restore = instrument_whiteboards()
    try:
        result = sim.run()
        if with_detector:
            detector.sweep(sim, result.steps)
            assert detector.findings == []
    finally:
        restore()
        set_registry(previous)
    return registry.snapshot()["metrics"]["whiteboard_ops_total"]


def test_detector_sweeps_do_not_count_as_board_reads():
    assert _board_ops(with_detector=True) == _board_ops(with_detector=False)
