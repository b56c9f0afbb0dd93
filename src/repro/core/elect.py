"""Protocol ELECT (paper Figure 3) — full asynchronous whiteboard protocol.

Every agent executes, independently and asynchronously:

1. **MAP-DRAWING** — whiteboard DFS (:func:`repro.sim.traversal.draw_map`),
   waking sleeping agents it passes; yields a private map with home-base
   colors.
2. **COMPUTE & ORDER** — equivalence classes of the bi-colored map in the
   canonical ``≺`` order (:mod:`repro.core.ordering`).  Because the classes
   and their order are isomorphism-invariant, all agents agree on them.
3. If ``gcd(|C_1|,…,|C_k|) > 1`` the protocol cannot elect: the agent
   reports failure directly — *every* agent reaches the same conclusion
   from its own map, which realises the paper's "ELECT lets the agents know
   about the failure of the election" without extra traversals.
4. Otherwise the gcd-reduction stages run (AGENT-REDUCE phases over agent
   classes, then NODE-REDUCE phases over node classes), driving the active
   set down to a single leader, who tours the network announcing its color.

Run-time coordination uses only model-legal *colored signs* (payloads are
ints; an agent writes its own color only).  The deterministic **schedule**
(:mod:`repro.core.reduce_phases`) fixes every phase/round's set *sizes*;
identities are resolved by whiteboard races:

* A waiting agent posts ``STATUS(phase, round, WAITING)`` at its home and
  blocks until ``ROUND_DONE(phase, round)`` signs from ``|S|`` distinct
  colors appear there.
* A searching agent tours the waiting home-bases; at each it awaits the
  ``WAITING`` status and, if still unmatched, races a one-slot
  ``MATCH(phase, round)`` acquisition.  After matching it posts
  ``SEARCH_DONE`` at its own home, awaits every other searcher's
  ``SEARCH_DONE``, then tours the waiting homes once more — reading the
  complete matched set ``P`` and stamping ``ROUND_DONE`` everywhere.
* NODE-REDUCE rounds race ``NODE_ACQUIRED(phase, round)`` signs with the
  capacities of the paper's Case 1/Case 2 arithmetic, and synchronize on
  ``STATUS(phase, round, NODE_DONE)`` at the active agents' homes.
* Agent classes beyond ``C_2`` are *activated* by ``ACTIVATE(phase)``
  signs written on their home-bases by the incoming active set; the
  activation colors double as the identities of that active set.

The move/access count is ``O(r·|E|)`` up to the schedule's round counts,
as Theorem 3.1 requires; the benchmarks measure it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from ..colors import Color
from ..errors import ProtocolError
from ..obs.spans import (
    AGENT_REDUCE,
    ANNOUNCE,
    AWAIT,
    COMPUTE_ORDER,
    MAP_DRAWING,
    NODE_REDUCE,
    PhaseClock,
)
from ..sim.actions import Log, NodeView, Read, TryAcquire, WaitUntil, Write
from ..sim.agent import Agent, ProtocolGen
from ..sim.signs import (
    ACTIVATE,
    DFS_VISITED,
    LEADER_ANNOUNCE,
    MATCH,
    NODE_ACQUIRED,
    ROUND_DONE,
    STATUS,
    Sign,
)
from ..sim.traversal import LocalMap, Navigator, draw_map, draw_map_frontier
from .ordering import ClassStructure, compute_class_structure
from .reduce_phases import PhaseSpec, Schedule, build_schedule
from .result import AgentReport, Verdict

# STATUS role codes (part of integer payloads).
ROLE_WAITING = 0
ROLE_SEARCH_DONE = 1
ROLE_NODE_DONE = 2


def _has_status(view: NodeView, color: Color, phase: int, rnd: int, role: int) -> bool:
    """Whether ``color`` posted the given STATUS on this board."""
    return any(
        s.kind == STATUS and s.color == color and s.payload == (phase, rnd, role)
        for s in view.signs
    )


def _round_done_colors(view: NodeView, phase: int, rnd: int) -> Set[Color]:
    return {
        s.color
        for s in view.signs
        if s.kind == ROUND_DONE and s.payload == (phase, rnd) and s.color is not None
    }


def _match_present(view: NodeView, phase: int, rnd: int) -> bool:
    return any(
        s.kind == MATCH and s.payload == (phase, rnd) for s in view.signs
    )


def _leader_sign(view: NodeView) -> Optional[Color]:
    for s in view.signs:
        if s.kind == LEADER_ANNOUNCE:
            return s.color
    return None


class ElectAgent(Agent):
    """An agent running protocol ELECT.

    The constructor takes only the color (plus optional private rng); all
    knowledge of the network is acquired at run time, as the paper's
    *generic* protocols require.  ``map_strategy`` selects the MAP-DRAWING
    traversal: ``"dfs"`` (the paper's whiteboard DFS, default) or
    ``"frontier"`` (nearest-frontier exploration — same map, usually fewer
    moves; see ablation A4).

    ``matching`` is **test-only** plumbing for the adversarial fuzzer:
    ``"atomic"`` (default) uses the paper's one-slot ``TryAcquire`` race
    for AGENT-REDUCE matching; ``"toctou"`` deliberately replaces it with
    a non-atomic read-then-write, reintroducing the time-of-check/
    time-of-use race the atomic acquisition exists to prevent.  Under most
    schedules the broken variant still works; under fine-grained
    interleavings two searchers both claim the same waiter and the
    round's readback fails loudly.  The fuzzer acceptance test proves the
    interleaving fuzzer finds such a schedule and ddmin shrinks it.
    """

    def __init__(
        self, *args, map_strategy: str = "dfs", matching: str = "atomic", **kwargs
    ):
        super().__init__(*args, **kwargs)
        if map_strategy not in ("dfs", "frontier"):
            raise ProtocolError(f"unknown map strategy {map_strategy!r}")
        if matching not in ("atomic", "toctou"):
            raise ProtocolError(f"unknown matching mode {matching!r}")
        self.map_strategy = map_strategy
        self.matching = matching

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def protocol(self, start: NodeView) -> ProtocolGen:
        # Phase spans (DESIGN §8.3): the clock attributes the agent's wall
        # time between phase transitions to the four ELECT phases, in the
        # process registry.  The runtime closes the clock when the agent
        # terminates or restarts; against a disabled registry (and no
        # flight recorder) every call below is a no-op.
        self.obs_clock = PhaseClock(agent=self.color.name or "?")
        self.obs_clock.enter(MAP_DRAWING)
        # Checkpoint hook: our own dfs-visited mark on the start view means
        # this protocol instance was restarted by the watchdog after a crash
        # — the whiteboards *are* the checkpoint.  MAP-DRAWING re-enters
        # idempotently (deterministic port order revisits the old numbering)
        # and every later stage keys off persistent signs, so the restarted
        # run resumes the same election.  The Log is purely diagnostic.
        if any(
            s.kind == DFS_VISITED and s.color == self.color
            for s in start.signs
        ):
            yield Log("restart-from-checkpoint", ())
        drawer = draw_map if self.map_strategy == "dfs" else draw_map_frontier
        local_map: LocalMap = yield from drawer(self.color, start)
        self._map = local_map
        self._nav = Navigator(local_map)
        self.obs_clock.enter(COMPUTE_ORDER)
        structure = compute_class_structure(
            local_map.network, local_map.bicoloring()
        )
        schedule = build_schedule(structure.sizes, structure.num_agent_classes)
        self._structure = structure
        self._schedule = schedule

        early = self._check_feasibility(local_map, structure, schedule)
        if early is not None:
            # Every agent reaches this verdict from its own (isomorphic)
            # map; no announcement traversal is needed.
            return early

        my_class = structure.class_of_node(local_map.home)
        agent_classes = structure.agent_classes

        if len(agent_classes[0]) == 1 and my_class == 0:
            # |C_1| = 1: this agent is the leader outright (the schedule has
            # no phases starting from a singleton D).
            return (yield from self._become_leader())

        if my_class >= 2:
            join_phase = schedule.phase_for_agent_class(my_class)
            if join_phase < 0:
                # The reduction reaches |D| = 1 before this class would be
                # activated: just await the leader's announcement.
                return (yield from self._await_announcement())
            incoming = self._phase_by_id(join_phase).incoming
            active = yield from self._await_activation(join_phase, incoming)
            start_phase = join_phase
        elif my_class == 1:
            # C_2 joins phase 1 with D = C_1 (both known from the map).
            if not schedule.phases or schedule.phases[0].kind != "agent":
                # Happens only if |C_1| == 1, handled above; defensive.
                return (yield from self._await_announcement())
            active = set(agent_classes[0])
            start_phase = 1
        else:  # my_class == 0
            active = set(agent_classes[0])
            start_phase = 1

        survivor = yield from self._run_phases(start_phase, active)
        if survivor is None:
            return (yield from self._await_announcement())
        if len(survivor) != 1 or self._map.home not in survivor:
            raise ProtocolError("phase loop ended without a unique survivor")
        return (yield from self._become_leader())

    def _check_feasibility(
        self,
        local_map: LocalMap,
        structure: ClassStructure,
        schedule: Schedule,
    ) -> Optional[AgentReport]:
        """Early-verdict hook run right after COMPUTE & ORDER.

        The generic protocol declares failure iff the gcd condition fails
        (Theorem 3.1); the Cayley variant overrides this with the
        Theorem 4.1 criteria.  Returning ``None`` proceeds to the
        reduction stages.
        """
        if not schedule.succeeds:
            return AgentReport(verdict=Verdict.FAILED)
        return None

    # ------------------------------------------------------------------
    # Phase driver
    # ------------------------------------------------------------------

    def _phase_by_id(self, phase_id: int) -> PhaseSpec:
        for spec in self._schedule.phases:
            if spec.phase_id == phase_id:
                return spec
        raise ProtocolError(f"no phase {phase_id} in schedule")

    def _run_phases(self, start_phase: int, active: Set[int]) -> ProtocolGen:
        """Run phases from ``start_phase`` while this agent stays active.

        ``active`` is the set of *map home nodes* of the current active set
        D (this agent included).  Returns the final singleton survivor set
        if this agent is the survivor, else ``None`` (agent went passive).
        """
        for spec in self._schedule.phases:
            if spec.phase_id < start_phase:
                continue
            if len(active) != spec.incoming:
                raise ProtocolError(
                    f"active set size {len(active)} != scheduled {spec.incoming}"
                )
            yield Log(
                "phase-start",
                (spec.phase_id, 0 if spec.kind == "agent" else 1, len(active)),
            )
            self.obs_clock.enter(
                AGENT_REDUCE if spec.kind == "agent" else NODE_REDUCE
            )
            if spec.kind == "agent":
                if spec.phase_id >= 2:
                    yield from self._activate_class(spec)
                active = yield from self._agent_phase(spec, active)
            else:
                active = yield from self._node_phase(spec, active)
            if active is None or self._map.home not in active:
                return None
        return active

    # ------------------------------------------------------------------
    # Activation of later agent classes
    # ------------------------------------------------------------------

    def _activate_class(self, spec: PhaseSpec) -> ProtocolGen:
        """Write ACTIVATE(phase) on every home of the joining class."""
        targets = set(self._structure.classes[spec.class_index])

        def visit(node: int, view: NodeView) -> ProtocolGen:
            yield Write(Sign(kind=ACTIVATE, color=self.color, payload=(spec.phase_id,)))
            return None

        yield from self._nav.tour(visit=visit, only=lambda v: v in targets)
        return None

    def _await_activation(self, phase_id: int, incoming: int) -> ProtocolGen:
        """Block at home until ``incoming`` distinct ACTIVATE colors arrive.

        Returns the incoming active set D as map home nodes (via the colors
        of the activation signs and the map's home-base registry).
        """
        self.obs_clock.enter(AWAIT)

        def ready(view: NodeView) -> bool:
            colors = {
                s.color
                for s in view.signs
                if s.kind == ACTIVATE
                and s.payload == (phase_id,)
                and s.color is not None
            }
            return len(colors) >= incoming

        view = yield WaitUntil(ready, reason=f"activation for phase {phase_id}")
        colors = {
            s.color
            for s in view.signs
            if s.kind == ACTIVATE and s.payload == (phase_id,)
        }
        return {self._map.homebase_node_of(c) for c in colors}

    # ------------------------------------------------------------------
    # AGENT-REDUCE (Figure 4)
    # ------------------------------------------------------------------

    def _agent_phase(self, spec: PhaseSpec, incoming: Set[int]) -> ProtocolGen:
        """One AGENT-REDUCE phase.  Returns the survivor set (final S) if
        this agent survives, or ``None`` if it became passive."""
        phase = spec.phase_id
        joining = set(self._structure.classes[spec.class_index])
        me = self._map.home

        if spec.incoming <= spec.class_size:
            searchers, waiters = set(incoming), set(joining)
        else:
            searchers, waiters = set(joining), set(incoming)

        i_search = me in searchers
        i_wait = me in waiters
        if not (i_search or i_wait):
            raise ProtocolError("agent entered a phase it does not belong to")

        for rnd_idx, rnd in enumerate(spec.agent_rounds, start=1):
            if len(searchers) != rnd.searchers or len(waiters) != rnd.waiters:
                raise ProtocolError("role sets diverged from the schedule")
            yield Log(
                "agent-round",
                (phase, rnd_idx, len(searchers), len(waiters), 1 if i_search else 0),
            )
            if i_search:
                matched_set = yield from self._search_round(
                    phase, rnd_idx, searchers, waiters
                )
            else:
                got_matched = yield from self._wait_round(
                    phase, rnd_idx, rnd.searchers
                )
                if got_matched:
                    # Matched waiting agents turn passive once visited by
                    # every searcher (== all ROUND_DONE signs present).
                    return None
                matched_set = None  # unknown to a still-waiting agent

            if rnd.swap:
                if i_search:
                    new_searchers = waiters - matched_set
                    new_waiters = set(searchers)
                    i_search, i_wait = False, True
                else:
                    # I was waiting, unmatched: I become a searcher.  My new
                    # waiting set is exactly the old searcher set.
                    new_searchers = None  # filled below; I know I belong
                    new_waiters = set(searchers)
                    i_search, i_wait = True, False
                    # Reconstruct my co-searchers lazily: they are the old
                    # waiters minus the matched set, which is readable from
                    # the old waiting homes' boards.
                    matched_set = yield from self._read_matches(
                        phase, rnd_idx, waiters
                    )
                    new_searchers = waiters - matched_set
                searchers, waiters = new_searchers, new_waiters
            else:
                if i_search:
                    waiters = waiters - matched_set
                else:
                    # Still waiting; the searcher set is unchanged and the
                    # shrunken waiting set is irrelevant to a waiter (it
                    # only ever counts ROUND_DONE colors).  Track lazily.
                    matched_set = yield from self._read_matches(
                        phase, rnd_idx, waiters
                    )
                    waiters = waiters - matched_set

        # Sizes are now equal; final S survives, final W turns passive.
        if i_search:
            if me not in searchers:
                raise ProtocolError("searcher lost itself from its role set")
            return set(searchers)
        return None

    def _search_round(
        self,
        phase: int,
        rnd: int,
        searchers: Set[int],
        waiters: Set[int],
    ) -> ProtocolGen:
        """Execute one round as a searcher.  Returns the matched set P."""
        me = self._map.home
        matched_holder = {"done": False}

        def match_visit(node: int, view: NodeView) -> ProtocolGen:
            owner = self._map.homebases[node]

            def posted(v: NodeView) -> bool:
                return _has_status(v, owner, phase, rnd, ROLE_WAITING)

            yield WaitUntil(posted, reason=f"waiting status p{phase} r{rnd}")
            if not matched_holder["done"]:
                if self.matching == "atomic":
                    ok = yield TryAcquire(
                        kind=MATCH, payload=(phase, rnd), capacity=1
                    )
                else:
                    # Test-only TOCTOU variant: the check and the write are
                    # separate atomic actions, so another searcher can slip
                    # a MATCH in between and this round over-matches.
                    fresh = yield Read()
                    ok = not _match_present(fresh, phase, rnd)
                    if ok:
                        yield Write(
                            Sign(
                                kind=MATCH,
                                color=self.color,
                                payload=(phase, rnd),
                            )
                        )
                if ok:
                    matched_holder["done"] = True
            return None

        yield from self._nav.tour(visit=match_visit, only=lambda v: v in waiters)
        if not matched_holder["done"]:
            raise ProtocolError(
                "searcher finished its pass unmatched; violates |W| >= |S|"
            )

        # Announce completion at home, then await every other searcher.
        yield from self._nav.goto(me)
        yield Write(
            Sign(kind=STATUS, color=self.color, payload=(phase, rnd, ROLE_SEARCH_DONE))
        )

        def sync_visit(node: int, view: NodeView) -> ProtocolGen:
            owner = self._map.homebases[node]

            def done(v: NodeView) -> bool:
                return _has_status(v, owner, phase, rnd, ROLE_SEARCH_DONE)

            yield WaitUntil(done, reason=f"searcher sync p{phase} r{rnd}")
            return None

        others = searchers - {me}
        if others:
            yield from self._nav.tour(visit=sync_visit, only=lambda v: v in others)

        # All matches are final: read P and stamp ROUND_DONE everywhere.
        matched: Set[int] = set()

        def readback_visit(node: int, view: NodeView) -> ProtocolGen:
            if _match_present(view, phase, rnd):
                matched.add(node)
            yield Write(Sign(kind=ROUND_DONE, color=self.color, payload=(phase, rnd)))
            return None

        yield from self._nav.tour(visit=readback_visit, only=lambda v: v in waiters)
        if len(matched) != len(searchers):
            raise ProtocolError(
                f"round matched {len(matched)} agents, expected {len(searchers)}"
            )
        yield from self._nav.goto(me)
        return matched

    def _wait_round(self, phase: int, rnd: int, num_searchers: int) -> ProtocolGen:
        """Execute one round as a waiting agent (at home).

        Returns True if this agent was matched this round.
        """
        yield Write(
            Sign(kind=STATUS, color=self.color, payload=(phase, rnd, ROLE_WAITING))
        )

        def round_over(view: NodeView) -> bool:
            return len(_round_done_colors(view, phase, rnd)) >= num_searchers

        view = yield WaitUntil(round_over, reason=f"round end p{phase} r{rnd}")
        return _match_present(view, phase, rnd)

    def _read_matches(self, phase: int, rnd: int, waiters: Set[int]) -> ProtocolGen:
        """Tour the waiting homes and read which were matched in a round."""
        matched: Set[int] = set()

        def visit(node: int, view: NodeView) -> ProtocolGen:
            if _match_present(view, phase, rnd):
                matched.add(node)
            return None
            yield  # pragma: no cover - makes this a generator

        yield from self._nav.tour(visit=visit, only=lambda v: v in waiters)
        yield from self._nav.goto(self._map.home)
        return matched

    # ------------------------------------------------------------------
    # NODE-REDUCE (Section 3.3.2)
    # ------------------------------------------------------------------

    def _node_phase(self, spec: PhaseSpec, incoming: Set[int]) -> ProtocolGen:
        """One NODE-REDUCE phase.  Returns the survivor set, or ``None``."""
        phase = spec.phase_id
        me = self._map.home
        active = set(incoming)
        selected = set(self._structure.classes[spec.class_index])

        for rnd_idx, rnd in enumerate(spec.node_rounds, start=1):
            if len(active) != rnd.agents or len(selected) != rnd.nodes:
                raise ProtocolError("node phase sets diverged from schedule")
            yield Log(
                "node-round",
                (phase, rnd_idx, len(active), len(selected), rnd.case),
            )

            acquired_mine: Set[int] = set()
            capacity = rnd.q if rnd.case == 1 else 1
            quota = 1 if rnd.case == 1 else rnd.q

            def acquire_visit(node: int, view: NodeView) -> ProtocolGen:
                if len(acquired_mine) < quota:
                    ok = yield TryAcquire(
                        kind=NODE_ACQUIRED,
                        payload=(phase, rnd_idx),
                        capacity=capacity,
                    )
                    if ok:
                        acquired_mine.add(node)
                return None

            yield from self._nav.tour(
                visit=acquire_visit, only=lambda v: v in selected
            )
            if rnd.case == 2 and len(acquired_mine) != rnd.q:
                raise ProtocolError(
                    f"case-2 agent acquired {len(acquired_mine)} of {rnd.q} nodes"
                )

            # Round-end synchronization among the active agents.
            yield from self._nav.goto(me)
            yield Write(
                Sign(
                    kind=STATUS,
                    color=self.color,
                    payload=(phase, rnd_idx, ROLE_NODE_DONE),
                )
            )

            def sync_visit(node: int, view: NodeView) -> ProtocolGen:
                owner = self._map.homebases[node]

                def done(v: NodeView) -> bool:
                    return _has_status(v, owner, phase, rnd_idx, ROLE_NODE_DONE)

                yield WaitUntil(done, reason=f"node sync p{phase} r{rnd_idx}")
                return None

            others = active - {me}
            if others:
                yield from self._nav.tour(
                    visit=sync_visit, only=lambda v: v in others
                )

            # Read the round's acquisition outcome.
            acquirer_colors: Set[Color] = set()
            taken_nodes: Set[int] = set()

            def outcome_visit(node: int, view: NodeView) -> ProtocolGen:
                for s in view.signs:
                    if s.kind == NODE_ACQUIRED and s.payload == (phase, rnd_idx):
                        if s.color is not None:
                            acquirer_colors.add(s.color)
                        taken_nodes.add(node)
                return None
                yield  # pragma: no cover

            yield from self._nav.tour(
                visit=outcome_visit, only=lambda v: v in selected
            )

            if rnd.case == 1:
                acquirer_homes = {
                    self._map.homebase_node_of(c) for c in acquirer_colors
                }
                if len(acquirer_homes) != rnd.agents - rnd.rho:
                    raise ProtocolError("case-1 acquisition count mismatch")
                active -= acquirer_homes
                if acquired_mine:
                    yield from self._nav.goto(me)
                    return None
            else:
                if len(taken_nodes) != rnd.nodes - rnd.rho:
                    raise ProtocolError("case-2 acquisition count mismatch")
                selected -= taken_nodes

        yield from self._nav.goto(me)
        return active

    # ------------------------------------------------------------------
    # Terminal states
    # ------------------------------------------------------------------

    def _become_leader(self) -> ProtocolGen:
        """Tour the whole network announcing leadership, then finish."""
        self.obs_clock.enter(ANNOUNCE)

        def visit(node: int, view: NodeView) -> ProtocolGen:
            yield Write(Sign(kind=LEADER_ANNOUNCE, color=self.color))
            return None

        yield from self._nav.tour(visit=visit)
        return AgentReport(verdict=Verdict.LEADER, leader_color=self.color)

    def _await_announcement(self) -> ProtocolGen:
        """Wait at home for the leader's announcement sign."""
        self.obs_clock.enter(AWAIT)
        yield from self._nav.goto(self._map.home)

        def announced(view: NodeView) -> bool:
            return _leader_sign(view) is not None

        view = yield WaitUntil(announced, reason="leader announcement")
        leader = _leader_sign(view)
        return AgentReport(verdict=Verdict.DEFEATED, leader_color=leader)
