"""Theorem 3.1 budget gauges: cost accounting against ``C·r·|E|``.

Theorem 3.1 bounds protocol ELECT at ``O(r·|E|)`` total moves and
whiteboard accesses.  The trace subsystem audits that bound *post hoc*
(:func:`repro.trace.invariants.check_theorem31`); this module keeps it
as gauges in the process registry: a :class:`~repro.sim.runtime.Simulation`
run while that registry is enabled builds a :class:`BudgetTracker` with
the instance parameters when the run starts and settles it once, with
the run's move and access totals, when the run ends.  A caller driving a tracker
directly may record as it goes (each call takes a count), and then an
overrun is found at the call that crosses it.

Gauges (labels: ``resource`` ∈ {moves, accesses}, plus any instance
labels the caller adds):

* ``theorem31_budget``    — the bound ``C·r·|E|`` (constant);
* ``theorem31_used``      — resources consumed so far;
* ``theorem31_headroom``  — ``budget - used`` (goes negative on overrun);
* ``theorem31_overrun``   — 0/1 flag.

On the first overrun of either resource the tracker records a structured
:class:`~repro.obs.registry.ObsFinding` ("theorem-3.1-budget") on the
registry it was built against; with ``strict=True`` it additionally raises
:class:`~repro.errors.InvariantViolation`.  The default is to record, not
raise — the constant ``C`` is an empirical envelope (it mirrors the E7
benchmark's bound), and observability must never kill the observed run.
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import InvariantViolation
from .registry import ObsFinding, get_registry

#: The Theorem 3.1 ``O(r·|E|)`` bound constant — the bound the E7
#: complexity benchmark asserts across the instance sweep.  The
#: trace-level audit imports it as
#: :data:`repro.trace.invariants.THEOREM31_CONSTANT`.
DEFAULT_CONSTANT = 15.0

MOVES = "moves"
ACCESSES = "accesses"


class BudgetTracker:
    """``O(r·|E|)`` accounting for one simulation run.

    Built by :class:`repro.sim.runtime.Simulation` when metrics are
    enabled and settled with the run's totals when it ends; exposed for
    direct use by experiments that drive the runtime themselves.
    """

    __slots__ = (
        "registry", "budget", "num_agents", "num_edges", "constant",
        "strict", "_labels", "_used", "_overrun",
        "_g_used", "_g_headroom", "_g_overrun",
    )

    def __init__(
        self,
        num_agents: int,
        num_edges: int,
        constant: float = DEFAULT_CONSTANT,
        strict: bool = False,
        **labels: Any,
    ):
        self.registry = get_registry()
        self.num_agents = num_agents
        self.num_edges = num_edges
        self.constant = constant
        self.strict = strict
        self.budget = constant * num_agents * max(1, num_edges)
        self._labels = dict(labels)
        self._used = {MOVES: 0, ACCESSES: 0}
        self._overrun = {MOVES: False, ACCESSES: False}

        reg = self.registry
        reg.gauge(
            "theorem31_budget",
            help="Theorem 3.1 bound C*r*|E| on moves and whiteboard accesses",
        ).set(self.budget, resource=MOVES, **labels)
        reg.gauge("theorem31_budget").set(self.budget, resource=ACCESSES, **labels)
        self._g_used = reg.gauge(
            "theorem31_used", help="resources consumed so far this run"
        )
        self._g_headroom = reg.gauge(
            "theorem31_headroom", help="budget minus used (negative = overrun)"
        )
        self._g_overrun = reg.gauge(
            "theorem31_overrun", help="1 once the Theorem 3.1 bound is exceeded"
        )
        for resource in (MOVES, ACCESSES):
            self._g_used.set(0, resource=resource, **labels)
            self._g_headroom.set(self.budget, resource=resource, **labels)
            self._g_overrun.set(0, resource=resource, **labels)

    # -- recording ---------------------------------------------------------

    def record_move(self, count: int = 1) -> None:
        self._record(MOVES, count)

    def record_access(self, count: int = 1) -> None:
        self._record(ACCESSES, count)

    def _record(self, resource: str, count: int) -> None:
        used = self._used[resource] + count
        self._used[resource] = used
        self._g_used.set(used, resource=resource, **self._labels)
        self._g_headroom.set(
            self.budget - used, resource=resource, **self._labels
        )
        if used > self.budget and not self._overrun[resource]:
            self._overrun[resource] = True
            self._g_overrun.set(1, resource=resource, **self._labels)
            finding = ObsFinding(
                name="theorem-3.1-budget",
                detail=(
                    f"{resource} exceeded {self.constant}·r·|E| = "
                    f"{self.budget:.0f} (r={self.num_agents}, "
                    f"|E|={self.num_edges})"
                ),
                stats={
                    "budget": self.budget,
                    "used": float(used),
                    "constant": self.constant,
                    "num_agents": float(self.num_agents),
                    "num_edges": float(self.num_edges),
                },
            )
            self.registry.add_finding(finding)
            if self.strict:
                raise InvariantViolation(str(finding))

    # -- inspection --------------------------------------------------------

    def used(self, resource: str = MOVES) -> int:
        return self._used[resource]

    def headroom(self, resource: str = MOVES) -> float:
        return self.budget - self._used[resource]

    @property
    def overrun(self) -> bool:
        return self._overrun[MOVES] or self._overrun[ACCESSES]

    def summary(self) -> Dict[str, Any]:
        """JSON-safe state for reports."""
        return {
            "budget": self.budget,
            "constant": self.constant,
            "num_agents": self.num_agents,
            "num_edges": self.num_edges,
            "used": dict(self._used),
            "overrun": self.overrun,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BudgetTracker(budget={self.budget:.0f}, "
            f"moves={self._used[MOVES]}, accesses={self._used[ACCESSES]})"
        )
