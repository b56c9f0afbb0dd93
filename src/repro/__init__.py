"""repro — qualitative leader election among mobile agents.

A faithful, executable reproduction of

    L. Barrière, P. Flocchini, P. Fraigniaud, N. Santoro,
    "Can we elect if we cannot compare?", 15th ACM SPAA, 2003.

Layers (each usable on its own):

* :mod:`repro.colors` — incomparable labels, the qualitative primitive;
* :mod:`repro.groups` — finite groups, permutation actions, regular
  subgroups (Cayley recognition);
* :mod:`repro.graphs` — anonymous port-labeled networks, Cayley families,
  views/symmetricity, automorphism classes, canonical forms, surroundings;
* :mod:`repro.sim` — the asynchronous mobile-agent runtime (whiteboards,
  schedulers, map-drawing DFS) and the Figure 1 message-passing engine;
* :mod:`repro.core` — protocol ELECT, its effectual Cayley variant, the
  quantitative baseline, the Petersen counterexample protocol, and the
  feasibility theory (Theorems 2.1/3.1/4.1);
* :mod:`repro.analysis` — experiment harness reproducing the paper's table
  and figures;
* :mod:`repro.trace` — structured event tracing, deterministic replay, and
  trace-level invariant auditing for the runtime.

Quickstart::

    from repro import cycle_graph, Placement, run_elect
    outcome = run_elect(cycle_graph(5), Placement.of([0, 1]))
    assert outcome.elected
"""

from .apps import GatheringAgent, run_gathering
from .colors import Color, ColorSpace, LocalColorEncoding, qualitative_symbols
from .core import (
    AgentReport,
    CayleyElectAgent,
    ElectAgent,
    ElectionOutcome,
    Feasibility,
    PetersenDuelAgent,
    Placement,
    QuantitativeAgent,
    Verdict,
    all_placements,
    classify,
    compute_class_structure,
    elect_prediction,
    run_cayley_elect,
    run_elect,
    run_election,
    run_petersen_duel,
    run_quantitative,
)
from .errors import (
    DeadlockError,
    GraphError,
    GroupError,
    IncomparabilityError,
    InvariantViolation,
    PlacementError,
    ProtocolError,
    ReplayDivergence,
    ReproError,
    SimulationError,
    StepBudgetExceeded,
    TraceError,
)
from .graphs import (
    AnonymousNetwork,
    CayleyGraph,
    complete_graph,
    cycle_cayley,
    cycle_graph,
    grid_graph,
    hypercube_cayley,
    path_graph,
    petersen_graph,
    star_graph,
    torus_cayley,
)
from .sim import (
    RandomScheduler,
    RecordingScheduler,
    RoundRobinScheduler,
    Scheduler,
    Simulation,
    default_scheduler_suite,
)
from .trace import (
    JsonlSink,
    MemorySink,
    ReplayScheduler,
    TraceEvent,
    TraceHeader,
    TraceSink,
    assert_invariants,
    audit_trace,
    load_trace,
    record_run,
    replay_trace,
    summarize,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # colors
    "Color",
    "ColorSpace",
    "LocalColorEncoding",
    "qualitative_symbols",
    # errors
    "ReproError",
    "IncomparabilityError",
    "GroupError",
    "GraphError",
    "PlacementError",
    "SimulationError",
    "DeadlockError",
    "StepBudgetExceeded",
    "ProtocolError",
    "TraceError",
    "ReplayDivergence",
    "InvariantViolation",
    # graphs
    "AnonymousNetwork",
    "CayleyGraph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "petersen_graph",
    "cycle_cayley",
    "hypercube_cayley",
    "torus_cayley",
    # sim
    "Simulation",
    "Scheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "RecordingScheduler",
    "default_scheduler_suite",
    # trace
    "TraceEvent",
    "TraceHeader",
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "ReplayScheduler",
    "record_run",
    "replay_trace",
    "load_trace",
    "summarize",
    "audit_trace",
    "assert_invariants",
    # core
    "Placement",
    "all_placements",
    "ElectAgent",
    "CayleyElectAgent",
    "QuantitativeAgent",
    "PetersenDuelAgent",
    "AgentReport",
    "ElectionOutcome",
    "Verdict",
    "Feasibility",
    "classify",
    "elect_prediction",
    "compute_class_structure",
    "run_election",
    "run_elect",
    "run_cayley_elect",
    "run_quantitative",
    "run_petersen_duel",
    "GatheringAgent",
    "run_gathering",
]
