"""Per-layer tracing: spans around the public functions of each layer.

The traced pass of a workload installs a :class:`Tracer` over the layer
functions listed in :data:`LAYERS`.  Installation patches *every* binding
a caller can look the function up through -- the defining module, every
``repro.*`` module that imported it by name, and class attributes for
methods -- and :meth:`Tracer.uninstall` puts the originals back.  Nothing
under ``src/`` is edited.

Spans nest on one process-wide stack.  That is sound for the workloads
here: the campaigns are single-threaded, and the serve workload has one
closed-loop client, so while a request is open exactly one thread (the
server's executor) runs traced code beneath it.  A span that closes out
of order is counted in :attr:`Tracer.nesting_errors` (the tests pin 0).

A layer's self time is its span time minus the time of the spans opened
inside it.  Bookkeeping the tracer does for the derived metrics
(``unique_frac`` inputs, map sizes) is timed and charged to no layer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(layer name, module, attribute path, kind)``.  ``kind`` is ``func``
#: (module function), ``method`` (``Class.method``), ``gen`` (generator
#: function: timed only while resumed) or ``factory`` (a function that
#: builds a callable: both the building and every call of what it built
#: count to the layer).  Layer names follow the modules.
LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.ordering.compute_class_structure", "repro.core.ordering", "compute_class_structure", "func"),
    ("core.ordering.order_equivalence_classes", "repro.graphs.surroundings", "order_equivalence_classes", "func"),
    ("graphs.automorphisms.equivalence_classes", "repro.graphs.automorphisms", "equivalence_classes", "func"),
    ("graphs.views.view_refinement", "repro.graphs.views", "view_refinement", "func"),
    # The digraph refinement behind surroundings and canonical keys, the
    # refinement COMPUTE & ORDER runs: the one-shot entry point and the
    # refiners an individualization-refinement search builds.
    ("graphs.canonical.digraph_refinement", "repro.graphs.canonical", "digraph_refinement", "func"),
    ("graphs.canonical.digraph_refinement", "repro.graphs.canonical", "_make_refiner", "factory"),
    ("core.feasibility.elect_prediction", "repro.core.feasibility", "elect_prediction", "func"),
    ("sim.runtime.run", "repro.sim.runtime", "Simulation.run", "method"),
    ("sim.traversal.draw_map", "repro.sim.traversal", "draw_map", "gen"),
    ("core.reduce_phases.build_schedule", "repro.core.reduce_phases", "build_schedule", "func"),
    ("fault.plan.install", "repro.fault.plan", "FaultPlan.install", "method"),
    ("fault.detect.sweep", "repro.fault.detect", "CheatDetector.sweep", "method"),
    ("trace.invariants.audit_trace", "repro.trace.invariants", "audit_trace", "func"),
    ("core.result.aggregate", "repro.core.result", "aggregate", "func"),
    ("obs.ledger.append_with_checkpoint", "repro.obs.ledger", "RunLedger.append_with_checkpoint", "method"),
    ("campaign.engine", "repro.campaign.engine", "CampaignEngine.run", "method"),
    ("serve.service.answer_batch", "repro.serve.service", "ElectionService.answer_batch", "method"),
    ("serve.service.compute_payload", "repro.serve.service", "compute_payload", "func"),
    ("serve.store.get", "repro.serve.store", "CanonicalStore.get", "method"),
    ("serve.store.put", "repro.serve.store", "CanonicalStore.put", "method"),
    ("graphs.canonical.canonical_hash", "repro.graphs.canonical", "canonical_hash", "func"),
)

#: Refinement layers whose mean input size is reported (``.mean_n``).
REFINE_LAYERS = ("graphs.views.view_refinement", "graphs.canonical.digraph_refinement")

#: Spans the benchmark opens itself, around calls it makes into the
#: program: one campaign case (``spec.evaluate``) and one HTTP request as
#: the client sees it.
CASE_SPAN = "campaign.evaluate"
HTTP_SPAN = "serve.http"

#: Every layer reported, in report order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, *_ in LAYERS)) + (
    CASE_SPAN,
    HTTP_SPAN,
)


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """In-memory span accounting: calls and self time per layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stack: List[_Frame] = []
        self.calls: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.nesting_errors = 0
        #: Node counts of the graphs each refinement layer was handed.
        self.refine_sizes: Dict[str, List[int]] = {name: [] for name in REFINE_LAYERS}
        #: ``(n, edges, bicoloring)`` of each ``compute_class_structure``
        #: call, hashed after the pass for ``unique_frac``.
        self.class_inputs: List[Tuple[int, Tuple[Any, ...], Tuple[int, ...]]] = []
        #: Summed ``steps`` / total moves of completed simulations.
        self.sim_steps = 0
        self.sim_moves = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, count: bool = True) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        with self._lock:
            if count:
                self.calls[name] += 1
            self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        duration = end - frame.start
        with self._lock:
            if self._stack and self._stack[-1] is frame:
                self._stack.pop()
            else:
                self.nesting_errors += 1
                self._stack.remove(frame)
            self.self_s[frame.name] += duration - frame.child
            if self._stack:
                self._stack[-1].child += duration

    def _bookkeep(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` and charge its time to no layer."""
        start = time.perf_counter()
        hook()
        spent = time.perf_counter() - start
        with self._lock:
            if self._stack:
                self._stack[-1].child += spent

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                tracer._bookkeep(lambda: before(*args, **kwargs))
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                tracer._bookkeep(lambda: after(result))
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Time a generator function only while it runs (each resume)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            gen = fn(*args, **kwargs)
            with tracer._lock:
                tracer.calls[name] += 1
            sent: Any = None
            thrown: Optional[BaseException] = None
            while True:
                frame = tracer.enter(name, count=False)
                try:
                    if thrown is not None:
                        item = gen.throw(thrown)
                    else:
                        item = gen.send(sent)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.exit(frame)
                thrown = None
                try:
                    sent = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the generator
                    thrown, sent = exc, None

        return traced

    def wrap_factory(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.enter(name, count=False)
            try:
                made = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            # The built refiner works on the graph its builder was given.
            sizes, size = tracer.refine_sizes[name], args[0].num_nodes
            return tracer.wrap(name, made, before=lambda *a, **k: sizes.append(size))

        return traced

    # -- hooks for the derived metrics -------------------------------------

    def _recorder(self, name: str) -> Callable[..., None]:
        def record(graph: Any, *args: Any, **kwargs: Any) -> None:
            self.refine_sizes[name].append(graph.num_nodes)

        return record

    def _record_class_input(self, network: Any, bicoloring: Any) -> None:
        self.class_inputs.append(
            (network.num_nodes, network.edges(), tuple(bicoloring))
        )

    def _record_sim(self, result: Any) -> None:
        self.sim_steps += result.steps
        self.sim_moves += result.total_moves

    def _hooks(self, name: str) -> Tuple[Optional[Callable[..., None]], Optional[Callable[[Any], None]]]:
        if name in REFINE_LAYERS:
            return self._recorder(name), None
        if name == "core.ordering.compute_class_structure":
            return self._record_class_input, None
        if name == "sim.runtime.run":
            return None, self._record_sim
        return None, None

    # -- install / uninstall -----------------------------------------------

    def install(self) -> "Tracer":
        """Patch every binding of every layer function."""
        import importlib

        for name, module_name, attr, kind in LAYERS:
            module = importlib.import_module(module_name)
            if kind == "method":
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                before, after = self._hooks(name)
                self._patch(owner, meth, self.wrap(name, original, before, after))
                continue
            original = getattr(module, attr)
            if kind == "gen":
                wrapper = self.wrap_generator(name, original)
            elif kind == "factory":
                wrapper = self.wrap_factory(name, original)
            else:
                before, after = self._hooks(name)
                wrapper = self.wrap(name, original, before, after)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- report ------------------------------------------------------------

    def unique_frac(self) -> float:
        """Distinct ``canonical_hash`` values of the class-structure inputs
        over calls.  Call after :meth:`uninstall` (it hashes untraced)."""
        if not self.class_inputs:
            return 0.0
        from repro.errors import ReproError
        from repro.graphs.canonical import canonical_hash
        from repro.graphs.network import AnonymousNetwork

        hashes = set()
        for n, edges, colors in self.class_inputs:
            try:
                hashes.add(canonical_hash(AnonymousNetwork(n, edges), list(colors)))
            except ReproError:
                # A map a liar made non-simple has no canonical hash; it
                # counts as distinct unless drawn identically again.
                hashes.add((n, edges, colors))
        return len(hashes) / len(self.class_inputs)

    def layer_metrics(self, wall_s: float) -> Dict[str, Tuple[float, str]]:
        """``<layer>.calls`` / ``.self_s`` / ``.share`` for every layer."""
        out: Dict[str, Tuple[float, str]] = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = (float(self.calls[name]), "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            share = self.self_s[name] / wall_s if wall_s > 0 else 0.0
            out[f"{name}.share"] = (share, "fraction")
        for name, sizes in self.refine_sizes.items():
            mean = sum(sizes) / len(sizes) if sizes else 0.0
            out[f"{name}.mean_n"] = (mean, "nodes")
        out["core.ordering.unique_frac"] = (self.unique_frac(), "fraction")
        return out
