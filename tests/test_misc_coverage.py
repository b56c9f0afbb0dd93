"""Cross-cutting coverage: error hierarchy, runner guards, action helpers."""

import importlib
import pkgutil

import pytest

import repro
from repro import errors
from repro.colors import ColorSpace
from repro.core import Placement, run_election, run_quantitative
from repro.graphs import cycle_graph
from repro.sim import Agent, NodeView, Sign
from repro.sim.actions import NodeView as ActionNodeView


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "IncomparabilityError",
            "GroupError",
            "GraphError",
            "PlacementError",
            "SimulationError",
            "DeadlockError",
            "StepBudgetExceeded",
            "ProtocolError",
            "RecognitionError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_simulation_errors_nest(self):
        assert issubclass(errors.DeadlockError, errors.SimulationError)
        assert issubclass(errors.StepBudgetExceeded, errors.SimulationError)


class TestRunnerGuards:
    def test_agent_returning_non_report_rejected(self):
        class Rogue(Agent):
            def protocol(self, start):
                return 42
                yield  # pragma: no cover

        net = cycle_graph(5)
        with pytest.raises(TypeError):
            run_election(
                net,
                Placement.of([0]),
                lambda c, rng: Rogue(c, rng=rng),
            )

    def test_quantitative_label_count_mismatch(self):
        net = cycle_graph(5)
        with pytest.raises(ValueError):
            run_quantitative(net, Placement.of([0, 1]), labels=[1, 2, 3])

    def test_explicit_colors_are_used(self):
        from repro.core import run_elect

        net = cycle_graph(5)
        colors = ColorSpace(prefix="mine").fresh_many(2)
        outcome = run_elect(net, Placement.of([0, 1]), colors=colors, seed=1)
        assert outcome.leader_color in colors


class TestNodeViewHelpers:
    def test_signs_of_filters(self):
        space = ColorSpace()
        c = space.fresh()
        signs = (
            Sign(kind="a", color=c, payload=(1,)),
            Sign(kind="a", color=c, payload=(2,)),
            Sign(kind="b", color=c),
        )
        view = ActionNodeView(degree=2, ports=(1, 2), signs=signs)
        assert len(view.signs_of("a")) == 2
        assert len(view.signs_of("a", (1,))) == 1
        assert view.signs_of("zzz") == []

    def test_entry_port_defaults_none(self):
        view = ActionNodeView(degree=0, ports=(), signs=())
        assert view.entry_port is None


class TestPackageSurface:
    def test_version_exposed(self):
        import repro

        assert repro.__version__

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_graphs_exports_resolve(self):
        import repro.graphs as graphs

        for name in graphs.__all__:
            assert hasattr(graphs, name), name

    def test_sim_exports_resolve(self):
        import repro.sim as sim

        for name in sim.__all__:
            assert hasattr(sim, name), name

    def test_core_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_groups_exports_resolve(self):
        import repro.groups as groups

        for name in groups.__all__:
            assert hasattr(groups, name), name

    @pytest.mark.parametrize(
        "package",
        sorted(
            info.name
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ),
    )
    def test_every_package_star_import_resolves(self, package):
        module = importlib.import_module(f"repro.{package}")
        namespace: dict = {}
        exec(f"from repro.{package} import *", namespace)
        assert set(module.__all__) <= set(namespace)
